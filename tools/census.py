"""The census of the paper's three statements on every connected graph
with n vertices and every Z of at least five of them (``tests/census.py``).

    python3 tools/census.py [n]     # n = 7 by default

Run from the root of the repository.  Prints one JSON line with n, the
count per column, the seconds taken and every fault, and exits 1 if
there is a fault.  The tier-1 tests run n = 5 and 6; n = 7 (853
graphs, 24,737 pairs) takes about 80 s on one core.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from census import census, connected_graphs  # noqa: E402


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    n = int(args[0]) if args else 7
    start = time.perf_counter()
    counts, faults = census(n)
    print(json.dumps({
        "n": n,
        "graphs": len(connected_graphs(n)),
        "counts": dict(sorted(counts.items())),
        "seconds": round(time.perf_counter() - start, 1),
        "faults": [[check, list(edges), list(z)] for check, edges, z in faults],
    }))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
