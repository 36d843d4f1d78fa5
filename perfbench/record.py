"""Record the exact answer of every instance in a workload's universe.

    python3 perfbench/record.py [workload ...]

Runs each instance once, untraced, and writes
``perfbench/expected/<workload>.json``: per stratum, one
``[instance text digest, answer digest]`` pair per instance.  Refuses to
write when any instance fails its in-run checks.  Re-record only when the
benchmark's instances or answer formats change, never to make a changed
program pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads as wl


def record(workload, workdir):
    gk = run.import_ghkit()
    instances = run.generate(gk, workload, workdir)
    out, failures = {}, []
    for s in workload.strata:
        rows = []
        t0 = time.perf_counter()
        for j in range(s.size):
            inst = instances[s.name, j]
            try:
                answer = s.run(gk, inst)
            except Exception as e:  # report every failing instance, then refuse
                failures.append(f"{s.name}/{j}: {type(e).__name__}: {e}")
                continue
            rows.append([wl.digest(inst.text), wl.digest(answer)])
        out[s.name] = rows
        print(f"{workload.name}/{s.name}: {s.size} instances in "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
    return out, failures


def main(argv):
    names = argv or sorted(wl.WORKLOADS)
    sys.path.insert(0, str(run.SRC))
    workdir = run.OUT / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    status = 0
    try:
        for name in names:
            answers, failures = record(wl.WORKLOADS[name], workdir)
            if failures:
                print("\n".join(failures), file=sys.stderr)
                status = 1
                continue
            with open(run.HERE / "expected" / f"{name}.json", "w") as fh:
                json.dump(answers, fh, indent=0)
                fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
