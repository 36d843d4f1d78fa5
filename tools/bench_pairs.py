"""Before/after numbers for a change: alternating pairs of perfbench runs.

    python3 tools/bench_pairs.py --base HEAD --out BENCH_<n>.json \\
        --pairs cut-oracles=6,gh-trees=3,flowcheck=3,minor-search=3

Run from the root of the repository.  The base side is the committed
files of ``--base`` (``git archive``); the change side is the working
tree's tracked and untracked, not ignored, files.  Each side is copied
into its own temporary directory, so ``perfbench/run.py`` runs on each
exactly as it would in a fresh checkout.

For every workload, pair i runs ``perfbench/run.py --seed <seed + i>`` on
both sides, base first in even pairs and change first in odd ones, so
that drift in machine speed falls on both sides alike.  After the pairs,
three ``--trace 1`` passes per side, alternating in the same way, give
the per-layer metrics: ``traced`` holds each metric's median over a
side's passes, and the script stops if a work count (a per-layer metric
of unit ``count``) differs between one side's passes.
``counts_changed`` lists the work counts whose traced values differ
between the sides.
The output file holds the environment, every pair, and per
end-to-end metric the median and interquartile range of each side, the
ratio of the medians (change / base), the number of pairs the change
wins, the metric's bound from ``BENCHMARK.json`` and a verdict (see
``verdict``).  A run that reports a failure or exits non-zero stops the
script.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

TRACE_SEED = 11  # a traced pass is the same work for every seed
TRACE_PASSES = 3


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True).stdout


def export_revision(repo, rev, dest):
    """The committed files of `rev`, unpacked under `dest`."""
    data = git("archive", "--format=tar", rev, cwd=repo)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def export_working_tree(repo, dest):
    """The working tree's tracked and untracked, not ignored, files."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=repo)
    for name in names.decode().split("\0"):
        src = repo / name
        if name and src.is_file():  # a tracked file may be deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_bench(tree, workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} in {tree}: exit {proc.returncode}\n{proc.stderr}")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    if result["failed"]:
        raise SystemExit(f"{workload} seed {seed} in {tree}: {result['failed']} failed instances")
    return detail, result


def spread(values):
    """Median and interquartile range (q3 - q1)."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def verdict(base_median, base_iqr, change_median, wins, pairs, higher, bound):
    """How the change compares on one metric, in this order:

    - "better": it wins at least 9/10 of the pairs (ties count for
      neither side) and its median is better than the base median by
      more than the base IQR;
    - "worse": its median is worse than the base median by more than
      ``bound`` times the base median;
    - "unresolved": the base IQR is wider than ``bound`` times the base
      median, and not every pair favours the change;
    - "within bound": anything else.
    """
    gain = change_median - base_median if higher else base_median - change_median
    if 10 * wins >= 9 * pairs and gain > base_iqr:
        return "better"
    if -gain > bound * base_median:
        return "worse"
    if base_iqr > bound * base_median and wins < pairs:
        return "unresolved"
    return "within bound"


def summarise(pairs, end_to_end):
    out = {}
    for m in end_to_end:
        name = m["name"]
        base = [p["base"][name] for p in pairs]
        head = [p["change"][name] for p in pairs]
        base_median, base_iqr = spread(base)
        head_median, head_iqr = spread(head)
        higher = m["better"] == "higher"
        wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "base_median": base_median,
            "base_iqr": base_iqr,
            "change_median": head_median,
            "change_iqr": head_iqr,
            "ratio": head_median / base_median if base_median else None,
            "wins": wins,
            "pairs": len(pairs),
            "verdict": verdict(base_median, base_iqr, head_median, wins, len(pairs), higher, m["bound"]),
        }
    return out


def order(i):
    """The sides in the order pair (or traced pass) i runs them."""
    return ("base", "change") if i % 2 == 0 else ("change", "base")


def traced_medians(runs, per_layer, side):
    """{name: median} over one side's traced runs, for every metric of the
    first run; SystemExit if a work count differs between the runs."""
    for m in per_layer:
        values = [r.get(m["name"]) for r in runs]
        if m["unit"] == "count" and len(set(values)) > 1:
            raise SystemExit(f"{side}: work count {m['name']} differs between traced passes: {values}")
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def counts_changed(traced, per_layer):
    """{name: {"base": value, "change": value}} for each per-layer metric
    of unit "count" whose traced value differs between the two sides (a
    count missing on one side reads None there)."""
    out = {}
    for m in per_layer:
        name = m["name"]
        if m["unit"] == "count":
            base, change = traced["base"].get(name), traced["change"].get(name)
            if base != change:
                out[name] = {"base": base, "change": change}
    return out


def parse_pairs(text, workloads):
    """{workload: count} from "name=count,...", in order; ValueError unless
    each name is one of `workloads`, appears once and has a count >= 1."""
    out = {}
    for item in text.split(","):
        name, eq, count = (part.strip() for part in item.partition("="))
        if name not in workloads:
            raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(workloads)}")
        if name in out:
            raise ValueError(f"workload {name!r} given twice")
        if not eq or not count.isdigit() or int(count) < 1:
            raise ValueError(f"{item.strip()!r}: expected {name}=<count>, a count of at least 1")
        out[name] = int(count)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", default="HEAD", help="git revision of the base side")
    p.add_argument("--pairs", required=True, help="workload=count,... in the order to run")
    p.add_argument("--seed", type=int, default=301, help="seed of the first pair")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    try:
        counts = parse_pairs(args.pairs, [w["name"] for w in spec["workloads"]])
    except ValueError as e:
        p.error(f"--pairs: {e}")
    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).decode().strip())
    base_rev = git("rev-parse", args.base, cwd=repo).decode().strip()

    report = {
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "base": base_rev,
        "change": f"working tree on {git('rev-parse', 'HEAD', cwd=repo).decode().strip()}",
        "seconds": seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        export_revision(repo, base_rev, trees["base"])
        export_working_tree(repo, trees["change"])

        for workload, count in counts.items():
            pairs = []
            for i in range(count):
                seed = args.seed + i
                pair = {"seed": seed, "first": order(i)[0]}
                for side in order(i):
                    detail, result = run_bench(trees[side], workload, seed, seconds)
                    pair[side] = {k: v["value"] for k, v in result["metrics"].items()}
                    pair[side]["attempted"] = result["attempted"]
                    pair[side + "_source_sha256"] = detail["environment"]["source_sha256"]
                print(f"{workload} pair {i}: " + ", ".join(
                    f"{s} {pair[s]['instances_per_s']:.1f}/s" for s in order(i)), file=sys.stderr)
                pairs.append(pair)
            runs = {"base": [], "change": []}
            for i in range(TRACE_PASSES):
                for side in order(i):
                    _, result = run_bench(trees[side], workload, TRACE_SEED, 1, trace=1)
                    runs[side].append({k: v["value"] for k, v in result["metrics"].items()})
            traced = {side: traced_medians(r, spec["per_layer"], side) for side, r in runs.items()}
            report["workloads"][workload] = {
                "summary": summarise(pairs, spec["end_to_end"]),
                "pairs": pairs,
                "traced_seed": TRACE_SEED,
                "traced_passes": TRACE_PASSES,
                "counts_changed": counts_changed(traced, spec["per_layer"]),
                "traced": traced,
            }

    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
