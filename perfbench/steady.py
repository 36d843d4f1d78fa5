"""Steadiness check: run each workload on several seeds and report spreads.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1] [--workloads a,b]
                                [--seconds S] [--baseline perfbench/baseline.json]

For every workload this runs ``run.py --trace 0`` once per seed, each in
its own process, and reports for every end-to-end metric the distance
between the first and third quartile of its values
(``statistics.quantiles(n=4)``) as a share of their median, next to the
metric's bound from BENCHMARK.json.  It then runs the traced run twice on
the first seed and checks that every work count (every per-layer metric
not measured in seconds, except ``trace.overhead_ratio``) is identical.

Exits 1 if a run fails or is incorrect, a spread exceeds its bound, or
a work count drifts.  ``--baseline`` also writes
the medians with the environment record, as the reference numbers for
later changes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def is_count(metric):
    return metric["unit"] != "s" and metric["name"] != "trace.overhead_ratio"


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--baseline", type=Path)
    args = p.parse_args(argv)

    ok = True
    report = {}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        runs = [bench(workload, s, args.seconds, 0) for s in seeds]
        row = {"runs": [r for _, r in runs], "tail_percentiles": [d["tail_percentile"] for d, _ in runs],
               "environment": runs[0][0]["environment"], "metrics": {}}
        if not all(r["correct"] for _, r in runs):
            print(f"{workload}: incorrect runs", file=sys.stderr)
            ok = False
        print(f"{workload}: instances {[d['instances'] for d, _ in runs]}, "
              f"tail percentiles {sorted(set(row['tail_percentiles']))}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for _, r in runs]
            s, median = spread(values)
            flag = "ok" if s <= m["bound"] / 3 else "within bound" if s <= m["bound"] else "WIDE"
            if flag == "WIDE":
                ok = False
            row["metrics"][m["name"]] = {"median": median, "spread": s, "bound": m["bound"],
                                         "unit": m["unit"]}
            print(f"  {m['name']:18} median {median:12.4f} {m['unit']:4} spread {s:.4f}"
                  f" bound {m['bound']}  {flag}")
        first, second = (bench(workload, args.first_seed, args.seconds, 1)[1] for _ in range(2))
        drift = [m["name"] for m in spec["per_layer"] if is_count(m)
                 and first["metrics"][m["name"]]["value"] != second["metrics"][m["name"]]["value"]]
        row["count_drift"] = drift
        row["trace"] = first
        if drift or not (first["correct"] and second["correct"]):
            ok = False
        print(f"  traced twice on seed {args.first_seed}: correct {first['correct']} "
              f"{second['correct']}, drifting counts {drift or 'none'}")
        report[workload] = row
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))
    if args.baseline:
        baseline = {w: {"environment": r["environment"],
                        "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
                        "tail_percentiles": sorted(set(r["tail_percentiles"])),
                        "end_to_end": r["metrics"],
                        "per_layer_seed_%d" % args.first_seed:
                            {k: v["value"] for k, v in r["trace"]["metrics"].items()}}
                    for w, r in report.items()}
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
