"""ghkit benchmark: one process, no threads, a closed loop over seeded instances.

    python3 perfbench/run.py --workload gh-trees --seed 1 --seconds 20 --trace 0

Run from the root of a source tree holding ``src/ghkit``.  Each instance
starts only after the previous one has finished, and its wall time
includes its answer check.  A run makes whole passes over the workload's
fixed universe of instances, each pass in an order shuffled by
``--seed``, so every run measures the same mix of work.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the details (environment, tail percentile, failures), which are
also written to ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.

``--trace 0`` sets up once (import ghkit, generate and serialise the
instances), then makes passes until ``--seconds`` have elapsed at the
end of a pass, and reports the end-to-end metrics.  It sets up
``SETUP_REPEATS - 1`` more times, spread evenly over the measured
seconds between two instances and left out of their time, and reports
the median of all set-ups as ``setup_s``; the machine's speed drifts
over seconds, and spreading the set-ups lets them see the same drift as
the instances.

``--trace 1`` makes one pass in which every instance runs twice,
untraced and traced, back to back and in alternating order, so both see
the same state of the machine.  It checks that both runs give the same
answers, and reports the per-layer metrics of the traced runs (set-up
included) plus ``trace.overhead_ratio``, the median over the instances
of traced time ÷ untraced time.  A pass is the same work whatever the
seed, so every work count repeats exactly.  The spans are written to
``.perfbench_out/<workload>-seed<seed>-spans.json``.
"""

from __future__ import annotations

import argparse
import importlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
# Candidate tail percentiles, in tenths of a percent, highest first.
TAIL_LADDER = (999, 995, 990, 950, 900, 800, 750, 700, 600, 500)


class SetupError(Exception):
    pass


def nearest_rank(n, p):
    """1-based nearest rank of percentile p (in tenths) among n samples."""
    return -(-n * p // 1000)


def tail_percentile(n):
    """The highest ladder percentile (in tenths) that leaves at least ten
    of n distinct instances beyond it; the median when none does."""
    for p in TAIL_LADDER:
        if n - nearest_rank(n, p) >= 10:
            return p
    return 500


def ghkit_modules():
    return {n: m for n, m in sys.modules.items() if n == "ghkit" or n.startswith("ghkit.")}


def import_ghkit():
    """Import ghkit afresh from this tree's ``src``."""
    for name in ghkit_modules():
        del sys.modules[name]
    importlib.invalidate_caches()
    gk = importlib.import_module("ghkit")
    importlib.import_module("ghkit.cli")  # also loads the suite and dot modules
    if not Path(gk.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"ghkit was imported from {gk.__file__}, not from {SRC}")
    return gk


def generate(gk, workload, workdir):
    """Every instance of the workload's universe, serialised.  Within a
    stratum, an index whose instance repeats an earlier one is skipped."""
    instances = {}
    for s in workload.strata:
        seen = set()
        index = 0
        for j in range(s.size):
            while True:
                if index >= 20 * s.size:
                    raise SetupError(f"stratum {s.name} has fewer than {s.size} distinct instances")
                text, extra = s.make(gk, wl.universe_seed(workload.name, s.name, index))
                index += 1
                if (text, tuple(extra)) not in seen:
                    break
            seen.add((text, tuple(extra)))
            inst = wl.Instance(s.name, text, tuple(extra))
            if s.needs_file:
                inst.path = str(workdir / f"{s.name}-{j}.txt")
                with open(inst.path, "w") as fh:
                    fh.write(text)
            instances[s.name, j] = inst
    return instances


def load_expected(workload, instances):
    """Recorded answer digest per instance; None where the instance text
    no longer matches the recorded one."""
    path = HERE / "expected" / f"{workload.name}.json"
    if not path.exists():
        raise SetupError(f"no recorded answers at {path}; run perfbench/record.py")
    with open(path) as fh:
        recorded = json.load(fh)
    wants = {}
    for (stratum, j), inst in instances.items():
        rows = recorded.get(stratum, [])
        if j >= len(rows):
            wants[stratum, j] = None
        elif rows[j][0] != wl.digest(inst.text):
            wants[stratum, j] = None
        else:
            wants[stratum, j] = rows[j][1]
    return wants


def check_instance(gk, workload, inst, want):
    """Run one trial and compare its answer: (answer digest, failure or None)."""
    try:
        answer = workload.stratum(inst.stratum).run(gk, inst)
    except wl.CheckFailed as e:
        return None, f"check failed: {e}"
    except Exception as e:  # any escape from the program is a failed instance
        return None, f"{type(e).__name__}: {e}"
    got = wl.digest(answer)
    if want is None:
        return got, "no recorded answer for this instance text"
    if got != want:
        return got, "answer differs from the recorded answer"
    return got, None


def run_keys(gk, workload, instances, wants, keys):
    """Run the given instances in order; returns (times, digests, failures)."""
    times, digests, failures = [], [], []
    for key in keys:
        t0 = time.perf_counter()
        got, why = check_instance(gk, workload, instances[key], wants[key])
        times.append(time.perf_counter() - t0)
        digests.append(got)
        if why:
            failures.append({"instance": f"{key[0]}/{key[1]}", "reason": why})
    return times, digests, failures


def setup(workload, workdir):
    """Import ghkit afresh, then generate and serialise the workload's
    universe: (ghkit, instances, seconds taken)."""
    t0 = time.perf_counter()
    gk = import_ghkit()
    instances = generate(gk, workload, workdir)
    return gk, instances, time.perf_counter() - t0


def closed_loop(gk, workload, instances, wants, seed, seconds, aside_at=(), aside=None):
    """Whole passes until `seconds` of loop time have elapsed at the end of
    one.  When the loop time first reaches each point of `aside_at`, calls
    `aside()` between two instances and leaves its time out of the loop
    time.  Returns (times, failures, loop time)."""
    times, failures = [], []
    pending = sorted(aside_at)
    start = time.perf_counter()
    set_aside = 0.0
    for keys in wl.passes(workload, seed):
        for key in keys:
            t, _, f = run_keys(gk, workload, instances, wants, [key])
            times += t
            failures += f
            if pending and time.perf_counter() - start - set_aside >= pending[0]:
                pending.pop(0)
                t0 = time.perf_counter()
                aside()
                set_aside += time.perf_counter() - t0
        if time.perf_counter() - start - set_aside >= seconds:
            return times, failures, time.perf_counter() - start - set_aside


def git_commit(root):
    """Commit of a git checkout at root, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(pkg):
    h = hashlib.sha256()
    for path in sorted(pkg.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC / "ghkit"),
    }


def pick(values, specs):
    """The metrics named in BENCHMARK.json, with their units."""
    out = {}
    for m in specs:
        if m["name"] not in values:
            raise SetupError(f"metric {m['name']!r} is not measured")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def measure(workload, seed, seconds, spec, workdir):
    gk, instances, first = setup(workload, workdir)
    setups = [first]
    wants = load_expected(workload, instances)

    def resetup():
        # a set-up between two instances; the loop keeps the modules it runs on
        loaded = ghkit_modules()
        setups.append(setup(workload, workdir)[2])
        for name in ghkit_modules():
            del sys.modules[name]
        sys.modules.update(loaded)

    spread_at = [seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
    times, failures, elapsed = closed_loop(
        gk, workload, instances, wants, seed, seconds, spread_at, resetup
    )
    ms = sorted(t * 1000 for t in times)
    distinct = len({(inst.text, inst.extra) for inst in instances.values()})
    p = tail_percentile(distinct)
    rank = nearest_rank(len(ms), p)
    values = {
        "instances_per_s": (len(ms) - len(failures)) / elapsed,
        "instance_ms_p50": statistics.median(ms),
        "instance_ms_tail": ms[rank - 1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "instances": len(ms),
        "passes": len(ms) // len(instances),
        "distinct_instances": distinct,
        "elapsed_s": elapsed,
        "tail_percentile": p / 10,
        "tail_samples_beyond": len(ms) - rank,
        "setup_runs_s": setups,
        "failures": failures[:20],
    }
    return pick(values, spec["end_to_end"]), len(ms), len(failures), detail


def trace(workload, seed, spec, workdir):
    tracer = tr.Tracer()
    gk = import_ghkit()
    tracer.install()
    instances = generate(gk, workload, workdir)
    tracer.uninstall()
    wants = load_expected(workload, instances)
    keys = next(wl.passes(workload, seed))
    runs = {False: ([], [], []), True: ([], [], [])}  # untraced, traced
    for i, key in enumerate(keys):
        tracer.instance = i
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                result = run_keys(gk, workload, instances, wants, [key])
            finally:
                tracer.uninstall()
            for acc, part in zip(runs[traced], result):
                acc += part
    (plain_t, plain_d, plain_f), (traced_t, traced_d, traced_f) = runs[False], runs[True]
    failed = {f["instance"] for f in plain_f + traced_f}
    differ = [f"{k[0]}/{k[1]}" for k, a, b in zip(keys, plain_d, traced_d) if a != b]
    failed.update(differ)
    overhead = statistics.median(t / u for t, u in zip(traced_t, plain_t))
    values = tr.derive(tracer, len(keys), overhead)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-seed{seed}-spans.json", "w") as fh:
        json.dump(tracer.to_json(), fh)
    layers = {k: v for k, v in values.items() if k.count(".") == 1 and k.endswith(".self_s")}
    detail = {
        "instances": len(keys),
        "untraced_s": sum(plain_t),
        "traced_s": sum(traced_t),
        "spans": len(tracer.spans),
        "layer_self_s": layers,
        "top_layer": max(layers, key=layers.get) if layers else None,
        "traced_answers_differ": differ,
        "failures": (plain_f + traced_f)[:20],
    }
    return pick(values, spec["per_layer"]), len(keys), len(failed), detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    try:
        if not (SRC / "ghkit" / "__init__.py").exists():
            raise SetupError(f"no ghkit sources under {SRC}")
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        sys.path.insert(0, str(SRC))
        workdir = OUT / f"work-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            if args.trace:
                metrics, attempted, failed, detail = trace(workload, args.seed, spec, workdir)
            else:
                metrics, attempted, failed, detail = measure(
                    workload, args.seed, args.seconds, spec, workdir
                )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (SetupError, OSError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        **detail,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
