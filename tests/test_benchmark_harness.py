"""The benchmark harness under perfbench/ against the current package.

Its self-tests run here too, and every per-layer metric of BENCHMARK.json
named ``<module>.<function>.<metric>`` must name a function the tracer
can wrap: a public function defined at module level in ``ghkit.<module>``.
A rename that breaks that stops the traced benchmark run.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
UNIVERSE = {"gh-trees": 40, "cut-oracles": 210, "flowcheck": 36, "minor-search": 480}


def test_benchmark_self_tests_pass():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_benchmark_pass_matches_every_recorded_answer(workload):
    """One whole untraced pass of the workload: every instance's answer
    passes its check and matches its recorded digest."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.01"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, proc.stdout.splitlines()[-2][-2000:]
    assert result["attempted"] == UNIVERSE[workload]


def test_per_layer_metric_names_resolve_to_public_functions():
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    span_names = {n.rsplit(".", 1)[0] for n in names if n.count(".") == 2}
    assert span_names  # the file still names per-function metrics
    missing = []
    for span in sorted(span_names):
        module, function = span.split(".")
        mod = importlib.import_module(f"ghkit.{module}")
        fn = getattr(mod, function, None)
        if not (
            isinstance(fn, types.FunctionType)
            and fn.__module__ == mod.__name__
            and not function.startswith("_")
            and fn.__qualname__ == function
        ):
            missing.append(span)
    assert not missing


def test_tracer_counters_read_parameters_that_exist():
    """Each ``a["<name>"]`` that a tracer counter reads is a parameter of
    the function it counts; a rename would stop only the traced run."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    counters = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "COUNTERS"
    )
    read = {
        (span.value, sub.slice.value)
        for span, value in zip(counters.keys, counters.values)
        for sub in ast.walk(value)
        if isinstance(sub, ast.Subscript) and getattr(sub.value, "id", None) == "a"
    }
    assert read  # the counters still read arguments by name
    missing = []
    for span, arg in sorted(read):
        module, function = span.split(".")
        fn = getattr(importlib.import_module(f"ghkit.{module}"), function)
        if arg not in inspect.signature(fn).parameters:
            missing.append(f"{span}({arg})")
    assert not missing, missing
