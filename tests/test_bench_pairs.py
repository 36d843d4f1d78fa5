import importlib.util
import json
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_counts_wins_in_each_metric_direction():
    metrics = [
        {"name": "instances_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "instance_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    ]
    pairs = [
        {"base": {"instances_per_s": b, "instance_ms_p50": 1000 / b},
         "change": {"instances_per_s": c, "instance_ms_p50": 1000 / c}}
        for b, c in ((60, 180), (70, 190), (65, 60), (62, 62))
    ]
    out = bench_pairs.summarise(pairs, metrics)
    rate = out["instances_per_s"]
    assert rate["wins"] == 2 and rate["pairs"] == 4  # a tie counts for neither side
    assert rate["base_median"] == 63.5 and rate["change_median"] == 121
    assert rate["ratio"] == pytest.approx(121 / 63.5)
    assert out["instance_ms_p50"]["wins"] == 2
    assert bench_pairs.spread([5.0]) == (5.0, 0.0)
    assert bench_pairs.spread([1, 2, 3, 4, 5]) == (3, 3.0)


@pytest.mark.parametrize(
    "base, change, want",
    [
        # 9 of 10 pairs won, medians 100 -> 130 against a base IQR of 4.5
        ([100, 98, 102, 101, 99, 97, 103, 100, 96, 104],
         [130, 128, 132, 131, 129, 127, 133, 130, 126, 90], "better"),
        # every pair won, but by 1, less than the base IQR of 4.5
        ([100, 98, 102, 101, 99, 97, 103, 100, 96, 104],
         [101, 99, 103, 102, 100, 98, 104, 101, 97, 105], "within bound"),
        # median 100 -> 70, worse by more than a quarter
        ([100, 98, 102, 101, 99, 97, 103, 100, 96, 104],
         [70, 68, 72, 71, 69, 67, 73, 70, 66, 74], "worse"),
        # base IQR 45 on a median of 100, wider than the bound;
        # the change wins only some pairs
        ([60, 140, 80, 120, 100, 70, 130, 90, 110, 100],
         [90, 150, 70, 130, 95, 80, 120, 100, 105, 110], "unresolved"),
        # as wide a base, but every pair favours the change
        ([60, 140, 80, 120, 100, 70, 130, 90, 110, 100],
         [61, 141, 81, 121, 101, 71, 131, 91, 111, 101], "within bound"),
    ],
    ids=["better", "within-bound", "worse", "unresolved", "wide-but-all-won"],
)
def test_summary_verdicts(base, change, want):
    metrics = [
        {"name": "instances_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "instance_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    ]
    pairs = [
        {"base": {"instances_per_s": b, "instance_ms_p50": 200 - b},
         "change": {"instances_per_s": c, "instance_ms_p50": 200 - c}}
        for b, c in zip(base, change)
    ]
    out = bench_pairs.summarise(pairs, metrics)
    assert out["instances_per_s"]["verdict"] == want
    assert out["instances_per_s"]["bound"] == 0.25
    # mirrored about the base median of 100, a lower-is-better metric reads the same
    assert out["instance_ms_p50"]["verdict"] == want


def test_counts_changed_lists_only_differing_work_counts():
    per_layer = [
        {"name": "capacity.cap_allocs", "unit": "count", "better": "lower"},
        {"name": "maxflow.max_flow.calls", "unit": "count", "better": "lower"},
        {"name": "maxflow.self_s", "unit": "s", "better": "lower"},
        {"name": "simplex.solve_lp.cells", "unit": "count", "better": "lower"},
        {"name": "minors.detect_terminal_minor.found_ratio", "unit": "ratio", "better": "higher"},
    ]
    traced = {
        "base": {"capacity.cap_allocs": 61025, "maxflow.max_flow.calls": 1917,
                 "maxflow.self_s": 0.19, "minors.detect_terminal_minor.found_ratio": 0.5},
        "change": {"capacity.cap_allocs": 61025, "maxflow.max_flow.calls": 1500,
                   "maxflow.self_s": 0.12, "minors.detect_terminal_minor.found_ratio": 0.25,
                   "simplex.solve_lp.cells": 40},
    }
    assert bench_pairs.counts_changed(traced, per_layer) == {
        "maxflow.max_flow.calls": {"base": 1917, "change": 1500},
        "simplex.solve_lp.cells": {"base": None, "change": 40},
    }
    same = {"base": traced["base"], "change": dict(traced["base"])}
    assert bench_pairs.counts_changed(same, per_layer) == {}


WORKLOADS = ["gh-trees", "cut-oracles", "flowcheck", "minor-search"]


def test_parse_pairs_keeps_the_given_order():
    assert list(bench_pairs.parse_pairs("gh-trees=8, flowcheck=4", WORKLOADS).items()) == [
        ("gh-trees", 8), ("flowcheck", 4)]


@pytest.mark.parametrize(
    "text", ["gh-trees=0", "gh-trees", "gh-trees=", "gh-trees=-1", "gh-trees=two",
             "gh-tree=3", "gh-trees=3,gh-trees=2", "gh-trees=3,"],
)
def test_parse_pairs_rejects_bad_items(text):
    with pytest.raises(ValueError):
        bench_pairs.parse_pairs(text, WORKLOADS)


def test_bad_pairs_stop_before_any_run(monkeypatch, capsys, tmp_path):
    def no_runs(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "run_bench", no_runs)
    monkeypatch.setattr(bench_pairs, "export_revision", no_runs)
    monkeypatch.setattr(bench_pairs, "git", no_runs)  # --pairs is checked outside a checkout too
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as e:
        bench_pairs.main(["--pairs", "gh-trees=2,minor-serch=2", "--out", str(out)])
    assert e.value.code == 2
    assert "unknown workload 'minor-serch'" in capsys.readouterr().err
    assert not out.exists()


def test_traced_medians_take_each_metric_median():
    per_layer = [
        {"name": "maxflow.max_flow.calls", "unit": "count", "better": "lower"},
        {"name": "maxflow.self_s", "unit": "s", "better": "lower"},
    ]
    runs = [
        {"maxflow.max_flow.calls": 920, "maxflow.self_s": 0.10, "trace.overhead_ratio": 2.0},
        {"maxflow.max_flow.calls": 920, "maxflow.self_s": 0.07, "trace.overhead_ratio": 2.4},
        {"maxflow.max_flow.calls": 920, "maxflow.self_s": 0.09, "trace.overhead_ratio": 1.9},
    ]
    assert bench_pairs.traced_medians(runs, per_layer, "base") == {
        "maxflow.max_flow.calls": 920, "maxflow.self_s": 0.09, "trace.overhead_ratio": 2.0,
    }
    runs[2]["maxflow.max_flow.calls"] = 921
    with pytest.raises(SystemExit, match="change: work count maxflow.max_flow.calls differs"):
        bench_pairs.traced_medians(runs, per_layer, "change")


def test_traced_passes_alternate_and_record_medians(monkeypatch, tmp_path):
    calls = []
    self_s = iter([0.3, 0.1, 0.2, 0.6, 0.4, 0.5])  # in run order

    def fake_run(tree, workload, seed, seconds, trace=0):
        side = tree.name
        metrics = {"instances_per_s": 100.0, "maxflow.max_flow.calls": 7}
        if trace:
            calls.append(side)
            metrics["maxflow.self_s"] = next(self_s)
        metrics.update({m: 1.0 for m in ("instance_ms_p50", "instance_ms_tail", "setup_s", "peak_rss_mb")})
        detail = {"environment": {"source_sha256": side}}
        return detail, {"metrics": {k: {"value": v} for k, v in metrics.items()}, "attempted": 1}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    monkeypatch.setattr(bench_pairs, "export_revision", lambda *args: None)
    monkeypatch.setattr(bench_pairs, "export_working_tree", lambda *args: None)
    monkeypatch.setattr(bench_pairs, "git", lambda *args, cwd: str(tmp_path).encode())
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--pairs", "flowcheck=1", "--out", str(out)]) == 0
    assert calls == ["base", "change", "change", "base", "base", "change"]
    report = json.loads(out.read_text())["workloads"]["flowcheck"]
    assert report["traced_passes"] == 3 and report["counts_changed"] == {}
    assert report["traced"]["base"]["maxflow.self_s"] == 0.4  # of 0.3, 0.6, 0.4
    assert report["traced"]["change"]["maxflow.self_s"] == 0.2  # of 0.1, 0.2, 0.5
