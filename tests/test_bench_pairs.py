import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_counts_wins_in_each_metric_direction():
    metrics = [
        {"name": "instances_per_s", "unit": "1/s", "better": "higher"},
        {"name": "instance_ms_p50", "unit": "ms", "better": "lower"},
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
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as e:
        bench_pairs.main(["--pairs", "gh-trees=2,minor-serch=2", "--out", str(out)])
    assert e.value.code == 2
    assert "unknown workload 'minor-serch'" in capsys.readouterr().err
    assert not out.exists()
