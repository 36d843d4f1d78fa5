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
