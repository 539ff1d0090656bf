"""tools/pairs.py's summary of paired benchmark runs, on fixed numbers;
no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs",
                                               ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [
    {"name": "op_p99_us", "unit": "us", "better": "lower", "bound": 0.2},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
]


def runs(p99, ops):
    return [{"op_p99_us": a, "ops_per_s": b} for a, b in zip(p99, ops)]


def test_medians_spread_wins_and_bounds():
    parent = runs([100, 110, 120, 130], [1000, 1100, 900, 1000])
    change = runs([90, 95, 125, 80], [500, 600, 900, 1000])
    p99, ops = pairs.summarize(parent, change, METRICS)
    # parent quartiles 102.5 and 127.5; the change wins 3 of 4 pairs
    assert p99 == ("op_p99_us", "us", 115, 92.5, 25.0, 3, 4, True)
    # quartiles 925 and 1075; ties count for neither side; 750 is below
    # 1000 by more than 20%
    assert ops == ("ops_per_s", "1/s", 1000, 750, 150.0, 0, 4, False)


def test_a_median_at_the_bound_is_within_it():
    parent = runs([100, 100], [1000, 1000])
    change = runs([120, 120], [800, 800])
    assert [row[-1] for row in pairs.summarize(parent, change, METRICS)] \
        == [True, True]
    change = runs([121, 121], [799, 799])
    assert [row[-1] for row in pairs.summarize(parent, change, METRICS)] \
        == [False, False]


def test_every_end_to_end_metric_of_the_benchmark_is_summarized():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    run = {m["name"]: 1.0 for m in metrics}
    rows = pairs.summarize([run, run], [run, run], metrics)
    assert [row[0] for row in rows] == [m["name"] for m in metrics]
    assert all(row[5] == 0 and row[-1] for row in rows)


def test_needs_two_complete_pairs():
    one = runs([100], [1000])
    with pytest.raises(ValueError):
        pairs.summarize(one, one, METRICS)
    with pytest.raises(ValueError):
        pairs.summarize(one * 3, one * 2, METRICS)
