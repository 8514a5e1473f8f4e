"""The paired-measurement rule of ``benchmarks/pairs.py`` on fixed numbers.

A change is better in a pair only when both runs have a value and the
change's is strictly better in the metric's direction; the verdict
compares the gap between the medians with the base's interquartile
range.  A failed run keeps its pair in the count and can never win it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

PAIRS_PY = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks", "pairs.py")


@pytest.fixture(scope="module")
def pairs():
    loader = importlib.util.spec_from_file_location("benchmarks_pairs", PAIRS_PY)
    module = importlib.util.module_from_spec(loader)
    sys.modules[loader.name] = module  # dataclasses look their module up
    try:
        loader.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[loader.name]


def test_quartiles_interpolate(pairs):
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (3.0, 2.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (2.5, 1.75, 3.25)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_drop_is_better_in_every_pair(pairs):
    base = [25.99, 25.99, 25.96, 26.01, 25.97]
    change = [21.41, 21.34, 21.41, 21.40, 21.38]
    s = pairs.summarize(base, change, "lower")
    assert (s.better_in, s.pairs, s.verdict) == (5, 5, "better")
    assert s.base == (25.99, 25.97, 25.99)
    assert pairs.summarize(change, base, "lower").verdict == "worse"
    # the same numbers for a metric where higher is better
    assert pairs.summarize(base, change, "higher").verdict == "worse"
    assert pairs.summarize(base, change, "higher").better_in == 0


def test_ties_count_for_neither_side(pairs):
    s = pairs.summarize([1.0, 1.0, 1.0, 2.0], [1.0, 1.0, 0.5, 3.0], "lower")
    assert s.better_in == 1
    assert pairs.summarize([1.0, 1.0, 1.0, 2.0], [1.0, 1.0, 0.5, 3.0], "higher").better_in == 1


def test_a_gap_inside_the_base_spread_is_not_a_verdict(pairs):
    base = [10.0, 12.0, 14.0, 16.0, 18.0]  # median 14, IQR 4
    change = [9.0, 11.0, 13.0, 15.0, 17.0]  # lower in every pair, median 13
    s = pairs.summarize(base, change, "lower")
    assert (s.better_in, s.verdict) == (5, "within spread")
    # exactly the IQR does not clear it either
    s = pairs.summarize(base, [v - 4.0 for v in base], "lower")
    assert s.verdict == "within spread"
    s = pairs.summarize(base, [v - 4.5 for v in base], "lower")
    assert s.verdict == "better"


def test_a_failed_run_stays_in_the_count_and_never_wins(pairs):
    s = pairs.summarize([2.0, 2.0, 2.0], [1.0, None, 1.0], "lower")
    assert (s.better_in, s.pairs) == (2, 3)
    assert s.change == (1.0, 1.0, 1.0)
    assert pairs.summarize([None, None], [1.0, 1.0], "lower") is None
    with pytest.raises(ValueError):
        pairs.summarize([1.0], [1.0, 2.0], "lower")
    with pytest.raises(ValueError):
        pairs.summarize([1.0], [1.0], "sideways")


def test_a_run_is_read_from_its_output(pairs):
    metrics = {"usage_ratio": 1.25, "setup_s": 0.3, "peak_rss_mb": 21.4}
    stdout = "\n".join(
        [
            "usage_ratio                                  1.25 ratio",
            "cpu_us_per_event                            210.4 us/event",
            'manifest {"seed": 1}',
            json.dumps(
                {
                    "correct": True,
                    "attempted": 10,
                    "failed": 0,
                    "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
                }
            ),
        ]
    )
    run = pairs.parse_run("change", 1, 0, stdout, "")
    assert run.correct and run.failed_ops == 0
    assert run.metrics == {**metrics, "cpu_us_per_event": 210.4}

    wrong = json.dumps({"correct": False, "attempted": 10, "failed": 0, "metrics": {}})
    run = pairs.parse_run("base", 2, 1, "CHECK FAILED: placements differ\n" + wrong, "")
    assert not run.correct and run.metrics == {}
    assert run.error == "CHECK FAILED: placements differ"

    run = pairs.parse_run("base", 3, 2, "", "Traceback ...\nBenchError: boom")
    assert not run.correct and run.error == "BenchError: boom"


def test_directions_come_from_the_benchmark_spec(pairs):
    directions, gated = pairs.end_to_end_metrics()
    assert gated == ["usage_ratio", "setup_s", "peak_rss_mb"]
    assert directions["peak_rss_mb"] == "lower"
    assert directions["events_per_s"] == "higher"
