"""Tests for the bench-trajectory harness (`repro.bench`).

The structural test keeps tier-1 fast by using the quick grid with the
Monte Carlo section disabled; the full baseline run is ``bench``-marked
and excluded from the default pytest invocation (select it with
``pytest -m bench``).
"""

from __future__ import annotations

import gc
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.bench import (
    ALGORITHMS,
    QUICK_GRID,
    SERVICE_GRID,
    SERVICE_QUICK_GRID,
    SERVICE_ROUTER_QUICK_SHARDS,
    SERVICE_ROUTER_SHARDS,
    THROUGHPUT_GRID,
    VECTOR_ALGORITHMS,
    VECTOR_GRID,
    VECTOR_QUICK_GRID,
    _laps,
    _row,
    run_bench,
)


#: the trace-replay cells: {scalar, vector} × {trace, poisson baseline}
TRACE_ROWS = 4

TRACE_PATHS = {
    "trace-replay",
    "poisson-baseline",
    "trace-replay-vector",
    "poisson-baseline-vector",
}


def expected_rows(scalar_grid, vector_grid):
    return (
        len(scalar_grid) * len(ALGORITHMS) * 2
        + len(vector_grid) * len(VECTOR_ALGORITHMS) * 2
        + TRACE_ROWS
    )


@pytest.fixture
def pairs(monkeypatch):
    """``benchmarks/pairs.py``, which is a script, not a package module."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_laps_run_every_cell_once_per_lap_in_order():
    calls = []

    def a():
        calls.append(("a", gc.isenabled()))

    def b():
        calls.append(("b", gc.isenabled()))
        return 0.25  # a cell that times itself

    laps = _laps(3, {"a": a, "b": b})
    assert calls == [("a", False), ("b", False)] * 3
    assert laps["b"] == [0.25] * 3
    assert len(laps["a"]) == 3 and all(lap >= 0 for lap in laps["a"])
    assert gc.isenabled()


def test_laps_enable_gc_again_when_a_cell_raises():
    def boom():
        raise RuntimeError("cell failed")

    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="cell failed"):
        _laps(2, {"a": lambda: None, "b": boom})
    assert gc.isenabled()


@pytest.mark.parametrize(
    "laps",
    [[0.5], [0.3, 0.1], [0.4, 0.1, 0.3], [0.9, 0.2, 0.4, 0.35, 0.6, 0.11, 0.5]],
)
def test_row_quartiles_follow_pairs_rule(pairs, laps):
    median, q1, q3 = pairs.quartiles(laps)
    row = _row({"instance": "x", "mode": "m"}, 1000, laps)
    assert row["instance"] == "x" and row["mode"] == "m"
    assert row["seconds"] == round(median, 6)
    assert row["q1"] == round(q1, 6)
    assert row["q3"] == round(q3, 6)
    assert row["n"] == len(laps)
    assert row["events_per_sec"] == round(1000 / median)


def test_quick_bench_structure(tmp_path):
    out = tmp_path / "bench.json"
    repeats = 2
    report = run_bench(
        quick=True, repeats=repeats, json_path=str(out), montecarlo=False
    )
    assert len(report.throughput) == expected_rows(QUICK_GRID, VECTOR_QUICK_GRID)
    for row in report.throughput:
        assert row["events_per_sec"] > 0
        assert row["path"] in {"default", "reference"} | TRACE_PATHS
    trace_rows = [r for r in report.throughput if r["path"] in TRACE_PATHS]
    assert {r["path"] for r in trace_rows} == TRACE_PATHS
    for row in trace_rows:
        assert row["instance"].startswith("trace-azure-")
    # two replay modes per grid cell, the migration-churn cell, three
    # WAL cells, four loopback cells, and one router cell per quick
    # shard count
    assert len(report.service) == (
        2 * len(SERVICE_QUICK_GRID) + 1 + 3 + 4 + len(SERVICE_ROUTER_QUICK_SHARDS)
    )
    modes = {r["mode"] for r in report.service}
    assert modes == {
        "stream",
        "stream+metrics",
        "stream+migration",
        "stream+wal(never)",
        "stream+wal(interval)",
        "stream+wal(always)",
        "server-loopback",
        "server-loopback-highload",
        "server-loopback-binary",
        "server-loopback-pipelined",
        *(f"router-loopback-{s}shard" for s in SERVICE_ROUTER_QUICK_SHARDS),
    }
    for row in report.service:
        assert row["events_per_sec"] > 0
    for row in report.throughput + report.service:
        assert row["q1"] <= row["seconds"] <= row["q3"], row
        assert row["n"] == repeats, row
    payload = json.loads(out.read_text())
    assert payload["schema"] == 2
    assert payload["meta"]["seed"] == 99
    assert len(payload["throughput"]) == len(report.throughput)
    assert len(payload["service"]) == len(report.service)


def test_quick_bench_includes_vector_cells():
    report = run_bench(quick=True, repeats=1, montecarlo=False)
    vector_rows = [
        r for r in report.throughput
        if r["algorithm"].startswith("vector-") and r["path"] not in TRACE_PATHS
    ]
    assert {r["algorithm"] for r in vector_rows} == set(VECTOR_ALGORITHMS)
    assert {r["path"] for r in vector_rows} == {"default", "reference"}


def test_only_selects_single_cell():
    """--only runs just the matching cell's lap group and nothing else."""
    report = run_bench(
        quick=True, repeats=1, montecarlo=True,
        only="throughput/n2000/first-fit/default",
    )
    # the two paths of one instance and algorithm share a lap group
    assert [
        (r["instance"], r["algorithm"], r["path"]) for r in report.throughput
    ] == [("n2000", "first-fit", "default"), ("n2000", "first-fit", "reference")]
    assert report.service == []
    assert report.montecarlo == {}  # "montecarlo" does not match either


def test_only_merges_into_existing_report(tmp_path):
    """Unmatched cells carry over from the report on disk."""
    out = tmp_path / "bench.json"
    stale = {
        "schema": 2,
        "meta": {},
        "throughput": [
            {"instance": "n2000", "algorithm": "first-fit",
             "path": "default", "seconds": 9999.0, "events_per_sec": 1},
            {"instance": "n9", "algorithm": "other",
             "path": "default", "seconds": 7.0, "events_per_sec": 2},
        ],
        "service": [
            {"instance": "n2000", "mode": "stream",
             "seconds": 5.0, "events_per_sec": 3},
        ],
        "montecarlo": {"config": "kept"},
    }
    out.write_text(json.dumps(stale))
    run_bench(
        quick=True, repeats=1, json_path=str(out), montecarlo=False,
        only="throughput/n2000/first-fit/default",
    )
    payload = json.loads(out.read_text())
    rows = {
        (r["instance"], r["algorithm"], r["path"]): r
        for r in payload["throughput"]
    }
    assert rows[("n2000", "first-fit", "default")]["seconds"] < 9999.0
    assert rows[("n9", "other", "default")]["seconds"] == 7.0
    assert payload["service"] == stale["service"]
    assert payload["montecarlo"] == {"config": "kept"}


def test_render_mentions_every_algorithm():
    report = run_bench(quick=True, repeats=1, montecarlo=False)
    text = report.render()
    for algo in ALGORITHMS + VECTOR_ALGORITHMS:
        assert algo in text


@pytest.mark.bench
def test_full_bench_baseline(tmp_path):
    """The committed-baseline configuration end to end (slow)."""
    out = tmp_path / "BENCH_perf.json"
    report = run_bench(quick=False, repeats=3, json_path=str(out))
    assert len(report.throughput) == expected_rows(THROUGHPUT_GRID, VECTOR_GRID)
    assert len(report.service) == (
        2 * len(SERVICE_GRID) + 1 + 3 + 4 + len(SERVICE_ROUTER_SHARDS)
    )
    assert report.montecarlo["identical"] is True
    # every floor below reads median rows
    loop = {
        r["mode"]: r for r in report.service if "-loopback" in r["mode"]
    }
    # the fleet floor: the 1-shard router on the binary fast path costs
    # at most 15% over the router-less pipelined cell — the
    # transparent-proxy tax, timed in the same laps to cancel drift
    assert loop["router-loopback-1shard"]["seconds"] <= (
        1.15 * loop["server-loopback-pipelined"]["seconds"]
    )
    # the wire-protocol floor: the binary loopback cells must clear 10x
    # the JSON loopback cell measured in the same run
    json_cell = loop["server-loopback"]["events_per_sec"]
    assert loop["server-loopback-binary"]["events_per_sec"] >= 10 * json_cell
    assert loop["server-loopback-pipelined"]["events_per_sec"] >= 10 * json_cell
    # the durability floor: streaming with the WAL in the loop at the
    # default group-commit policy stays within 2.5x of the bare stream
    # cell (the budget was 2x when the stream cell ran ~270k ev/s; the
    # engine hot-path work lifted the WAL-less denominator ~20% while
    # the WAL cell itself is I/O-bound and held steady)
    stream = next(
        r for r in report.service
        if r["mode"] == "stream" and r["instance"] == SERVICE_GRID[0][0]
    )
    wal = next(
        r for r in report.service if r["mode"] == "stream+wal(interval)"
    )
    assert wal["seconds"] <= 2.5 * stream["seconds"]
    # the acceptance floor: first-fit on the 2000-job instance must beat
    # the seed engine's ~238k events/sec by at least 2x
    ff2k = next(
        r for r in report.throughput
        if r["instance"] == "n2000" and r["algorithm"] == "first-fit"
        and r["path"] == "default"
    )
    assert ff2k["events_per_sec"] >= 2 * 238_000
    # the unification floor: high-load vector first-fit must beat the
    # pre-unification driver's ~38k events/sec on the same cell
    vff = next(
        r for r in report.throughput
        if r["instance"] == "v20000-highload"
        and r["algorithm"] == "vector-first-fit" and r["path"] == "default"
    )
    assert vff["events_per_sec"] >= 2 * 38_000
