"""Tests for the process-parallel experiment runner."""

from __future__ import annotations

import pytest

from repro.parallel import parallel_map, resolve_workers


def _square(x):
    return x * x


def _flaky_order(x):
    # busy-wait inversely to x so later tasks finish first under real
    # parallelism; the merge must still be in task order
    total = 0
    for _ in range((5 - x) * 2000):
        total += 1
    return (x, total >= 0)


class TestResolveWorkers:
    def test_serial_values(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_explicit_count(self):
        assert resolve_workers(4) == 4

    def test_negative_means_all_cpus(self):
        assert resolve_workers(-1) >= 1


class TestParallelMap:
    def test_serial_matches_builtin_map(self):
        assert parallel_map(_square, range(10)) == [x * x for x in range(10)]

    def test_empty_tasks(self):
        assert parallel_map(_square, []) == []
        assert parallel_map(_square, [], workers=4) == []

    def test_parallel_matches_serial(self):
        tasks = list(range(12))
        assert parallel_map(_square, tasks, workers=2) == parallel_map(_square, tasks)

    def test_ordered_merge_under_skewed_runtimes(self):
        results = parallel_map(_flaky_order, [0, 1, 2, 3, 4], workers=2)
        assert [r[0] for r in results] == [0, 1, 2, 3, 4]

    def test_worker_error_propagates(self):
        with pytest.raises(ZeroDivisionError):
            parallel_map(_boom, [1, 0], workers=2)


def _boom(x):
    return 1 // x


class TestShardErrorContext:
    """A failing shard must say which task it was working on."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_exception_carries_shard_index_and_task(self, workers):
        with pytest.raises(ZeroDivisionError) as excinfo:
            parallel_map(_boom, [1, 2, 0, 3], workers=workers)
        notes = "\n".join(getattr(excinfo.value, "__notes__", ()))
        assert "parallel_map: shard 2" in notes
        assert "0" in notes

    @pytest.mark.parametrize("workers", [None, 2])
    def test_original_exception_type_preserved(self, workers):
        with pytest.raises(KeyError):
            parallel_map(_lookup, [{"k": 1}, {}], workers=workers)

    def test_long_task_reprs_are_truncated(self):
        big = list(range(10_000))
        with pytest.raises(ZeroDivisionError) as excinfo:
            parallel_map(_boom_on_list, [big])
        notes = "\n".join(getattr(excinfo.value, "__notes__", ()))
        assert "…" in notes
        assert len(notes) < 400


def _lookup(d):
    return d["k"]


def _boom_on_list(xs):
    return 1 // (len(xs) - len(xs))


class TestExperimentDeterminism:
    """Serial and parallel experiment shards must agree exactly."""

    def test_expected_ratio_worker_count_invariant(self):
        from repro.experiments import run_spec
        from repro.experiments.montecarlo import EXPECTED_RATIO_SPEC

        cfg = dict(n=25, replications=3, loads=(2.0,), mus=(8.0,),
                   algorithms=("first-fit", "next-fit"), node_budget=8_000)
        serial = run_spec(EXPECTED_RATIO_SPEC, cfg)
        sharded = run_spec(EXPECTED_RATIO_SPEC, cfg, workers=2)
        assert serial.rows == sharded.rows

    def test_bounds_table_worker_count_invariant(self):
        from repro.experiments import run_spec
        from repro.experiments.comparison import BOUNDS_TABLE_SPEC

        cfg = dict(mu=4.0, algorithms=("first-fit", "next-fit"), node_budget=8_000)
        serial = run_spec(BOUNDS_TABLE_SPEC, cfg)
        sharded = run_spec(BOUNDS_TABLE_SPEC, cfg, workers=2)
        assert serial.rows == sharded.rows
