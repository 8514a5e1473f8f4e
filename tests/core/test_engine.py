"""Tests for the streaming simulation engine and collectors."""

import pytest

from repro.algorithms import FirstFit, NextFit
from repro.algorithms.migration import BudgetedRepack
from repro.core.engine import (
    OpenBinsCollector,
    PlacementLogCollector,
    Snapshot,
    UtilizationCollector,
    simulate,
)
from repro.core.items import Item, ItemList
from repro.core.packing import run_packing
from repro.workloads.random_workloads import poisson_workload


def sample():
    return ItemList(
        [Item(0, 0.6, 0.0, 2.0), Item(1, 0.5, 0.5, 1.5), Item(2, 0.4, 1.0, 3.0)]
    )


class TestSimulate:
    def test_one_snapshot_per_event(self):
        snaps = list(simulate(sample(), FirstFit()))
        assert len(snaps) == 2 * 3

    def test_matches_batch_driver(self):
        """The generator and run_packing agree on the final state."""
        items = poisson_workload(60, seed=2)
        snaps = list(simulate(items, FirstFit()))
        batch = run_packing(items, FirstFit())
        assert snaps[-1].num_bins_used == batch.num_bins
        assert snaps[-1].num_open_bins == 0

    def test_migrations_match_batch_driver_per_event(self):
        """simulate applies a policy's planned moves, as run_packing does."""
        items = poisson_workload(300, seed=4, arrival_rate=4, mu_target=8)
        batch = []
        run_packing(
            items,
            BudgetedRepack(budget=2),
            observers=[lambda e, st: batch.append((st.num_open, st.num_bins_used))],
        )
        snaps = simulate(items, BudgetedRepack(budget=2))
        assert [(s.num_open_bins, s.num_bins_used) for s in snaps] == batch

    def test_snapshot_times_monotone(self):
        items = poisson_workload(40, seed=3)
        times = [s.time for s in simulate(items, NextFit())]
        assert times == sorted(times)

    def test_total_level_conserved(self):
        """Total level after each event equals the active-size sweep."""
        items = sample()
        active = 0.0
        for snap in simulate(items, FirstFit()):
            if snap.event.kind.name == "ARRIVE":
                active += snap.event.item.size
            else:
                active -= snap.event.item.size
            assert snap.total_level == pytest.approx(max(active, 0.0))

    def test_utilization_bounds(self):
        for snap in simulate(poisson_workload(50, seed=5), FirstFit()):
            assert 0.0 <= snap.utilization <= 1.0 + 1e-9

    def test_lazy_evaluation(self):
        """The generator does work incrementally (can stop early)."""
        gen = simulate(poisson_workload(100, seed=7), FirstFit())
        first = next(gen)
        assert isinstance(first, Snapshot)
        gen.close()  # no error on abandoning the stream


class TestCollectors:
    def test_open_bins_collector_peak(self):
        c = OpenBinsCollector()
        c.consume(simulate(sample(), FirstFit()))
        batch = run_packing(sample(), FirstFit())
        assert c.peak == batch.max_concurrent_bins
        assert c.series[-1][1] == 0

    def test_utilization_collector_range(self):
        c = UtilizationCollector()
        c.consume(simulate(poisson_workload(80, seed=8), FirstFit()))
        assert 0.0 < c.mean_utilization <= 1.0

    def test_utilization_empty_stream(self):
        assert UtilizationCollector().mean_utilization == 0.0

    def test_placement_log(self):
        c = PlacementLogCollector()
        c.consume(simulate(sample(), FirstFit()))
        assert [e[1] for e in c.log] == [0, 1, 2]  # arrival order
        assert c.log[-1][2] == 2  # two bins used by then
