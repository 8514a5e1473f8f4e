"""Unit tests for the move-capable core: ``state.migrate`` + ``check_move``.

``migrate`` is the third first-class mutation next to ``place`` and
``depart``; these tests pin its contract on both resource types —
incremental accounting stays exact, the item→bin map follows the item,
the source bin closes when its last occupant leaves, and the adaptive
first-fit index remains query-consistent with the reference scans after
arbitrary remove→reinsert traffic.
"""

from __future__ import annotations

import pytest

import repro.core.state as state_mod
from repro.algorithms.migration import BudgetedRepack, plan_evacuation_moves
from repro.core.driver import check_move
from repro.core.items import Item
from repro.core.packing import run_packing
from repro.core.state import PackingState
from repro.multidim.items import VectorItem
from repro.multidim.state import VectorPackingState
from repro.workloads.random_workloads import poisson_workload


def _item(item_id: int, size: float, arrival: float = 0.0, departure: float = 100.0):
    return Item(item_id=item_id, size=size, arrival=arrival, departure=departure)


def _vitem(item_id: int, sizes, arrival: float = 0.0, departure: float = 100.0):
    return VectorItem(
        item_id=item_id, sizes=sizes, arrival=arrival, departure=departure
    )


@pytest.fixture
def forced_index(monkeypatch):
    monkeypatch.setattr(state_mod, "INDEX_THRESHOLD", 1)
    monkeypatch.setattr(state_mod, "_BEST_FIT_TREE_MIN", 1)


class TestScalarMigrate:
    def _two_bins(self, indexed=False):
        """Bin 0 holding items 1 (0.3) and 2 (0.2); bin 1 holding item 3 (0.4)."""
        state = PackingState(indexed=indexed)
        state.now = 0.0
        a, b, c = _item(1, 0.3), _item(2, 0.2), _item(3, 0.4)
        state.place(a, None)
        state.place(b, state.bins[0])
        state.place(c, None)
        return state, a, b, c

    def test_moves_item_and_keeps_accounting_exact(self):
        state, a, b, c = self._two_bins()
        state.now = 1.0
        src = state.migrate(b, state.bins[1])
        assert src is state.bins[0]
        assert state.item_bin[2] == 1
        assert state.bins[0].level == pytest.approx(0.3)
        assert state.bins[1].level == pytest.approx(0.6)
        assert state.total_level == pytest.approx(0.9)
        assert state.num_open == 2  # source still occupied

    def test_evacuating_last_item_closes_source(self):
        state, a, b, c = self._two_bins()
        state.now = 1.0
        state.migrate(b, state.bins[1])
        state.now = 2.0
        src = state.migrate(a, state.bins[1])
        assert src.is_closed
        assert src.closed_at == 2.0
        assert state.num_open == 1
        assert 0 not in dict.fromkeys(b.index for b in state.open_bins())
        assert state.bins[1].level == pytest.approx(0.9)
        assert state.total_level == pytest.approx(0.9)

    def test_migrate_into_closed_bin_raises(self):
        state, a, b, c = self._two_bins()
        state.now = 1.0
        state.migrate(b, state.bins[1])
        state.now = 2.0
        closed = state.migrate(a, state.bins[1])  # closes bin 0
        with pytest.raises(ValueError, match="closed bin 0"):
            state.migrate(c, closed)

    def test_migrate_into_own_bin_raises(self):
        state, a, b, c = self._two_bins()
        with pytest.raises(ValueError, match="its own bin"):
            state.migrate(a, state.bins[0])

    def test_index_lanes_stay_query_consistent(self, forced_index):
        """After migrations, indexed selection == reference scan, bit for bit."""
        state, a, b, c = self._two_bins(indexed=True)
        assert state._index is not None
        state.now = 1.0
        state.migrate(b, state.bins[1])
        state.migrate(a, state.bins[1])  # closes bin 0
        for size in (0.05, 0.1, 0.4, 0.95):
            via_index = state.first_fit_bin(size)
            scan = next(
                (x for x in state.open_bins()
                 if x.level + size <= state._cap_bound),
                None,
            )
            assert via_index is scan, f"size {size}"


class TestVectorMigrate:
    def test_moves_item_and_closes_source(self):
        state = VectorPackingState(capacity=(1.0, 1.0), indexed=False)
        state.now = 0.0
        a = _vitem(1, (0.5, 0.2))
        b = _vitem(2, (0.3, 0.3))
        state.place(a, None)
        state.place(b, None)
        state.now = 1.0
        src = state.migrate(a, state.bins[1])
        assert src.is_closed and src.closed_at == 1.0
        assert state.item_bin[1] == 1
        assert state.bins[1].level == pytest.approx((0.8, 0.5))
        assert state.num_open == 1

    def test_migrate_into_own_bin_raises(self):
        state = VectorPackingState(capacity=(1.0, 1.0), indexed=False)
        state.now = 0.0
        a = _vitem(1, (0.5, 0.2))
        state.place(a, None)
        state.place(_vitem(2, (0.2, 0.2)), None)
        with pytest.raises(ValueError, match="its own bin"):
            state.migrate(a, state.bins[0])


class TestCheckMove:
    def _state(self):
        state = PackingState(indexed=False)
        state.now = 0.0
        a, b = _item(1, 0.6), _item(2, 0.7)
        state.place(a, None)
        state.place(b, None)
        return state, a, b

    def test_valid_move_returns_source(self):
        state, a, b = self._state()
        state.depart(b)  # reopen capacity story: bin 1 closes
        state.place(_item(3, 0.1), None)
        src = check_move("x", state, a, state.bins[2])
        assert src is state.bins[0]

    def test_same_bin_rejected(self):
        state, a, b = self._state()
        with pytest.raises(RuntimeError, match="kept item 1 in bin 0"):
            check_move("x", state, a, state.bins[0])

    def test_closed_target_rejected(self):
        state, a, b = self._state()
        state.depart(b)
        with pytest.raises(RuntimeError, match="closed bin 1"):
            check_move("x", state, a, state.bins[1])

    def test_infeasible_target_rejected(self):
        state, a, b = self._state()
        with pytest.raises(RuntimeError, match="chose bin 1 at level"):
            check_move("x", state, a, state.bins[1])  # 0.7 + 0.6 > 1


class TestEvacuationPlanner:
    def test_zero_budget_plans_nothing(self):
        state = PackingState(indexed=False)
        state.now = 0.0
        state.place(_item(1, 0.2), None)
        state.place(_item(2, 0.2), None)
        assert plan_evacuation_moves(state, 0) == []

    def test_single_open_bin_plans_nothing(self):
        state = PackingState(indexed=False)
        state.now = 0.0
        state.place(_item(1, 0.2), None)
        assert plan_evacuation_moves(state, 4) == []

    def test_evacuates_emptiest_bin_entirely(self):
        state = PackingState(indexed=False)
        state.now = 0.0
        state.place(_item(1, 0.6), None)   # bin 0: fuller
        state.place(_item(2, 0.1), None)   # bin 1: emptiest -> victim
        state.place(_item(3, 0.1), state.bins[1])
        moves = plan_evacuation_moves(state, 2)
        assert [(it.item_id, t.index) for it, t in moves] == [(2, 0), (3, 0)]

    def test_all_or_nothing_skips_stuck_victims(self):
        state = PackingState(indexed=False)
        state.now = 0.0
        state.place(_item(1, 0.9), None)   # bin 0: nearly full
        state.place(_item(2, 0.3), None)   # bin 1: emptiest, but 0.3 won't fit in 0
        state.place(_item(3, 0.5), None)   # bin 2
        # bin 1 cannot fully rehome (0.3 fits only bin 2); bin 2's 0.5
        # fits nowhere -> the only complete evacuation is bin 1 -> bin 2
        moves = plan_evacuation_moves(state, 4)
        assert [(it.item_id, t.index) for it, t in moves] == [(2, 2)]

    def test_budget_caps_victim_size(self):
        state = PackingState(indexed=False)
        state.now = 0.0
        state.place(_item(1, 0.1), None)   # bin 0: two small items
        state.place(_item(2, 0.1), state.bins[0])
        state.place(_item(3, 0.85), None)  # bins 1 and 2: stuck singletons
        state.place(_item(4, 0.9), None)   # (fit nowhere else)
        assert plan_evacuation_moves(state, 1) == []  # bin 0 needs 2 moves
        assert len(plan_evacuation_moves(state, 2)) == 2

    def test_planner_is_deterministic(self):
        items = poisson_workload(120, seed=5, mu_target=6.0, arrival_rate=15.0)
        result = run_packing(items, BudgetedRepack(budget=3))
        repeat = run_packing(items, BudgetedRepack(budget=3))
        assert result.item_bin == repeat.item_bin
        assert result.total_usage_time == repeat.total_usage_time


class TestDriverIntegration:
    def test_usage_time_matches_bin_spans(self):
        """The incremental cost of a migrating run == the bin-span recompute."""
        items = poisson_workload(150, seed=9, mu_target=5.0, arrival_rate=12.0)
        result = run_packing(items, BudgetedRepack(budget=4))
        spans = sum(b.closed_at - b.opened_at for b in result.bins)
        assert result.total_usage_time == pytest.approx(spans, abs=1e-9)

    def test_migrations_actually_happen(self):
        """Guard the guard: the workloads above must really trigger moves."""
        items = poisson_workload(150, seed=9, mu_target=5.0, arrival_rate=12.0)
        policy = BudgetedRepack(budget=4)
        run_packing(items, policy)
        assert policy.moves > 0

    def test_migration_reduces_usage_time(self):
        items = poisson_workload(300, seed=3, mu_target=6.0, arrival_rate=15.0)
        plain = run_packing(items, BudgetedRepack(budget=0)).total_usage_time
        repacked = run_packing(items, BudgetedRepack(budget=4)).total_usage_time
        assert repacked < plain
