"""Tests for repro.core.packing: the online driver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ALGORITHM_REGISTRY, FirstFit, make_algorithm
from repro.algorithms.base import PackingAlgorithm
from repro.core.events import EventKind
from repro.core.items import Item, ItemList
from repro.core.packing import run_packing
from repro.multidim import VECTOR_REGISTRY, make_vector_algorithm, run_vector_packing

from ..conftest import item_lists, vector_instances


class TestDriverBasics:
    def test_simple_first_fit(self, simple_items):
        result = run_packing(simple_items, FirstFit())
        assert result.num_bins == 2
        assert result.total_usage_time == pytest.approx(4.0)

    def test_accepts_plain_iterable(self):
        result = run_packing(
            [Item(0, 0.5, 0.0, 1.0), Item(1, 0.5, 0.0, 1.0)], FirstFit()
        )
        assert result.num_bins == 1

    def test_capacity_mismatch_rejected(self):
        items = ItemList([Item(0, 0.5, 0, 1)], capacity=2.0)
        with pytest.raises(ValueError, match="capacity mismatch"):
            run_packing(items, FirstFit(), capacity=1.0)

    def test_empty_instance(self):
        result = run_packing(ItemList([]), FirstFit())
        assert result.num_bins == 0
        assert result.total_usage_time == 0.0

    def test_single_item(self):
        result = run_packing([Item(0, 1.0, 2.0, 5.0)], FirstFit())
        assert result.num_bins == 1
        assert result.total_usage_time == 3.0

    def test_observer_sees_every_event(self, simple_items):
        seen = []
        run_packing(simple_items, FirstFit(), observers=[lambda e, s: seen.append(e)])
        assert len(seen) == 2 * len(simple_items)
        arrivals = [e for e in seen if e.kind is EventKind.ARRIVE]
        assert len(arrivals) == len(simple_items)

    def test_item_bin_mapping_complete(self, simple_items):
        result = run_packing(simple_items, FirstFit())
        assert set(result.item_bin) == {it.item_id for it in simple_items}


class _CheatingAlgorithm(PackingAlgorithm):
    """Deliberately returns an infeasible bin to test driver validation."""

    name = "cheater"

    def choose_bin(self, state, size):
        bins = state.open_bins()
        return bins[0] if bins else None


class TestDriverValidation:
    def test_driver_rejects_infeasible_choice(self):
        items = [Item(0, 0.8, 0.0, 2.0), Item(1, 0.8, 0.5, 2.0)]
        with pytest.raises(RuntimeError, match="cheater"):
            run_packing(items, _CheatingAlgorithm())

    def test_exact_fill_at_departure_boundary(self):
        # item 1 arrives exactly when item 0 departs: space must be free
        items = [Item(0, 1.0, 0.0, 1.0), Item(1, 1.0, 1.0, 2.0)]
        result = run_packing(items, FirstFit())
        # item 0's bin closed at t=1, so a NEW bin opens (bins never reopen)
        assert result.num_bins == 2
        assert result.total_usage_time == pytest.approx(2.0)


class TestDriverInvariantsAllAlgorithms:
    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_all_items_placed_and_bins_closed(self, name):
        items = ItemList(
            [Item(i, 0.3 + 0.05 * (i % 5), i * 0.3, i * 0.3 + 1 + (i % 3)) for i in range(25)]
        )
        result = run_packing(items, make_algorithm(name))
        assert set(result.item_bin) == {it.item_id for it in items}
        for b in result.bins:
            assert b.is_closed
            assert not b.active_items

    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_usage_time_at_least_span(self, name):
        items = ItemList([Item(i, 0.4, i * 0.5, i * 0.5 + 2.0) for i in range(15)])
        result = run_packing(items, make_algorithm(name))
        assert result.total_usage_time >= items.span - 1e-9

    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_determinism(self, name):
        items = ItemList(
            [Item(i, 0.2 + 0.13 * (i % 4), (i * 7) % 11, (i * 7) % 11 + 1 + i % 5) for i in range(30)]
        )
        r1 = run_packing(items, make_algorithm(name))
        r2 = run_packing(items, make_algorithm(name))
        assert r1.item_bin == r2.item_bin
        assert r1.total_usage_time == r2.total_usage_time


@given(item_lists(max_items=30))
@settings(max_examples=60, deadline=None)
def test_capacity_never_violated_property(items):
    """At every event, every bin's level stays within capacity."""
    violations = []

    def check(event, state):
        for b in state.open_bins():
            if b.level > state.capacity + 1e-9:
                violations.append((event.time, b.index, b.level))

    run_packing(items, FirstFit(), observers=[check])
    assert violations == []


@given(item_lists(max_items=30), st.sampled_from(sorted(ALGORITHM_REGISTRY)))
@settings(max_examples=60, deadline=None)
def test_total_level_tracks_open_bins_property(items, name):
    """After every event, the running ``total_level`` equals the summed
    level of the open bins, and is exactly 0.0 whenever none is open."""
    violations = []

    def check(event, state):
        resum = sum(b.level for b in state.open_bins())
        if state.total_level != pytest.approx(resum, abs=1e-9) or (
            state.num_open == 0 and state.total_level != 0.0
        ):
            violations.append((event.time, state.total_level, resum))

    run_packing(items, make_algorithm(name), observers=[check])
    assert violations == []


@given(vector_instances(), st.sampled_from(sorted(VECTOR_REGISTRY)))
@settings(max_examples=60, deadline=None)
def test_vector_total_level_tracks_open_bins_property(items, name):
    """The same accounting per dimension on the vector engine."""
    violations = []

    def check(event, state):
        resum = [
            sum(b.levels[d] for b in state.open_bins())
            for d in range(state.dimensions)
        ]
        total = state.total_level
        if total != pytest.approx(resum, abs=1e-9) or (
            state.num_open == 0 and total != (0.0,) * state.dimensions
        ):
            violations.append((event.time, total, resum))

    run_vector_packing(items, make_vector_algorithm(name), observers=[check])
    assert violations == []


@given(item_lists(max_items=30))
@settings(max_examples=60, deadline=None)
def test_usage_time_bracket_property(items):
    """span ≤ FF_total ≤ Σ durations (each item alone in a bin)."""
    result = run_packing(items, FirstFit())
    total_durations = sum(it.duration for it in items)
    assert items.span - 1e-7 <= result.total_usage_time <= total_durations + 1e-7
