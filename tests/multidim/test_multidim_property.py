"""Property-based tests for the multi-dimensional extension."""

import pytest
from hypothesis import given, settings

from repro.multidim import VECTOR_REGISTRY, run_vector_packing

from ..conftest import vector_instances


class TestVectorProperties:
    @given(vector_instances())
    @settings(max_examples=50, deadline=None)
    def test_every_policy_produces_valid_packing(self, items):
        for name, factory in VECTOR_REGISTRY.items():
            result = run_vector_packing(items, factory())
            assert set(result.item_bin) == {it.item_id for it in items}
            for b in result.bins:
                assert not b.is_open

    @given(vector_instances())
    @settings(max_examples=50, deadline=None)
    def test_usage_at_least_lower_bound(self, items):
        for name, factory in VECTOR_REGISTRY.items():
            result = run_vector_packing(items, factory())
            assert result.total_usage_time >= items.lower_bound() - 1e-6

    @given(vector_instances())
    @settings(max_examples=40, deadline=None)
    def test_capacity_never_violated_in_any_dimension(self, items):
        """Replay each bin's level per dimension from its items."""
        result = run_vector_packing(items, VECTOR_REGISTRY["vector-first-fit"]())
        for b in result.bins:
            events = []
            for it in b.all_items:
                events.append((it.arrival, 1, it.sizes))
                events.append((it.departure, 0, it.sizes))
            events.sort(key=lambda e: (e[0], e[1]))
            levels = [0.0] * items.dimensions
            for _, kind, sizes in events:
                for d, s in enumerate(sizes):
                    levels[d] += s if kind == 1 else -s
                    assert levels[d] <= items.capacity[d] + 1e-9

    @given(vector_instances(max_dims=1))
    @settings(max_examples=30, deadline=None)
    def test_one_dimension_matches_scalar_first_fit(self, items):
        """D=1 vector FF must coincide with the scalar driver."""
        from repro.algorithms import FirstFit
        from repro.core.items import Item, ItemList
        from repro.core.packing import run_packing
        from repro.multidim import VectorFirstFit

        vec = run_vector_packing(items, VectorFirstFit())
        scalar = run_packing(
            ItemList(
                Item(it.item_id, it.sizes[0], it.arrival, it.departure)
                for it in items
            ),
            FirstFit(),
        )
        assert vec.item_bin == scalar.item_bin
        assert vec.total_usage_time == pytest.approx(scalar.total_usage_time)

    @given(vector_instances())
    @settings(max_examples=30, deadline=None)
    def test_vector_first_fit_is_any_fit(self, items):
        """Vector FF opens a bin only when no open bin fits."""
        from repro.multidim.algorithms import VectorFirstFit

        opened_badly = []

        class Watch(VectorFirstFit):
            def choose_bin(self, state, sizes):
                target = super().choose_bin(state, sizes)
                if target is None and state.open_bins_fitting(sizes):
                    opened_badly.append(sizes)
                return target

        run_vector_packing(items, Watch())
        assert opened_badly == []
