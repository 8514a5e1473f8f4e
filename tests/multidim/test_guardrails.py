"""Guardrails shared by both engines — identical checks, identical messages.

Since the unification, placement validation lives in the single driver
(:mod:`repro.core.driver`) and the capacity-mismatch check uses the same
format string in both entry points, so a scalar and a vector misuse must
fail with *literally identical* wording (modulo the embedded values).
"""

from __future__ import annotations

import pytest

from repro.algorithms import FirstFit
from repro.algorithms.base import PackingAlgorithm
from repro.core.engine import simulate
from repro.core.items import Item, ItemList
from repro.core.packing import run_packing
from repro.multidim import (
    VectorAlgorithm,
    VectorItem,
    VectorItemList,
    run_vector_packing,
)
from repro.multidim.algorithms import VectorFirstFit

SCALAR_ITEMS = ItemList(
    [Item(0, 0.4, 0.0, 2.0), Item(1, 0.4, 1.0, 3.0)], capacity=2.0
)
VECTOR_ITEMS = VectorItemList(
    [VectorItem(0, (0.4, 0.2), 0.0, 2.0), VectorItem(1, (0.4, 0.2), 1.0, 3.0)],
    capacity=(2.0, 2.0),
)


class TestCapacityMismatch:
    def test_scalar_rejects_mismatched_item_list(self):
        with pytest.raises(ValueError, match="capacity mismatch") as exc:
            run_packing(SCALAR_ITEMS, FirstFit(), capacity=1.0)
        assert str(exc.value) == (
            "capacity mismatch: ItemList built with 2.0, run requested 1.0"
        )

    def test_vector_rejects_mismatched_item_list(self):
        with pytest.raises(ValueError, match="capacity mismatch") as exc:
            run_vector_packing(VECTOR_ITEMS, VectorFirstFit(), capacity=(1.0, 1.0))
        assert str(exc.value) == (
            "capacity mismatch: ItemList built with (2.0, 2.0), "
            "run requested (1.0, 1.0)"
        )

    def test_vector_rejects_wrong_dimension_count(self):
        with pytest.raises(ValueError, match="capacity mismatch"):
            run_vector_packing(VECTOR_ITEMS, VectorFirstFit(), capacity=(2.0,))

    def test_matching_capacity_is_accepted(self):
        run_packing(SCALAR_ITEMS, FirstFit(), capacity=2.0)
        run_vector_packing(VECTOR_ITEMS, VectorFirstFit(), capacity=(2.0, 2.0))


class _ScalarClosedBinChooser(PackingAlgorithm):
    """Returns the first *closed* bin it can find — a driver-level bug."""

    name = "rogue"

    def choose_bin(self, state, size):
        for b in state.bins:
            if b.is_closed:
                return b
        return None


class _VectorClosedBinChooser(VectorAlgorithm):
    name = "rogue"

    def choose_bin(self, state, sizes):
        for b in state.bins:
            if b.is_closed:
                return b
        return None


class TestClosedBinPlacement:
    """Both engines must reject a policy that targets a closed bin.

    The instances are shaped so bin 0 closes (its only item departs)
    before the last arrival, at which point the rogue policy returns the
    closed bin.  The rejection comes from the shared driver, so the
    message is identical across engines.
    """

    @pytest.mark.parametrize(
        "run",
        [run_packing, lambda items, algo: list(simulate(items, algo))],
        ids=["run_packing", "simulate"],
    )
    def test_scalar_driver_rejects_closed_bin(self, run):
        items = ItemList(
            [Item(0, 0.5, 0.0, 1.0), Item(1, 0.5, 2.0, 3.0)], capacity=1.0
        )
        with pytest.raises(RuntimeError) as exc:
            run(items, _ScalarClosedBinChooser())
        assert str(exc.value) == "rogue chose closed bin 0"

    def test_vector_driver_rejects_closed_bin(self):
        items = VectorItemList(
            [VectorItem(0, (0.5,), 0.0, 1.0), VectorItem(1, (0.5,), 2.0, 3.0)],
            capacity=(1.0,),
        )
        with pytest.raises(RuntimeError) as exc:
            run_vector_packing(items, _VectorClosedBinChooser())
        assert str(exc.value) == "rogue chose closed bin 0"

    def test_state_place_rejects_closed_bin_directly(self):
        """The state-level backstop uses one message for both resources."""
        from repro.core.state import PackingState
        from repro.multidim.state import VectorPackingState

        s = PackingState(capacity=1.0)
        s.now = 0.0
        b = s.place(Item(0, 0.5, 0.0, 1.0), None)
        s.now = 1.0
        s.depart(Item(0, 0.5, 0.0, 1.0))
        with pytest.raises(ValueError, match="cannot place into closed bin 0"):
            s.place(Item(1, 0.5, 2.0, 3.0), b)

        v = VectorPackingState(capacity=(1.0,))
        v.now = 0.0
        vb = v.place(VectorItem(0, (0.5,), 0.0, 1.0), None)
        v.now = 1.0
        v.depart(VectorItem(0, (0.5,), 0.0, 1.0))
        with pytest.raises(ValueError, match="cannot place into closed bin 0"):
            v.place(VectorItem(1, (0.5,), 2.0, 3.0), vb)


class TestInfeasiblePlacement:
    """The shared driver validates feasibility before mutating state."""

    def test_scalar_driver_rejects_overfull_choice(self):
        class Rogue(PackingAlgorithm):
            name = "rogue"

            def choose_bin(self, state, size):
                bins = state.open_bins()
                return bins[0] if bins else None

        items = ItemList(
            [Item(0, 0.7, 0.0, 2.0), Item(1, 0.7, 1.0, 3.0)], capacity=1.0
        )
        with pytest.raises(RuntimeError, match="rogue chose bin 0 at level"):
            run_packing(items, Rogue())

    def test_vector_driver_rejects_overfull_choice(self):
        class Rogue(VectorAlgorithm):
            name = "rogue"

            def choose_bin(self, state, sizes):
                bins = state.open_bins()
                return bins[0] if bins else None

        items = VectorItemList(
            [VectorItem(0, (0.2, 0.7), 0.0, 2.0), VectorItem(1, (0.2, 0.7), 1.0, 3.0)],
            capacity=(1.0, 1.0),
        )
        with pytest.raises(RuntimeError, match="rogue chose bin 0 at level"):
            run_vector_packing(items, Rogue())
