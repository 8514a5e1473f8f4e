"""Multi-dimensional MinUsageTime DBP — the vector engine entry point.

Since the engine unification this module contains **no event loop**:
:func:`run_vector_packing` builds a
:class:`~repro.multidim.state.VectorPackingState` and hands it to the
shared :func:`repro.core.driver.run_events`, the same driver that powers
the scalar :func:`~repro.core.packing.run_packing`.  Event ordering,
departures-before-arrivals ties, placement validation, observer
dispatch, O(1) bin close, and the adaptive first-fit index therefore
behave identically in both engines, and every driver-level improvement
reaches vector workloads for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from ..core.driver import Observer, run_events
from .algorithms import VectorAlgorithm
from .bins import VectorBin
from .items import VectorItem, VectorItemList
from .state import VectorPackingState

__all__ = ["VectorPackingResult", "run_vector_packing"]


@dataclass(frozen=True)
class VectorPackingResult:
    """Outcome of one vector packing run."""

    items: VectorItemList
    bins: tuple[VectorBin, ...]
    algorithm_name: str
    item_bin: dict[int, int]

    @cached_property
    def total_usage_time(self) -> float:
        return sum(b.usage_time for b in self.bins)

    @property
    def num_bins(self) -> int:
        return len(self.bins)

    def ratio_vs_lower_bound(self) -> float:
        """Usage time over the closed-form OPT lower bound."""
        lb = self.items.lower_bound()
        if lb <= 0:
            raise ValueError("degenerate instance: zero lower bound")
        return self.total_usage_time / lb


def run_vector_packing(
    items: VectorItemList | Iterable[VectorItem],
    algorithm: VectorAlgorithm,
    capacity: Optional[Sequence[float]] = None,
    observers: Sequence[Observer] = (),
    indexed: bool = True,
) -> VectorPackingResult:
    """Pack vector ``items`` online with ``algorithm`` and return the result.

    Parameters
    ----------
    items:
        The instance.  A plain iterable is wrapped into a
        :class:`~repro.multidim.items.VectorItemList` (validating sizes
        against ``capacity``, which then defaults to the unit vector of
        the items' dimension).
    algorithm:
        The placement policy.  It is ``reset()`` before the run.
    capacity:
        Per-dimension bin capacity.  When ``items`` is already a
        ``VectorItemList`` this must match the list's capacity (same
        guardrail — and same error message — as the scalar engine).
    observers:
        Callbacks invoked after every applied event.
    indexed:
        Maintain the O(log n) vector first-fit index (default).
        ``False`` selects the reference linear scans; both paths must
        produce identical packings (pinned by the differential tests).

    Notes
    -----
    Simultaneous events are ordered departures-first (half-open
    intervals), then by instance order — identical to the 1-D engine,
    because it *is* the 1-D engine's driver.
    """
    if not isinstance(items, VectorItemList):
        materialised = tuple(items)
        if capacity is None:
            if not materialised:
                raise ValueError("cannot infer capacity from an empty instance")
            capacity = (1.0,) * materialised[0].dimensions
        items = VectorItemList(materialised, capacity=capacity)
    elif capacity is not None and (
        len(items.capacity) != len(tuple(capacity))
        or any(abs(a - float(b)) > 1e-12 for a, b in zip(items.capacity, capacity))
    ):
        raise ValueError(
            f"capacity mismatch: ItemList built with {items.capacity}, "
            f"run requested {tuple(float(c) for c in capacity)}"
        )

    state = VectorPackingState(capacity=items.capacity, indexed=indexed)
    run_events(items, algorithm, state, observers, hook_base=VectorAlgorithm)
    # the state is discarded here: hand its item->bin map over, no copy
    return VectorPackingResult(
        items=items,
        bins=tuple(state.bins),
        algorithm_name=algorithm.name,
        item_bin=state.item_bin,
    )
