"""The scalar online packing entry point.

:func:`run_packing` replays an instance's event sequence through an
online algorithm and returns a :class:`~repro.core.result.PackingResult`.
It is one of the driver's two entry points: observers passed here see
``(event, state)`` after every applied event, and a caller that
interleaves its own work between events drives
:class:`~repro.core.driver.EventStepper` instead.  The event loop
itself lives in :mod:`repro.core.driver` — the single,
resource-agnostic driver shared with the vector engine
(:func:`repro.multidim.packing.run_vector_packing`).  The driver — not
the algorithm — owns correctness: it validates every placement against
bin capacity, reveals departures only when they occur, and closes bins
exactly when their last item departs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..algorithms.base import PackingAlgorithm

from .driver import Observer, run_events
from .items import Item, ItemList
from .result import PackingResult
from .state import PackingState

__all__ = ["run_packing"]


def run_packing(
    items: ItemList | Sequence[Item] | Iterable[Item],
    algorithm: "PackingAlgorithm",
    capacity: float = 1.0,
    observers: Sequence[Observer] = (),
    indexed: bool = True,
) -> PackingResult:
    """Pack ``items`` online with ``algorithm`` and return the result.

    Parameters
    ----------
    items:
        The instance.  A plain iterable is wrapped into an
        :class:`~repro.core.items.ItemList` (validating sizes/ids).
    algorithm:
        The placement policy.  It is ``reset()`` before the run.
    capacity:
        Bin capacity (the paper uses 1.0 w.l.o.g.).
    observers:
        Callbacks invoked after every applied event.
    indexed:
        Maintain the O(log n) first-fit index (default).  ``False``
        selects the reference linear scans; both paths must produce
        identical packings (pinned by the differential tests).

    Notes
    -----
    Simultaneous events are ordered departures-first (half-open
    intervals), then by instance order — see
    :mod:`repro.core.events`.
    """
    if not isinstance(items, ItemList):
        items = ItemList(items, capacity=capacity)
    elif abs(items.capacity - capacity) > 1e-12:
        raise ValueError(
            f"capacity mismatch: ItemList built with {items.capacity}, "
            f"run requested {capacity}"
        )

    # deferred import: algorithms.base imports core.state (cycle guard)
    from ..algorithms.base import PackingAlgorithm as _Base

    state = PackingState(capacity=capacity, indexed=indexed)
    run_events(items, algorithm, state, observers, hook_base=_Base)
    # the state is discarded here, so its item->bin map is handed over
    # rather than copied
    return PackingResult(
        items=items,
        bins=tuple(state.bins),
        algorithm_name=algorithm.name,
        item_bin=state.item_bin,
    )
