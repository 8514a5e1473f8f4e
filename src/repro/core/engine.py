"""Step-wise simulation engine with pluggable statistics collectors.

``run_packing`` is a batch driver; :func:`simulate` exposes the same
event replay as a generator of :class:`Snapshot` objects so callers can
watch the system evolve (dashboards, autoscaling logic, early stopping).
Collectors accumulate time-series without the caller writing observer
plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..algorithms.base import PackingAlgorithm

from .driver import EventStepper
from .events import Event, EventKind, event_tuples
from .items import ItemList
from .state import PackingState

__all__ = [
    "Snapshot",
    "simulate",
    "Collector",
    "OpenBinsCollector",
    "UtilizationCollector",
    "PlacementLogCollector",
]


@dataclass(frozen=True)
class Snapshot:
    """System state right after one event was applied."""

    time: float
    event: Event
    num_open_bins: int
    num_bins_used: int
    total_level: float

    @property
    def utilization(self) -> float:
        """Mean level across open bins (0 when none)."""
        if self.num_open_bins == 0:
            return 0.0
        return self.total_level / self.num_open_bins


def simulate(
    items: ItemList, algorithm: "PackingAlgorithm", indexed: bool = True
) -> Iterator[Snapshot]:
    """Yield a :class:`Snapshot` after every applied event.

    The generator applies the events :func:`repro.core.packing.run_packing`
    applies, through the driver's :class:`~repro.core.driver.EventStepper`
    (placement validation and planned migrations included); exhausting
    it leaves all bins closed.  (For the final `PackingResult`, use
    ``run_packing`` — this API is for streaming consumers.)  Snapshots
    read the state's
    incrementally maintained :attr:`~PackingState.total_level`, so each
    one is O(1) instead of a re-sum over all open bins.
    """
    state = PackingState(capacity=items.capacity, indexed=indexed)
    stepper = EventStepper(algorithm, state)
    for time, kind, seq, item in event_tuples(items):
        if kind:  # EventKind.ARRIVE
            stepper.arrive(time, seq, item)
        else:
            stepper.depart(time, seq, item)
        yield Snapshot(
            time=time,
            event=Event(time, EventKind(kind), seq, item),
            num_open_bins=state.num_open,
            num_bins_used=state.num_bins_used,
            total_level=state.total_level,
        )
    stepper.finish()


class Collector:
    """Base collector: feed it snapshots, read a summary."""

    def observe(self, snap: Snapshot) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def consume(self, snapshots: Iterator[Snapshot]) -> None:
        """Drain a snapshot stream through this collector."""
        for snap in snapshots:
            self.observe(snap)


class OpenBinsCollector(Collector):
    """Time series of the open-bin count + its peak."""

    def __init__(self) -> None:
        self.series: list[tuple[float, int]] = []
        self.peak = 0

    def observe(self, snap: Snapshot) -> None:
        self.series.append((snap.time, snap.num_open_bins))
        self.peak = max(self.peak, snap.num_open_bins)


class UtilizationCollector(Collector):
    """Time-weighted mean utilization across open bins."""

    def __init__(self) -> None:
        self._last_time: Optional[float] = None
        self._last_util = 0.0
        self._weighted = 0.0
        self._horizon = 0.0

    def observe(self, snap: Snapshot) -> None:
        if self._last_time is not None:
            dt = snap.time - self._last_time
            self._weighted += dt * self._last_util
            self._horizon += dt
        self._last_time = snap.time
        self._last_util = snap.utilization

    @property
    def mean_utilization(self) -> float:
        if self._horizon <= 0:
            return 0.0
        return self._weighted / self._horizon


class PlacementLogCollector(Collector):
    """Ordered log of (time, item_id, bin_count_after) placements."""

    def __init__(self) -> None:
        self.log: list[tuple[float, int, int]] = []

    def observe(self, snap: Snapshot) -> None:
        if snap.event.kind is EventKind.ARRIVE:
            self.log.append((snap.time, snap.event.item.item_id, snap.num_bins_used))
