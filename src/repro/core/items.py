"""Items (jobs) and item-list statistics for MinUsageTime DBP.

An *item* is the paper's unit of work: it has a size ``s(r)`` (resource
demand, relative to unit bin capacity), an arrival time, and a departure
time.  The departure time exists in the instance description but is
**hidden from online algorithms** — the packing driver only reveals it to
the simulator, never to the placement policy (see
:mod:`repro.core.packing`).

The module also provides :class:`ItemList` with the instance-level
quantities used throughout the paper: the max/min duration ratio ``µ``,
the span, and the total time–space demand ``Σ s(r)·|I(r)|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .intervals import Interval, span as _span

__all__ = ["Item", "ItemList", "validate_items"]


@dataclass(frozen=True, slots=True)
class Item:
    """A job to be packed: size plus active interval ``[arrival, departure)``.

    Parameters
    ----------
    item_id:
        Stable identifier, unique within an instance.
    size:
        Resource demand ``s(r)``, in ``(0, capacity]`` (bins have unit
        capacity throughout the paper).
    arrival, departure:
        Endpoints of the active interval ``I(r)``; ``departure`` must be
        strictly greater than ``arrival``.
    """

    item_id: int
    size: float
    arrival: float
    departure: float

    def __post_init__(self) -> None:
        if not (self.size > 0.0):
            raise ValueError(f"item {self.item_id}: size must be positive, got {self.size}")
        if math.isnan(self.arrival) or math.isnan(self.departure):
            raise ValueError(f"item {self.item_id}: NaN endpoint")
        if not (self.departure > self.arrival):
            raise ValueError(
                f"item {self.item_id}: departure ({self.departure}) must be after "
                f"arrival ({self.arrival})"
            )

    @property
    def interval(self) -> Interval:
        """The active interval ``I(r) = [arrival, departure)``."""
        return Interval(self.arrival, self.departure)

    @property
    def duration(self) -> float:
        """``|I(r)|``, the item duration."""
        return self.departure - self.arrival

    @property
    def time_space_demand(self) -> float:
        """``s(r) · |I(r)|`` — the item's time–space demand (Prop. 1)."""
        return self.size * self.duration

    def active_at(self, t: float) -> bool:
        """Whether the item is active at time ``t`` (half-open interval)."""
        return self.arrival <= t < self.departure


def validate_items(items: Sequence[Item], capacity: float = 1.0) -> None:
    """Validate an instance: unique ids and sizes within bin capacity.

    Raises ``ValueError`` on the first violation.  Sizes equal to the
    capacity are allowed (such an item occupies a bin exclusively).
    """
    seen: set[int] = set()
    for it in items:
        if it.item_id in seen:
            raise ValueError(f"duplicate item_id {it.item_id}")
        seen.add(it.item_id)
        if it.size > capacity + 1e-12:
            raise ValueError(
                f"item {it.item_id}: size {it.size} exceeds bin capacity {capacity}"
            )


class ItemList:
    """An immutable instance of the MinUsageTime DBP problem.

    Wraps a sequence of :class:`Item` and exposes the aggregate statistics
    the paper defines in Section III: ``µ``, ``span(R)``,
    ``s(R) = Σ s(r)``, and the total time–space demand.

    Iteration order is the order given at construction (which is *not*
    required to be arrival order; the packing driver sorts events itself).
    """

    def __init__(self, items: Iterable[Item], capacity: float = 1.0):
        self._items: tuple[Item, ...] = tuple(items)
        self.capacity = float(capacity)
        validate_items(self._items, self.capacity)

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items)

    def __getitem__(self, idx: int) -> Item:
        return self._items[idx]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ItemList(n={len(self._items)}, capacity={self.capacity})"

    # -- aggregate statistics ----------------------------------------------
    @property
    def items(self) -> tuple[Item, ...]:
        return self._items

    @property
    def min_duration(self) -> float:
        """Minimum item duration; the paper normalises this to 1."""
        if not self._items:
            raise ValueError("empty item list has no durations")
        return min(it.duration for it in self._items)

    @property
    def max_duration(self) -> float:
        if not self._items:
            raise ValueError("empty item list has no durations")
        return max(it.duration for it in self._items)

    @property
    def mu(self) -> float:
        """``µ = max duration / min duration`` (Section IV)."""
        return self.max_duration / self.min_duration

    @property
    def total_size(self) -> float:
        """``s(R) = Σ_{r∈R} s(r)``."""
        return sum(it.size for it in self._items)

    @property
    def span(self) -> float:
        """``span(R)`` — measure of time with ≥1 active item (Fig. 1)."""
        return _span(it.interval for it in self._items)

    @property
    def time_space_demand(self) -> float:
        """``Σ_r s(r)·|I(r)|`` — lower bound ingredient of Prop. 1."""
        return sum(it.time_space_demand for it in self._items)

    @property
    def packing_period(self) -> Interval:
        """``∪_r I(r)``'s hull: first arrival to last departure."""
        if not self._items:
            return Interval(0.0, 0.0)
        return Interval(
            min(it.arrival for it in self._items),
            max(it.departure for it in self._items),
        )

    def active_at(self, t: float) -> list[Item]:
        """All items active at time ``t``."""
        return [it for it in self._items if it.active_at(t)]

    def event_times(self) -> list[float]:
        """Sorted distinct arrival/departure times of the instance."""
        times = {it.arrival for it in self._items}
        times.update(it.departure for it in self._items)
        return sorted(times)

    def normalized(self) -> "ItemList":
        """A copy rescaled in time so the minimum duration is 1.

        The paper assumes (w.l.o.g., Section IV) that the minimum item
        duration is 1 and the maximum is µ.  Competitive ratios are
        invariant under this rescaling.
        """
        scale = 1.0 / self.min_duration
        t0 = self.packing_period.left
        return ItemList(
            (
                Item(
                    it.item_id,
                    it.size,
                    (it.arrival - t0) * scale,
                    (it.departure - t0) * scale,
                )
                for it in self._items
            ),
            self.capacity,
        )
