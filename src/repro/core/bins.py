"""The bin (cloud server) substrate.

A :class:`Bin` tracks the set of active items it holds, its *level*
(total size of active items — the paper's "bin level"), its usage period
``U_k = [opened_at, closed_at)``, and a full level timeline for later
analysis.  Capacity feasibility is enforced with a small tolerance so
instances built from fractions like ``1/3`` pack exactly.

The level timeline is kept as two parallel ``array('d')`` columns,
``level_times`` and ``level_values`` (16 bytes per event), rather than
one ``(time, level)`` tuple per event: every event of a run appends to
it, so it is what a packing run keeps resident.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .intervals import Interval
from .items import Item

__all__ = ["Bin", "CAPACITY_EPS"]

#: Absolute tolerance for capacity feasibility checks.  Sizes in this
#: problem are O(1); 1e-9 absorbs float accumulation without admitting
#: any meaningfully infeasible placement.
CAPACITY_EPS = 1e-9


@dataclass(slots=True)
class Bin:
    """A unit-capacity bin / pay-as-you-go cloud server.

    The bin is *opened* when it receives its first item and *closed* when
    its last active item departs.  Following the paper, a closed bin is
    never reused — a re-opened server is a new bin with its own usage
    period.

    Attributes
    ----------
    index:
        0-based opening order among all bins of a packing run.  First Fit
        scans bins in increasing ``index``.
    capacity:
        Resource capacity (1.0 throughout the paper).
    """

    index: int
    capacity: float = 1.0
    opened_at: Optional[float] = None
    closed_at: Optional[float] = None
    level: float = 0.0
    active_items: dict[int, Item] = field(default_factory=dict)
    #: every item ever placed here, in placement order
    all_items: list[Item] = field(default_factory=list)
    #: piecewise-constant level timeline, one entry per event in event
    #: order: the event's time and the level right after it
    level_times: array = field(default_factory=partial(array, "d"))
    level_values: array = field(default_factory=partial(array, "d"))

    # -- queries -------------------------------------------------------------
    @property
    def is_open(self) -> bool:
        """Open = has received its first item and not yet closed."""
        return self.opened_at is not None and self.closed_at is None

    @property
    def is_closed(self) -> bool:
        return self.closed_at is not None

    @property
    def usage_period(self) -> Interval:
        """``U_k = [opened_at, closed_at)`` (requires the bin be closed)."""
        if self.opened_at is None or self.closed_at is None:
            raise ValueError(f"bin {self.index} has no finished usage period")
        return Interval(self.opened_at, self.closed_at)

    @property
    def usage_time(self) -> float:
        """``|U_k|`` — this bin's contribution to the objective."""
        return self.usage_period.length

    def residual(self) -> float:
        """Free capacity right now."""
        return self.capacity - self.level

    def fits(self, item: Item) -> bool:
        """Whether ``item`` can be placed without exceeding capacity."""
        return self.level + item.size <= self.capacity + CAPACITY_EPS

    def level_at(self, t: float) -> float:
        """Bin level at time ``t`` from the recorded timeline.

        The timeline is piecewise constant and right-continuous: the level
        at ``t`` is the one set by the last event at time ``<= t``.
        Returns 0 outside the usage period.  ``level_times`` is ordered by
        event time, so the lookup is a binary search, O(log events).
        """
        idx = bisect_right(self.level_times, t)
        if idx == 0:
            return 0.0
        return self.level_values[idx - 1]

    # -- mutations (called by the packing state) -----------------------------
    def place(self, item: Item, now: float) -> None:
        """Insert an arriving item; opens the bin on first placement."""
        if self.closed_at is not None:
            raise ValueError(f"bin {self.index} is closed; cannot place item")
        if self.level + item.size > self.capacity + CAPACITY_EPS:
            raise ValueError(
                f"bin {self.index}: item {item.item_id} (size {item.size}) "
                f"does not fit at level {self.level}"
            )
        if self.opened_at is None:
            self.opened_at = now
        self.active_items[item.item_id] = item
        self.all_items.append(item)
        self.level += item.size
        self.level_times.append(now)
        self.level_values.append(self.level)

    def remove(self, item: Item, now: float) -> None:
        """Remove a departing item; closes the bin if it becomes empty."""
        if item.item_id not in self.active_items:
            raise KeyError(f"item {item.item_id} is not active in bin {self.index}")
        del self.active_items[item.item_id]
        self.level -= item.size
        if not self.active_items:
            self.level = 0.0  # snap float residue to exact zero
            self.closed_at = now
        self.level_times.append(now)
        self.level_values.append(self.level)
