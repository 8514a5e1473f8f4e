"""Vector bins: capacity feasibility in every dimension.

:class:`VectorBin` satisfies the same structural protocol as the scalar
:class:`~repro.core.bins.Bin` (``index`` / ``level`` / ``is_open`` /
``is_closed`` / ``fits`` / ``place`` / ``remove`` / usage period), with
the resource type being a tuple of floats instead of one float — that is
what lets the unified driver and the generic
:class:`~repro.core.state.BasePackingState` run vector packings without
a forked event loop.  The capacity tolerance is the engine-wide
:data:`~repro.core.bins.CAPACITY_EPS`, applied per dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.bins import CAPACITY_EPS
from ..core.intervals import Interval
from .items import VectorItem

__all__ = ["VectorBin"]


@dataclass(slots=True)
class VectorBin:
    """A multi-resource server; open/close lifecycle mirrors the 1-D bin."""

    index: int
    capacity: tuple[float, ...]
    opened_at: Optional[float] = None
    closed_at: Optional[float] = None
    levels: tuple[float, ...] = ()
    active_items: dict[int, VectorItem] = field(default_factory=dict)
    all_items: list[VectorItem] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.levels:
            self.levels = tuple(0.0 for _ in self.capacity)

    @property
    def is_open(self) -> bool:
        return self.opened_at is not None and self.closed_at is None

    @property
    def is_closed(self) -> bool:
        return self.closed_at is not None

    @property
    def level(self) -> tuple[float, ...]:
        """The level vector, under the unified engine's protocol name."""
        return self.levels

    @property
    def usage_period(self) -> Interval:
        if self.opened_at is None or self.closed_at is None:
            raise ValueError(f"bin {self.index} has no finished usage period")
        return Interval(self.opened_at, self.closed_at)

    @property
    def usage_time(self) -> float:
        return self.usage_period.length

    def fits(self, item: VectorItem) -> bool:
        """Componentwise feasibility."""
        # explicit loop, not all(genexpr): this is called once per
        # arrival on the driver's validation path
        for lvl, s, c in zip(self.levels, item.sizes, self.capacity):
            if lvl + s > c + CAPACITY_EPS:
                return False
        return True

    def fits_sizes(self, sizes: Sequence[float]) -> bool:
        """Componentwise feasibility for a bare demand vector.

        Same comparisons as :meth:`fits`; used by policies that only see
        the revealed ``sizes`` (vector Next Fit's available-bin check).
        """
        for lvl, s, c in zip(self.levels, sizes, self.capacity):
            if lvl + s > c + CAPACITY_EPS:
                return False
        return True

    def fullness(self) -> float:
        """Scalar load measure: the maximum normalised component.

        Used by vector Best/Worst Fit; the max-norm is the standard
        scalarisation for vector packing heuristics (the binding
        resource determines feasibility).
        """
        return max(l / c for l, c in zip(self.levels, self.capacity))

    def place(self, item: VectorItem, now: float) -> None:
        if self.closed_at is not None:
            raise ValueError(f"bin {self.index} is closed")
        if not self.fits(item):
            raise ValueError(
                f"bin {self.index}: item {item.item_id} does not fit at {self.levels}"
            )
        if self.opened_at is None:
            self.opened_at = now
        self.active_items[item.item_id] = item
        self.all_items.append(item)
        self.levels = tuple(map(float.__add__, self.levels, item.sizes))

    def remove(self, item: VectorItem, now: float) -> None:
        if item.item_id not in self.active_items:
            raise KeyError(f"item {item.item_id} not active in bin {self.index}")
        del self.active_items[item.item_id]
        self.levels = tuple(map(float.__sub__, self.levels, item.sizes))
        if not self.active_items:
            self.levels = tuple(0.0 for _ in self.capacity)
            self.closed_at = now
