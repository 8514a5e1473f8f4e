"""Multi-dimensional items: vector resource demands.

Section IX names the extension: "extend the MinUsageTime DBP problem to
the multi-dimensional version to model multiple types of resources
(e.g., CPU and memory) for online cloud server allocation."  A vector
item demands a share of each of ``D`` resources; a vector bin can host a
set of items iff the demand sum is within capacity in *every* dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..core.intervals import Interval, span as _span

__all__ = ["VectorItem", "VectorItemList"]


@dataclass(frozen=True, slots=True)
class VectorItem:
    """A job demanding ``sizes[d]`` of resource ``d`` over its interval."""

    item_id: int
    sizes: tuple[float, ...]
    arrival: float
    departure: float

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError(f"item {self.item_id}: needs at least one dimension")
        if any(s < 0 for s in self.sizes) or all(s <= 0 for s in self.sizes):
            raise ValueError(
                f"item {self.item_id}: sizes must be non-negative with at "
                f"least one positive component, got {self.sizes}"
            )
        if math.isnan(self.arrival) or math.isnan(self.departure):
            raise ValueError(f"item {self.item_id}: NaN endpoint")
        if not (self.departure > self.arrival):
            raise ValueError(f"item {self.item_id}: departure must be after arrival")

    @property
    def dimensions(self) -> int:
        return len(self.sizes)

    @property
    def size(self) -> tuple[float, ...]:
        """The demand vector, under the unified engine's protocol name.

        The generic driver reveals ``item.size`` to non-clairvoyant
        policies; for a vector item that is the full ``sizes`` tuple
        (and never the departure time).
        """
        return self.sizes

    @property
    def interval(self) -> Interval:
        return Interval(self.arrival, self.departure)

    @property
    def duration(self) -> float:
        return self.departure - self.arrival

    @property
    def max_size(self) -> float:
        """Largest component — the scalarisation used for size classes."""
        return max(self.sizes)

    def time_space_demand(self, dim: int) -> float:
        """``sizes[dim] · duration``."""
        return self.sizes[dim] * self.duration


class VectorItemList:
    """An instance of multi-dimensional MinUsageTime DBP."""

    def __init__(self, items: Iterable[VectorItem], capacity: Sequence[float] = (1.0,)):
        self._items: tuple[VectorItem, ...] = tuple(items)
        self.capacity: tuple[float, ...] = tuple(float(c) for c in capacity)
        if any(c <= 0 for c in self.capacity):
            raise ValueError("capacities must be positive")
        seen: set[int] = set()
        for it in self._items:
            if it.item_id in seen:
                raise ValueError(f"duplicate item_id {it.item_id}")
            seen.add(it.item_id)
            if it.dimensions != len(self.capacity):
                raise ValueError(
                    f"item {it.item_id} has {it.dimensions} dimensions, "
                    f"instance has {len(self.capacity)}"
                )
            for d, (s, c) in enumerate(zip(it.sizes, self.capacity)):
                if s > c + 1e-12:
                    raise ValueError(
                        f"item {it.item_id}: size {s} exceeds capacity {c} in dim {d}"
                    )

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[VectorItem]:
        return iter(self._items)

    def __getitem__(self, idx: int) -> VectorItem:
        return self._items[idx]

    @property
    def dimensions(self) -> int:
        return len(self.capacity)

    @property
    def mu(self) -> float:
        durations = [it.duration for it in self._items]
        if not durations:
            raise ValueError("empty instance has no µ")
        return max(durations) / min(durations)

    @property
    def span(self) -> float:
        return _span(it.interval for it in self._items)

    def time_space_demand(self, dim: int) -> float:
        """Total time–space demand in one dimension (Prop. 1 analogue)."""
        return sum(it.time_space_demand(dim) for it in self._items)

    def lower_bound(self) -> float:
        """``max(span, max_d TS_d / C_d)`` — OPT_total lower bound.

        Both Proposition 1 (per dimension, take the binding resource)
        and Proposition 2 carry over verbatim to the vector setting.
        """
        ts = max(
            self.time_space_demand(d) / self.capacity[d]
            for d in range(self.dimensions)
        )
        return max(self.span, ts)
