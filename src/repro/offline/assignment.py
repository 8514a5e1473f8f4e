"""Offline non-migratory assignments and their cost model.

The paper's ``OPT_total`` adversary may *repack everything at any
instant* (Section III-C).  Between that adversary and the online
algorithms sits a natural third model from the interval-scheduling
literature the paper relates to (Section II): the **offline
non-migratory** optimum — all intervals are known in advance, items are
partitioned into capacity-feasible groups once, and each group's cost is
the measure of the union of its items' intervals (a server is rented
whenever at least one of its assigned jobs is active; an idle server is
released and re-rented, which is what closing/reopening a bin means).

This module defines the assignment representation, feasibility and cost;
:mod:`repro.offline.solvers` computes optimal and heuristic assignments.

The three models bracket each other instance-wise::

    repacking OPT_total  <=  offline non-migratory OPT  <=  best online ALG

The gaps are the *price of non-migration* and the *price of
online-ness*, measured by experiment X3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.bins import CAPACITY_EPS
from ..core.intervals import merge_intervals, union_length
from ..core.items import Item, ItemList

__all__ = [
    "Assignment",
    "group_feasible",
    "group_cost",
    "marginal_cost",
    "max_level",
]


def max_level(items: Iterable[Item]) -> float:
    """Peak total size of a set of items over time (sweep line)."""
    events: list[tuple[float, float]] = []
    for it in items:
        events.append((it.arrival, it.size))
        events.append((it.departure, -it.size))
    events.sort(key=lambda e: (e[0], e[1]))  # departures first at ties
    level = peak = 0.0
    for _, delta in events:
        level += delta
        peak = max(peak, level)
    return peak


def group_feasible(items: Sequence[Item], capacity: float = 1.0) -> bool:
    """Whether a group of items can share one server at all times."""
    return max_level(items) <= capacity + CAPACITY_EPS


def group_cost(items: Sequence[Item]) -> float:
    """Cost of one group: measure of the union of its intervals."""
    return union_length(it.interval for it in items)


def marginal_cost(group: Sequence[Item], item: Item) -> float:
    """Cost increase from adding ``item`` to ``group``."""
    base = group_cost(group)
    return union_length(
        [it.interval for it in group] + [item.interval]
    ) - base


@dataclass
class Assignment:
    """A partition of an instance into server groups."""

    items: ItemList
    groups: list[list[Item]]

    def cost(self) -> float:
        """Total renting cost: Σ per-group union lengths."""
        return sum(group_cost(g) for g in self.groups)

    def is_feasible(self) -> bool:
        """All groups capacity-feasible and every item placed once."""
        placed = [it.item_id for g in self.groups for it in g]
        if sorted(placed) != sorted(it.item_id for it in self.items):
            return False
        return all(group_feasible(g, self.items.capacity) for g in self.groups)

    def validate(self) -> None:
        """Raise ``ValueError`` if infeasible (with the reason)."""
        placed = [it.item_id for g in self.groups for it in g]
        if len(placed) != len(set(placed)):
            raise ValueError("an item is assigned to more than one group")
        if set(placed) != {it.item_id for it in self.items}:
            raise ValueError("assignment does not cover the instance")
        for i, g in enumerate(self.groups):
            peak = max_level(g)
            if peak > self.items.capacity + CAPACITY_EPS:
                raise ValueError(
                    f"group {i} peaks at level {peak} > capacity {self.items.capacity}"
                )

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def busy_intervals(self, group_index: int):
        """The disjoint busy intervals of one group (for rendering)."""
        return merge_intervals(it.interval for it in self.groups[group_index])
