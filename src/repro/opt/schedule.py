"""A constructive repacking schedule: what the adversary actually does.

``OPT_total`` integrates a *number* (the per-interval optimum bin
count); this module materialises a *schedule* achieving it — an explicit
assignment of active items to bins on every inter-event interval — and
measures how much repacking it needs: the number of item *migrations*
(an item in bin i on one interval, bin j ≠ i on the next).

Two uses:

- it is a constructive witness that the integral is attainable by an
  all-powerful adversary (the upper side of the bracket);
- the migration count quantifies how unrealistic that adversary is —
  the paper's motivation says migration is disallowed "due to high
  migration overheads and penalty", and the schedule shows how much
  overhead the lower bound silently assumes.

Bins are matched greedily between consecutive intervals (maximum
overlap first) to *minimise counted migrations per step* before
comparing assignments, so the reported count does not punish arbitrary
bin relabelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..core.bins import CAPACITY_EPS
from ..core.items import Item, ItemList
from .bin_packing import exact_bin_count, first_fit_static

__all__ = ["RepackingSchedule", "build_repacking_schedule"]


@dataclass(frozen=True)
class IntervalAssignment:
    """One inter-event interval with its bin assignment."""

    start: float
    end: float
    #: bins as frozensets of item ids (canonical, order-free)
    bins: tuple[frozenset[int], ...]

    @property
    def length(self) -> float:
        return self.end - self.start

    @property
    def num_bins(self) -> int:
        return len(self.bins)


@dataclass(frozen=True)
class RepackingSchedule:
    """The adversary's full trajectory."""

    intervals: tuple[IntervalAssignment, ...]
    total_usage_time: float  # Σ num_bins · length — equals the OPT integral
    migrations: int  # items that changed bin between consecutive intervals
    exact: bool  # every interval solved to optimality

    @property
    def migrations_per_item_event(self) -> float:
        """Migrations normalised by interval transitions (≥ 0)."""
        steps = max(len(self.intervals) - 1, 1)
        return self.migrations / steps


def _assign_items(sizes_items: list[Item], capacity: float, node_budget: int):
    """Partition active items into an optimal (or FFD) set of bins."""
    sizes = tuple(sorted((it.size for it in sizes_items)))
    bracket = exact_bin_count(sizes, capacity, node_budget=node_budget)
    # rebuild an assignment achieving bracket.upper via first-fit-decreasing
    order = sorted(range(len(sizes_items)), key=lambda i: -sizes_items[i].size)
    groups = first_fit_static([sizes_items[i].size for i in order], capacity)
    bins = tuple(
        frozenset(sizes_items[order[i]].item_id for i in g) for g in groups
    )
    # FFD may exceed the optimum; if so, fall back to branch and bound
    # with assignment tracking only when it pays off
    if len(bins) > bracket.upper:
        bins = _exact_assignment(sizes_items, capacity, bracket.upper, node_budget)
    return bins, bracket.exact and len(bins) == bracket.lower


def _exact_assignment(items: list[Item], capacity: float, target: int, node_budget: int):
    """Branch and bound that returns an actual ≤-target assignment."""
    order = sorted(items, key=lambda it: -it.size)
    best: list[list[int]] | None = None
    nodes = 0

    def recurse(i: int, bins: list[list[int]], levels: list[float]) -> bool:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            return True  # give up; caller keeps FFD
        if len(bins) > target:
            return False
        if i == len(order):
            best = [list(b) for b in bins]
            return True
        it = order[i]
        seen: set[float] = set()
        for k in range(len(bins)):
            if levels[k] + it.size <= capacity + CAPACITY_EPS:
                key = round(levels[k], 9)
                if key in seen:
                    continue
                seen.add(key)
                bins[k].append(it.item_id)
                levels[k] += it.size
                if recurse(i + 1, bins, levels):
                    return True
                bins[k].pop()
                levels[k] -= it.size
        if len(bins) < target:
            bins.append([it.item_id])
            levels.append(it.size)
            if recurse(i + 1, bins, levels):
                return True
            bins.pop()
            levels.pop()
        return False

    recurse(0, [], [])
    if best is None:
        # fall back to FFD grouping
        groups = first_fit_static([it.size for it in order], capacity)
        return tuple(frozenset(order[i].item_id for i in g) for g in groups)
    return tuple(frozenset(b) for b in best)


def _count_migrations(
    prev: tuple[frozenset[int], ...], cur: tuple[frozenset[int], ...]
) -> int:
    """Minimum migrations between two assignments, via greedy matching.

    Bins are matched in decreasing-overlap order (counting only items
    present in both assignments); unmatched items count as migrated.
    """
    carried = {iid for b in prev for iid in b} & {iid for b in cur for iid in b}
    if not carried:
        return 0
    pairs = []
    for i, p in enumerate(prev):
        for j, c in enumerate(cur):
            overlap = len((p & c) & carried)
            if overlap:
                pairs.append((overlap, i, j))
    pairs.sort(reverse=True)
    used_prev: set[int] = set()
    used_cur: set[int] = set()
    stayed = 0
    for overlap, i, j in pairs:
        if i in used_prev or j in used_cur:
            continue
        used_prev.add(i)
        used_cur.add(j)
        stayed += len((prev[i] & cur[j]) & carried)
    return len(carried) - stayed


def build_repacking_schedule(
    items: ItemList, node_budget: int = 100_000
) -> RepackingSchedule:
    """Construct the adversary's trajectory for an instance."""
    times = items.event_times()
    intervals: list[IntervalAssignment] = []
    total = 0.0
    migrations = 0
    all_exact = True
    prev_bins: tuple[frozenset[int], ...] | None = None
    for t0, t1 in zip(times[:-1], times[1:]):
        active = items.active_at(t0)
        if not active:
            prev_bins = None
            continue
        bins, exact = _assign_items(active, items.capacity, node_budget)
        all_exact &= exact
        intervals.append(IntervalAssignment(t0, t1, bins))
        total += len(bins) * (t1 - t0)
        if prev_bins is not None:
            migrations += _count_migrations(prev_bins, bins)
        prev_bins = bins
    return RepackingSchedule(
        intervals=tuple(intervals),
        total_usage_time=total,
        migrations=migrations,
        exact=all_exact,
    )
