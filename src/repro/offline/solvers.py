"""Offline non-migratory solvers: exact branch & bound and heuristics.

- :func:`exact_offline` — optimal partition for small instances
  (≈ ≤ 14 items), by assigning items one at a time to existing or new
  groups with cost-based pruning and symmetry breaking.
- :func:`greedy_offline` — duration-descending greedy: each item joins
  the feasible group with the smallest marginal (span-extension) cost,
  opening a new group when extension ≥ its own duration.  The
  longest-first order is the classic device from the busy-time
  scheduling literature (Flammini et al., cited by the paper): long
  jobs define the busy windows, short jobs slot into them.
- :func:`local_search` — first-improvement single-item relocation until
  a local optimum.
"""

from __future__ import annotations

from typing import Optional

from ..core.items import Item, ItemList
from ..core.intervals import union_length
from .assignment import Assignment, group_feasible, marginal_cost

__all__ = ["exact_offline", "greedy_offline", "local_search"]

#: cost tolerance: an improvement smaller than this is no improvement
_EPS = 1e-9


def exact_offline(
    items: ItemList, node_budget: int = 500_000
) -> tuple[Assignment, bool]:
    """Optimal non-migratory assignment by branch and bound.

    Returns ``(assignment, certified)``; ``certified`` is False when the
    node budget ran out (the assignment is then the best found, an
    upper bound).  Items are processed longest-first so strong groups
    form early and pruning bites.
    """
    order = sorted(items, key=lambda it: -it.duration)
    n = len(order)
    best_assignment = greedy_offline(items)
    best_cost = best_assignment.cost()
    nodes = 0
    exhausted = False
    groups: list[list[Item]] = []

    def lower_bound(i: int, cost_so_far: float) -> float:
        """cost so far + the span of the still-unassigned items not
        already covered by existing groups (cheap, admissible)."""
        if i >= n:
            return cost_so_far
        remaining = union_length(it.interval for it in order[i:])
        covered = union_length(
            iv for g in groups for iv in (it.interval for it in g)
        )
        whole = union_length(
            [it.interval for g in groups for it in g]
            + [it.interval for it in order[i:]]
        )
        # new area that must be paid at least once by someone
        return cost_so_far + max(0.0, whole - covered)

    def recurse(i: int, cost_so_far: float) -> None:
        nonlocal best_cost, best_assignment, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if i == n:
            if cost_so_far < best_cost - _EPS:
                best_cost = cost_so_far
                best_assignment = Assignment(
                    items, [list(g) for g in groups if g]
                )
            return
        if lower_bound(i, cost_so_far) >= best_cost - _EPS:
            return
        it = order[i]
        # note: branches with equal marginal cost are NOT symmetric —
        # the groups differ in content and constrain future items
        # differently — so every feasible group must be explored.
        for g in groups:
            if not group_feasible(g + [it], items.capacity):
                continue
            delta = marginal_cost(g, it)
            g.append(it)
            recurse(i + 1, cost_so_far + delta)
            g.pop()
            if exhausted:
                return
        # open a new group (always feasible; costs the item's duration)
        groups.append([it])
        recurse(i + 1, cost_so_far + it.duration)
        groups.pop()

    if n > 0:
        recurse(0, 0.0)
    else:
        best_assignment, best_cost = Assignment(items, []), 0.0
    return best_assignment, not exhausted


def greedy_offline(items: ItemList) -> Assignment:
    """Duration-descending, minimum-extension greedy assignment."""
    order = sorted(items, key=lambda it: -it.duration)
    groups: list[list[Item]] = []
    for it in order:
        best_group: Optional[list[Item]] = None
        best_delta = it.duration  # opening a new group costs this
        for g in groups:
            if not group_feasible(g + [it], items.capacity):
                continue
            delta = marginal_cost(g, it)
            if delta < best_delta - _EPS:
                best_delta = delta
                best_group = g
        if best_group is None:
            groups.append([it])
        else:
            best_group.append(it)
    return Assignment(items, groups)


def local_search(assignment: Assignment, max_rounds: int = 50) -> Assignment:
    """First-improvement single-item relocation to a local optimum.

    Tries moving each item to every other group (or a fresh one was
    never better: removal saves at most the item's contribution, which a
    fresh group charges in full), accepting the first strict
    improvement; stops when a full pass finds none.
    """
    items = assignment.items
    groups = [list(g) for g in assignment.groups]
    for _ in range(max_rounds):
        improved = False
        for gi, g in enumerate(groups):
            for it in list(g):
                rest = [x for x in g if x.item_id != it.item_id]
                save = (
                    union_length(x.interval for x in g)
                    - union_length(x.interval for x in rest)
                )
                if save <= _EPS:
                    continue  # item is free where it is
                for gj, h in enumerate(groups):
                    if gi == gj:
                        continue
                    if not group_feasible(h + [it], items.capacity):
                        continue
                    delta = marginal_cost(h, it)
                    if delta < save - _EPS:
                        g.remove(it)
                        h.append(it)
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            break
    return Assignment(items, [g for g in groups if g])
