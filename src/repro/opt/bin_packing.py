"""Classical (static) bin packing solvers.

The paper's offline adversary may *repack everything at any time*
(Section III-C), so ``OPT(R, t)`` — the minimum number of bins holding
the items active at time ``t`` — is an instance of classical bin
packing.  Classical bin packing is NP-hard; this module provides:

- :func:`first_fit_decreasing` — the 11/9·OPT+6/9 approximation, used as
  an upper bound and as the branch-and-bound incumbent;
- :func:`lower_bound_l1` — the ceiling bound ``⌈Σs / C⌉``;
- :func:`lower_bound_l2` — the Martello–Toth L2 bound (dominates L1);
- :func:`exact_bin_count` — exact branch and bound, practical to a few
  dozen items, with a node budget that degrades gracefully to a
  certified bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..core.bins import CAPACITY_EPS

__all__ = [
    "first_fit_decreasing",
    "first_fit_static",
    "lower_bound_l1",
    "lower_bound_l2",
    "exact_bin_count",
    "BinCountBracket",
]


def first_fit_static(sizes: Sequence[float], capacity: float = 1.0) -> list[list[int]]:
    """Static First Fit: pack sizes in given order; returns bins of indices."""
    bins: list[list[int]] = []
    levels: list[float] = []
    for i, s in enumerate(sizes):
        if s > capacity + CAPACITY_EPS:
            raise ValueError(f"size {s} exceeds capacity {capacity}")
        for k, lvl in enumerate(levels):
            if lvl + s <= capacity + CAPACITY_EPS:
                bins[k].append(i)
                levels[k] += s
                break
        else:
            bins.append([i])
            levels.append(s)
    return bins


def first_fit_decreasing(sizes: Sequence[float], capacity: float = 1.0) -> int:
    """Number of bins used by First Fit Decreasing.

    FFD is an upper bound on the optimum and is within
    ``11/9·OPT + 6/9`` of it (Dósa's tight bound).
    """
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    return len(first_fit_static([sizes[i] for i in order], capacity))


def lower_bound_l1(sizes: Sequence[float], capacity: float = 1.0) -> int:
    """``L1 = ⌈Σ sizes / capacity⌉`` — the fractional (area) bound."""
    total = sum(sizes)
    if total <= CAPACITY_EPS:
        return 0
    # guard against float round-up on exact multiples, e.g. 10 × 0.1
    ratio = total / capacity
    nearest = round(ratio)
    if abs(ratio - nearest) < 1e-7:
        return int(nearest)
    return int(math.ceil(ratio))


def lower_bound_l2(sizes: Sequence[float], capacity: float = 1.0) -> int:
    """Martello–Toth L2 lower bound.

    For every threshold ``alpha ∈ (0, C/2]``: items larger than
    ``C − alpha`` each need a private bin; items in
    ``(C/2, C − alpha]`` also cannot share with each other; the small
    items in ``[alpha, C/2]`` can only fill the remaining headroom.
    ``L2 = max_alpha`` of the implied bound, and ``L2 ≥ L1``.
    """
    n = len(sizes)
    if n == 0:
        return 0
    xs = sorted(sizes, reverse=True)
    best = lower_bound_l1(sizes, capacity)
    half = capacity / 2.0
    # candidate thresholds: α → 0 (counts the mutually-conflicting items
    # above C/2 with no small-item credit) plus every distinct size ≤ C/2
    alphas = [0.0] + sorted({s for s in xs if s <= half + CAPACITY_EPS})
    for alpha in alphas:
        n1 = sum(1 for s in xs if s > capacity - alpha + CAPACITY_EPS)
        mid = [
            s for s in xs if half + CAPACITY_EPS < s <= capacity - alpha + CAPACITY_EPS
        ]
        n2 = len(mid)
        small_total = sum(
            s for s in xs if alpha - CAPACITY_EPS <= s <= half + CAPACITY_EPS
        )
        headroom = n2 * capacity - sum(mid)
        extra = small_total - headroom
        if extra > CAPACITY_EPS:
            ratio = extra / capacity
            nearest = round(ratio)
            add = int(nearest) if abs(ratio - nearest) < 1e-7 else int(math.ceil(ratio))
        else:
            add = 0
        best = max(best, n1 + n2 + add)
    return best


@dataclass(frozen=True)
class BinCountBracket:
    """A certified bracket ``lower <= OPT <= upper`` on the bin count."""

    lower: int
    upper: int

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int:
        """The optimum, when the bracket is tight."""
        if not self.exact:
            raise ValueError(f"bracket [{self.lower}, {self.upper}] is not tight")
        return self.lower


def exact_bin_count(
    sizes: Sequence[float],
    capacity: float = 1.0,
    node_budget: int = 200_000,
) -> BinCountBracket:
    """Exact minimum bin count by branch and bound (bounded search).

    Branches on the largest unplaced item (first-fit branching with
    symmetry breaking: an item may open at most one new bin per node).
    If the node budget is exhausted, returns the best certified bracket
    found so far instead of an exact value.
    """
    xs = sorted((s for s in sizes if s > CAPACITY_EPS), reverse=True)
    n = len(xs)
    if n == 0:
        return BinCountBracket(0, 0)
    if any(s > capacity + CAPACITY_EPS for s in xs):
        raise ValueError("an item exceeds bin capacity")

    lb = lower_bound_l2(xs, capacity)
    ub = first_fit_decreasing(xs, capacity)
    if lb >= ub:
        return BinCountBracket(ub, ub)

    best = ub
    nodes = 0
    budget_exhausted = False

    suffix_total = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_total[i] = suffix_total[i + 1] + xs[i]

    def recurse(i: int, levels: list[float]) -> None:
        nonlocal best, nodes, budget_exhausted
        if budget_exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            budget_exhausted = True
            return
        if i == n:
            best = min(best, len(levels))
            return
        # bound: bins so far + fractional need for the rest in current headroom
        free = sum(capacity - l for l in levels)
        need = suffix_total[i] - free
        extra = 0 if need <= CAPACITY_EPS else int(math.ceil(need / capacity - 1e-9))
        if len(levels) + extra >= best:
            return
        s = xs[i]
        seen_levels: set[float] = set()
        for k in range(len(levels)):
            lvl = levels[k]
            if lvl + s <= capacity + CAPACITY_EPS:
                key = round(lvl, 9)
                if key in seen_levels:
                    continue  # symmetric bin
                seen_levels.add(key)
                levels[k] = lvl + s
                recurse(i + 1, levels)
                levels[k] = lvl
                if budget_exhausted:
                    return
        if len(levels) + 1 < best:
            levels.append(s)
            recurse(i + 1, levels)
            levels.pop()

    recurse(0, [])
    if budget_exhausted:
        return BinCountBracket(lb, best)
    return BinCountBracket(best, best)
