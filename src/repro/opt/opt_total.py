"""Computing ``OPT_total(R)`` — the repacking adversary's cost.

``OPT_total(R) = ∫ OPT(R, t) dt`` over the packing period
(Section III-C).  Between consecutive event times the set of active
items is constant, so the integral is a finite sum

    ``Σ_intervals OPT(active items) · interval length``.

Each static ``OPT(·)`` is a classical bin packing instance; we solve it
with branch and bound (:func:`repro.opt.bin_packing.exact_bin_count`),
which may return a certified bracket when the instance is too large for
the node budget.  The result is therefore an :class:`OptTotalBracket`
``[lower, upper]`` with ``lower == upper`` whenever every static
instance solved exactly — in this reproduction that is the common case.

Measured competitive ratios are always reported against ``lower`` (an
upper estimate of the true ratio), so Theorem 1's bound can only be
*harder* to satisfy in our measurements, never easier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from ..core.items import Item, ItemList
from .bin_packing import BinCountBracket, exact_bin_count
from .lower_bounds import (
    fractional_ceiling_bound,
    prop1_time_space_bound,
    prop2_span_bound,
)

__all__ = ["OptTotalBracket", "opt_total", "opt_at_times", "competitive_ratio_bracket"]

#: event-time tolerance for the sweep over arrivals and departures
_EPS = 1e-9


@dataclass(frozen=True)
class OptTotalBracket:
    """Certified bracket on ``OPT_total(R)``.

    ``lower <= OPT_total <= upper``; ``exact`` when they coincide (up to
    float precision).  ``num_intervals`` and ``num_inexact`` report how
    many static instances were solved and how many only bracketed.
    """

    lower: float
    upper: float
    num_intervals: int
    num_inexact: int

    @property
    def exact(self) -> bool:
        return self.num_inexact == 0

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def _static_brackets(
    items: ItemList, node_budget: int
) -> list[tuple[float, BinCountBracket]]:
    """Per event interval: (length, bin-count bracket for active items)."""
    times = items.event_times()
    out: list[tuple[float, BinCountBracket]] = []
    if len(times) < 2:
        return out

    @lru_cache(maxsize=None)
    def solve(sizes: tuple[float, ...]) -> BinCountBracket:
        return exact_bin_count(sizes, items.capacity, node_budget=node_budget)

    # incremental active set for O(n log n + intervals) sweeping
    arrivals = sorted(items, key=lambda it: it.arrival)
    departures = sorted(items, key=lambda it: it.departure)
    ai = di = 0
    active: dict[int, Item] = {}
    for t0, t1 in zip(times[:-1], times[1:]):
        while di < len(departures) and departures[di].departure <= t0 + _EPS:
            active.pop(departures[di].item_id, None)
            di += 1
        while ai < len(arrivals) and arrivals[ai].arrival <= t0 + _EPS:
            it = arrivals[ai]
            if it.departure > t0 + _EPS:
                active[it.item_id] = it
            ai += 1
        length = t1 - t0
        if not active:
            continue
        sizes = tuple(sorted(it.size for it in active.values()))
        out.append((length, solve(sizes)))
    return out


def opt_total(items: ItemList, node_budget: int = 200_000) -> OptTotalBracket:
    """Bracket ``OPT_total(R)`` by solving bin packing on every interval.

    The returned lower bound is additionally floored at the closed-form
    bounds (Propositions 1–2 and the fractional-ceiling integral), so it
    is valid even if every static instance only bracketed.
    """
    brackets = _static_brackets(items, node_budget)
    lo = sum(length * br.lower for length, br in brackets)
    hi = sum(length * br.upper for length, br in brackets)
    closed_form = max(
        fractional_ceiling_bound(items),
        prop1_time_space_bound(items),
        prop2_span_bound(items),
    )
    lo = max(lo, closed_form)
    return OptTotalBracket(
        lower=lo,
        upper=max(hi, lo),
        num_intervals=len(brackets),
        num_inexact=sum(1 for _, br in brackets if not br.exact),
    )


def opt_at_times(
    items: ItemList, times: Sequence[float], node_budget: int = 200_000
) -> list[BinCountBracket]:
    """``OPT(R, t)`` bracket at each queried time (for plots/inspection)."""
    out: list[BinCountBracket] = []
    for t in times:
        sizes = tuple(sorted(it.size for it in items.active_at(t)))
        if not sizes:
            out.append(BinCountBracket(0, 0))
        else:
            out.append(exact_bin_count(sizes, items.capacity, node_budget=node_budget))
    return out


def competitive_ratio_bracket(
    algorithm_total: float, opt: OptTotalBracket
) -> tuple[float, float]:
    """Bracket of ``ALG/OPT`` given an OPT bracket.

    Returns ``(ratio_lower, ratio_upper)`` where the true ratio lies in
    between; ``ratio_upper`` (ALG / OPT.lower) is the conservative value
    used when checking upper bounds such as Theorem 1.
    """
    if opt.lower <= 0:
        raise ValueError("OPT_total lower bound must be positive")
    return algorithm_total / opt.upper, algorithm_total / opt.lower
