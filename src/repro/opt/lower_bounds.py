"""Lower bounds on ``OPT_total(R)`` (Propositions 1 and 2).

The paper's optimal offline adversary may repack all active items at any
instant, so

    ``OPT_total(R) = ∫ OPT(R, t) dt``  over the packing period,

where ``OPT(R, t)`` is the minimum bin count for the items active at
``t``.  Two closed-form lower bounds (Section III-C):

- **Proposition 1**: ``OPT_total(R) ≥ Σ_r s(r)·|I(r)|`` — no bin
  capacity can be wasted, so the integral of the bin count is at least
  the integral of the total active size (the *time–space demand*).
- **Proposition 2**: ``OPT_total(R) ≥ span(R)`` — at least one bin is
  open whenever an item is active.

This module also provides the tighter *fractional-ceiling* bound
``∫ ⌈total active size(t)⌉ dt``, which dominates both propositions and
is cheap to compute exactly (it is piecewise constant between events).
"""

from __future__ import annotations

import math

from ..core.bins import CAPACITY_EPS
from ..core.items import ItemList

__all__ = [
    "prop1_time_space_bound",
    "prop2_span_bound",
    "fractional_ceiling_bound",
    "combined_lower_bound",
]


def prop1_time_space_bound(items: ItemList) -> float:
    """Proposition 1: total time–space demand, scaled to unit capacity."""
    return items.time_space_demand / items.capacity


def prop2_span_bound(items: ItemList) -> float:
    """Proposition 2: the span of the item list."""
    return items.span


def fractional_ceiling_bound(items: ItemList) -> float:
    """``∫ ⌈S(t)/C⌉ dt`` where ``S(t)`` is total active size at ``t``.

    Piecewise constant between consecutive event times; dominates both
    Propositions (pointwise ``⌈S/C⌉ ≥ S/C`` and ``⌈S/C⌉ ≥ 1`` whenever
    ``S > 0``).
    """
    times = items.event_times()
    if len(times) < 2:
        return 0.0
    # sweep the piecewise-constant total active size
    deltas: dict[float, float] = {}
    for it in items:
        deltas[it.arrival] = deltas.get(it.arrival, 0.0) + it.size
        deltas[it.departure] = deltas.get(it.departure, 0.0) - it.size
    total = 0.0
    level = 0.0
    for t0, t1 in zip(times[:-1], times[1:]):
        level += deltas.get(t0, 0.0)
        if level > CAPACITY_EPS:
            ratio = level / items.capacity
            nearest = round(ratio)
            bins = int(nearest) if abs(ratio - nearest) < 1e-7 else int(math.ceil(ratio))
            total += bins * (t1 - t0)
    return total


def combined_lower_bound(items: ItemList) -> float:
    """Best closed-form lower bound: the fractional-ceiling integral.

    (It dominates Propositions 1 and 2; all three are exposed separately
    for the tests that verify the domination.)
    """
    return fractional_ceiling_bound(items)
