"""Section V: small-item selection and l/h-subperiod split (Figure 3).

For each bin ``b_k`` of a First Fit run, the period ``V_k`` is divided
into subperiods by the arrival times of a chain of *selected* small
items, then each piece is split into an *l-subperiod* (potentially low
utilisation) and an *h-subperiod* (bin level provably ≥ 1/2):

- Items of size below 1/2 are **small**, the rest **large**.  (The OCR
  source drops the threshold; 1/2 is the standard split and the one that
  makes Proposition 6 true: with no small item present, an open bin
  holds at least one large item, so its level is at least 1/2.)
- Selection walks forward through the small items placed in ``b_k``
  during ``V_k``: from the current selected item, the next is the *last*
  small item arriving within a window of length µ (the maximum item
  duration) after it — or the *first* one beyond the window if the
  window is empty.  Selection stops when the chosen item arrives within
  µ of ``V_k``'s end, or no small arrivals remain (paper's termination
  rules (i)/(ii)).
- The selected arrivals cut ``V_k`` into ``x_0, x_1, …``; every ``x_i``
  longer than µ is split at ``µ`` into ``x_{l,i}`` (first µ) and
  ``x_{h,i}`` (rest); ``x_0`` is all-h.

Propositions 3–6 are mechanically checkable on the produced structure
and are exercised by the property-based test suite:

- P3: ``|x_{l,i}| ≤ µ``;
- P4: a new small item is placed in the bin at each l-subperiod's left
  endpoint;
- P5: consecutive l-subperiods satisfy ``|x_{l,i}| + |x_{l,i+1}| > µ``;
- P6: the bin level is ≥ 1/2 throughout every h-subperiod.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.bins import Bin
from ..core.intervals import EMPTY_INTERVAL, Interval
from ..core.items import Item
from ..core.result import PackingResult
from .usage_periods import UsagePeriodDecomposition, decompose_usage_periods

__all__ = [
    "SMALL_ITEM_THRESHOLD",
    "LSubperiod",
    "HSubperiod",
    "BinSubperiods",
    "build_subperiods",
    "select_small_items",
]

#: Size threshold separating small from large items (paper Section V;
#: reconstructed — see module docstring).
SMALL_ITEM_THRESHOLD = 0.5

#: time and length tolerance of the subperiod construction (and its
#: small-item size cut)
_EPS = 1e-9


@dataclass(frozen=True)
class LSubperiod:
    """An l-subperiod ``x_{l,i}`` produced from one bin.

    ``opener`` is the selected small item arriving at the left endpoint
    (Proposition 4); ``position`` is the paper's ``i`` (1-based).
    """

    bin_index: int
    position: int
    interval: Interval
    opener: Item

    @property
    def length(self) -> float:
        return self.interval.length


@dataclass(frozen=True)
class HSubperiod:
    """An h-subperiod ``x_{h,i}`` (bin level ≥ 1/2 throughout)."""

    bin_index: int
    position: int  # 0 for x_{h,0}
    interval: Interval

    @property
    def length(self) -> float:
        return self.interval.length


@dataclass(frozen=True)
class BinSubperiods:
    """All subperiods produced from one bin's ``V_k``."""

    bin_index: int
    v: Interval
    selected: tuple[Item, ...]
    l_subperiods: tuple[LSubperiod, ...]
    h_subperiods: tuple[HSubperiod, ...]

    @property
    def total_l(self) -> float:
        return sum(x.length for x in self.l_subperiods)

    @property
    def total_h(self) -> float:
        return sum(y.length for y in self.h_subperiods)


def small_items_in_bin(
    result: PackingResult, b: Bin, v: Interval, threshold: float = SMALL_ITEM_THRESHOLD
) -> list[Item]:
    """Small items placed in ``b`` whose arrival lies in ``v``.

    Sorted by (arrival, placement order); ``b.all_items`` is already in
    placement order, which the sort preserves for ties.
    """
    return sorted(
        (
            it
            for it in b.all_items
            if it.size < threshold - _EPS / 2 and v.contains(it.arrival)
        ),
        key=lambda it: it.arrival,
    )


def select_small_items(smalls: list[Item], v: Interval, window: float) -> list[Item]:
    """The paper's selection walk over the small arrivals in ``V_k``.

    ``window`` is µ expressed in the instance's time units (the maximum
    item duration).  Returns the selected chain in arrival order.
    """
    if not smalls:
        return []
    selected = [smalls[0]]
    pos = 0
    while True:
        current = selected[-1]
        a = current.arrival
        # termination (i): chosen item arrives within µ (inclusive) of V's end
        if a >= v.right - window - _EPS:
            break
        # candidates strictly after the current item in the sorted order
        in_window = [
            (j, s)
            for j, s in enumerate(smalls[pos + 1 :], start=pos + 1)
            if s.arrival <= a + window + _EPS
        ]
        if in_window:
            pos, nxt = in_window[-1]  # the LAST small within the window
        else:
            if pos + 1 >= len(smalls):
                break  # termination (ii): last small arrival already chosen
            pos, nxt = pos + 1, smalls[pos + 1]  # first small beyond the window
        selected.append(nxt)
        # termination (ii) — "last small item chosen" — is detected at the
        # top of the next iteration when no candidates remain.
    return selected


def build_subperiods(
    result: PackingResult,
    decomposition: Optional[UsagePeriodDecomposition] = None,
    threshold: float = SMALL_ITEM_THRESHOLD,
) -> list[BinSubperiods]:
    """Produce every bin's l/h-subperiods for a packing result.

    The window µ is the instance's maximum item duration (the paper
    normalises the minimum duration to 1; we keep native units, so the
    window is ``max_duration`` and the "duration ≥ 1" facts become
    "duration ≥ min_duration").
    """
    if decomposition is None:
        decomposition = decompose_usage_periods(result)
    window = result.items.max_duration
    out: list[BinSubperiods] = []
    for b, periods in zip(result.bins, decomposition.per_bin):
        v = periods.overlapped
        if v.is_empty:
            out.append(
                BinSubperiods(
                    bin_index=b.index,
                    v=EMPTY_INTERVAL,
                    selected=(),
                    l_subperiods=(),
                    h_subperiods=(),
                )
            )
            continue
        smalls = small_items_in_bin(result, b, v, threshold)
        selected = select_small_items(smalls, v, window)
        ls: list[LSubperiod] = []
        hs: list[HSubperiod] = []
        if not selected:
            # no small item ever placed during V_k: x_0 = V_k, all-h
            hs.append(HSubperiod(b.index, 0, v))
        else:
            arrivals = [it.arrival for it in selected]
            # x_0 — before the first selected arrival (h-kind)
            if arrivals[0] > v.left + _EPS:
                hs.append(HSubperiod(b.index, 0, Interval(v.left, arrivals[0])))
            bounds = arrivals + [v.right]
            for i in range(len(selected)):
                left, right = bounds[i], bounds[i + 1]
                if right <= left + _EPS:
                    continue  # degenerate (simultaneous selected arrivals)
                x = Interval(left, right)
                if x.length > window + _EPS:
                    ls.append(
                        LSubperiod(
                            b.index, i + 1, Interval(left, left + window), selected[i]
                        )
                    )
                    hs.append(HSubperiod(b.index, i + 1, Interval(left + window, right)))
                else:
                    ls.append(LSubperiod(b.index, i + 1, x, selected[i]))
        out.append(
            BinSubperiods(
                bin_index=b.index,
                v=v,
                selected=tuple(selected),
                l_subperiods=tuple(ls),
                h_subperiods=tuple(hs),
            )
        )
    return out
