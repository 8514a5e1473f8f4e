"""Sections V–VI: supplier bins, pairing, consolidation (Figure 4).

For every l-subperiod ``x`` produced from bin ``b_k``:

- the **supplier bin** of ``x`` is the *last-opened* (highest-index) bin
  among the bins with index < k that are open at ``x``'s left endpoint.
  Existence is guaranteed because ``x ⊆ V_k`` (otherwise the time would
  belong to ``W_k``); by First Fit's rule, the supplier bin could not
  accommodate the small item placed at ``x^-``, so its level then
  exceeds ``1 − s(small) > 1/2``.

- two consecutive l-subperiods of the same bin **form a pair**
  (Definition 1) when they share a supplier bin and
  ``|x_{l,i+1}| > pair_coefficient · |x_{l,i}|``; maximal chains of
  pairs are merged into **consolidated** l-subperiods (Definition 2).

- each single/consolidated l-subperiod gets a **supplier period**, a
  time window around it charged to its supplier bin.  For a single
  ``x``: ``[x^- − |x|/(µ+1), x^- + |x|/(µ+1))`` — items resident in
  the supplier bin at ``x^-`` have duration ≥ min-duration and the
  radius is below min-duration, so each overlaps this window by at
  least ``|x|/(µ+1)``, which is exactly what Section VII's
  time–space accounting needs to produce the ``1/(µ+3)`` amortised
  bin level: ``|u| + |x| = (µ+3)/(µ+1)·|x|`` and
  ``d(u)+d(x) > |x|/(µ+1) = (|u|+|x|)/(µ+3)``.  For a consolidated sequence we take the
  union hull of the member windows plus the pair-overlap windows of
  Lemmas 3–4, so containment (Lemmas 3 and 4) holds by construction and
  the quantitative facts — Lemma 1's length bound and Lemma 2's
  non-intersection — remain empirically checkable.

**Reconstruction note** (see DESIGN.md): the OCR source drops the exact
pair coefficient and window radii.  The defaults — pair coefficient µ
(the straight reading of Definition 1) and radius divisor µ+1 — are the
unique pair under which the paper's algebra closes exactly:

- Case 1 (same bin, no pair): ``(|x_{l,i}|+|x_{l,i+1}|)/(µ+1)
  ≤ (1+µ)|x_{l,i}|/(µ+1) = |x_{l,i}| ≤ |x_i|`` — the supplier periods
  touch but do not cross;
- Cases 3–4 (different bins): the gap is at least
  ``max(min-duration, |x_{l,i}|)`` and
  ``(|x| + µ)/(µ+1) ≤ max(1, |x|)`` unconditionally;
- the amortised-level constant comes out as ``1/(µ+3)``, reproducing
  inequality (0) and hence Theorem 1's ``µ+4``.

The verification suite checks Lemma 2 under these defaults across
randomized instances; both knobs remain parameters so the ablation
benchmark can show the algebra failing under neighbouring constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.intervals import Interval
from ..core.result import PackingResult
from .subperiods import BinSubperiods, LSubperiod, build_subperiods

__all__ = [
    "SupplierAssignment",
    "ConsolidatedGroup",
    "SupplierAnalysis",
    "analyze_suppliers",
]

#: time and period-length tolerance for the supplier-chain checks
_EPS = 1e-9


@dataclass(frozen=True)
class SupplierAssignment:
    """One l-subperiod with its supplier bin."""

    subperiod: LSubperiod
    supplier_index: int


@dataclass(frozen=True)
class ConsolidatedGroup:
    """A maximal single/consolidated l-subperiod group from one bin.

    ``members`` has length 1 for a *single* l-subperiod; ≥ 2 for a
    consolidated one.  ``supplier_period`` is the window charged to the
    common supplier bin.
    """

    bin_index: int
    supplier_index: int
    members: tuple[LSubperiod, ...]
    supplier_period: Interval

    @property
    def is_single(self) -> bool:
        return len(self.members) == 1

    @property
    def own_length(self) -> float:
        """``Σ |x_{l,k}|`` over member subperiods."""
        return sum(m.length for m in self.members)

    @property
    def own_intervals(self) -> tuple[Interval, ...]:
        return tuple(m.interval for m in self.members)


@dataclass(frozen=True)
class SupplierAnalysis:
    """Full Sections V–VI structure for one packing run."""

    per_bin: tuple[BinSubperiods, ...]
    assignments: tuple[SupplierAssignment, ...]
    groups: tuple[ConsolidatedGroup, ...]
    pair_coefficient_used: float
    radius_divisor: float  # supplier window radius = |x| / radius_divisor

    def groups_by_supplier(self) -> dict[int, list[ConsolidatedGroup]]:
        by: dict[int, list[ConsolidatedGroup]] = {}
        for g in self.groups:
            by.setdefault(g.supplier_index, []).append(g)
        return by


def _find_supplier(result: PackingResult, bin_index: int, t: float) -> Optional[int]:
    """Highest-indexed bin with index < bin_index open at time ``t``."""
    for j in range(bin_index - 1, -1, -1):
        b = result.bins[j]
        if b.opened_at is not None and b.opened_at <= t + _EPS:
            if b.closed_at is None or b.closed_at > t + _EPS:
                return j
    return None


def _single_supplier_period(x: LSubperiod, radius: float) -> Interval:
    return Interval(x.interval.left - radius, x.interval.left + radius)


def _consolidated_supplier_period(
    members: Sequence[LSubperiod], radius_divisor: float
) -> Interval:
    """Hull of the member windows and the pair-overlap windows.

    Contains, for every member ``x_{l,k}``, the window
    ``[x_{l,k}^- − |x_{l,k}|/d, x_{l,k}^- + |x_{l,k}|/d)`` (Lemma 3),
    and for every consecutive pair the window
    ``[x_{l,k+1}^- − (|x_{l,k}|+|x_{l,k+1}|)/d,
       x_{l,k}^- + (|x_{l,k}|+|x_{l,k+1}|)/d)`` (Lemma 4).
    """
    left = float("inf")
    right = float("-inf")
    for k, m in enumerate(members):
        r = m.length / radius_divisor
        left = min(left, m.interval.left - r)
        right = max(right, m.interval.left + r)
        if k + 1 < len(members):
            nxt = members[k + 1]
            rr = (m.length + nxt.length) / radius_divisor
            left = min(left, nxt.interval.left - rr)
            right = max(right, m.interval.left + rr)
    return Interval(left, right)


def analyze_suppliers(
    result: PackingResult,
    subperiods: Optional[list[BinSubperiods]] = None,
    pair_coefficient: Optional[float] = None,
    radius_divisor: Optional[float] = None,
) -> SupplierAnalysis:
    """Assign supplier bins, form pairs, consolidate, build periods.

    Parameters
    ----------
    pair_coefficient:
        ``c`` in Definition 1's ``|x_{l,i+1}| > c·|x_{l,i}|``; defaults
        to the instance's µ.
    radius_divisor:
        ``d`` in the supplier window radius ``|x|/d``; defaults to µ+1
        (see the reconstruction note in the module docstring).
    """
    if subperiods is None:
        subperiods = build_subperiods(result)
    mu = result.items.mu
    c = mu if pair_coefficient is None else pair_coefficient
    d = mu + 1.0 if radius_divisor is None else radius_divisor

    assignments: list[SupplierAssignment] = []
    groups: list[ConsolidatedGroup] = []

    for bsp in subperiods:
        suppliers: list[int] = []
        for x in bsp.l_subperiods:
            s = _find_supplier(result, bsp.bin_index, x.interval.left)
            if s is None:
                raise AssertionError(
                    f"l-subperiod at {x.interval} in bin {bsp.bin_index} has no "
                    "supplier bin — contradicts V_k membership"
                )
            assignments.append(SupplierAssignment(x, s))
            suppliers.append(s)

        # pairing: consecutive l-subperiods, same supplier, growth by > c
        ls = bsp.l_subperiods
        n = len(ls)
        pairs = [
            suppliers[i] == suppliers[i + 1]
            and ls[i + 1].length > c * ls[i].length + _EPS
            for i in range(n - 1)
        ]
        # maximal runs of consecutive pairs → consolidated groups
        i = 0
        while i < n:
            j = i
            while j < n - 1 and pairs[j]:
                j += 1
            members = ls[i : j + 1]
            if len(members) == 1:
                period = _single_supplier_period(members[0], members[0].length / d)
            else:
                period = _consolidated_supplier_period(members, d)
            groups.append(
                ConsolidatedGroup(
                    bin_index=bsp.bin_index,
                    supplier_index=suppliers[i],
                    members=tuple(members),
                    supplier_period=period,
                )
            )
            i = j + 1

    return SupplierAnalysis(
        per_bin=tuple(subperiods),
        assignments=tuple(assignments),
        groups=tuple(groups),
        pair_coefficient_used=c,
        radius_divisor=d,
    )
