"""Empirical verification of the paper's propositions and lemmas.

The analysis of Sections IV–VII is a chain of structural claims about
First Fit packings.  Each claim below is checked *mechanically* on a
concrete packing result; the property-based tests run these checkers
over randomized and adversarial instances.

Checked claims
--------------
- **Eq. (1)** (Section IV): the ``W_k`` are disjoint, sum to the span,
  and ``FF_total = Σ|V_k| + span``.
- **P3**: every l-subperiod has length ≤ µ (in instance time units,
  µ·min_duration = max_duration).
- **P4**: a small item is placed at each l-subperiod's left endpoint.
- **P5**: consecutive l-subperiods sum to more than µ.
- **P6**: bin level ≥ 1/2 throughout h-subperiods.
- **Supplier levels**: at an l-subperiod's left endpoint, every
  lower-indexed open bin (in particular the supplier) has level
  ``> 1 − s(opener)`` — the First Fit guarantee the whole Section VII
  accounting rests on.
- **Lemma 1**: consolidated supplier periods are shorter than
  ``2·Σ|x_{l,k}|/(µ+1)`` — the length bound Section VII's consolidated
  amortisation needs.
- **Lemma 2**: supplier periods associated with the same supplier bin
  do not intersect (reported, with the parameter choices recorded —
  see the reconstruction note in :mod:`repro.analysis.supplier`).
- **Theorem-1 inequality chain**: the directly computable consequence
  ``FF_total ≤ (µ+3)·(time–space demand) + span`` — both sides known in
  closed form, no OPT solver needed — and, when an OPT bracket is
  supplied, the headline ``FF_total ≤ (µ+4)·OPT_total``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.intervals import Interval, intervals_intersect
from ..core.result import PackingResult
from .subperiods import SMALL_ITEM_THRESHOLD, build_subperiods
from .supplier import SupplierAnalysis, analyze_suppliers
from .usage_periods import decompose_usage_periods

__all__ = ["Violation", "AnalysisReport", "verify_analysis", "theorem1_slack"]

#: proof-check slack on levels, lengths and times: looser than
#: CAPACITY_EPS because the checked quantities are sums over many periods
_EPS = 1e-7


@dataclass(frozen=True)
class Violation:
    """A single failed check."""

    check: str
    context: str
    detail: str


@dataclass
class AnalysisReport:
    """Outcome of running every checker on one packing result."""

    algorithm: str
    mu: float
    violations: list[Violation] = field(default_factory=list)
    #: measured slack of the closed-form Theorem-1 chain:
    #: ((µ+3)·TS + span − FF_total) — must be ≥ 0 for First Fit
    closed_form_slack: float = 0.0
    #: max over consolidated groups of |supplier period| / Σ|x_{l,k}|
    max_supplier_length_ratio: float = 0.0
    num_l_subperiods: int = 0
    num_h_subperiods: int = 0
    num_groups: int = 0
    num_consolidated: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def failures(self, check: str) -> list[Violation]:
        return [v for v in self.violations if v.check == check]


def _min_level_over(b, interval: Interval) -> float:
    """Minimum recorded bin level over a half-open interval.

    The level timeline is piecewise constant and right-continuous, so the
    minimum over ``[l, r)`` is the min of the level in force at ``l``
    and all levels set by events in ``(l, r)``.
    """
    lvl = 0.0
    mn = None
    for t, level in zip(b.level_times, b.level_values):
        if t <= interval.left + 1e-12:
            lvl = level
        elif t < interval.right - 1e-12:
            if mn is None:
                mn = lvl
            mn = min(mn, level)
        else:
            break
    return lvl if mn is None else min(mn, lvl)


def verify_analysis(
    result: PackingResult,
    check_lemma2: bool = True,
    pair_coefficient: Optional[float] = None,
    radius_divisor: Optional[float] = None,
) -> AnalysisReport:
    """Run every structural checker on a packing result.

    Propositions 3–6 and the supplier-level facts are properties of
    *First Fit* packings; running this on other algorithms' results is
    allowed (the usage-period checks still apply) but supplier-level
    checks are skipped unless the algorithm is First Fit.
    """
    items = result.items
    report = AnalysisReport(algorithm=result.algorithm_name, mu=items.mu)
    window = items.max_duration
    v = report.violations

    # --- Section IV / Eq. (1) -------------------------------------------
    deco = decompose_usage_periods(result)
    for bp in deco.per_bin:
        if abs(bp.v_length + bp.w_length - bp.usage.length) > _EPS:
            v.append(
                Violation(
                    "eq1-partition",
                    f"bin {bp.index}",
                    f"|V|+|W| = {bp.v_length + bp.w_length} != |U| = {bp.usage.length}",
                )
            )
    ws = [bp.exclusive for bp in deco.per_bin if not bp.exclusive.is_empty]
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            if ws[i].intersects(ws[j]):
                v.append(
                    Violation("eq1-w-disjoint", f"W pair ({i},{j})", f"{ws[i]} ∩ {ws[j]}")
                )
    if abs(deco.total_w - deco.span) > max(_EPS, 1e-9 * deco.span):
        v.append(
            Violation(
                "eq1-w-span", "instance", f"ΣW = {deco.total_w} != span = {deco.span}"
            )
        )
    if abs(deco.total_v + deco.span - result.total_usage_time) > max(
        _EPS, 1e-9 * result.total_usage_time
    ):
        v.append(
            Violation(
                "eq1-total",
                "instance",
                f"ΣV + span = {deco.total_v + deco.span} != "
                f"FF_total = {result.total_usage_time}",
            )
        )

    # --- Section V: subperiods ------------------------------------------
    subs = build_subperiods(result, deco)
    is_ff = result.algorithm_name == "first-fit"
    for bsp in subs:
        ls = bsp.l_subperiods
        report.num_l_subperiods += len(ls)
        report.num_h_subperiods += len(bsp.h_subperiods)
        bin_obj = result.bins[bsp.bin_index]
        for x in ls:
            if x.length > window + _EPS:  # P3
                v.append(
                    Violation("prop3", f"bin {bsp.bin_index} x_l,{x.position}",
                              f"|x| = {x.length} > µ-window = {window}")
                )
            if abs(x.opener.arrival - x.interval.left) > _EPS:  # P4
                v.append(
                    Violation("prop4", f"bin {bsp.bin_index} x_l,{x.position}",
                              "left endpoint is not the opener's arrival")
                )
            if not (x.opener.size < SMALL_ITEM_THRESHOLD):  # P4 (small)
                v.append(
                    Violation("prop4", f"bin {bsp.bin_index} x_l,{x.position}",
                              f"opener size {x.opener.size} is not small")
                )
        for a, b in zip(ls, ls[1:]):  # P5 (consecutive positions only)
            if b.position == a.position + 1:
                if a.length + b.length <= window - _EPS:
                    v.append(
                        Violation("prop5", f"bin {bsp.bin_index} x_l,{a.position}+next",
                                  f"{a.length} + {b.length} <= µ-window = {window}")
                    )
        for y in bsp.h_subperiods:  # P6
            lvl = _min_level_over(bin_obj, y.interval)
            if lvl < SMALL_ITEM_THRESHOLD - _EPS:
                v.append(
                    Violation("prop6", f"bin {bsp.bin_index} x_h,{y.position}",
                              f"min level {lvl} < 1/2 over {y.interval}")
                )

    # --- Sections V–VI: suppliers ----------------------------------------
    if is_ff and any(bsp.l_subperiods for bsp in subs):
        sup = analyze_suppliers(
            result, subs, pair_coefficient=pair_coefficient,
            radius_divisor=radius_divisor,
        )
        report.num_groups = len(sup.groups)
        report.num_consolidated = sum(1 for g in sup.groups if not g.is_single)
        # First Fit guarantee: every lower-indexed open bin rejects the opener
        for asg in sup.assignments:
            x = asg.subperiod
            t = x.interval.left
            for j in range(x.bin_index):
                b = result.bins[j]
                if b.opened_at is not None and b.opened_at <= t + 1e-12 and (
                    b.closed_at is None or b.closed_at > t + 1e-12
                ):
                    lvl = b.level_at(t)
                    if lvl + x.opener.size <= result.items.capacity - _EPS:
                        v.append(
                            Violation(
                                "ff-rejection",
                                f"bin {x.bin_index} x_l,{x.position}",
                                f"open bin {j} at level {lvl} could fit the "
                                f"opener (size {x.opener.size})",
                            )
                        )
        for g in sup.groups:
            if g.own_length > 0:
                ratio = g.supplier_period.length / g.own_length
                report.max_supplier_length_ratio = max(
                    report.max_supplier_length_ratio, ratio
                )
            # Lemma 1: a consolidated supplier period is shorter than
            # 2·Σ|x_{l,k}|/(µ+1) (singles meet it with equality by
            # construction); the bound is what Section VII's consolidated
            # amortisation (inequality (3)) requires.
            if not g.is_single and g.own_length > 0:
                bound = 2.0 * g.own_length / (items.mu + 1.0)
                if g.supplier_period.length > bound + _EPS * max(1.0, bound):
                    v.append(
                        Violation(
                            "lemma1",
                            f"bin {g.bin_index} supplier {g.supplier_index}",
                            f"|u| = {g.supplier_period.length} > "
                            f"2Σ|x|/(µ+1) = {bound}",
                        )
                    )
        if check_lemma2:
            for supplier, groups in sup.groups_by_supplier().items():
                for i in range(len(groups)):
                    for j in range(i + 1, len(groups)):
                        gi, gj = groups[i], groups[j]
                        if gi.supplier_period.intersects(gj.supplier_period):
                            v.append(
                                Violation(
                                    "lemma2",
                                    f"supplier {supplier}",
                                    f"periods {gi.supplier_period} (bin {gi.bin_index})"
                                    f" and {gj.supplier_period} (bin {gj.bin_index})"
                                    " intersect",
                                )
                            )

    # --- Theorem 1 closed-form chain --------------------------------------
    mu = items.mu
    ts = items.time_space_demand / items.capacity
    bound = (mu + 3.0) * ts + items.span
    report.closed_form_slack = bound - result.total_usage_time
    if is_ff and report.closed_form_slack < -_EPS * max(1.0, bound):
        v.append(
            Violation(
                "theorem1-closed-form",
                "instance",
                f"FF_total = {result.total_usage_time} > (µ+3)·TS + span = {bound}",
            )
        )
    return report


def theorem1_slack(result: PackingResult, opt_lower: float) -> float:
    """``(µ+4)·OPT_lower − ALG_total`` — ≥ 0 certifies the Theorem-1 bound.

    Uses the certified OPT lower bound, so a non-negative slack is a
    *conservative* confirmation (the true slack is at least as large).
    """
    mu = result.items.mu
    return (mu + 4.0) * opt_lower - result.total_usage_time
