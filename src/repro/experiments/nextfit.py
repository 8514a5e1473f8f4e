"""Experiment T2: the Section VIII Next Fit lower bound construction.

Regenerates the paper's comparison: Next Fit pays ``nµ`` on the pair
construction while the optimum pays ``n/2 + µ``, so NF's measured ratio
``nµ/(n/2+µ)`` approaches 2µ as n grows; First Fit on the *same*
instance stays within a small constant of OPT — the paper's point that
the multiplicative factor 2 is inevitable for Next Fit but not for
First Fit.
"""

from __future__ import annotations

from ..algorithms.first_fit import FirstFit
from ..algorithms.next_fit import NextFit
from ..opt.opt_total import opt_total
from ..workloads.adversarial import next_fit_lower_bound
from .harness import ExperimentResult, measure_ratio
from .spec import simple_spec

__all__ = ["NEXTFIT_LB_SPEC"]


def _nextfit_lower_bound(
    ns: tuple[int, ...] = (4, 8, 16, 32, 64),
    mus: tuple[float, ...] = (2.0, 4.0, 8.0),
    node_budget: int = 100_000,
) -> ExperimentResult:
    """Sweep the §VIII construction over n and µ."""
    exp = ExperimentResult(
        "T2",
        "Next Fit lower bound (Section VIII): NF → 2µ, FF stays O(1)",
        notes=(
            "analytic_ratio = nµ/(n/2+µ) — the paper's closed form.  As\n"
            "n → ∞ the NF ratio approaches 2µ.  FF's ratio on the same\n"
            "instance shrinks toward 1."
        ),
    )
    for mu in mus:
        for n in ns:
            inst = next_fit_lower_bound(n, mu)
            opt = opt_total(inst, node_budget=node_budget)
            nf = measure_ratio(inst, NextFit(), opt=opt)
            ff = measure_ratio(inst, FirstFit(), opt=opt)
            analytic = n * mu / (n / 2 + mu)
            exp.rows.append(
                {
                    "mu": mu,
                    "n": n,
                    "nf_total": nf.total_usage_time,
                    "opt_lower": opt.lower,
                    "nf_ratio": nf.ratio_upper,
                    "analytic_ratio": analytic,
                    "limit(2mu)": 2 * mu,
                    "ff_ratio": ff.ratio_upper,
                }
            )
    return exp


NEXTFIT_LB_SPEC = simple_spec(
    "T2",
    "Next Fit lower bound (Section VIII): NF → 2µ, FF stays O(1)",
    _nextfit_lower_bound,
    smoke=dict(ns=(4, 8), mus=(2.0,), node_budget=10_000),
)
