"""Experiments T3/T4: the cited lower-bound constructions.

- **T3** (``UNIVERSAL_LB_SPEC``): the blocker/filler gadget
  behind the universal µ lower bound — *every* algorithm, Any Fit or
  not, pays ≈ nµ against OPT ≈ n + µ, so all measured ratios coincide
  and approach µ.
- **T4** (``BESTFIT_STAIRCASE_SPEC``): the staircase gadget that
  separates Best Fit from First Fit: BF scatters the long fillers over
  Θ(√n) bins while FF consolidates them into one, exhibiting the
  Best-Fit-specific failure mode behind the cited "Best Fit unbounded"
  result (Li–Tang–Cai).
"""

from __future__ import annotations

from ..algorithms import BestFit, FirstFit, LastFit, NextFit, WorstFit
from ..opt.opt_total import opt_total
from ..workloads.adversarial import best_fit_staircase, universal_lower_bound
from .harness import ExperimentResult, measure_ratio
from .spec import simple_spec

__all__ = [
    "BESTFIT_STAIRCASE_SPEC",
    "UNIVERSAL_LB_SPEC",
]


def _universal_lower_bound(
    ns: tuple[int, ...] = (8, 16, 32),
    mus: tuple[float, ...] = (2.0, 4.0, 8.0),
    node_budget: int = 100_000,
) -> ExperimentResult:
    """T3: every algorithm forced to the same ≈ µ·n/(n+µ) ratio."""
    exp = ExperimentResult(
        "T3",
        "Universal lower-bound construction: all algorithms → µ",
        notes=(
            "analytic_ratio ≈ nµ/(n+µ) → µ.  The construction leaves no\n"
            "placement choice, so every policy's ratio is identical —\n"
            "which is the point: no online algorithm can beat µ."
        ),
    )
    for mu in mus:
        for n in ns:
            inst = universal_lower_bound(n, mu)
            opt = opt_total(inst, node_budget=node_budget)
            ms = {
                "ff": measure_ratio(inst, FirstFit(), opt=opt),
                "bf": measure_ratio(inst, BestFit(), opt=opt),
                "wf": measure_ratio(inst, WorstFit(), opt=opt),
                "nf": measure_ratio(inst, NextFit(), opt=opt),
            }
            exp.rows.append(
                {
                    "mu": mu,
                    "n": n,
                    "opt_lower": opt.lower,
                    "ff_ratio": ms["ff"].ratio_upper,
                    "bf_ratio": ms["bf"].ratio_upper,
                    "wf_ratio": ms["wf"].ratio_upper,
                    "nf_ratio": ms["nf"].ratio_upper,
                    "analytic": n * mu / (n + mu),
                }
            )
    return exp


def _bestfit_staircase(
    ns: tuple[int, ...] = (12, 24, 48),
    mus: tuple[float, ...] = (4.0, 8.0, 16.0),
    node_budget: int = 100_000,
) -> ExperimentResult:
    """T4: Best Fit scatters, First Fit consolidates."""
    exp = ExperimentResult(
        "T4",
        "Best Fit staircase: BF/FF separation grows with n and µ",
        notes=(
            "Best Fit keeps Θ(√n) bins open for the full µ; First Fit\n"
            "keeps one.  The BF/FF cost gap grows without bound as n, µ\n"
            "grow — the directional reproduction of the cited 'Best Fit\n"
            "unbounded' result (proved in the paper's references [5][6])."
        ),
    )
    for mu in mus:
        for n in ns:
            inst = best_fit_staircase(n, mu)
            opt = opt_total(inst, node_budget=node_budget)
            bf = measure_ratio(inst, BestFit(), opt=opt)
            ff = measure_ratio(inst, FirstFit(), opt=opt)
            lf = measure_ratio(inst, LastFit(), opt=opt)
            exp.rows.append(
                {
                    "mu": mu,
                    "n": n,
                    "opt_lower": opt.lower,
                    "bf_ratio": bf.ratio_upper,
                    "ff_ratio": ff.ratio_upper,
                    "lf_ratio": lf.ratio_upper,
                    "bf_over_ff": bf.total_usage_time / ff.total_usage_time,
                }
            )
    return exp


UNIVERSAL_LB_SPEC = simple_spec(
    "T3",
    "Universal lower-bound construction: all algorithms → µ",
    _universal_lower_bound,
    smoke=dict(ns=(8,), mus=(4.0,), node_budget=10_000),
)

BESTFIT_STAIRCASE_SPEC = simple_spec(
    "T4",
    "Best Fit staircase: BF/FF separation grows with n and µ",
    _bestfit_staircase,
    smoke=dict(ns=(12,), mus=(4.0,), node_budget=10_000),
)
