"""Experiment T1: empirical verification of Theorem 1 (FF ≤ (µ+4)·OPT).

Sweeps µ over adversarial and random workload suites, measuring the
conservative First Fit ratio (FF_total / OPT lower bound) and the bound
µ+4.  The paper proves the bound analytically; the reproduction's claim
is that the measured ratio never exceeds it and that the adversarial
suite pushes the ratio to within a constant of the µ lower bound.
"""

from __future__ import annotations

from ..algorithms.first_fit import FirstFit
from ..analysis.bounds import theorem1_upper_bound
from ..opt.opt_total import opt_total
from ..workloads.adversarial import universal_lower_bound
from ..workloads.random_workloads import poisson_workload
from .harness import ExperimentResult, measure_ratio
from .spec import simple_spec

__all__ = ["THEOREM1_SPEC"]


def _theorem1(
    mus: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0),
    adversarial_n: int = 24,
    random_n: int = 80,
    random_seeds: tuple[int, ...] = (1, 2, 3),
    node_budget: int = 100_000,
) -> ExperimentResult:
    """Measure the FF ratio against µ+4 across µ and workload families."""
    exp = ExperimentResult(
        "T1",
        "First Fit competitive ratio vs Theorem 1 bound (µ+4)",
        notes=(
            "ratio_upper = FF_total / certified OPT lower bound (conservative).\n"
            "Expect: adversarial ratio ≈ µ·n/(n+µ) (approaches the µ lower\n"
            "bound), random ratios ≈ 1–2, and every row within bound."
        ),
    )
    for mu in mus:
        inst = universal_lower_bound(adversarial_n, mu)
        m = measure_ratio(inst, FirstFit(), node_budget=node_budget)
        exp.rows.append(
            {
                "mu": mu,
                "workload": f"adversarial(n={adversarial_n})",
                "ff_total": m.total_usage_time,
                "opt_lower": m.opt.lower,
                "ratio_upper": m.ratio_upper,
                "bound(mu+4)": theorem1_upper_bound(mu),
                "within_bound": m.ratio_upper <= theorem1_upper_bound(mu) + 1e-9,
            }
        )
        ratios = []
        for seed in random_seeds:
            inst = poisson_workload(
                random_n, seed=seed, mu_target=mu, arrival_rate=2.0
            )
            m = measure_ratio(inst, FirstFit(), node_budget=node_budget)
            ratios.append(m.ratio_upper)
        exp.rows.append(
            {
                "mu": mu,
                "workload": f"poisson(n={random_n})x{len(random_seeds)}",
                "ff_total": float("nan"),
                "opt_lower": float("nan"),
                "ratio_upper": max(ratios),
                "bound(mu+4)": theorem1_upper_bound(mu),
                "within_bound": max(ratios) <= theorem1_upper_bound(mu) + 1e-9,
            }
        )
    return exp


THEOREM1_SPEC = simple_spec(
    "T1",
    "First Fit competitive ratio vs Theorem 1 bound (µ+4)",
    _theorem1,
    smoke=dict(
        mus=(2.0,), adversarial_n=8, random_n=20, random_seeds=(1,),
        node_budget=10_000,
    ),
)
