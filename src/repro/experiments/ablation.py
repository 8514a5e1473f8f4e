"""Experiment X2: ablations of the design choices DESIGN.md calls out.

1. **Any-Fit selection rule** — earliest-opened (First Fit) vs fullest
   (Best Fit) vs emptiest (Worst Fit) vs latest-opened (Last Fit) vs
   random, over the standard suite: isolates how much the
   earliest-opened tie-break that Theorem 1's analysis leans on matters
   empirically.
2. **Hybrid First Fit thresholds** — sweep the size-classification
   boundaries.
3. **Analysis-constant reconstruction** — run the Lemma-2 checker under
   neighbouring (pair coefficient, radius divisor) choices, showing the
   reconstructed (µ, µ+1) pair is the one under which the paper's
   non-intersection lemma actually holds.
"""

from __future__ import annotations

from ..algorithms import (
    BestFit,
    FirstFit,
    HybridFirstFit,
    LastFit,
    RandomFit,
    WorstFit,
    make_algorithm,
)
from ..analysis.verification import verify_analysis
from ..core.packing import run_packing
from ..opt.opt_total import opt_total
from ..workloads.random_workloads import batch_workload, poisson_workload
from .comparison import suite_instances
from .harness import ExperimentResult, measure_ratio
from .spec import simple_spec

__all__ = [
    "CONSTANTS_ABLATION_SPEC",
    "HFF_THRESHOLD_SPEC",
    "SELECTION_ABLATION_SPEC",
]


def _selection_ablation(
    mu: float = 8.0, node_budget: int = 100_000
) -> ExperimentResult:
    """X2a: Any-Fit selection rules over the standard suite."""
    exp = ExperimentResult(
        "X2a",
        f"Any-Fit selection-rule ablation at µ = {mu:g}",
        notes="worst and mean conservative ratios over the standard suite.",
    )
    suite = suite_instances(mu)
    opts = {name: opt_total(inst, node_budget=node_budget) for name, inst in suite}
    for algo in (FirstFit(), BestFit(), WorstFit(), LastFit(), RandomFit(seed=0)):
        ratios = []
        for inst_name, inst in suite:
            m = measure_ratio(inst, algo, opt=opts[inst_name])
            ratios.append(m.ratio_upper)
        exp.rows.append(
            {
                "selection": algo.name,
                "mean_ratio": sum(ratios) / len(ratios),
                "worst_ratio": max(ratios),
            }
        )
    return exp


def _hff_threshold_ablation(
    mu: float = 8.0,
    thresholds: tuple[tuple[float, ...], ...] = (
        (0.5,),
        (1.0 / 3.0, 0.5),
        (0.25, 0.5, 0.75),
        (),
    ),
    seeds: tuple[int, ...] = (21, 22, 23),
    node_budget: int = 100_000,
) -> ExperimentResult:
    """X2b: Hybrid First Fit classification boundaries.

    The empty threshold tuple degenerates to plain First Fit, giving the
    baseline within the same code path.
    """
    exp = ExperimentResult(
        "X2b",
        "Hybrid First Fit size-threshold ablation",
        notes="mean conservative ratio over random workloads per threshold set.",
    )
    for ts in thresholds:
        ratios = []
        for seed in seeds:
            inst = poisson_workload(80, seed=seed, mu_target=mu, arrival_rate=2.0)
            m = measure_ratio(inst, HybridFirstFit(ts), node_budget=node_budget)
            ratios.append(m.ratio_upper)
        exp.rows.append(
            {
                "thresholds": str(tuple(round(t, 3) for t in ts)) or "()",
                "classes": len(ts) + 1,
                "mean_ratio": sum(ratios) / len(ratios),
                "worst_ratio": max(ratios),
            }
        )
    return exp


def _constants_ablation(
    seeds: tuple[int, ...] = tuple(range(25)),
    n: int = 70,
) -> ExperimentResult:
    """X2c: Lemma 2 holds under (µ, µ+1), fails under neighbours.

    For each candidate (pair coefficient, radius divisor) as functions
    of µ, count the instances (out of the seed batch) with at least one
    supplier-period intersection.
    """
    exp = ExperimentResult(
        "X2c",
        "Analysis-constant reconstruction: Lemma-2 violation rates",
        notes=(
            "The reconstructed constants (pair=µ, radius divisor=µ+1)\n"
            "must show zero violations; neighbouring choices should not."
        ),
    )
    candidates = (
        ("pair=µ, div=µ+1 (reconstructed)", lambda mu: mu, lambda mu: mu + 1.0),
        ("pair=µ, div=µ", lambda mu: mu, lambda mu: mu),
        ("pair=µ-1, div=µ+1", lambda mu: max(mu - 1.0, 0.1), lambda mu: mu + 1.0),
        ("pair=µ, div=2", lambda mu: mu, lambda mu: 2.0),
    )
    # several workload families: small-µ regimes and simultaneous-arrival
    # batches are where wrong constants reveal themselves
    families = [
        lambda seed: poisson_workload(n, seed=seed, mu_target=6.0, arrival_rate=3.0),
        lambda seed: poisson_workload(n, seed=seed, mu_target=5.0, arrival_rate=2.0),
        lambda seed: poisson_workload(n, seed=seed, mu_target=2.0, arrival_rate=3.0),
        lambda seed: batch_workload(6, max(n // 8, 2), seed=seed, mu_target=8.0),
    ]
    results = []
    for seed in seeds:
        for fam in families:
            inst = fam(seed)
            res = run_packing(inst, FirstFit())
            results.append((inst.mu, res))
    for label, pair_fn, div_fn in candidates:
        bad = 0
        for mu, res in results:
            report = verify_analysis(
                res, pair_coefficient=pair_fn(mu), radius_divisor=div_fn(mu)
            )
            if report.failures("lemma2"):
                bad += 1
        exp.rows.append(
            {
                "constants": label,
                "instances": len(results),
                "violating_instances": bad,
            }
        )
    return exp


SELECTION_ABLATION_SPEC = simple_spec(
    "X2a",
    "Any-Fit selection-rule ablation",
    _selection_ablation,
    smoke=dict(mu=4.0, node_budget=8_000),
)

HFF_THRESHOLD_SPEC = simple_spec(
    "X2b",
    "Hybrid First Fit threshold ablation",
    _hff_threshold_ablation,
    smoke=dict(mu=4.0, thresholds=((0.5,), ()), seeds=(1,), node_budget=8_000),
)

CONSTANTS_ABLATION_SPEC = simple_spec(
    "X2c",
    "Analysis-constant reconstruction: Lemma-2 violation rates",
    _constants_ablation,
    smoke=dict(seeds=(0, 1, 2, 3), n=40),
)
