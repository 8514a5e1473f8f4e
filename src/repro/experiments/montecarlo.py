"""Experiment X7: expected-ratio curves with bootstrap confidence bands.

The competitive ratio is a worst-case notion; a provider cares about the
*expected* ratio on its traffic.  This experiment estimates
``E[ALG/OPT-lower]`` as a function of offered load and of µ, with
bootstrap 95% confidence intervals, for the main policies.  The shapes
to reproduce: ratios rise with µ (more duration disparity → more
stranding) and fall with load (fuller bins → less per-bin waste), with
First Fit dominating Next Fit everywhere.
"""

from __future__ import annotations

import numpy as np

from ..algorithms import make_algorithm
from ..core.packing import run_packing
from ..opt.opt_total import opt_total
from ..workloads.random_workloads import poisson_workload
from .harness import ExperimentResult
from .spec import ExperimentSpec, params_from_signature

__all__ = ["EXPECTED_RATIO_SPEC", "bootstrap_ci"]


def _replication_ratios(
    task: tuple[int, float, float, int, tuple[str, ...], int],
) -> list[float]:
    """One Monte Carlo shard: build the instance, bracket OPT, run all
    algorithms.  Top-level so it pickles into worker processes; all
    randomness comes from the seed encoded in the task, so the result is
    identical whether this runs serially or in a pool.
    """
    n, mu, load, rep, algorithms, node_budget = task
    inst = poisson_workload(
        n, seed=1000 * int(mu) + 37 * rep, mu_target=mu, arrival_rate=load
    )
    opt = opt_total(inst, node_budget=node_budget)
    return [
        run_packing(inst, make_algorithm(name)).total_usage_time / opt.lower
        for name in algorithms
    ]


def bootstrap_ci(
    values: np.ndarray, confidence: float = 0.95, resamples: int = 2000, seed: int = 0
) -> tuple[float, float]:
    """Percentile bootstrap CI for the mean of ``values``."""
    if len(values) == 0:
        raise ValueError("no values")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(values), size=(resamples, len(values)))
    means = values[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(means, alpha)),
        float(np.quantile(means, 1.0 - alpha)),
    )


def _expected_ratio_defaults(
    n: int = 60,
    replications: int = 12,
    algorithms: tuple[str, ...] = ("first-fit", "best-fit", "next-fit"),
    loads: tuple[float, ...] = (0.5, 2.0, 6.0),
    mus: tuple[float, ...] = (2.0, 8.0),
    node_budget: int = 60_000,
) -> None:
    """Signature-only carrier of the X7 parameter table."""


def _expected_ratio_tasks(params: dict) -> list[tuple]:
    """One shard per (µ, load, replication) Monte Carlo cell.

    Seeds travel inside the shards, so the numbers are worker-count
    independent.
    """
    algorithms = tuple(params["algorithms"])
    return [
        (params["n"], mu, load, rep, algorithms, params["node_budget"])
        for mu in params["mus"]
        for load in params["loads"]
        for rep in range(params["replications"])
    ]


def _expected_ratio_merge(params: dict, shard_rows: list) -> ExperimentResult:
    exp = ExperimentResult(
        "X7",
        "Expected competitive ratio vs load and µ (bootstrap 95% CI)",
        notes=(
            "mean over seeded replications of ALG / certified OPT lower\n"
            "bound; ci95 is a percentile bootstrap on the mean."
        ),
    )
    algorithms = tuple(params["algorithms"])
    # one row of ratios (indexed by algorithm) per replication, merged
    # back in task order: the exact sequence the serial loops produced
    rows = iter(shard_rows)
    for mu in params["mus"]:
        for load in params["loads"]:
            block = [next(rows) for _ in range(params["replications"])]
            for j, name in enumerate(algorithms):
                ratios = np.array([row[j] for row in block])
                lo, hi = bootstrap_ci(ratios)
                exp.rows.append(
                    {
                        "mu": mu,
                        "load": load,
                        "algorithm": name,
                        "mean_ratio": float(ratios.mean()),
                        "ci95_lo": lo,
                        "ci95_hi": hi,
                        "max_ratio": float(ratios.max()),
                    }
                )
    return exp


EXPECTED_RATIO_SPEC = ExperimentSpec(
    id="X7",
    title="Expected competitive ratio vs load and µ (bootstrap 95% CI)",
    doc="Load × µ sweep of mean ratios with bootstrap 95% CIs.",
    params=params_from_signature(
        _expected_ratio_defaults,
        smoke=dict(
            n=20,
            replications=2,
            algorithms=("first-fit", "next-fit"),
            loads=(2.0,),
            mus=(2.0,),
            node_budget=5_000,
        ),
    ),
    tasks=_expected_ratio_tasks,
    run_task=_replication_ratios,
    merge=_expected_ratio_merge,
    module=__name__,
)
