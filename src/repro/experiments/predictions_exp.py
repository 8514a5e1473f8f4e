"""Experiment X8: value of departure predictions vs their accuracy.

Sweeps the predictor's log-normal noise σ from 0 (perfect oracle =
clairvoyant departure alignment) upward, measuring the mean ratio
against First Fit (no information) and the oracle on the same
instances.  The learning-augmented shape to reproduce: *consistency* (at
σ=0 the predicted policy matches the oracle) and graceful degradation
(cost approaches — and with bad enough predictions can exceed — plain
First Fit, which never trusted anyone).
"""

from __future__ import annotations

import numpy as np

from ..algorithms.clairvoyant import DepartureAlignedFit
from ..algorithms.first_fit import FirstFit
from ..algorithms.predictions import PredictedDepartureFit
from ..core.packing import run_packing
from ..opt.opt_total import opt_total
from ..workloads.random_workloads import poisson_workload
from .harness import ExperimentResult
from .spec import simple_spec

__all__ = ["PREDICTIONS_SPEC"]


def _predictions(
    sigmas: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 2.0),
    n: int = 70,
    replications: int = 8,
    mu_target: float = 8.0,
    node_budget: int = 50_000,
) -> ExperimentResult:
    """Noise sweep; First Fit and the oracle as anchors."""
    exp = ExperimentResult(
        "X8",
        "Learning-augmented packing: ratio vs departure-prediction noise",
        notes=(
            "mean conservative ratio over replications.  σ=0 must equal\n"
            "the clairvoyant oracle row; growing σ must move the policy\n"
            "toward (or past) the First Fit anchor."
        ),
    )
    instances = [
        poisson_workload(n, seed=500 + r, mu_target=mu_target, arrival_rate=3.0)
        for r in range(replications)
    ]
    opts = [opt_total(inst, node_budget=node_budget) for inst in instances]

    def mean_ratio(make_algo) -> float:
        ratios = [
            run_packing(inst, make_algo()).total_usage_time / opt.lower
            for inst, opt in zip(instances, opts)
        ]
        return float(np.mean(ratios))

    oracle = mean_ratio(DepartureAlignedFit)
    ff = mean_ratio(FirstFit)
    exp.rows.append({"policy": "oracle (σ=0 exact)", "sigma": 0.0, "mean_ratio": oracle})
    for sigma in sigmas:
        exp.rows.append(
            {
                "policy": "predicted-departure-fit",
                "sigma": sigma,
                "mean_ratio": mean_ratio(
                    lambda s=sigma: PredictedDepartureFit(sigma=s, seed=1)
                ),
            }
        )
    exp.rows.append({"policy": "first-fit (no info)", "sigma": float("nan"), "mean_ratio": ff})
    return exp


PREDICTIONS_SPEC = simple_spec(
    "X8",
    "Learning-augmented packing: ratio vs departure-prediction noise",
    _predictions,
    smoke=dict(sigmas=(0.0, 1.0), n=30, replications=2, node_budget=10_000),
)
