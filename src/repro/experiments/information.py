"""Experiment X3: the price of information and of migration.

Three models bracket each other instance-wise:

    repacking OPT_total  ≤  offline non-migratory OPT  ≤  online ALG

The gap between the first two is the *price of non-migration* (what the
paper's all-powerful adversary gains by repacking); the gap between the
offline optimum and First Fit is the *price of online-ness*; and the
clairvoyant policies sit in between (online decisions, known
departures).  The paper's Section II remarks that known ending times
(interval scheduling) make the problem materially different — this
experiment quantifies how much, on common random workloads.
"""

from __future__ import annotations

from ..algorithms import DepartureAlignedFit, DurationClassifiedFit, FirstFit
from ..core.packing import run_packing
from ..offline.solvers import exact_offline, greedy_offline, local_search
from ..opt.opt_total import opt_total
from ..workloads.random_workloads import poisson_workload
from .harness import ExperimentResult
from .spec import simple_spec

__all__ = ["INFORMATION_SPEC"]


def _information_price(
    n: int = 13,
    seeds: tuple[int, ...] = tuple(range(10)),
    mu_target: float = 6.0,
    node_budget: int = 400_000,
) -> ExperimentResult:
    """Compare the three models on small exactly-solvable instances."""
    exp = ExperimentResult(
        "X3",
        "Price of information and migration (normalised to repacking OPT)",
        notes=(
            "All columns are cost / repacking-OPT lower bound, averaged\n"
            "over seeds.  Expected ordering:\n"
            "  1 ≤ offline_exact ≤ {clairvoyant, greedy+ls} and ≤ first_fit\n"
            "Instances are small so offline_exact is certified optimal."
        ),
    )
    cols = {
        "offline_exact": [],
        "offline_greedy_ls": [],
        "departure_aligned": [],
        "duration_classified": [],
        "first_fit": [],
    }
    certified_all = True
    for seed in seeds:
        inst = poisson_workload(n, seed=seed, mu_target=mu_target, arrival_rate=1.5)
        opt = opt_total(inst, node_budget=node_budget)
        base = opt.lower
        exact, certified = exact_offline(inst, node_budget=node_budget)
        certified_all &= certified
        cols["offline_exact"].append(exact.cost() / base)
        cols["offline_greedy_ls"].append(
            local_search(greedy_offline(inst)).cost() / base
        )
        cols["departure_aligned"].append(
            run_packing(inst, DepartureAlignedFit()).total_usage_time / base
        )
        cols["duration_classified"].append(
            run_packing(inst, DurationClassifiedFit()).total_usage_time / base
        )
        cols["first_fit"].append(
            run_packing(inst, FirstFit()).total_usage_time / base
        )
    for model, vals in cols.items():
        exp.rows.append(
            {
                "model": model,
                "mean_vs_repack_opt": sum(vals) / len(vals),
                "worst_vs_repack_opt": max(vals),
                "exact_certified": certified_all if model == "offline_exact" else "",
            }
        )
    return exp


INFORMATION_SPEC = simple_spec(
    "X3",
    "Price of information and migration (normalised to repacking OPT)",
    _information_price,
    smoke=dict(n=8, seeds=(0,), node_budget=100_000),
)
