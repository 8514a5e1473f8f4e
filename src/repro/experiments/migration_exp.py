"""Experiment X10: the adversary's migration budget.

The paper motivates no-migration dispatch ("high migration overheads and
penalty") and then benchmarks against an adversary that migrates freely.
This experiment makes that tension quantitative: for each instance
family, it reconstructs the adversary's actual repacking trajectory and
counts the migrations it performs, next to the non-migratory offline
optimum and First Fit — so the lower bound's hidden assumption is
visible as a number.
"""

from __future__ import annotations

from ..algorithms.first_fit import FirstFit
from ..core.packing import run_packing
from ..offline.solvers import greedy_offline, local_search
from ..opt.opt_total import opt_total
from ..opt.schedule import build_repacking_schedule
from ..workloads.adversarial import next_fit_lower_bound, universal_lower_bound
from ..workloads.gaming import gaming_workload
from ..workloads.random_workloads import poisson_workload
from .harness import ExperimentResult
from .spec import simple_spec

__all__ = ["MIGRATION_SPEC"]


def _migration_budget(node_budget: int = 100_000) -> ExperimentResult:
    """Repacking trajectory + migration counts across instance families."""
    exp = ExperimentResult(
        "X10",
        "The adversary's migration budget (repack OPT vs non-migratory)",
        notes=(
            "migr/step = items moved between bins per event transition in\n"
            "the adversary's own optimal trajectory.  offline is the\n"
            "non-migratory heuristic (greedy + local search) cost; the\n"
            "repack→offline gap is what migration buys, offline→FF is the\n"
            "price of online-ness.  Finding: even on the adversarial\n"
            "gadgets, migration buys little — the damage is online-ness."
        ),
    )
    families = {
        "poisson(n=50)": poisson_workload(50, seed=3, mu_target=6.0, arrival_rate=3.0),
        "gaming(n=60)": gaming_workload(60, seed=5, request_rate=4.0),
        "universal-lb(12,4)": universal_lower_bound(12, 4.0),
        "nextfit-lb(12,4)": next_fit_lower_bound(12, 4.0),
    }
    for name, inst in families.items():
        sched = build_repacking_schedule(inst, node_budget=node_budget)
        opt = opt_total(inst, node_budget=node_budget)
        offline = local_search(greedy_offline(inst)).cost()
        ff = run_packing(inst, FirstFit()).total_usage_time
        exp.rows.append(
            {
                "family": name,
                "repack_opt": opt.lower,
                "schedule": sched.total_usage_time,
                "migrations": sched.migrations,
                "migr_per_step": sched.migrations_per_item_event,
                "offline_nonmigr": offline,
                "first_fit": ff,
                "migration_gain": offline / opt.lower,
                "online_price": ff / offline,
            }
        )
    return exp


MIGRATION_SPEC = simple_spec(
    "X10",
    "The adversary's migration budget (repack OPT vs non-migratory)",
    _migration_budget,
    smoke=dict(node_budget=20_000),
)
