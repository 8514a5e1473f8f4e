"""Experiment T5: bounds table vs measured worst-case ratios.

One row per algorithm: its analytic lower/upper bound at a given µ
(Section I/II narrative, :mod:`repro.analysis.bounds`) next to the worst
measured ratio over the full adversarial + random suite.  The measured
column must respect both bounds: at least as large as what the matching
adversarial gadget forces, never above the analytic upper bound
(when one exists).
"""

from __future__ import annotations

from ..algorithms import ALGORITHM_REGISTRY, make_algorithm
from ..analysis.bounds import KNOWN_BOUNDS
from ..core.items import ItemList
from ..opt.opt_total import opt_total
from ..workloads.adversarial import (
    best_fit_staircase,
    next_fit_lower_bound,
    universal_lower_bound,
)
from ..workloads.random_workloads import batch_workload, poisson_workload
from .harness import ExperimentResult, measure_ratio
from .spec import ExperimentSpec, params_from_signature

__all__ = ["BOUNDS_TABLE_SPEC", "suite_instances"]

DEFAULT_ALGOS = (
    "first-fit",
    "best-fit",
    "worst-fit",
    "last-fit",
    "next-fit",
    "hybrid-first-fit",
    "classified-next-fit",
)


def suite_instances(mu: float, seeds: tuple[int, ...] = (11, 12)) -> list[tuple[str, ItemList]]:
    """The standard instance suite at a given µ."""
    suite: list[tuple[str, ItemList]] = [
        ("universal-lb", universal_lower_bound(16, mu)),
        ("nextfit-lb", next_fit_lower_bound(16, mu)),
        ("bf-staircase", best_fit_staircase(20, mu)),
    ]
    for seed in seeds:
        suite.append(
            (f"poisson-{seed}", poisson_workload(70, seed=seed, mu_target=mu, arrival_rate=2.0))
        )
        suite.append(
            (f"batch-{seed}", batch_workload(5, 8, seed=seed, mu_target=mu))
        )
    return suite


def _opt_bracket(task: tuple[ItemList, int]):
    """OPT bracket for one suite instance (top-level: pickles to workers)."""
    items, node_budget = task
    return opt_total(items, node_budget=node_budget)


def _bounds_table_defaults(
    mu: float = 8.0,
    algorithms: tuple[str, ...] = DEFAULT_ALGOS,
    node_budget: int = 100_000,
) -> None:
    """Signature-only carrier of the T5 parameter table."""


def _bounds_table_tasks(params: dict) -> list[tuple[ItemList, int]]:
    """One shard per suite instance: its OPT bracket (the hot part)."""
    suite = suite_instances(params["mu"])
    return [(inst, params["node_budget"]) for _, inst in suite]


def _bounds_table_merge(params: dict, brackets: list) -> ExperimentResult:
    """Algorithm runs + table assembly (fast, stays in-process)."""
    mu = params["mu"]
    exp = ExperimentResult(
        "T5",
        f"Known bounds vs measured worst-case ratios at µ = {mu:g}",
        notes=(
            "measured_worst is the max conservative ratio over the suite\n"
            "(adversarial gadgets + random workloads); analytic columns\n"
            "from Section I/II (reconstructed constants flagged in\n"
            "repro.analysis.bounds)."
        ),
    )
    suite = suite_instances(mu)
    opts = {name: bracket for (name, _), bracket in zip(suite, brackets)}
    bound_by_name = {b.algorithm: b for b in KNOWN_BOUNDS}
    for algo_name in params["algorithms"]:
        worst = 0.0
        worst_on = ""
        for inst_name, inst in suite:
            m = measure_ratio(inst, make_algorithm(algo_name), opt=opts[inst_name])
            if m.ratio_upper > worst:
                worst, worst_on = m.ratio_upper, inst_name
        entry = bound_by_name.get(algo_name)
        lower = entry.lower_at(mu) if entry and entry.lower else None
        upper = entry.upper_at(mu) if entry and entry.upper else None
        exp.rows.append(
            {
                "algorithm": algo_name,
                "analytic_lower": "—" if lower is None else (
                    "unbounded" if lower == float("inf") else f"{lower:.2f}"
                ),
                "analytic_upper": "—" if upper is None else f"{upper:.2f}",
                "measured_worst": worst,
                "worst_on": worst_on,
            }
        )
    return exp


BOUNDS_TABLE_SPEC = ExperimentSpec(
    id="T5",
    title="Known bounds vs measured worst-case ratios at one µ",
    doc="Measured worst ratios next to the analytic bounds at one µ.",
    params=params_from_signature(
        _bounds_table_defaults,
        smoke=dict(mu=4.0, algorithms=("first-fit", "next-fit"), node_budget=8_000),
    ),
    tasks=_bounds_table_tasks,
    run_task=_opt_bracket,
    merge=_bounds_table_merge,
    module=__name__,
)
