"""Experiment X1: multi-dimensional extension (Section IX future work).

Vector FF/BF/WF/NF on 2-D and 3-D workloads, measured against the
closed-form lower bound (span vs binding-resource time–space).  Also
sweeps demand correlation: at correlation 1 the instance is effectively
one-dimensional and ratios match the 1-D behaviour; lower correlation
increases packing tension and all ratios rise.

Every (sweep point, algorithm, seed) cell is an independent packing run,
so the grid shards through :func:`repro.parallel.parallel_map` —
``repro run X1 --workers -1`` fans the cells across CPUs and merges in
task order, producing the exact rows of the serial run.
"""

from __future__ import annotations

from ..multidim import (
    VECTOR_REGISTRY,
    correlated_vector_workload,
    make_vector_algorithm,
    run_vector_packing,
    vector_workload,
)
from .harness import ExperimentResult
from .spec import ExperimentSpec, params_from_signature

__all__ = ["MULTIDIM_SPEC"]


def _run_cell(task: tuple[str, float, str, int, int]) -> float:
    """One shard: pack one seeded instance, return its ratio.

    Top-level and argument-seeded so it pickles into worker processes
    (the :mod:`repro.parallel` determinism contract).
    """
    sweep, value, algo_name, seed, n = task
    if sweep == "dimensions":
        inst = vector_workload(n, seed=seed, dimensions=int(value))
    else:
        inst = correlated_vector_workload(n, seed=seed, correlation=value)
    res = run_vector_packing(inst, make_vector_algorithm(algo_name))
    return res.ratio_vs_lower_bound()


def _multidim_defaults(
    n: int = 120,
    seeds: tuple[int, ...] = (1, 2, 3),
    dimensions: tuple[int, ...] = (1, 2, 3),
    correlations: tuple[float, ...] = (0.0, 0.5, 1.0),
) -> None:
    """Signature-only carrier of the X1 parameter table."""


#: X1 sweeps the non-migratory dispatch policies.  The migration-capable
#: vector-repack-ff is excluded: its ratio depends on the move budget
#: (a knob X1 does not sweep), and X13 owns that axis.
X1_ALGORITHMS = tuple(
    name for name in VECTOR_REGISTRY if name != "vector-repack-ff"
)


def _multidim_groups(params: dict) -> list[tuple[str, float, str]]:
    return [
        ("dimensions", dim, algo_name)
        for dim in params["dimensions"]
        for algo_name in X1_ALGORITHMS
    ] + [
        ("correlation", corr, algo_name)
        for corr in params["correlations"]
        for algo_name in X1_ALGORITHMS
    ]


def _multidim_tasks(params: dict) -> list[tuple[str, float, str, int, int]]:
    """One shard per (sweep point, algorithm, seed) grid cell."""
    return [
        (sweep, value, algo_name, seed, params["n"])
        for sweep, value, algo_name in _multidim_groups(params)
        for seed in params["seeds"]
    ]


def _multidim_merge(params: dict, ratios: list[float]) -> ExperimentResult:
    exp = ExperimentResult(
        "X1",
        "Multi-dimensional MinUsageTime DBP (paper future work)",
        notes=(
            "ratio = usage time / max(span, binding-resource time-space).\n"
            "Expect vector-FF ≤ vector-NF, and ratios to grow as the\n"
            "number of independent dimensions grows (packing tension)."
        ),
    )
    n_seeds = len(params["seeds"])
    for g, (sweep, value, algo_name) in enumerate(_multidim_groups(params)):
        cell = ratios[g * n_seeds : (g + 1) * n_seeds]
        exp.rows.append(
            {
                "sweep": sweep,
                "value": value,
                "algorithm": algo_name,
                "mean_ratio": sum(cell) / len(cell),
                "max_ratio": max(cell),
            }
        )
    return exp


MULTIDIM_SPEC = ExperimentSpec(
    id="X1",
    title="Multi-dimensional MinUsageTime DBP (paper future work)",
    doc="Dimension sweep + correlation sweep for vector policies.",
    params=params_from_signature(
        _multidim_defaults,
        smoke=dict(n=30, seeds=(1,), dimensions=(1, 2), correlations=(1.0,)),
    ),
    tasks=_multidim_tasks,
    run_task=_run_cell,
    merge=_multidim_merge,
    module=__name__,
)
