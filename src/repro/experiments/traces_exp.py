"""Experiment X12: packing algorithms on cluster-trace workloads.

The first measured, non-synthetic scenario class: seeded synthetic
trace *files* in the Azure Packing Trace and Google task_events schemas
run through the full ingestion pipeline (generate → adapter → normalize)
and then through the algorithm registry, including the duration-
classified First Fit family (Murhekar et al.) at several class counts.

Two questions per schema:

- how far above the certified lower bound ``max(span, TS-demand)``
  (Proposition 1) does each non-clairvoyant policy land on trace-shaped
  demand (heavy-tailed durations, discrete size catalogue)?
- how much of First Fit's gap does duration knowledge close, and how
  many duration classes does it take?  ``K=1`` is plain FF by
  construction (the differential tests pin it bit-identical), so the
  ``classes`` column reads as a dose-response curve.

Everything is deterministic given (n, seed): the trace bytes, the
adapter output, and every packing.  The trace files live in a
throwaway temp dir — only their *content* feeds the result, so the
content-addressed result cache stays byte-stable.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from ..algorithms import DurationClassifiedFirstFit, make_algorithm
from ..core.packing import run_packing
from ..traces import generate_trace, load_items, normalize_items
from .harness import ExperimentResult
from .spec import simple_spec

__all__ = ["TRACES_SPEC"]

#: non-clairvoyant registry policies worth running on trace demand
_BASELINES = ("first-fit", "best-fit", "worst-fit", "next-fit")

#: duration-class counts for the classified family (1 ≡ plain FF)
_CLASS_COUNTS = (1, 2, 4, 8)

#: dirt knobs per schema — real slices are never clean, so the
#: pipeline's skip accounting is part of what the experiment exercises
_SCHEMA_KNOBS = {
    "azure": dict(censored=0.02, malformed=0.01),
    "google": dict(orphaned=0.02, unfinished=0.02, malformed=0.01),
}


def _trace_instance(schema: str, n: int, seed: int, tmp: Path):
    suffix = ".csv" if schema == "azure" else ".csv"
    path = tmp / f"{schema}-{n}-{seed}{suffix}"
    generate_trace(schema, path, n, seed=seed, **_SCHEMA_KNOBS[schema])
    instance, stats = load_items(path, schema=schema)
    # rebase to t=0; clamping is a no-op on the generated catalogues
    instance, _ = normalize_items(instance)
    return instance, stats


def _duration_anchor(instance) -> float:
    """Anchor geometric classes at the instance's minimum duration."""
    return instance.min_duration


def _trace_benchmark(
    n: int = 4000,
    seed: int = 99,
    schemas: tuple[str, ...] = ("azure", "google"),
) -> ExperimentResult:
    """Algorithm registry + duration-classified FF over generated traces."""
    exp = ExperimentResult(
        "X12",
        "Cluster-trace workloads: registry + duration-classified FF",
        notes=(
            "Synthetic Azure/Google-schema trace files through the full\n"
            "ingestion pipeline (adapter, skip accounting, normalization),\n"
            "packed against the Prop. 1 certified lower bound\n"
            "max(span, time-space demand).  duration-classified-ff is\n"
            "clairvoyant (knows durations); classes=1 is plain FF\n"
            "bit-for-bit, so the K column measures what duration\n"
            "knowledge buys."
        ),
    )
    with tempfile.TemporaryDirectory(prefix="repro-x12-") as tmpdir:
        tmp = Path(tmpdir)
        for schema in schemas:
            instance, stats = _trace_instance(schema, n, seed, tmp)
            lb = max(instance.span, instance.time_space_demand)
            anchor = _duration_anchor(instance)
            runs = [(name, make_algorithm(name)) for name in _BASELINES]
            runs.extend(
                (
                    f"duration-classified-ff(K={k})",
                    DurationClassifiedFirstFit(classes=k, anchor=anchor),
                )
                for k in _CLASS_COUNTS
            )
            for label, algorithm in runs:
                result = run_packing(instance, algorithm)
                exp.rows.append(
                    {
                        "schema": schema,
                        "algorithm": label,
                        "items": len(instance),
                        "skipped": stats.malformed + stats.orphaned
                        + stats.censored + stats.unfinished,
                        "mu": round(instance.mu, 2),
                        "bins": result.num_bins,
                        "usage_time": round(result.total_usage_time, 4),
                        "ratio_lb": round(result.total_usage_time / lb, 4),
                    }
                )
    return exp


TRACES_SPEC = simple_spec(
    "X12",
    "Cluster-trace workloads: registry + duration-classified FF",
    _trace_benchmark,
    smoke=dict(n=300),
)
