"""Experiment X9: the patience frontier — cost vs waiting time.

Sweeps the deferral window on the gaming workload, reporting the total
usage cost, the mean/max wait, and how many sessions waited at all.
The frontier to reproduce: cost decreases (weakly) as patience grows —
queued jobs slot into freed capacity instead of opening servers — while
waiting statistics rise; zero patience is exactly First Fit.
"""

from __future__ import annotations

from ..algorithms.first_fit import FirstFit
from ..core.packing import run_packing
from ..deferral.engine import run_deferred_first_fit
from ..workloads.gaming import gaming_workload
from .harness import ExperimentResult
from .spec import simple_spec

__all__ = ["DEFERRAL_SPEC"]


def _deferral(
    delays: tuple[float, ...] = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0),
    num_sessions: int = 300,
    request_rate: float = 8.0,
    seed: int = 31,
) -> ExperimentResult:
    """Patience sweep on one gaming stream."""
    exp = ExperimentResult(
        "X9",
        "Deferred dispatch: usage cost vs waiting time (patience sweep)",
        notes=(
            "delay 0 coincides with plain First Fit (pinned by tests).\n"
            "Larger patience lets queued sessions reuse freed capacity;\n"
            "the cost column is total server usage time, waits in hours."
        ),
    )
    jobs = gaming_workload(num_sessions, seed=seed, request_rate=request_rate)
    ff_cost = run_packing(jobs, FirstFit()).total_usage_time
    for delay in delays:
        res = run_deferred_first_fit(jobs, max_delay=delay)
        exp.rows.append(
            {
                "max_delay": delay,
                "usage_cost": res.total_usage_time,
                "vs_ff": res.total_usage_time / ff_cost,
                "servers": res.packing.num_bins,
                "delayed_jobs": res.delayed_jobs,
                "mean_wait": res.mean_wait,
                "max_wait": res.max_wait,
            }
        )
    return exp


DEFERRAL_SPEC = simple_spec(
    "X9",
    "Deferred dispatch: usage cost vs waiting time (patience sweep)",
    _deferral,
    smoke=dict(delays=(0.0, 0.5), num_sessions=60, request_rate=4.0),
)
