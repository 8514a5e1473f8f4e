"""Experiment T6: the motivating application end to end.

Total renting cost of each dispatch policy on synthetic cloud-gaming
workloads at three load levels, under the paper's continuous billing and
under classic hourly billing.  The expected shape: First Fit is never
worse than the other Any Fit policies, Next Fit trails, and hourly
quantisation compresses the differences (every server's tail hour is
rounded up regardless of policy).
"""

from __future__ import annotations

from ..cloud.billing import ContinuousBilling, HourlyBilling
from ..cloud.gaming_service import GamingScenario, run_gaming_comparison
from .harness import ExperimentResult
from .spec import simple_spec

__all__ = ["CLOUD_GAMING_SPEC"]


def _cloud_gaming(
    num_sessions: int = 300,
    rates: tuple[float, ...] = (1.0, 4.0, 12.0),
    seed: int = 42,
) -> ExperimentResult:
    """Sweep load level × billing model for all candidate policies."""
    exp = ExperimentResult(
        "T6",
        "Cloud gaming dispatch: total renting cost by policy and billing",
        notes=(
            "cost is total billed server-hours (unit price).  Lower is\n"
            "better; 'vs_ff' is the policy's cost relative to First Fit\n"
            "under the same scenario."
        ),
    )
    for rate in rates:
        for billing, bname in (
            (ContinuousBilling(), "continuous"),
            (HourlyBilling(quantum=1.0), "hourly"),
        ):
            scenario = GamingScenario(
                name=f"rate={rate:g}/{bname}",
                num_sessions=num_sessions,
                request_rate=rate,
                seed=seed,
                billing=billing,
            )
            comp = run_gaming_comparison(scenario)
            ff_cost = comp.reports["first-fit"].total_cost
            for name, rep in sorted(comp.reports.items()):
                exp.rows.append(
                    {
                        "rate": rate,
                        "billing": bname,
                        "algorithm": name,
                        "servers": rep.num_servers,
                        "usage_h": rep.total_usage_time,
                        "cost": rep.total_cost,
                        "vs_ff": rep.total_cost / ff_cost if ff_cost else 1.0,
                    }
                )
    return exp


CLOUD_GAMING_SPEC = simple_spec(
    "T6",
    "Cloud gaming dispatch: total renting cost by policy and billing",
    _cloud_gaming,
    smoke=dict(num_sessions=40, rates=(2.0,)),
)
