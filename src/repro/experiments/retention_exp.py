"""Experiment T8: warm-server retention under different billing models.

The paper's close-on-empty semantics is one point in a policy space;
this experiment measures the others on the motivating workload:

- under **hourly billing**, holding an empty server until its paid hour
  boundary is free per server, so reuse is usually savings — though the
  placement drift it causes makes the system-wide effect
  workload-dependent (see repro.cloud.retention's docstring);
- under **continuous billing**, idle time costs exactly its duration,
  so retention must weakly lose — the paper's model already had the
  right semantics for its own cost function.
"""

from __future__ import annotations

from ..cloud.billing import ContinuousBilling, HourlyBilling
from ..cloud.retention import (
    BilledHourBoundary,
    FixedCooldown,
    NoRetention,
    RetentionDispatcher,
)
from ..workloads.gaming import gaming_workload
from .harness import ExperimentResult
from .spec import simple_spec

__all__ = ["RETENTION_SPEC"]


def _retention(
    num_sessions: int = 300,
    rates: tuple[float, ...] = (2.0, 8.0),
    seed: int = 13,
) -> ExperimentResult:
    """Retention-policy × billing × load sweep on the gaming workload."""
    exp = ExperimentResult(
        "T8",
        "Warm-server retention: cost vs policy under each billing model",
        notes=(
            "vs_none = cost / no-retention cost under the same billing.\n"
            "Expect ≈≤ 1 for hour-boundary retention under hourly billing\n"
            "(the hold is free per server) and ≥ 1 for any retention\n"
            "under continuous billing (idle time billed)."
        ),
    )
    policies = (
        NoRetention(),
        BilledHourBoundary(quantum=1.0),
        FixedCooldown(0.25),
        FixedCooldown(1.0),
    )
    for rate in rates:
        jobs = gaming_workload(num_sessions, seed=seed, request_rate=rate)
        for billing, bname in (
            (HourlyBilling(quantum=1.0), "hourly"),
            (ContinuousBilling(), "continuous"),
        ):
            base = None
            for policy in policies:
                rep = RetentionDispatcher(policy, billing=billing).dispatch(jobs)
                if isinstance(policy, NoRetention):
                    base = rep.total_cost
                exp.rows.append(
                    {
                        "rate": rate,
                        "billing": bname,
                        "policy": policy.name
                        + (
                            f"({policy.cooldown:g})"
                            if isinstance(policy, FixedCooldown)
                            else ""
                        ),
                        "servers": rep.num_servers,
                        "reuses": rep.num_reuses,
                        "cost": rep.total_cost,
                        "vs_none": rep.total_cost / base,
                    }
                )
    return exp


RETENTION_SPEC = simple_spec(
    "T8",
    "Warm-server retention: cost vs policy under each billing model",
    _retention,
    smoke=dict(num_sessions=60, rates=(2.0,)),
)
