"""Experiment T7: heterogeneous fleets on the gaming workload.

Extends T6 beyond the paper's single server type: the same session
stream dispatched over a small/medium/large catalogue under each launch
policy, against the homogeneous medium-only baseline.  The question a
provider actually faces: does a mixed fleet beat renting one size?
"""

from __future__ import annotations

from ..cloud.billing import ContinuousBilling, HourlyBilling
from ..cloud.fleet import (
    DEFAULT_FLEET_CATALOGUE,
    BestDensity,
    CheapestFitting,
    FleetDispatcher,
    SmallestFitting,
)
from ..cloud.server import InstanceType
from ..workloads.gaming import gaming_workload
from .harness import ExperimentResult
from .spec import simple_spec

__all__ = ["FLEET_SPEC"]


def _fleet_comparison(
    num_sessions: int = 300,
    rates: tuple[float, ...] = (2.0, 8.0),
    seed: int = 7,
) -> ExperimentResult:
    """Launch-policy × load sweep, homogeneous baseline included."""
    exp = ExperimentResult(
        "T7",
        "Heterogeneous fleet: launch policies vs homogeneous baseline",
        notes=(
            "All rows dispatch the identical session stream (First-Fit\n"
            "placement).  'homogeneous' rents only the medium type —\n"
            "the paper's single-capacity setting."
        ),
    )
    homogeneous = (InstanceType("medium", capacity=1.0, hourly_price=1.0),)
    configs = [
        ("homogeneous", homogeneous, SmallestFitting()),
        ("smallest-fitting", DEFAULT_FLEET_CATALOGUE, SmallestFitting()),
        ("cheapest-fitting", DEFAULT_FLEET_CATALOGUE, CheapestFitting()),
        ("best-density", DEFAULT_FLEET_CATALOGUE, BestDensity()),
    ]
    for rate in rates:
        jobs = gaming_workload(num_sessions, seed=seed, request_rate=rate)
        base_cost = None
        for label, catalogue, policy in configs:
            report = FleetDispatcher(
                catalogue, launch_policy=policy, billing=ContinuousBilling()
            ).dispatch(jobs)
            if label == "homogeneous":
                base_cost = report.total_cost
            exp.rows.append(
                {
                    "rate": rate,
                    "config": label,
                    "servers": report.num_servers,
                    "by_type": str(report.servers_by_type()),
                    "cost": report.total_cost,
                    "vs_homog": report.total_cost / base_cost,
                }
            )
    return exp


FLEET_SPEC = simple_spec(
    "T7",
    "Heterogeneous fleet: launch policies vs homogeneous baseline",
    _fleet_comparison,
    smoke=dict(num_sessions=60, rates=(4.0,)),
)
