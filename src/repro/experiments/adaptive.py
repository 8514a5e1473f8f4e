"""Experiment X4: adaptive adversary vs every deterministic policy.

The fixed gadgets of :mod:`repro.workloads.adversarial` hard-code one
algorithm's responses; the adaptive game replays the true lower-bound
interaction against *any* deterministic policy.  The keep-alive drain
strategy pins every bin a wave touches open for µ; policies that spread
waves across many bins (Worst Fit) or strand bins (Next Fit) get hurt
more than policies that concentrate (First/Best Fit) — and size-
classified hybrids behave like their base policy here since all jobs
have equal size.
"""

from __future__ import annotations

from ..adversary.game import play_game
from ..adversary.strategies import KeepAliveAdversary
from ..algorithms import ALGORITHM_REGISTRY, make_algorithm
from ..opt.opt_total import opt_total
from .harness import ExperimentResult
from .spec import simple_spec

__all__ = ["ADAPTIVE_SPEC"]

DEFAULT_TARGETS = (
    "first-fit",
    "best-fit",
    "worst-fit",
    "last-fit",
    "next-fit",
    "hybrid-first-fit",
)


def _adaptive_adversary(
    waves: int = 6,
    k: int = 5,
    bins_per_wave: int = 3,
    mus: tuple[float, ...] = (4.0, 8.0),
    targets: tuple[str, ...] = DEFAULT_TARGETS,
    node_budget: int = 150_000,
) -> ExperimentResult:
    """Play the keep-alive game against each policy and measure ratios."""
    exp = ExperimentResult(
        "X4",
        "Adaptive keep-alive adversary vs deterministic policies",
        notes=(
            "ratio = policy cost / certified OPT lower bound on the\n"
            "instance the game produced *for that policy* (each policy\n"
            "faces its own personalised worst case)."
        ),
    )
    for mu in mus:
        for name in targets:
            adversary = KeepAliveAdversary(
                waves=waves, k=k, mu=mu, bins_per_wave=bins_per_wave
            )
            instance, result = play_game(adversary, make_algorithm(name))
            opt = opt_total(instance, node_budget=node_budget)
            exp.rows.append(
                {
                    "mu": mu,
                    "policy": name,
                    "jobs": len(instance),
                    "bins": result.num_bins,
                    "cost": result.total_usage_time,
                    "opt_lower": opt.lower,
                    "ratio": result.total_usage_time / opt.lower,
                }
            )
    return exp


ADAPTIVE_SPEC = simple_spec(
    "X4",
    "Adaptive keep-alive adversary vs deterministic policies",
    _adaptive_adversary,
    smoke=dict(waves=2, k=3, bins_per_wave=2, mus=(4.0,), node_budget=30_000),
)
