"""Experiment X5: hill-climbing falsification attempt on the bounds.

Starting from random and adversarial seeds, the explorer mutates
instances to maximise each algorithm's measured ratio under a µ cap.
The experiment's assertions are the interesting part: if the search ever
pushed First Fit past µ+4 (or Next Fit past 2µ+1), the reproduction
would have falsified the theory.  It never does — and the ratios it
*does* reach show how much of the bound the search can realise without
hand-crafted gadgets.
"""

from __future__ import annotations

from ..adversary.explorer import explore_worst_case
from ..algorithms import make_algorithm
from ..workloads.adversarial import universal_lower_bound
from ..workloads.random_workloads import poisson_workload
from .harness import ExperimentResult
from .spec import simple_spec

__all__ = ["WORST_CASE_SPEC"]


def _worst_case_search(
    mu: float = 4.0,
    iterations: int = 120,
    targets: tuple[str, ...] = ("first-fit", "next-fit", "best-fit"),
    seeds: tuple[int, ...] = (0, 1),
) -> ExperimentResult:
    """Explore from a random seed and from the universal gadget."""
    exp = ExperimentResult(
        "X5",
        f"Hill-climbing worst-case search at µ ≤ {mu:g}",
        notes=(
            "found_ratio is the best ratio the mutation search reached;\n"
            "bound is the algorithm's analytic ceiling at this µ.  A\n"
            "found_ratio above its bound would falsify the theory."
        ),
    )
    starts = {
        "random": lambda s: poisson_workload(
            18, seed=s, mu_target=mu, arrival_rate=2.0
        ),
        "gadget": lambda s: universal_lower_bound(8, mu),
    }
    bounds = {
        "first-fit": mu + 4.0,
        "next-fit": 2.0 * mu + 1.0,
        "best-fit": float("inf"),
    }
    for name in targets:
        for start_name, make_start in starts.items():
            best = 0.0
            improvement = 0.0
            for s in seeds:
                res = explore_worst_case(
                    make_start(s),
                    make_algorithm(name),
                    iterations=iterations,
                    seed=s,
                    mu_cap=mu,
                )
                if res.best_ratio > best:
                    best = res.best_ratio
                    improvement = res.improvement
            exp.rows.append(
                {
                    "algorithm": name,
                    "start": start_name,
                    "found_ratio": best,
                    "improvement": improvement,
                    "bound": bounds.get(name, float("nan")),
                    "within_bound": best <= bounds.get(name, float("inf")) + 1e-9,
                }
            )
    return exp


WORST_CASE_SPEC = simple_spec(
    "X5",
    "Hill-climbing worst-case search on the bounds",
    _worst_case_search,
    smoke=dict(mu=3.0, iterations=10, targets=("first-fit",), seeds=(0,)),
)
