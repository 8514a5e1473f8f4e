"""Empirical worst-case search: perturb instances to maximise a ratio.

The fixed gadgets and the adaptive game realise *known* lower bounds;
this module searches for bad instances nobody designed.  A simple
stochastic hill climber perturbs an instance (nudging arrivals,
departures and sizes, inserting and deleting items) and keeps mutations
that increase the measured ``ALG/OPT-lower`` ratio, subject to the µ cap
(the quantity Theorem 1's bound is expressed in — without the cap the
search would just inflate µ).

The explorer is used two ways:

- experiment **X5** reports the worst ratios it finds per algorithm and
  checks they respect the analytic bounds (a falsification attempt on
  Theorem 1 — it has never succeeded);
- the regression corpus: seeds that once produced high ratios are kept
  as test fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms.base import PackingAlgorithm
from ..core.items import Item, ItemList
from ..core.packing import run_packing
from ..opt.opt_total import opt_total

__all__ = ["ExplorationResult", "explore_worst_case"]

#: ratio and cost tolerance: a gain smaller than this is no gain
_EPS = 1e-9


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome of one hill-climbing run."""

    best_instance: ItemList
    best_ratio: float
    initial_ratio: float
    evaluations: int
    accepted: int

    @property
    def improvement(self) -> float:
        return self.best_ratio - self.initial_ratio


def _ratio(items: ItemList, algorithm: PackingAlgorithm, node_budget: int) -> float:
    if len(items) == 0:
        return 0.0
    result = run_packing(items, algorithm)
    opt = opt_total(items, node_budget=node_budget)
    if opt.lower <= _EPS:
        return 0.0
    return result.total_usage_time / opt.lower


def _mutate(
    items: ItemList, rng: np.random.Generator, mu_cap: float, min_duration: float
) -> ItemList:
    """One random structural or numeric perturbation, kept µ-feasible."""
    jobs = [[it.size, it.arrival, it.departure] for it in items]
    move = rng.integers(0, 5)
    if move == 0 and len(jobs) > 2:  # delete a job
        jobs.pop(int(rng.integers(0, len(jobs))))
    elif move == 1:  # duplicate-and-shift a job
        src = jobs[int(rng.integers(0, len(jobs)))]
        shift = float(rng.uniform(-1.0, 1.0))
        jobs.append([src[0], src[1] + shift, src[2] + shift])
    elif move == 2:  # nudge an arrival (keep duration)
        j = jobs[int(rng.integers(0, len(jobs)))]
        shift = float(rng.uniform(-0.5, 0.5))
        j[1] += shift
        j[2] += shift
    elif move == 3:  # stretch/shrink a duration
        j = jobs[int(rng.integers(0, len(jobs)))]
        factor = float(rng.uniform(0.7, 1.4))
        j[2] = j[1] + (j[2] - j[1]) * factor
    else:  # resize
        j = jobs[int(rng.integers(0, len(jobs)))]
        j[0] = float(np.clip(j[0] * rng.uniform(0.6, 1.5), 0.01, 1.0))

    # enforce the duration band [min_duration, mu_cap·min_duration]
    lo, hi = min_duration, mu_cap * min_duration
    out = []
    for i, (s, a, d) in enumerate(jobs):
        dur = min(max(d - a, lo), hi)
        a = max(a, 0.0)
        out.append(Item(i, s, a, a + dur))
    return ItemList(out, capacity=items.capacity)


def explore_worst_case(
    seed_instance: ItemList,
    algorithm: PackingAlgorithm,
    iterations: int = 200,
    seed: int = 0,
    mu_cap: float | None = None,
    node_budget: int = 40_000,
) -> ExplorationResult:
    """Stochastic hill climbing from ``seed_instance``.

    ``mu_cap`` defaults to the seed instance's µ; every mutation is
    clamped back into the duration band so the comparison against
    ``µ_cap + 4`` stays meaningful.
    """
    if len(seed_instance) == 0:
        raise ValueError("seed instance must be non-empty")
    rng = np.random.default_rng(seed)
    mu_cap = seed_instance.mu if mu_cap is None else mu_cap
    min_duration = seed_instance.min_duration

    current = seed_instance
    current_ratio = _ratio(current, algorithm, node_budget)
    initial = current_ratio
    best, best_ratio = current, current_ratio
    accepted = 0
    for _ in range(iterations):
        candidate = _mutate(current, rng, mu_cap, min_duration)
        if len(candidate) == 0:
            continue
        r = _ratio(candidate, algorithm, node_budget)
        if r > current_ratio + _EPS:
            current, current_ratio = candidate, r
            accepted += 1
            if r > best_ratio:
                best, best_ratio = candidate, r
    return ExplorationResult(
        best_instance=best,
        best_ratio=best_ratio,
        initial_ratio=initial,
        evaluations=iterations,
        accepted=accepted,
    )
