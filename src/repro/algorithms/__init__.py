"""Online packing algorithms and the algorithm registry.

Every policy analysed or cited by the paper is implemented here:

==================  ==========================================  ====================
Algorithm           Known MinUsageTime DBP bounds               Class
==================  ==========================================  ====================
First Fit           ≤ µ+4 (Theorem 1); ≥ µ+1 (Any Fit LB)       Any Fit
Best Fit            unbounded for any µ                         Any Fit
Worst Fit           ≥ µ+1 (Any Fit LB)                          Any Fit
Last Fit            ≥ µ+1 (Any Fit LB)                          Any Fit
Random Fit          ≥ µ+1 (Any Fit LB)                          Any Fit (seeded)
Two-Choice Fit      ≥ µ+1 (Any Fit LB)                          Any Fit (seeded)
Next Fit            ≤ 2µ+1 (Kamali); ≥ 2µ (Section VIII)        not Any Fit
Hybrid First Fit    ≈ (8/7)µ + O(1) (Li–Tang–Cai, semi-online)  classified
Classified NF       O(µ) (Kamali, semi-online); Harmonic(k)     classified
==================  ==========================================  ====================

A separate :data:`CLAIRVOYANT_REGISTRY` holds the known-departure
reference policies (departure-aligned, duration-classified, predicted-
departure) — a strictly easier information model kept apart so the
competitive-ratio experiments never mix the two by accident.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from .._lazy import LazyRegistry, lazy_exports

if TYPE_CHECKING:
    from .base import PackingAlgorithm

# each name is imported from its submodule on first use (repro._lazy),
# and each registry entry when it is read, so a First Fit worker loads
# base and first_fit and no other policy
__all__ = lazy_exports(
    __name__,
    {
        "base": ("AnyFitAlgorithm", "PackingAlgorithm"),
        "best_fit": ("BestFit",),
        "clairvoyant": (
            "ClairvoyantAlgorithm",
            "DepartureAlignedFit",
            "DurationClassifiedFirstFit",
            "DurationClassifiedFit",
        ),
        "classified": ("ClassifiedAlgorithm", "ClassifiedNextFit", "HybridFirstFit"),
        "first_fit": ("FirstFit",),
        "last_fit": ("LastFit",),
        "migration": ("BudgetedRepack", "plan_evacuation_moves"),
        "next_fit": ("NextFit",),
        "predictions": ("LogNormalPredictor", "PredictedDepartureFit"),
        "random_fit": ("RandomFit",),
        "two_choice": ("TwoChoiceFit",),
        "worst_fit": ("WorstFit",),
    },
) + ["ALGORITHM_REGISTRY", "CLAIRVOYANT_REGISTRY", "make_algorithm"]

#: Factory registry: name -> zero-argument constructor with defaults.
ALGORITHM_REGISTRY: Mapping[str, Callable[[], PackingAlgorithm]] = LazyRegistry(
    __name__,
    {
        "first-fit": "first_fit:FirstFit",
        "best-fit": "best_fit:BestFit",
        "worst-fit": "worst_fit:WorstFit",
        "last-fit": "last_fit:LastFit",
        "random-fit": "random_fit:RandomFit",
        "two-choice-fit": "two_choice:TwoChoiceFit",
        "next-fit": "next_fit:NextFit",
        "hybrid-first-fit": "classified:HybridFirstFit",
        "classified-next-fit": "classified:ClassifiedNextFit",
        "repack-ff": "migration:BudgetedRepack",
    },
)

#: Clairvoyant (known-departure) policies — a strictly easier information
#: model, kept in a separate registry so competitive-ratio experiments
#: never mix the two by accident.
CLAIRVOYANT_REGISTRY: Mapping[str, Callable[[], PackingAlgorithm]] = LazyRegistry(
    __name__,
    {
        "departure-aligned-fit": "clairvoyant:DepartureAlignedFit",
        "duration-classified-fit": "clairvoyant:DurationClassifiedFit",
        "duration-classified-ff": "clairvoyant:DurationClassifiedFirstFit",
        "predicted-departure-fit": "predictions:PredictedDepartureFit",
    },
)


def make_algorithm(name: str) -> PackingAlgorithm:
    """Instantiate a registered algorithm by name (default parameters)."""
    try:
        factory = ALGORITHM_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; known: {sorted(ALGORITHM_REGISTRY)}"
        ) from None
    return factory()
