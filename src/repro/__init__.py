"""repro — MinUsageTime Dynamic Bin Packing for online cloud server allocation.

A complete, from-scratch reproduction of

    Xueyan Tang, Yusen Li, Runtian Ren, Wentong Cai.
    "On First Fit Bin Packing for Online Cloud Server Allocation."
    IEEE IPDPS 2016.

Quick start
-----------
>>> from repro import Item, ItemList, FirstFit, run_packing, opt_total
>>> items = ItemList([
...     Item(0, size=0.6, arrival=0.0, departure=2.0),
...     Item(1, size=0.5, arrival=0.5, departure=1.5),
...     Item(2, size=0.4, arrival=1.0, departure=3.0),
... ])
>>> result = run_packing(items, FirstFit())
>>> result.total_usage_time
4.0
>>> opt = opt_total(items)
>>> result.total_usage_time <= (items.mu + 4) * opt.lower + 1e-9   # Theorem 1
True

Package map
-----------
- :mod:`repro.core` — intervals, items, events, bins, packing driver.
- :mod:`repro.algorithms` — First/Best/Worst/Last/Random/Next Fit, hybrids.
- :mod:`repro.opt` — the repacking adversary (OPT_total) and bounds.
- :mod:`repro.analysis` — mechanisation of the paper's proof structures.
- :mod:`repro.workloads` — random, adversarial and cloud-gaming generators.
- :mod:`repro.cloud` — servers, billing, dispatching (the application layer).
- :mod:`repro.multidim` — multi-dimensional extension (paper's future work).
- :mod:`repro.experiments` — the per-figure/table reproduction harness.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

# each name is imported from its subpackage on first use (repro._lazy),
# so ``import repro`` loads no subpackage
__all__ = lazy_exports(
    __name__,
    {
        "algorithms": (
            "ALGORITHM_REGISTRY",
            "AnyFitAlgorithm",
            "BestFit",
            "ClassifiedNextFit",
            "FirstFit",
            "HybridFirstFit",
            "LastFit",
            "NextFit",
            "PackingAlgorithm",
            "RandomFit",
            "WorstFit",
            "make_algorithm",
        ),
        "core": (
            "Bin",
            "Interval",
            "Item",
            "ItemList",
            "PackingResult",
            "PackingState",
            "run_packing",
            "span",
        ),
        "opt": (
            "BinCountBracket",
            "OptTotalBracket",
            "competitive_ratio_bracket",
            "exact_bin_count",
            "fractional_ceiling_bound",
            "opt_total",
            "prop1_time_space_bound",
            "prop2_span_bound",
        ),
    },
) + ["__version__"]
