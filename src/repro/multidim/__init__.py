"""Multi-dimensional MinUsageTime DBP — the paper's future-work extension.

Runs on the unified packing core: the same event driver, bin lifecycle,
observers, and adaptive first-fit indexing as the scalar engine (see
``docs/ARCHITECTURE.md``).
"""

from .._lazy import lazy_exports

# each name is imported from its submodule on first use (repro._lazy), so
# the service's ``VectorItem`` does not load the vector algorithms
__all__ = lazy_exports(
    __name__,
    {
        "algorithms": (
            "VECTOR_REGISTRY",
            "VectorAlgorithm",
            "VectorBestFit",
            "VectorFirstFit",
            "VectorNextFit",
            "VectorWorstFit",
            "make_vector_algorithm",
        ),
        "bins": ("VectorBin",),
        "items": ("VectorItem", "VectorItemList"),
        "packing": ("VectorPackingResult", "run_vector_packing"),
        "state": ("VectorPackingState",),
        "workloads": ("correlated_vector_workload", "vector_workload"),
    },
)
