"""Random vector workloads (CPU/memory/GPU job mixes)."""

from __future__ import annotations

from .items import VectorItem, VectorItemList

__all__ = ["vector_workload", "correlated_vector_workload"]


def vector_workload(
    n: int,
    seed: int,
    dimensions: int = 2,
    arrival_rate: float = 1.0,
    mu_target: float = 8.0,
    max_component: float = 0.6,
) -> VectorItemList:
    """Independent uniform demands per dimension.

    Sizes are uniform on ``(0.02, max_component]`` independently per
    resource; durations exponential clipped to ``[1, µ_target]``.
    """
    import numpy as np  # kept off the import path of the engine and service

    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate, n))
    sizes = rng.uniform(0.02, max_component, size=(n, dimensions))
    durations = np.clip(rng.exponential(2.0, n), 1.0, mu_target)
    return VectorItemList(
        (
            VectorItem(
                i,
                tuple(float(s) for s in sizes[i]),
                float(arrivals[i]),
                float(arrivals[i] + durations[i]),
            )
            for i in range(n)
        ),
        capacity=tuple(1.0 for _ in range(dimensions)),
    )


def correlated_vector_workload(
    n: int,
    seed: int,
    arrival_rate: float = 1.0,
    mu_target: float = 8.0,
    correlation: float = 0.8,
) -> VectorItemList:
    """2-D (CPU, memory) demands with a controllable correlation.

    Real jobs' CPU and memory demands correlate; ``correlation=1``
    makes the problem effectively 1-D (the shapes align), while
    ``correlation=0`` maximises the packing tension between dimensions.
    """
    if not (0.0 <= correlation <= 1.0):
        raise ValueError("correlation must be in [0, 1]")
    import numpy as np  # kept off the import path of the engine and service

    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate, n))
    base = rng.uniform(0.05, 0.6, n)
    noise = rng.uniform(0.05, 0.6, n)
    second = correlation * base + (1.0 - correlation) * noise
    durations = np.clip(rng.exponential(2.0, n), 1.0, mu_target)
    return VectorItemList(
        (
            VectorItem(
                i,
                (float(base[i]), float(min(second[i], 1.0))),
                float(arrivals[i]),
                float(arrivals[i] + durations[i]),
            )
            for i in range(n)
        ),
        capacity=(1.0, 1.0),
    )
