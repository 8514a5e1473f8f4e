"""Workload generators: random, adversarial, gaming, diurnal, traces.

Every public name below is imported from its submodule on first use
(:mod:`repro._lazy`): loading a trace file with :func:`load_trace`
does not import numpy or the generators.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "adversarial": (
            "anyfit_pressure",
            "best_fit_staircase",
            "next_fit_lower_bound",
            "universal_lower_bound",
        ),
        "distributions": (
            "Clipped",
            "Constant",
            "DiscreteChoice",
            "Distribution",
            "Exponential",
            "LogNormal",
            "Pareto",
            "Uniform",
        ),
        "diurnal": ("diurnal_workload", "sinusoidal_rate"),
        "gaming": ("DEFAULT_CATALOGUE", "GameProfile", "gaming_workload"),
        "mmpp": ("MMPPPhase", "mmpp_workload", "two_phase_bursty"),
        "profile": ("InstanceProfile", "profile_instance"),
        "random_workloads": ("RandomWorkload", "batch_workload", "poisson_workload"),
        "resample": ("resample_trace",),
        "traces": (
            "from_csv", "from_json", "load_trace", "save_trace", "to_csv", "to_json"
        ),
    },
)
