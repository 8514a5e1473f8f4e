"""Per-figure/table experiment harness (see DESIGN.md §3 for the index).

Every experiment is a declarative :class:`~repro.experiments.spec.ExperimentSpec`
in ``SPEC_REGISTRY``, and it runs one way: through its spec.
:func:`~repro.experiments.runner.run_spec` runs one experiment, uncached::

    run_spec(SPEC_REGISTRY["T1"], {"mus": (2.0, 4.0)})
    run_spec(SPEC_REGISTRY["X7"], workers=-1)  # shards across CPUs

and ``ExperimentRunner.run_many`` runs a batch, with sharding, a
content-addressed artifact cache and resume.  ``repro run`` and
``repro report`` are built on these two.
"""

from .adaptive import ADAPTIVE_SPEC
from .anatomy import ANATOMY_SPEC
from .augmentation_exp import AUGMENTATION_SPEC
from .ablation import (
    CONSTANTS_ABLATION_SPEC,
    HFF_THRESHOLD_SPEC,
    SELECTION_ABLATION_SPEC,
)
from .cloud_gaming import CLOUD_GAMING_SPEC
from .comparison import BOUNDS_TABLE_SPEC, suite_instances
from .defrag_exp import DEFRAG_SPEC
from .deferral_exp import DEFERRAL_SPEC
from .fleet_exp import FLEET_SPEC
from .figures import FIGURE_SPECS, FigureOutput, figure1_instance
from .harness import ExperimentResult, RatioMeasurement, format_table, measure_ratio
from .exploration import WORST_CASE_SPEC
from .information import INFORMATION_SPEC
from .lower_bounds import BESTFIT_STAIRCASE_SPEC, UNIVERSAL_LB_SPEC
from .migration_exp import MIGRATION_SPEC
from .montecarlo import EXPECTED_RATIO_SPEC, bootstrap_ci
from .multidim_exp import MULTIDIM_SPEC
from .nextfit import NEXTFIT_LB_SPEC
from .predictions_exp import PREDICTIONS_SPEC
from .report import generate_report, run_all_experiments
from .retention_exp import RETENTION_SPEC
from .runner import ExperimentRunner, ResultCache, RunSummary, run_spec
from .spec import ExperimentSpec, ParamSpec
from .theorem1 import THEOREM1_SPEC
from .traces_exp import TRACES_SPEC

#: id → spec, in the natural DESIGN.md experiment-index order
#: (figures, then theorem tables, then extensions).
SPEC_REGISTRY: dict[str, ExperimentSpec] = {
    spec.id: spec
    for spec in (
        *FIGURE_SPECS,
        THEOREM1_SPEC,
        NEXTFIT_LB_SPEC,
        UNIVERSAL_LB_SPEC,
        BESTFIT_STAIRCASE_SPEC,
        BOUNDS_TABLE_SPEC,
        CLOUD_GAMING_SPEC,
        FLEET_SPEC,
        RETENTION_SPEC,
        MULTIDIM_SPEC,
        SELECTION_ABLATION_SPEC,
        HFF_THRESHOLD_SPEC,
        CONSTANTS_ABLATION_SPEC,
        INFORMATION_SPEC,
        ADAPTIVE_SPEC,
        WORST_CASE_SPEC,
        AUGMENTATION_SPEC,
        EXPECTED_RATIO_SPEC,
        PREDICTIONS_SPEC,
        DEFERRAL_SPEC,
        MIGRATION_SPEC,
        ANATOMY_SPEC,
        TRACES_SPEC,
        DEFRAG_SPEC,
    )
}

#: experiment ids in report/index order — NOT lexicographic (sorted()
#: would interleave X1, X10, X11, X2a, …)
EXPERIMENT_ORDER: tuple[str, ...] = tuple(SPEC_REGISTRY)

__all__ = [
    "EXPERIMENT_ORDER",
    "SPEC_REGISTRY",
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "FigureOutput",
    "ParamSpec",
    "RatioMeasurement",
    "ResultCache",
    "RunSummary",
    "figure1_instance",
    "format_table",
    "measure_ratio",
    "run_spec",
    "bootstrap_ci",
    "generate_report",
    "run_all_experiments",
    "suite_instances",
]
