"""Experiments F1–F6: regenerating the paper's structural figures.

The paper's figures are worked examples of the analysis constructs; each
function here computes the exact structure on a concrete instance and
returns both the data and an ASCII rendering.  The figure benchmarks
assert the structural invariants each figure illustrates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algorithms.first_fit import FirstFit
from ..analysis.supplier import SupplierAnalysis, analyze_suppliers
from ..analysis.subperiods import build_subperiods
from ..analysis.usage_periods import decompose_usage_periods
from ..analysis.verification import verify_analysis
from ..core.items import Item, ItemList
from ..core.packing import run_packing
from ..core.result import PackingResult
from ..viz.timeline import (
    render_items,
    render_subperiods,
    render_usage_decomposition,
)
from ..workloads.random_workloads import poisson_workload
from .spec import simple_spec

__all__ = [
    "FIGURE_SPECS",
    "figure1_instance",
    "FigureOutput",
]


@dataclass(frozen=True)
class FigureOutput:
    """Rendered figure plus the computed data behind it."""

    figure_id: str
    rendering: str
    data: object

    def to_json(self) -> dict:
        """JSON-artifact document; inverse of :meth:`from_json`.

        The rendering (the figure's durable surface — what reports
        embed) always round-trips byte-identically.  ``data`` is kept
        when it is plain JSON-representable structure and dropped
        otherwise (analysis objects hold full packing results; an
        artifact is not a pickle).
        """
        from .harness import encode_value

        try:
            data = encode_value(self.data)
            has_data = True
        except TypeError:
            data, has_data = None, False
        return {
            "kind": "figure",
            "figure_id": self.figure_id,
            "rendering": self.rendering,
            "data": data,
            "data_serialized": has_data,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FigureOutput":
        from .harness import decode_value

        data = decode_value(doc["data"]) if doc.get("data_serialized") else None
        return cls(
            figure_id=doc["figure_id"], rendering=doc["rendering"], data=data
        )


def figure1_instance() -> ItemList:
    """The three-item example in the spirit of Figure 1.

    Three items whose intervals overlap pairwise but not all at once,
    so ``span < Σ durations`` and the span has the two-segment shape of
    the figure.
    """
    return ItemList(
        [
            Item(1, 0.5, 0.0, 2.0),
            Item(2, 0.3, 1.0, 3.0),
            Item(3, 0.4, 4.0, 6.0),
        ]
    )


def _figure1_span() -> FigureOutput:
    """F1: items and their span."""
    items = figure1_instance()
    return FigureOutput("F1", render_items(items), items)


def _four_bin_instance() -> ItemList:
    """An instance on which First Fit opens four bins with staggered
    lifetimes, giving non-trivial V/W splits as in Figure 2."""
    return ItemList(
        [
            Item(1, 0.6, 0.0, 6.0),   # bin 1, long-lived
            Item(2, 0.6, 1.0, 3.0),   # bin 2 (does not fit bin 1)
            Item(3, 0.6, 2.0, 8.0),   # bin 3
            Item(4, 0.3, 2.5, 4.0),   # fits bin 1
            Item(5, 0.6, 7.0, 9.0),   # bin opened after bin 2 closed
            Item(6, 0.35, 7.5, 10.0), # joins an open bin
        ]
    )


def _figure2_usage_periods() -> FigureOutput:
    """F2: the U/V/W/E decomposition on a four-bin First Fit run."""
    result = run_packing(_four_bin_instance(), FirstFit())
    deco = decompose_usage_periods(result)
    return FigureOutput("F2", render_usage_decomposition(result, deco), deco)


def _subperiod_rich_result(seed: int = 3, n: int = 80) -> PackingResult:
    """A random instance dense enough to produce l/h subperiods."""
    inst = poisson_workload(n, seed=seed, mu_target=4.0, arrival_rate=4.0)
    return run_packing(inst, FirstFit())


def _figure3_subperiods() -> FigureOutput:
    """F3: small-item selection and l/h-subperiod split."""
    result = _subperiod_rich_result()
    subs = build_subperiods(result)
    analysis = analyze_suppliers(result, subs)
    return FigureOutput("F3", render_subperiods(result, analysis), subs)


def _figure4_supplier() -> FigureOutput:
    """F4: supplier bins, pairing/consolidation and supplier periods."""
    result = _subperiod_rich_result(seed=5)
    analysis = analyze_suppliers(result)
    return FigureOutput("F4", render_subperiods(result, analysis), analysis)


def _figures56_nonintersection(
    seeds: tuple[int, ...] = tuple(range(20)), n: int = 70
) -> FigureOutput:
    """F5/F6: Lemma 2 (supplier periods never intersect) across instances.

    Figures 5 and 6 illustrate the two cross-bin cases of the
    non-intersection proof; the reproduction checks the conclusion on a
    batch of randomized First Fit runs.
    """
    checked = 0
    violations = 0
    for seed in seeds:
        inst = poisson_workload(n, seed=seed, mu_target=6.0, arrival_rate=3.0)
        report = verify_analysis(run_packing(inst, FirstFit()))
        checked += 1
        violations += len(report.failures("lemma2"))
    rendering = (
        f"Lemma 2 (Figures 5-6): checked {checked} randomized First Fit runs, "
        f"{violations} supplier-period intersections found."
    )
    return FigureOutput("F5-F6", rendering, {"checked": checked, "violations": violations})


F1_SPEC = simple_spec("F1", "Figure 1: items and their span", _figure1_span)
F2_SPEC = simple_spec(
    "F2", "Figure 2: U/V/W/E usage-period decomposition", _figure2_usage_periods
)
F3_SPEC = simple_spec(
    "F3", "Figure 3: small-item selection and l/h-subperiod split",
    _figure3_subperiods,
)
F4_SPEC = simple_spec(
    "F4", "Figure 4: supplier bins, pairing and supplier periods",
    _figure4_supplier,
)
F56_SPEC = simple_spec(
    "F5-F6",
    "Figures 5-6: supplier periods never intersect (Lemma 2)",
    _figures56_nonintersection,
    smoke=dict(seeds=(0, 1), n=40),
)

#: the five figure specs in DESIGN.md order
FIGURE_SPECS = (F1_SPEC, F2_SPEC, F3_SPEC, F4_SPEC, F56_SPEC)
