"""F1–F6: regenerate the paper's structural figures (DESIGN.md §3).

Each bench computes the figure's structure, asserts the invariant the
figure illustrates, and saves the ASCII rendering.
"""

import pytest

from repro.experiments import run_spec
from repro.experiments.figures import F1_SPEC, F2_SPEC, F3_SPEC, F4_SPEC, F56_SPEC


def test_figure1_span(benchmark, save_artifact):
    out = benchmark.pedantic(lambda: run_spec(F1_SPEC), rounds=3, iterations=1)
    items = out.data
    # Figure 1's point: the span is the measure of the union, not the sum
    assert items.span < sum(it.duration for it in items)
    save_artifact("F1_span", out.rendering)


def test_figure2_usage_periods(benchmark, save_artifact):
    out = benchmark.pedantic(lambda: run_spec(F2_SPEC), rounds=3, iterations=1)
    deco = out.data
    # Section IV identity: ΣW = span and U = V ⊎ W per bin
    assert deco.total_w == pytest.approx(deco.span)
    assert deco.total_v + deco.total_w == pytest.approx(deco.total_usage_time)
    save_artifact("F2_usage_periods", out.rendering)


def test_figure3_subperiods(benchmark, save_artifact):
    out = benchmark.pedantic(lambda: run_spec(F3_SPEC), rounds=1, iterations=1)
    subs = out.data
    # the split must produce both kinds of subperiods on this instance
    assert any(b.l_subperiods for b in subs)
    assert any(b.h_subperiods for b in subs)
    save_artifact("F3_subperiods", out.rendering)


def test_figure4_supplier(benchmark, save_artifact):
    out = benchmark.pedantic(lambda: run_spec(F4_SPEC), rounds=1, iterations=1)
    analysis = out.data
    assert analysis.groups
    # supplier bins always have lower indices than their client bins
    for g in analysis.groups:
        assert g.supplier_index < g.bin_index
    save_artifact("F4_supplier", out.rendering)


def test_figures5_6_nonintersection(benchmark, save_artifact):
    out = benchmark.pedantic(
        lambda: run_spec(F56_SPEC, {"seeds": tuple(range(12))}),
        rounds=1, iterations=1,
    )
    assert out.data["violations"] == 0
    save_artifact("F5-F6_lemma2", out.rendering)
