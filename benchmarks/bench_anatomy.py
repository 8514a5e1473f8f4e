"""X11: the anatomy of First Fit's cost."""

import pytest

from repro.experiments import run_spec
from repro.experiments.anatomy import ANATOMY_SPEC


def test_cost_anatomy_table(benchmark, save_artifact):
    exp = benchmark.pedantic(lambda: run_spec(ANATOMY_SPEC), rounds=1, iterations=1)
    rows = {r["family"]: r for r in exp.rows}
    # shares partition the cost
    for r in exp.rows:
        total_share = r["span_share"] + r["overlap_h_share"] + r["overlap_l_share"]
        assert total_share == pytest.approx(1.0, abs=1e-6)
    # the adversarial gadget is almost pure l-time, and pays for it
    univ = rows["universal-lb"]
    assert univ["overlap_l_share"] > 0.8
    assert univ["ratio"] == max(r["ratio"] for r in exp.rows)
    # light load is span-dominated (any algorithm must pay it) and cheap
    light, heavy = rows["poisson-light"], rows["poisson-heavy"]
    assert light["span_share"] > heavy["span_share"]
    assert light["overlap_l_share"] < heavy["overlap_l_share"]
    assert light["ratio"] < heavy["ratio"]
    save_artifact("X11_cost_anatomy", exp.render())
