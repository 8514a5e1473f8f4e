"""T3: the universal (any-algorithm) µ lower-bound construction."""

import pytest

from repro.experiments import run_spec
from repro.experiments.lower_bounds import UNIVERSAL_LB_SPEC


def test_universal_lower_bound_table(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(
            UNIVERSAL_LB_SPEC, dict(ns=(8, 16, 32), mus=(2.0, 4.0, 8.0))
        ),
        rounds=1,
        iterations=1,
    )
    for row in exp.rows:
        # the gadget admits no choice: all policies coincide
        assert row["ff_ratio"] == pytest.approx(row["bf_ratio"], rel=1e-9)
        assert row["ff_ratio"] == pytest.approx(row["nf_ratio"], rel=1e-9)
        assert row["ff_ratio"] == pytest.approx(row["wf_ratio"], rel=1e-9)
        # measured ratio tracks the analytic nµ/(n+µ) within OPT rounding
        assert row["ff_ratio"] == pytest.approx(row["analytic"], rel=0.1)
    # ratio approaches µ as n grows
    for mu in (2.0, 4.0, 8.0):
        rows = [r for r in exp.rows if r["mu"] == mu]
        ratios = [r["ff_ratio"] for r in rows]
        assert ratios == sorted(ratios)
        assert ratios[-1] > 0.75 * mu
    save_artifact("T3_universal_lb", exp.render())
