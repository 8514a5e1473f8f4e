"""T2: the Section VIII Next Fit lower bound construction."""

import pytest

from repro.experiments import run_spec
from repro.experiments.nextfit import NEXTFIT_LB_SPEC


def test_nextfit_lower_bound_table(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(
            NEXTFIT_LB_SPEC, dict(ns=(4, 8, 16, 32, 64), mus=(2.0, 4.0, 8.0))
        ),
        rounds=1,
        iterations=1,
    )
    for row in exp.rows:
        # measured NF ratio equals the paper's closed form nµ/(n/2+µ)
        assert row["nf_ratio"] == pytest.approx(row["analytic_ratio"], rel=1e-9)
        # and stays below the 2µ limit while approaching it
        assert row["nf_ratio"] < row["limit(2mu)"]
        # First Fit is dramatically better on the same instance
        assert row["ff_ratio"] < 0.5 * row["nf_ratio"] or row["n"] <= 4
    # convergence: the ratio is exactly 2µ·n/(n+2µ), so at n=64 it has
    # reached the n/(n+2µ) fraction of the 2µ limit
    for mu in (2.0, 4.0, 8.0):
        last = [r for r in exp.rows if r["mu"] == mu][-1]
        n = last["n"]
        assert last["nf_ratio"] > 2 * mu * (n / (n + 2 * mu)) * 0.999
    save_artifact("T2_nextfit_lb", exp.render())
