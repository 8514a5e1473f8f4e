"""T4: the Best Fit staircase — the BF-specific failure mode."""

from repro.experiments import run_spec
from repro.experiments.lower_bounds import BESTFIT_STAIRCASE_SPEC


def test_bestfit_staircase_table(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(
            BESTFIT_STAIRCASE_SPEC, dict(ns=(12, 24, 48), mus=(4.0, 8.0, 16.0))
        ),
        rounds=1,
        iterations=1,
    )
    for row in exp.rows:
        assert row["bf_ratio"] > row["ff_ratio"]
    # the BF/FF gap grows with µ at every n: the gadget's Θ(√n) scattered
    # bins each pay the full µ under BF while FF pays µ once
    for n in (12, 24, 48):
        gaps = [r["bf_over_ff"] for r in exp.rows if r["n"] == n]
        assert gaps == sorted(gaps)
    biggest = max(r["bf_over_ff"] for r in exp.rows)
    assert biggest > 2.0
    # First Fit is essentially optimal on the gadget
    assert all(r["ff_ratio"] < 1.2 for r in exp.rows)
    save_artifact("T4_bestfit_staircase", exp.render())
