"""X7: expected competitive ratio vs load and µ (bootstrap CIs)."""

from repro.experiments import run_spec
from repro.experiments.montecarlo import EXPECTED_RATIO_SPEC


def test_expected_ratio_table(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(EXPECTED_RATIO_SPEC, dict(n=60, replications=10)),
        rounds=1,
        iterations=1,
    )
    # FF dominates NF in the mean (noise tolerance at near-zero load,
    # strict at real load)
    points = {(r["mu"], r["load"]) for r in exp.rows}
    for mu, load in points:
        rows = {
            r["algorithm"]: r
            for r in exp.rows
            if r["mu"] == mu and r["load"] == load
        }
        assert rows["first-fit"]["mean_ratio"] <= rows["next-fit"]["mean_ratio"] + 0.01
        if load >= 2.0:
            assert rows["first-fit"]["mean_ratio"] < rows["next-fit"]["mean_ratio"]
    # ratios rise with µ for First Fit at fixed load
    for load in {l for _, l in points}:
        ff = sorted(
            (r["mu"], r["mean_ratio"])
            for r in exp.rows
            if r["algorithm"] == "first-fit" and r["load"] == load
        )
        assert ff[-1][1] >= ff[0][1] - 0.05
    save_artifact("X7_expected_ratio", exp.render())
