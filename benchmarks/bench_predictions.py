"""X8: value of departure predictions vs their accuracy."""

import math

from repro.experiments import run_spec
from repro.experiments.predictions_exp import PREDICTIONS_SPEC


def test_predictions_table(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(PREDICTIONS_SPEC), rounds=1, iterations=1
    )
    rows = exp.rows
    oracle = next(r for r in rows if r["policy"].startswith("oracle"))
    ff = next(r for r in rows if r["policy"].startswith("first-fit"))
    sigma0 = next(
        r for r in rows if r["policy"] == "predicted-departure-fit" and r["sigma"] == 0.0
    )
    # consistency: perfect predictions reproduce the oracle exactly
    assert sigma0["mean_ratio"] == oracle["mean_ratio"]
    # the oracle beats blind First Fit
    assert oracle["mean_ratio"] <= ff["mean_ratio"] + 1e-9
    # degradation: the noisiest predictor is no better than the oracle
    # and lands in the neighbourhood of First Fit
    noisiest = max(
        (r for r in rows if r["policy"] == "predicted-departure-fit"),
        key=lambda r: r["sigma"],
    )
    assert noisiest["mean_ratio"] >= oracle["mean_ratio"] - 1e-9
    assert abs(noisiest["mean_ratio"] - ff["mean_ratio"]) < 0.1
    save_artifact("X8_predictions", exp.render())
