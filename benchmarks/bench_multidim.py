"""X1: the multi-dimensional extension (Section IX future work)."""

from repro.experiments import run_spec
from repro.experiments.multidim_exp import MULTIDIM_SPEC


def test_multidim_table(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(MULTIDIM_SPEC, dict(
            n=120, seeds=(1, 2, 3), dimensions=(1, 2, 3),
            correlations=(0.0, 0.5, 1.0),
        )),
        rounds=1,
        iterations=1,
    )
    # all ratios are valid (≥ 1 vs the closed-form lower bound)
    assert all(r["mean_ratio"] >= 1.0 - 1e-9 for r in exp.rows)
    # vector First Fit ratio grows with the number of independent dims
    ff = [r for r in exp.rows if r["sweep"] == "dimensions"
          and r["algorithm"] == "vector-first-fit"]
    assert ff[-1]["mean_ratio"] >= ff[0]["mean_ratio"] - 0.05
    # vector Next Fit is never better than vector First Fit on average
    for sweep_val in {(r["sweep"], r["value"]) for r in exp.rows}:
        by_algo = {
            r["algorithm"]: r["mean_ratio"]
            for r in exp.rows
            if (r["sweep"], r["value"]) == sweep_val
        }
        assert by_algo["vector-next-fit"] >= by_algo["vector-first-fit"] - 0.05
    save_artifact("X1_multidim", exp.render())
