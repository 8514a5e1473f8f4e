"""X2: ablations — selection rule, hybrid thresholds, analysis constants."""

from repro.experiments import run_spec
from repro.experiments.ablation import (
    CONSTANTS_ABLATION_SPEC,
    HFF_THRESHOLD_SPEC,
    SELECTION_ABLATION_SPEC,
)


def test_selection_rule_ablation(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(SELECTION_ABLATION_SPEC, dict(mu=8.0)),
        rounds=1, iterations=1,
    )
    by = {r["selection"]: r for r in exp.rows}
    # First Fit's worst ratio is no worse than Best Fit's over the suite
    # (the staircase instance punishes BF)
    assert by["first-fit"]["worst_ratio"] <= by["best-fit"]["worst_ratio"] + 1e-9
    save_artifact("X2a_selection", exp.render())


def test_hff_threshold_ablation(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(HFF_THRESHOLD_SPEC, dict(mu=8.0)),
        rounds=1, iterations=1,
    )
    # finer classification can't help on random workloads where mixing is
    # fine — plain FF (classes = 1) should be best or near-best
    plain = next(r for r in exp.rows if r["classes"] == 1)
    assert plain["mean_ratio"] <= min(r["mean_ratio"] for r in exp.rows) + 0.25
    save_artifact("X2b_hff_thresholds", exp.render())


def test_constants_reconstruction_ablation(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(CONSTANTS_ABLATION_SPEC), rounds=1, iterations=1
    )
    rec = next(r for r in exp.rows if "reconstructed" in r["constants"])
    wrong = [r for r in exp.rows if "reconstructed" not in r["constants"]]
    # the reconstructed constants are violation-free; at least one
    # neighbouring choice is not (it's what motivated the reconstruction)
    assert rec["violating_instances"] == 0
    assert any(r["violating_instances"] > 0 for r in wrong)
    save_artifact("X2c_constants", exp.render())
