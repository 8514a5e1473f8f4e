"""X3: the price of information and of migration."""

from repro.experiments import run_spec
from repro.experiments.information import INFORMATION_SPEC


def test_information_price_table(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(INFORMATION_SPEC, dict(n=13, seeds=tuple(range(8)))),
        rounds=1,
        iterations=1,
    )
    by = {r["model"]: r for r in exp.rows}
    # sandwich: repacking OPT (=1) ≤ offline exact ≤ online First Fit
    assert 1.0 - 1e-9 <= by["offline_exact"]["mean_vs_repack_opt"]
    assert (
        by["offline_exact"]["mean_vs_repack_opt"]
        <= by["first_fit"]["mean_vs_repack_opt"] + 1e-9
    )
    # the offline exact values are certified optima
    assert by["offline_exact"]["exact_certified"] is True
    # heuristic offline stays close to exact
    assert (
        by["offline_greedy_ls"]["mean_vs_repack_opt"]
        <= by["offline_exact"]["mean_vs_repack_opt"] + 0.25
    )
    save_artifact("X3_information_price", exp.render())
