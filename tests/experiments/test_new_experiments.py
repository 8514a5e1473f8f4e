"""Integration tests for the extension experiments (X3, X4, X5, T7)."""

import pytest

from repro.experiments import SPEC_REGISTRY, run_spec
from repro.experiments.adaptive import ADAPTIVE_SPEC
from repro.experiments.exploration import WORST_CASE_SPEC
from repro.experiments.fleet_exp import FLEET_SPEC
from repro.experiments.information import INFORMATION_SPEC


class TestRegistryExtensions:
    def test_new_ids_registered(self):
        assert {"X3", "X4", "X5", "T7"} <= set(SPEC_REGISTRY)


class TestInformationPrice:
    def test_sandwich_ordering(self):
        exp = run_spec(
            INFORMATION_SPEC, dict(n=10, seeds=(0, 1, 2), node_budget=200_000)
        )
        by = {r["model"]: r["mean_vs_repack_opt"] for r in exp.rows}
        assert 1.0 - 1e-9 <= by["offline_exact"]
        assert by["offline_exact"] <= by["first_fit"] + 1e-9
        assert by["offline_exact"] <= by["offline_greedy_ls"] + 1e-9

    def test_exact_certified(self):
        exp = run_spec(INFORMATION_SPEC, dict(n=9, seeds=(3,), node_budget=200_000))
        rec = next(r for r in exp.rows if r["model"] == "offline_exact")
        assert rec["exact_certified"] is True


class TestAdaptiveAdversary:
    def test_nextfit_hurt_most(self):
        exp = run_spec(ADAPTIVE_SPEC, dict(
            waves=4, k=4, bins_per_wave=2, mus=(4.0,), node_budget=80_000
        ))
        rows = {r["policy"]: r["ratio"] for r in exp.rows}
        assert rows["next-fit"] == max(rows.values())

    def test_bounds_respected(self):
        exp = run_spec(ADAPTIVE_SPEC, dict(
            waves=4, k=4, bins_per_wave=2, mus=(4.0,), node_budget=80_000
        ))
        for r in exp.rows:
            if r["policy"] == "first-fit":
                assert r["ratio"] <= r["mu"] + 4.0 + 1e-9


class TestWorstCaseSearch:
    def test_never_falsifies(self):
        exp = run_spec(WORST_CASE_SPEC, dict(mu=3.0, iterations=40, seeds=(0,)))
        assert all(exp.column("within_bound"))

    def test_reports_improvement_column(self):
        exp = run_spec(WORST_CASE_SPEC, dict(mu=3.0, iterations=40, seeds=(0,)))
        assert all(r["improvement"] >= 0.0 for r in exp.rows)


class TestFleetComparison:
    def test_baseline_normalised(self):
        exp = run_spec(FLEET_SPEC, dict(num_sessions=120, rates=(4.0,), seed=2))
        homog = [r for r in exp.rows if r["config"] == "homogeneous"]
        assert all(r["vs_homog"] == pytest.approx(1.0) for r in homog)

    def test_all_configs_cover_workload(self):
        exp = run_spec(FLEET_SPEC, dict(num_sessions=120, rates=(4.0,), seed=2))
        assert {r["config"] for r in exp.rows} == {
            "homogeneous",
            "smallest-fitting",
            "cheapest-fitting",
            "best-density",
        }
