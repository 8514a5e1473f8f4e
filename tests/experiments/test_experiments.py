"""Integration tests: each registered experiment runs and has the shape
the paper predicts (small configurations for speed; the benchmark suite
runs the full configurations)."""

import math

import pytest

from repro.experiments import SPEC_REGISTRY, run_spec


class TestRegistry:
    def test_all_ids_present(self):
        expected = {
            "F1", "F2", "F3", "F4", "F5-F6",
            "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8",
            "X1", "X2a", "X2b", "X2c", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10", "X11", "X12", "X13",
        }
        assert expected == set(SPEC_REGISTRY)


class TestFigures:
    def test_f1_span_rendering(self):
        out = run_spec(SPEC_REGISTRY["F1"])
        assert "span" in out.rendering
        assert out.data.span == pytest.approx(5.0)

    def test_f2_shows_v_and_w(self):
        out = run_spec(SPEC_REGISTRY["F2"])
        assert "V=" in out.rendering and "W=" in out.rendering
        deco = out.data
        assert deco.total_w == pytest.approx(deco.span)

    def test_f3_produces_subperiods(self):
        out = run_spec(SPEC_REGISTRY["F3"])
        assert any(b.l_subperiods for b in out.data)

    def test_f4_produces_groups(self):
        out = run_spec(SPEC_REGISTRY["F4"])
        assert len(out.data.groups) > 0

    def test_f56_no_violations(self):
        out = run_spec(SPEC_REGISTRY["F5-F6"], dict(seeds=(0, 1, 2, 3)))
        assert out.data["violations"] == 0


class TestTheorem1Experiment:
    def test_all_rows_within_bound(self):
        exp = run_spec(SPEC_REGISTRY["T1"], dict(
            mus=(2.0, 4.0), adversarial_n=10, random_n=40,
            random_seeds=(1,), node_budget=30_000,
        ))
        assert all(exp.column("within_bound"))

    def test_adversarial_ratio_grows_with_mu(self):
        exp = run_spec(SPEC_REGISTRY["T1"], dict(
            mus=(2.0, 8.0), adversarial_n=16, random_n=30,
            random_seeds=(1,), node_budget=30_000,
        ))
        adv = [r for r in exp.rows if r["workload"].startswith("adversarial")]
        assert adv[1]["ratio_upper"] > adv[0]["ratio_upper"]


class TestNextFitExperiment:
    def test_nf_matches_analytic(self):
        exp = run_spec(
            SPEC_REGISTRY["T2"], dict(ns=(4, 8), mus=(2.0,), node_budget=30_000)
        )
        for row in exp.rows:
            assert row["nf_ratio"] == pytest.approx(row["analytic_ratio"], rel=1e-6)

    def test_nf_ratio_increases_toward_2mu(self):
        exp = run_spec(
            SPEC_REGISTRY["T2"], dict(ns=(4, 16, 64), mus=(4.0,), node_budget=30_000)
        )
        ratios = exp.column("nf_ratio")
        assert ratios == sorted(ratios)
        assert ratios[-1] <= 8.0 + 1e-9

    def test_ff_always_beats_nf(self):
        exp = run_spec(
            SPEC_REGISTRY["T2"], dict(ns=(8, 16), mus=(2.0, 4.0), node_budget=30_000)
        )
        for row in exp.rows:
            assert row["ff_ratio"] < row["nf_ratio"]


class TestLowerBoundExperiments:
    def test_universal_all_algorithms_equal(self):
        exp = run_spec(
            SPEC_REGISTRY["T3"], dict(ns=(8,), mus=(4.0,), node_budget=30_000)
        )
        row = exp.rows[0]
        assert row["ff_ratio"] == pytest.approx(row["bf_ratio"])
        assert row["ff_ratio"] == pytest.approx(row["nf_ratio"])

    def test_staircase_bf_worse_than_ff(self):
        exp = run_spec(
            SPEC_REGISTRY["T4"], dict(ns=(24,), mus=(8.0,), node_budget=30_000)
        )
        row = exp.rows[0]
        assert row["bf_ratio"] > row["ff_ratio"]
        assert row["bf_over_ff"] > 1.5


class TestBoundsTable:
    def test_measured_respects_analytic_upper(self):
        exp = run_spec(SPEC_REGISTRY["T5"], dict(mu=4.0, node_budget=30_000))
        for row in exp.rows:
            upper = row["analytic_upper"]
            if upper != "—":
                assert row["measured_worst"] <= float(upper) + 1e-6, row

    def test_first_fit_below_mu_plus_4(self):
        exp = run_spec(SPEC_REGISTRY["T5"], dict(mu=4.0, node_budget=30_000))
        ff = next(r for r in exp.rows if r["algorithm"] == "first-fit")
        assert ff["measured_worst"] <= 8.0


class TestCloudGamingExperiment:
    def test_shape(self):
        exp = run_spec(
            SPEC_REGISTRY["T6"], dict(num_sessions=80, rates=(2.0,), seed=1)
        )
        assert len(exp.rows) == 2 * 5  # 2 billings × 5 algorithms
        ff_rows = [r for r in exp.rows if r["algorithm"] == "first-fit"]
        assert all(r["vs_ff"] == pytest.approx(1.0) for r in ff_rows)

    def test_nf_never_cheaper_than_ff(self):
        exp = run_spec(
            SPEC_REGISTRY["T6"], dict(num_sessions=150, rates=(4.0,), seed=2)
        )
        nf = [r for r in exp.rows if r["algorithm"] == "next-fit"]
        assert all(r["vs_ff"] >= 1.0 - 1e-9 for r in nf)


class TestMultidimExperiment:
    def test_shape_and_ratios(self):
        exp = run_spec(SPEC_REGISTRY["X1"], dict(
            n=50, seeds=(1,), dimensions=(1, 2), correlations=(1.0,)
        ))
        assert all(r["mean_ratio"] >= 1.0 - 1e-9 for r in exp.rows)

    def test_more_dimensions_higher_ratio_for_ff(self):
        exp = run_spec(SPEC_REGISTRY["X1"], dict(
            n=80, seeds=(1, 2), dimensions=(1, 3), correlations=()
        ))
        ff = [r for r in exp.rows if r["algorithm"] == "vector-first-fit"]
        assert ff[1]["mean_ratio"] >= ff[0]["mean_ratio"] - 0.05


class TestAblation:
    def test_selection_ablation_runs(self):
        exp = run_spec(SPEC_REGISTRY["X2a"], dict(mu=4.0, node_budget=20_000))
        names = {r["selection"] for r in exp.rows}
        assert "first-fit" in names and "best-fit" in names

    def test_hff_threshold_ablation_includes_plain_ff(self):
        exp = run_spec(SPEC_REGISTRY["X2b"], dict(
            mu=4.0, thresholds=((0.5,), ()), seeds=(1,), node_budget=20_000
        ))
        assert any(r["classes"] == 1 for r in exp.rows)

    def test_constants_ablation_reconstructed_is_clean(self):
        exp = run_spec(SPEC_REGISTRY["X2c"], dict(seeds=tuple(range(8)), n=50))
        rec = next(r for r in exp.rows if "reconstructed" in r["constants"])
        assert rec["violating_instances"] == 0
