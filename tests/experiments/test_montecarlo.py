"""Tests for the Monte Carlo expected-ratio experiment."""

import numpy as np
import pytest

from repro.experiments import run_spec
from repro.experiments.montecarlo import EXPECTED_RATIO_SPEC, bootstrap_ci


class TestBootstrapCI:
    def test_contains_mean_of_constant(self):
        lo, hi = bootstrap_ci(np.full(20, 3.0))
        assert lo == pytest.approx(3.0)
        assert hi == pytest.approx(3.0)

    def test_interval_ordering(self):
        rng = np.random.default_rng(1)
        lo, hi = bootstrap_ci(rng.normal(5.0, 1.0, 50))
        assert lo <= hi
        assert 4.0 < lo < 6.0 and 4.0 < hi < 6.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([]))

    def test_deterministic(self):
        xs = np.arange(30, dtype=float)
        assert bootstrap_ci(xs) == bootstrap_ci(xs)


class TestExpectedRatio:
    @pytest.fixture(scope="class")
    def exp(self):
        return run_spec(EXPECTED_RATIO_SPEC, dict(
            n=40, replications=6, loads=(1.0, 4.0), mus=(2.0, 8.0),
            node_budget=30_000,
        ))

    def test_ci_brackets_mean(self, exp):
        for r in exp.rows:
            assert r["ci95_lo"] <= r["mean_ratio"] + 1e-9
            assert r["mean_ratio"] <= r["ci95_hi"] + 1e-9
            assert r["mean_ratio"] <= r["max_ratio"] + 1e-9

    def test_all_ratios_at_least_one(self, exp):
        assert all(r["mean_ratio"] >= 1.0 - 1e-9 for r in exp.rows)

    def test_first_fit_never_worse_than_next_fit_in_mean(self, exp):
        # at near-zero load the two coincide up to sampling noise; at
        # real load First Fit dominates strictly
        for mu in (2.0, 8.0):
            for load in (1.0, 4.0):
                rows = {
                    r["algorithm"]: r["mean_ratio"]
                    for r in exp.rows
                    if r["mu"] == mu and r["load"] == load
                }
                assert rows["first-fit"] <= rows["next-fit"] + 0.01
                if load >= 4.0:
                    assert rows["first-fit"] < rows["next-fit"]

    def test_ratio_grows_with_mu_for_ff(self, exp):
        for load in (1.0, 4.0):
            ff = {
                r["mu"]: r["mean_ratio"]
                for r in exp.rows
                if r["algorithm"] == "first-fit" and r["load"] == load
            }
            assert ff[8.0] >= ff[2.0] - 0.05
