"""X9: deferred dispatch — the patience frontier."""

import pytest

from repro.experiments import run_spec
from repro.experiments.deferral_exp import DEFERRAL_SPEC


def test_deferral_frontier(benchmark, save_artifact):
    exp = benchmark.pedantic(lambda: run_spec(DEFERRAL_SPEC), rounds=1, iterations=1)
    rows = exp.rows
    # zero patience is exactly First Fit
    assert rows[0]["max_delay"] == 0.0
    assert rows[0]["vs_ff"] == pytest.approx(1.0)
    assert rows[0]["delayed_jobs"] == 0
    # costs fall (weakly) along the sweep and the largest patience saves ≥ 10%
    costs = [r["usage_cost"] for r in rows]
    assert costs[-1] <= costs[0]
    assert rows[-1]["vs_ff"] < 0.9
    # waits rise with patience and respect the window
    for r in rows:
        assert r["max_wait"] <= r["max_delay"] + 1e-9
    waits = [r["mean_wait"] for r in rows]
    assert waits == sorted(waits)
    save_artifact("X9_deferral", exp.render())
