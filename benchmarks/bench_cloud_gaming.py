"""T6: total renting cost on the motivating cloud-gaming application."""

import pytest

from repro.experiments import run_spec
from repro.experiments.cloud_gaming import CLOUD_GAMING_SPEC


def test_cloud_gaming_table(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(CLOUD_GAMING_SPEC, dict(
            num_sessions=300, rates=(1.0, 4.0, 12.0), seed=42
        )),
        rounds=1,
        iterations=1,
    )
    rows = exp.rows
    # Next Fit never beats First Fit on any scenario
    for r in rows:
        if r["algorithm"] == "next-fit":
            assert r["vs_ff"] >= 1.0 - 1e-9
    # NF's disadvantage grows with load: more concurrent sessions mean
    # more retired-but-open bins it cannot reuse
    for billing in ("continuous", "hourly"):
        nf_gaps = [
            r["vs_ff"] for r in rows
            if r["billing"] == billing and r["algorithm"] == "next-fit"
        ]
        assert nf_gaps == sorted(nf_gaps)
    # hourly quantisation amplifies NF's gap (it opens more servers, each
    # paying the round-up waste)
    for rate in (4.0, 12.0):
        def gap(billing, rate=rate):
            return next(
                r["vs_ff"] for r in rows
                if r["rate"] == rate and r["billing"] == billing
                and r["algorithm"] == "next-fit"
            )
        assert gap("hourly") >= gap("continuous") - 1e-9
    save_artifact("T6_cloud_gaming", exp.render())
