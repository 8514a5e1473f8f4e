"""T8: warm-server retention under hourly vs continuous billing."""

from repro.experiments import run_spec
from repro.experiments.retention_exp import RETENTION_SPEC


def test_retention_table(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(RETENTION_SPEC, dict(num_sessions=300, rates=(2.0, 8.0))),
        rounds=1,
        iterations=1,
    )
    for rate in (2.0, 8.0):
        rows = {
            (r["billing"], r["policy"]): r
            for r in exp.rows
            if r["rate"] == rate
        }
        # hour-boundary retention's hold is free under hourly billing;
        # reuse-induced placement drift keeps the system bill within a
        # couple of percent of no-retention and usually below it
        assert rows[("hourly", "hour-boundary")]["vs_none"] <= 1.02
        # and it actually reuses servers
        assert rows[("hourly", "hour-boundary")]["reuses"] > 0
        # any retention under continuous billing is a pure loss
        for policy in ("hour-boundary", "fixed-cooldown(0.25)", "fixed-cooldown(1)"):
            assert rows[("continuous", policy)]["vs_none"] >= 1.0 - 1e-9
    save_artifact("T8_retention", exp.render())
