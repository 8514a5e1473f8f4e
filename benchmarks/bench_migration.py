"""X10: the adversary's migration budget."""

import pytest

from repro.experiments import run_spec
from repro.experiments.migration_exp import MIGRATION_SPEC


def test_migration_budget_table(benchmark, save_artifact):
    exp = benchmark.pedantic(lambda: run_spec(MIGRATION_SPEC), rounds=1, iterations=1)
    for row in exp.rows:
        # the constructed schedule attains the OPT integral (witness)
        assert row["schedule"] == pytest.approx(row["repack_opt"], rel=1e-6)
        # sandwich: repack OPT ≤ offline non-migratory ≤ ... (heuristic,
        # so only the lower side is guaranteed); FF is a real packing
        assert row["offline_nonmigr"] >= row["repack_opt"] - 1e-6
        assert row["first_fit"] >= row["repack_opt"] - 1e-6
    # the adversary really migrates on mixed workloads
    poisson = next(r for r in exp.rows if r["family"].startswith("poisson"))
    assert poisson["migrations"] > 0
    # the instructive decomposition on the universal gadget: a
    # non-migratory *offline* solution nearly matches the repacking
    # adversary (it, too, consolidates the fillers), so the gadget's
    # damage is almost entirely the price of ONLINE-ness, not migration
    univ = next(r for r in exp.rows if r["family"].startswith("universal"))
    assert univ["migration_gain"] < 1.2
    assert univ["online_price"] > 2.0
    assert univ["online_price"] > univ["migration_gain"]
    save_artifact("X10_migration_budget", exp.render())
