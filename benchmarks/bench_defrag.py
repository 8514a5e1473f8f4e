"""X13: online bounded-migration repacking (usage ratio vs. move budget)."""

from repro.experiments import run_spec
from repro.experiments.defrag_exp import DEFRAG_SPEC


def test_defrag_budget_table(benchmark, save_artifact):
    exp = benchmark.pedantic(lambda: run_spec(DEFRAG_SPEC), rounds=1, iterations=1)
    by_family = {}
    for row in exp.rows:
        by_family.setdefault(row["family"], []).append(row)
    for family, rows in by_family.items():
        rows.sort(key=lambda r: r["budget"])
        # budget 0 is the off switch: plain First Fit, zero moves
        assert rows[0]["budget"] == 0 and rows[0]["moves"] == 0
        # migration never hurts on these families: the largest budget
        # does at least as well as First Fit
        assert rows[-1]["ratio"] <= rows[0]["ratio"] + 1e-9
        # every measured packing stays above the repacking adversary
        for row in rows:
            assert row["ratio"] >= row["adversary_ratio"] - 1e-6
    # the headline: on the universal lower-bound gadget a *bounded*
    # online repacker crosses below mu — the paper's Theorem 2 bound
    # binds non-migratory algorithms only, and a small budget is
    # already enough to escape it on the construction itself
    univ = by_family["universal-lb(12,4)"]
    assert univ[0]["ratio"] > 2.0  # First Fit is badly hurt by the gadget
    assert any(r["ratio"] < r["mu"] for r in univ if r["budget"] > 0)
    save_artifact("X13_defrag_budget", exp.render())
