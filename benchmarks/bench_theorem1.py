"""T1: First Fit competitive ratio vs the µ+4 bound (Theorem 1)."""

from repro.experiments import run_spec
from repro.experiments.theorem1 import THEOREM1_SPEC


def test_theorem1_table(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(THEOREM1_SPEC, dict(
            mus=(2.0, 4.0, 8.0, 16.0),
            adversarial_n=24,
            random_n=80,
            random_seeds=(1, 2, 3),
        )),
        rounds=1,
        iterations=1,
    )
    # headline claim: every measured ratio respects Theorem 1
    assert all(exp.column("within_bound"))
    # the adversarial family approaches the µ lower bound: ratio grows
    # monotonically in µ on the adversarial rows
    adv = [r["ratio_upper"] for r in exp.rows if r["workload"].startswith("adv")]
    assert adv == sorted(adv)
    # random workloads stay far below the bound (shape check)
    rnd = [r for r in exp.rows if r["workload"].startswith("poisson")]
    assert all(r["ratio_upper"] < r["bound(mu+4)"] / 2 for r in rnd)
    save_artifact("T1_theorem1", exp.render())
