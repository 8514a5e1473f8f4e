"""X6: resource augmentation sweep."""

from repro.experiments import run_spec
from repro.experiments.augmentation_exp import AUGMENTATION_SPEC


def test_augmentation_table(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(AUGMENTATION_SPEC), rounds=1, iterations=1
    )
    for row in exp.rows:
        # moderate augmentation always helps relative to ε = 0
        assert row["eps=0.25"] <= row["eps=0"] + 1e-9
    nf = next(r for r in exp.rows if "next-fit" in r["instance/alg"])
    # the §VIII gadget's 2µ-type ratio halves with 25% extra capacity
    assert nf["eps=0.25"] <= 0.6 * nf["eps=0"]
    # random workloads beat the unit-capacity adversary outright at ε = 1
    pois = next(r for r in exp.rows if r["instance/alg"].startswith("poisson"))
    assert pois["eps=1"] < 1.0
    save_artifact("X6_augmentation", exp.render())
