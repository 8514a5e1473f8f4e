"""X4: adaptive keep-alive adversary vs deterministic policies."""

from repro.experiments import run_spec
from repro.experiments.adaptive import ADAPTIVE_SPEC


def test_adaptive_adversary_table(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(
            ADAPTIVE_SPEC, dict(waves=5, k=5, bins_per_wave=3, mus=(4.0, 8.0))
        ),
        rounds=1,
        iterations=1,
    )
    for mu in (4.0, 8.0):
        rows = {r["policy"]: r for r in exp.rows if r["mu"] == mu}
        # Next Fit suffers most: its retired bins strand survivors
        assert rows["next-fit"]["ratio"] > rows["first-fit"]["ratio"]
        # nobody breaches their analytic ceiling
        assert rows["first-fit"]["ratio"] <= mu + 4.0
        assert rows["next-fit"]["ratio"] <= 2 * mu + 1.0
        # the adversary does real damage: ratios are well above 1
        assert rows["next-fit"]["ratio"] > 1.5
    # higher µ, higher damage (survivors pinned longer)
    ff4 = next(r for r in exp.rows if r["mu"] == 4.0 and r["policy"] == "first-fit")
    ff8 = next(r for r in exp.rows if r["mu"] == 8.0 and r["policy"] == "first-fit")
    assert ff8["ratio"] > ff4["ratio"]
    save_artifact("X4_adaptive_adversary", exp.render())
