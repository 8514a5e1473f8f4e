"""T5: the known-bounds table vs measured worst-case ratios."""

from repro.experiments import run_spec
from repro.experiments.comparison import BOUNDS_TABLE_SPEC


def test_bounds_table(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(BOUNDS_TABLE_SPEC, dict(mu=8.0)), rounds=1, iterations=1
    )
    rows = {r["algorithm"]: r for r in exp.rows}
    # First Fit within µ+4 = 12
    assert rows["first-fit"]["measured_worst"] <= 12.0
    # Next Fit within 2µ+1 = 17, and worse than First Fit
    assert rows["next-fit"]["measured_worst"] <= 17.0
    assert rows["next-fit"]["measured_worst"] > rows["first-fit"]["measured_worst"]
    # Best Fit at least as bad as First Fit on its staircase
    assert rows["best-fit"]["measured_worst"] >= rows["first-fit"]["measured_worst"] - 1e-9
    save_artifact("T5_bounds_table", exp.render())
