"""X5: hill-climbing falsification attempt on the competitive bounds."""

from repro.experiments import run_spec
from repro.experiments.exploration import WORST_CASE_SPEC


def test_worst_case_search(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(
            WORST_CASE_SPEC, dict(mu=4.0, iterations=120, seeds=(0, 1))
        ),
        rounds=1,
        iterations=1,
    )
    # the falsification attempt must fail: every found ratio within bound
    assert all(exp.column("within_bound"))
    # the search is not a no-op: it improves on at least one start
    assert any(r["improvement"] > 0.01 for r in exp.rows)
    # gadget starts dominate random starts (structure beats noise)
    for algo in ("first-fit", "next-fit"):
        rows = {r["start"]: r["found_ratio"] for r in exp.rows if r["algorithm"] == algo}
        assert rows["gadget"] >= rows["random"]
    save_artifact("X5_worst_case_search", exp.render())
