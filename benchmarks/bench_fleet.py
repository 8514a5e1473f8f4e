"""T7: heterogeneous fleet launch policies vs homogeneous baseline."""

from repro.experiments import run_spec
from repro.experiments.fleet_exp import FLEET_SPEC


def test_fleet_comparison_table(benchmark, save_artifact):
    exp = benchmark.pedantic(
        lambda: run_spec(FLEET_SPEC, dict(num_sessions=300, rates=(2.0, 8.0))),
        rounds=1,
        iterations=1,
    )
    for rate in (2.0, 8.0):
        rows = {r["config"]: r for r in exp.rows if r["rate"] == rate}
        # the homogeneous baseline is normalised to 1
        assert rows["homogeneous"]["vs_homog"] == 1.0
        # small-first launch beats homogeneous on this workload shape
        # (many light sessions strand capacity on medium servers)
        assert rows["smallest-fitting"]["vs_homog"] < 1.0
        # always-large launch pays for stranded capacity at these loads
        assert rows["best-density"]["vs_homog"] > rows["smallest-fitting"]["vs_homog"]
    save_artifact("T7_fleet", exp.render())
