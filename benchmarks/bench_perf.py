"""Performance benchmarks: packing throughput and OPT solver scaling.

Not a paper artifact — engineering benchmarks for the library itself
(events/second per algorithm, OPT_total cost as instances grow), so
regressions in the hot paths are visible.  They time only what
``repro bench`` does not: every registry policy, and ``opt_total``.
The vector, streaming and WAL cells live in ``repro bench``.
"""

import pytest

from repro.algorithms import ALGORITHM_REGISTRY, make_algorithm
from repro.core.packing import run_packing
from repro.opt.opt_total import opt_total
from repro.workloads.random_workloads import poisson_workload

INSTANCE = poisson_workload(2000, seed=99, mu_target=8.0, arrival_rate=4.0)
SMALL = poisson_workload(60, seed=7, mu_target=6.0, arrival_rate=2.0)


@pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
def test_packing_throughput(benchmark, name):
    """Pack 2000 jobs (4000 events) with each policy."""
    result = benchmark(lambda: run_packing(INSTANCE, make_algorithm(name)))
    assert result.num_bins > 0


def test_opt_total_small_instance(benchmark):
    """Exact OPT_total on a 60-job instance (event-interval B&B)."""
    opt = benchmark(lambda: opt_total(SMALL))
    assert opt.exact


def test_opt_total_scaling_moderate(benchmark):
    inst = poisson_workload(150, seed=8, mu_target=6.0, arrival_rate=3.0)
    opt = benchmark.pedantic(lambda: opt_total(inst), rounds=2, iterations=1)
    assert opt.lower > 0
