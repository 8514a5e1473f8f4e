"""What one packing run keeps resident, per event.

A run's working set is the event order, the bins' level timelines and
the item->bin map.  The pin below measures it with ``tracemalloc`` (the
Python allocator only, so it is deterministic up to free-list reuse)
on a high-load First Fit instance (up to 185 open bins).  The lazy
event merge, the float-column timelines and the slotted items and bins
put it near 110 B/event on CPython 3.11; a run that builds and sorts
all 2n event tuples and keeps a ``(time, level)`` tuple per event reads
about 230 and fails the pin.
"""

from __future__ import annotations

import tracemalloc

from repro.algorithms import FirstFit
from repro.core.packing import run_packing
from repro.workloads.random_workloads import poisson_workload

#: bytes of peak traced allocation per event allowed for one run
PEAK_BYTES_PER_EVENT = 180


def test_run_packing_peak_bytes_per_event():
    items = poisson_workload(5000, seed=1, arrival_rate=200, mu_target=8)
    tracemalloc.start()
    try:
        result = run_packing(items, FirstFit())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.num_bins > 0
    per_event = peak / (2 * len(items))
    assert per_event < PEAK_BYTES_PER_EVENT, f"{per_event:.0f} B/event"
