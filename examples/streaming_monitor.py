#!/usr/bin/env python
"""Streaming simulation: watch a bursty day unfold, event by event.

Observers ride along with the batch driver: ``run_packing`` calls each
one with ``(event, state)`` after every applied event.  A bursty MMPP
request stream is dispatched by First Fit while a
:class:`~repro.cloud.ConcurrencyMeter` tracks the fleet size and a
console "dashboard" prints a line whenever the open-server count
changes.

Run:  python examples/streaming_monitor.py
"""

from repro.algorithms import FirstFit, NextFit
from repro.cloud import ConcurrencyMeter
from repro.core.packing import run_packing
from repro.workloads.mmpp import mmpp_workload, two_phase_bursty
from repro.workloads.profile import profile_instance


def main() -> None:
    stream = mmpp_workload(
        horizon=48.0,
        seed=11,
        phases=two_phase_bursty(base_rate=1.0, burst_rate=14.0,
                                base_dwell=6.0, burst_dwell=1.0),
    )
    print("workload profile:")
    print(profile_instance(stream).render())
    print()

    print("live dispatch (First Fit) — one line per fleet-size change:")
    meter = ConcurrencyMeter()
    last_count = -1

    def dashboard(event, state) -> None:
        nonlocal last_count
        if state.num_open != last_count:
            bar = "#" * state.num_open
            print(f"  t={event.time:7.2f}h  servers={state.num_open:>3d} {bar}")
            last_count = state.num_open

    result = run_packing(stream, FirstFit(), observers=[meter, dashboard])
    print()
    print(f"peak fleet: {meter.peak_open} servers; "
          f"time-weighted mean fleet: {meter.mean_open:.2f} servers; "
          f"utilization: {result.average_utilization:.1%}")

    # compare the burst response of First Fit vs Next Fit
    print()
    print("burst response comparison:")
    for algo in (FirstFit(), NextFit()):
        result = run_packing(stream, algo)
        print(f"  {algo.name:12s} peak fleet {result.max_concurrent_bins:>3d}")


if __name__ == "__main__":
    main()
