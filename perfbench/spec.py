"""What the benchmark measures: workloads, end-to-end metrics, per-layer metrics.

This module is the one source of ``BENCHMARK.json`` at the root of the
repository (``run.py --suite`` writes it; a test checks that the file
agrees).  The per-layer table also records, for
each metric, the layer it belongs to, the end-to-end metric it should
move and the workloads where that layer runs; ``BENCHMARK.json`` keeps
only name, unit and direction, and ``perfbench/README.md`` prints the
whole map.
"""

from __future__ import annotations

RUN_SECONDS = 10

WORKLOADS = (
    ("pack-highload",
     "batch First Fit, ~165 open bins: driver, state and first-fit tree do all the "
     "work; no service code runs"),
    ("pack-repack",
     "batch repack-ff (budget 4) on an Azure-schema trace, ~5 open bins: the "
     "migration planner dominates and the tree never activates"),
    ("serve-steady",
     "repro serve --wal-dir with defaults, open loop one job per frame: wire, server "
     "loop, WAL, metrics and checkpoints carry latency"),
    ("fleet-recover",
     "repro fleet (2 shards) booted on a crash image, closed-loop batched replay with "
     "departs: the router and recovery's read path"),
)

#: (name, unit, better, bound): the end-to-end metrics BENCHMARK.json
#: gates, reported on every workload.  Each stayed inside its bound,
#: both as the spread over a set of seeds and as the move of the median
#: between sets, on a shared 2-vCPU VM (perfbench/README.md).
END_TO_END = (
    ("usage_ratio", "ratio", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: end-to-end metrics every run prints and the suite tabulates, but
#: BENCHMARK.json does not gate.  The VM's CPU speed flips between two
#: states about 2x apart within a minute, so over a set of seeds every
#: timing, CPU time per event included, can spread by more than the
#: widest bound the gate allows (see perfbench/README.md for measured
#: spreads).  The last three are zero or undefined on some workloads.
SUITE_ONLY = (
    ("cpu_us_per_event", "us/event", "lower"),
    ("events_per_s", "events/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("within_50ms_frac", "fraction", "higher"),
    ("error_frac", "fraction", "lower"),
    ("disk_bytes_per_event", "bytes/event", "lower"),
)

ALL = ("pack-highload", "pack-repack", "serve-steady", "fleet-recover")
BATCH = ("pack-highload", "pack-repack")
SERVICE = ("serve-steady", "fleet-recover")

#: (name, unit, better, layer, moves, workloads where the layer runs)
PER_LAYER = (
    ("driver.events", "count", "higher", "core.driver", "events_per_s on the pack-*", ALL),
    ("driver.self_us_per_event", "us", "lower", "core.driver",
     "events_per_s on the pack-*", ALL),
    ("state.place_us", "us", "lower", "core.state", "events_per_s on pack-highload", ALL),
    ("state.depart_us", "us", "lower", "core.state", "events_per_s on pack-highload", ALL),
    ("state.migrate_us", "us", "lower", "core.state", "events_per_s on pack-repack",
     ("pack-repack",)),
    ("state.open_bins_mean", "count", "lower", "core.state", "usage_ratio", ALL),
    ("ffindex.queries", "count", "higher", "core.ffindex", "events_per_s on pack-highload",
     ("pack-highload",)),
    ("ffindex.query_us", "us", "lower", "core.ffindex", "events_per_s on pack-highload",
     ("pack-highload",)),
    ("ffindex.update_us", "us", "lower", "core.ffindex", "events_per_s on pack-highload",
     ("pack-highload",)),
    ("ffindex.rebuilds", "count", "lower", "core.ffindex", "events_per_s on pack-highload",
     ("pack-highload",)),
    ("ffindex.tree_frac", "fraction", "higher", "core.ffindex",
     "events_per_s on pack-highload", ("pack-highload",)),
    ("planner.calls", "count", "lower", "algorithms", "events_per_s on pack-repack",
     ("pack-repack",)),
    ("planner.us_per_call", "us", "lower", "algorithms", "events_per_s on pack-repack",
     ("pack-repack",)),
    ("planner.moves", "count", "lower", "algorithms", "usage_ratio on pack-repack (unmoved)",
     ("pack-repack",)),
    ("planner.useful_frac", "fraction", "higher", "algorithms", "events_per_s on pack-repack",
     ("pack-repack",)),
    ("engine.ops", "count", "higher", "service.engine",
     "latency_p50_ms on serve-steady, events_per_s on fleet-recover", SERVICE),
    ("engine.submit_us", "us", "lower", "service.engine",
     "latency_p50_ms on serve-steady, events_per_s on fleet-recover", SERVICE),
    ("engine.depart_us", "us", "lower", "service.engine", "events_per_s on fleet-recover",
     ("fleet-recover",)),
    ("metrics.updates", "count", "lower", "service.metrics", "latency_p50_ms on serve-steady",
     SERVICE),
    ("metrics.us_per_request", "us", "lower", "service.metrics",
     "latency_p50_ms on serve-steady", SERVICE),
    ("wal.appends", "count", "higher", "service.wal",
     "latency_p50_ms on serve-steady, events_per_s on fleet-recover", SERVICE),
    ("wal.append_us", "us", "lower", "service.wal",
     "latency_p50_ms on serve-steady, events_per_s on fleet-recover", SERVICE),
    ("wal.bytes_per_event", "bytes/event", "lower", "service.wal",
     "disk_bytes_per_event on serve-steady", SERVICE),
    ("wal.fsyncs", "count", "lower", "service.wal", "latency_p50_ms on serve-steady", SERVICE),
    ("wal.fsync_ms", "ms", "lower", "service.wal", "latency_p50_ms on serve-steady", SERVICE),
    ("ckpt.count", "count", "lower", "service.recovery",
     "latency_p99_ms and disk_bytes_per_event on serve-steady", SERVICE),
    ("ckpt.ms_mean", "ms", "lower", "service.recovery",
     "latency_p99_ms on serve-steady, events_per_s on fleet-recover", SERVICE),
    ("ckpt.ms_max", "ms", "lower", "service.recovery", "latency_p99_ms on serve-steady",
     SERVICE),
    ("ckpt.bytes_mean", "bytes", "lower", "service.recovery",
     "disk_bytes_per_event on serve-steady", SERVICE),
    ("ckpt.busy_frac", "fraction", "lower", "service.recovery",
     "within_50ms_frac on serve-steady, events_per_s on fleet-recover", SERVICE),
    ("recover.ms", "ms", "lower", "service.recovery", "setup_s on fleet-recover", SERVICE),
    ("recover.replayed", "count", "lower", "service.recovery", "setup_s on fleet-recover",
     ("fleet-recover",)),
    ("protocol.decode_us_per_job", "us", "lower", "service.protocol",
     "latency_p50_ms on serve-steady, events_per_s on fleet-recover", SERVICE),
    ("protocol.encode_us_per_job", "us", "lower", "service.protocol",
     "latency_p50_ms on serve-steady, events_per_s on fleet-recover", SERVICE),
    ("server.frames", "count", "higher", "service.server", "latency_p99_ms on serve-steady",
     SERVICE),
    ("server.service_us_per_frame", "us", "lower", "service.server",
     "latency_p99_ms on serve-steady", SERVICE),
    ("server.histogram_us_per_frame", "us", "lower", "service.server",
     "cross-check of server.service_us_per_frame", SERVICE),
    ("server.wait_ms_p99", "ms", "lower", "service.server", "latency_p99_ms on serve-steady",
     SERVICE),
    ("router.frames", "count", "higher", "service.router",
     "events_per_s and latency_p50_ms on fleet-recover", ("fleet-recover",)),
    ("router.hop_us_per_frame", "us", "lower", "service.router",
     "events_per_s and latency_p50_ms on fleet-recover", ("fleet-recover",)),
    ("router.split_frac", "fraction", "lower", "service.router",
     "events_per_s and latency_p50_ms on fleet-recover", ("fleet-recover",)),
    ("router.retries", "count", "lower", "service.router", "events_per_s on fleet-recover",
     ("fleet-recover",)),
    ("router.breaker_rejections", "count", "lower", "service.router",
     "events_per_s on fleet-recover", ("fleet-recover",)),
    ("traces.ingest_s", "s", "lower", "traces", "setup_s on pack-repack",
     ("pack-repack", "fleet-recover")),
    ("traces.records", "count", "higher", "traces", "setup_s on pack-repack",
     ("pack-repack", "fleet-recover")),
    ("traces.skipped", "count", "lower", "traces", "setup_s on pack-repack",
     ("pack-repack", "fleet-recover")),
    ("client.sent", "count", "higher", "client", "run validity (not speed)", SERVICE),
    ("client.failed", "count", "lower", "client", "run validity (not speed)", SERVICE),
    ("client.lag_p99_ms", "ms", "lower", "client", "run validity (not speed)",
     ("serve-steady",)),
    ("ledger.unattributed_frac", "fraction", "lower", "ledger",
     "completeness of the per-layer bill", ALL),
    ("trace.overhead_frac", "fraction", "lower", "ledger", "cost of tracing itself", ALL),
)

#: self-time share of each layer in the traced processes' busy wall time
BILL_LAYERS = (
    ("driver", "core.driver"),
    ("state", "core.state"),
    ("ffindex", "core.ffindex"),
    ("algorithms", "algorithms"),
    ("engine", "service.engine"),
    ("metrics", "service.metrics"),
    ("wal", "service.wal"),
    ("recovery", "service.recovery"),
    ("protocol", "service.protocol"),
    ("server", "service.server"),
    ("router", "service.router"),
    ("traces", "traces"),
)


def per_layer_names() -> list[str]:
    return [m[0] for m in PER_LAYER] + [f"bill.{short}_frac" for short, _ in BILL_LAYERS]


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    per_layer = [{"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER]
    per_layer += [{"name": f"bill.{short}_frac", "unit": "fraction", "better": "lower"}
                  for short, _ in BILL_LAYERS]
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": per_layer,
    }


def units() -> dict:
    out = {n: u for n, u, *_ in END_TO_END}
    out.update({n: u for n, u, *_ in SUITE_ONLY})
    out.update({n: u for n, u, *_ in PER_LAYER})
    out.update({f"bill.{short}_frac": "fraction" for short, _ in BILL_LAYERS})
    return out
