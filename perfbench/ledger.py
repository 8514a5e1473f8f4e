"""Per-layer metrics from a traced run's span dumps.

Each process under test leaves ``spans-<pid>.json`` in the run's trace
directory (see ``hook/pbtrace.py``).  This module sums the per-name
aggregates over those processes and turns them into the per-layer
metrics of :data:`spec.PER_LAYER`, plus the bill: each layer's self
time as a share of the traced processes' busy wall time (wall time on
the main thread, less the time the event loop sat waiting for input).
A metric of a layer that never ran reads 0.
"""

from __future__ import annotations

import glob
import json
import os
import re
from collections import Counter, defaultdict

import common
import spec

#: span-name prefix -> layer (module) it is charged to
PREFIX_LAYER = {
    "driver": "core.driver",
    "state": "core.state",
    "ffindex": "core.ffindex",
    "policy": "algorithms",
    "planner": "algorithms",
    "engine": "service.engine",
    "metrics": "service.metrics",
    "wal": "service.wal",
    "durable": "service.recovery",
    "ckpt": "service.recovery",
    "recover": "service.recovery",
    "snapshot": "service.recovery",
    "protocol": "service.protocol",
    "server": "service.server",
    "router": "service.router",
    "traces": "traces",
}

#: spans off the main thread's critical path, left out of the bill
OFF_PATH = ("wal.fsync_bg", "loop.idle")


def role(doc: dict) -> str:
    argv = doc.get("argv") or []
    if argv and argv[0].endswith("batch_child.py"):
        return "batch"
    if "fleet" in argv:
        return "router"
    if "serve" in argv:
        return "worker"
    return "other"


def load(trace_dir: str, expect: dict) -> list[dict]:
    """The span dumps of one traced run; every process under test must have left one."""
    docs = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
        with open(path) as f:
            doc = json.load(f)
        doc["role"] = role(doc)
        docs.append(doc)
    found = Counter(d["role"] for d in docs)
    if found != Counter(expect):
        raise common.BenchError(f"span dumps by role {dict(found)}, expected {expect}")
    return docs


class Agg:
    """Aggregates of one span name summed over processes."""

    __slots__ = ("count", "wall", "self", "extra", "max")

    def __init__(self):
        self.count = 0
        self.wall = 0.0
        self.self = 0.0
        self.extra = 0.0
        self.max = 0.0

    def add(self, row) -> None:
        self.count += row[0]
        self.wall += row[1]
        self.self += row[2]
        self.extra += row[3]
        self.max = max(self.max, row[4])

    def __add__(self, other: "Agg") -> "Agg":
        out = Agg()
        out.count = self.count + other.count
        out.wall = self.wall + other.wall
        out.self = self.self + other.self
        out.extra = self.extra + other.extra
        out.max = max(self.max, other.max)
        return out


def _sum(docs) -> dict:
    out: dict = defaultdict(Agg)
    for doc in docs:
        for name, row in doc["agg"].items():
            out[name].add(row)
    return out


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def _exposition_sum(text: str | None, metric: str) -> float:
    if not text:
        return 0.0
    pattern = re.compile(rf"^{re.escape(metric)}(?:{{[^}}]*}})? (\S+)$", re.M)
    return float(sum(float(v) for v in pattern.findall(text)))


def per_layer(run: dict) -> tuple[dict, dict]:
    """``(metrics, bill detail)`` of one traced run record.

    ``run["metrics"]`` holds the traced session's own end-to-end
    figures and ``run["untraced_cpu_us_per_event"]`` its baseline's.
    """
    docs = load(run["trace_dir"], run["expect_dumps"])
    a = _sum(docs)

    def agg(*names) -> Agg:
        out = Agg()
        for n in names:
            out = out + a[n]
        return out

    place, depart, migrate = a["state.place"], a["state.depart"], a["state.migrate"]
    events = place.count + depart.count
    driver = agg("driver.run_events", "driver.arrive", "driver.depart",
                 "driver.apply_migrations")
    planner = a["planner.plan"]
    engine_ops = a["engine.submit"].count + a["engine.depart"].count + a["engine.advance"].count
    metrics_upd = a["metrics.update"]
    wal = agg("wal.append", "wal.append_many")
    fsync = agg("wal.fsync", "wal.fsync_bg")
    ckpt = a["ckpt.checkpoint"]
    writes = a["snapshot.write"]
    rec = a["recover.recover"]
    decode = agg("protocol.decode_job", "protocol.decode_frame")
    encode = agg("protocol.encode_job", "protocol.encode_frame")
    jobs = a["protocol.decode_job"].count
    serve_docs = [d for d in docs if d["role"] == "worker"]
    router_docs = [d for d in docs if d["role"] == "router"]
    server_frames = [f for d in serve_docs for f in d["frames"]]
    windows = []
    for d in docs:
        main = d["main_thread"]
        windows.append((d["role"], main["last"] - main["first"], main["covered"], main["idle"]))
    overhead = sum(d["tracer"]["overhead_s"] for d in docs)
    busy = sum(w - idle for _, w, _, idle in windows) - overhead
    unattributed = sum(w - cov for _, w, cov, _ in windows)
    worker_window = sum(w for r, w, _, _ in windows if r == "worker")
    wal_bytes = sum(v for d in docs for k, v in d["counters"].items()
                    if k.startswith("wal.bytes."))
    counters: dict = defaultdict(float)
    for d in docs:
        for k, v in d["counters"].items():
            counters[k] += v
    text = run.get("metrics_text")

    # client latency minus the front's own time, joined per frame on the
    # frame's first job id (a job heads at most its submit's and its
    # depart's frame, met in the same order on both sides)
    front = router_docs if router_docs else serve_docs
    front_time: dict = defaultdict(list)
    for d in front:
        for job, handle, write in d["frames"]:
            if job is not None:
                front_time[job].append(handle + write)
    client = run.get("client") or {}
    waits = []
    for job, lat in client.get("frames", ()):
        times = front_time.get(job)
        if times:
            waits.append(lat - times.pop(0))
    router = agg("router.frame", "router.route_batch", "router.call_shard")
    traces = run.get("traces") or {}
    ingest = agg("traces.load_items", "traces.normalize_items")

    m = {
        "driver.events": float(events),
        "driver.self_us_per_event": _per(driver.self, events, 1e6),
        "state.place_us": _per(place.self, place.count, 1e6),
        "state.depart_us": _per(depart.self, depart.count, 1e6),
        "state.migrate_us": _per(migrate.self, migrate.count, 1e6),
        "state.open_bins_mean": _per(place.extra, place.count),
        "ffindex.queries": float(a["ffindex.query"].count),
        "ffindex.query_us": _per(a["ffindex.query"].self, a["ffindex.query"].count, 1e6),
        "ffindex.update_us": _per(a["ffindex.update"].self, a["ffindex.update"].count, 1e6),
        "ffindex.rebuilds": float(a["ffindex.rebuild"].count + a["ffindex.activate"].count),
        "ffindex.tree_frac": _per(a["ffindex.query"].count, place.count),
        "planner.calls": float(planner.count),
        "planner.us_per_call": _per(planner.self, planner.count, 1e6),
        "planner.moves": planner.extra,
        "planner.useful_frac": _per(counters["planner.useful"], planner.count),
        "engine.ops": float(engine_ops),
        "engine.submit_us": _per(a["engine.submit"].self, a["engine.submit"].count, 1e6),
        "engine.depart_us": _per(a["engine.depart"].self, a["engine.depart"].count, 1e6),
        "metrics.updates": float(metrics_upd.count),
        "metrics.us_per_request": _per(metrics_upd.self, engine_ops, 1e6),
        "wal.appends": float(wal.count),
        "wal.append_us": _per(wal.self, wal.count, 1e6),
        "wal.bytes_per_event": _per(wal_bytes, engine_ops),
        "wal.fsyncs": float(fsync.count),
        "wal.fsync_ms": _per(fsync.wall, fsync.count, 1e3),
        "ckpt.count": float(ckpt.count),
        "ckpt.ms_mean": _per(ckpt.wall, ckpt.count, 1e3),
        "ckpt.ms_max": 1e3 * ckpt.max,
        "ckpt.bytes_mean": _per(writes.extra, writes.count),
        "ckpt.busy_frac": _per(ckpt.wall, worker_window),
        "recover.ms": 1e3 * rec.wall,
        "recover.replayed": rec.extra,
        "protocol.decode_us_per_job": _per(decode.self, jobs, 1e6),
        "protocol.encode_us_per_job": _per(encode.self, jobs, 1e6),
        "server.frames": float(len(server_frames)),
        "server.service_us_per_frame": _per(sum(h + w for _, h, w in server_frames),
                                            len(server_frames), 1e6),
        "server.histogram_us_per_frame": _per(
            _exposition_sum(text, "repro_service_request_latency_seconds_sum"),
            _exposition_sum(text, "repro_service_request_latency_seconds_count"), 1e6),
        "server.wait_ms_p99": 1e3 * common.quantile(waits, 0.99) if waits else 0.0,
        "router.frames": float(a["router.frame"].count),
        "router.hop_us_per_frame": _per(router.self, a["router.frame"].count, 1e6),
        "router.split_frac": _per(counters["router.split"], a["router.frame"].count),
        "router.retries": _exposition_sum(text, "repro_router_reconnects_total"),
        "router.breaker_rejections": _exposition_sum(text, "repro_router_breaker_rejected_total"),
        "traces.ingest_s": float(traces.get("ingest_s", ingest.wall)),
        "traces.records": float(traces.get("records", 0)),
        "traces.skipped": float(traces.get("skipped", 0)),
        "client.sent": float(client.get("sent", 0)),
        "client.failed": float(client.get("failed", 0)),
        "client.lag_p99_ms": float(client.get("lag_p99_ms", 0.0)),
        "ledger.unattributed_frac": _per(unattributed, busy),
        "trace.overhead_frac": 1.0 - _per(run["untraced_cpu_us_per_event"],
                                          run["metrics"]["cpu_us_per_event"]),
    }
    layer_self: dict = defaultdict(float)
    for name, row in a.items():
        if name in OFF_PATH or name.startswith("calibrate."):
            continue
        layer_self[PREFIX_LAYER.get(name.split(".", 1)[0], "other")] += row.self
    for short, layer in spec.BILL_LAYERS:
        m[f"bill.{short}_frac"] = _per(layer_self[layer], busy)
    detail = {
        "busy_s": busy,
        "unattributed_s": unattributed,
        "idle_s": sum(idle for *_, idle in windows),
        "tracer_overhead_s": overhead,
        "processes": [{"role": r, "window_s": w, "covered_s": c, "idle_s": i}
                      for r, w, c, i in windows],
        "layer_self_s": dict(layer_self),
        "spans": {name: {"count": row.count, "wall_s": row.wall, "self_s": row.self}
                  for name, row in sorted(a.items())
                  if row.count and not name.startswith("calibrate.")},
        "spans_dropped": sum(d.get("spans_dropped", 0) for d in docs),
    }
    return m, detail
