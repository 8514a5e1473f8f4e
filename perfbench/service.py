"""The service workloads: ``repro serve`` and ``repro fleet`` as subprocesses.

Both run the CLIs with their default flags (a ``--wal-dir`` is the only
durability flag; fsync interval, checkpoint every 1000 records, metrics
on) and are driven over the binary protocol by :mod:`client`.

- ``serve-steady``: one ``repro serve --wal-dir`` on a low-load Poisson
  instance (rate 4, ~4 open bins), driven open loop at
  :data:`SERVE_RATE` jobs per second, one job per frame on one
  connection.  Arrival gaps are the instance's, scaled to that rate;
  the server's own scheduler applies departures.
- ``fleet-recover``: ``repro fleet --shards 2 --tenants 16`` booted on a
  crash image, then the next ``seconds`` × :data:`FLEET_RATE` events of
  a generated Azure trace replayed closed loop with explicit departs,
  :data:`FLEET_BATCH` events per frame and :data:`FLEET_DEPTH` frames
  in flight.  The image is the same fleet run on the first
  :data:`FLEET_IMAGE_ITEMS` jobs, every reply received, then SIGKILLed
  as a process group.

Both inputs are fixed by the seed and the run's seconds, not by how
fast the service answers: a faster service finishes the same work
sooner.  :func:`prepare` makes them once per run; :func:`measure` runs
them untraced, or traced with ``trace_dir``, by the same code.

Every run is checked outside the timed region: every reply must be
OK; serve-steady's placements and drained totals must equal batch First
Fit on the same jobs bit for bit; each fleet shard, recovered offline
after the run, must equal batch First Fit on its key partition; every
WAL directory must pass ``verify_wal_dir``.
"""

from __future__ import annotations

import os
import shutil
import socket
import sys
import time

import client
import common

#: offered rate of serve-steady, jobs per second: about a fifth of what
#: the default service sustains one job per frame, so no backlog grows,
#: and 10 s of it spans four checkpoint cycles
SERVE_RATE = 350.0
SERVE_INSTANCE_RATE = 4.0
SERVE_MU = 8.0
FLEET_SHARDS = 2
FLEET_TENANTS = 16
FLEET_BATCH = 16
FLEET_DEPTH = 2
#: frame size while building the crash image (not timed)
IMAGE_BATCH = 256
FLEET_IMAGE_ITEMS = 4_000
FLEET_TRACE_ROWS = 40_000
#: events replayed per second of the run: about what the fleet sustains
#: on a 2-vCPU VM at this batch and depth, so a run lasts about its seconds
FLEET_RATE = 2_500.0
#: boots timed from launch to ready in an untraced run (median reported)
SETUP_REPEATS = 5
#: a latency p99 needs at least 10 samples beyond it
P99_MIN_SAMPLES = 1000
HOST = "127.0.0.1"

SERVE_FLAGS = ["--port", "0"]
FLEET_FLAGS = ["--shards", str(FLEET_SHARDS), "--tenants", str(FLEET_TENANTS), "--port", "0"]


def serve_cmd(wal_dir: str, port_file: str) -> list[str]:
    return [sys.executable, "-m", "repro", "serve", *SERVE_FLAGS,
            "--port-file", port_file, "--wal-dir", wal_dir]


def fleet_cmd(wal_dir: str, port_file: str) -> list[str]:
    return [sys.executable, "-m", "repro", "fleet", *FLEET_FLAGS,
            "--port-file", port_file, "--wal-dir", wal_dir]


class Booted:
    """A service process from spawn until its port file appears."""

    def __init__(self, cmd: list[str], port_file: str, env: dict, log: str):
        try:
            os.remove(port_file)
        except FileNotFoundError:
            pass
        started = time.perf_counter()
        self.proc = common.spawn(cmd, env, log)
        try:
            self.port = int(common.wait_for_file(port_file, self.proc))
        except BaseException:
            common.kill_group(self.proc)
            raise
        self.setup_s = time.perf_counter() - started

    def pids(self) -> list[int]:
        return [self.proc.pid] + common.descendants(self.proc.pid)

    def shutdown_now(self) -> None:
        """Stop a process that served nothing (a set-up sample)."""
        with socket.create_connection((HOST, self.port), timeout=30) as sock:
            sock.sendall(b'{"op": "shutdown"}\n')
            sock.recv(4096)
        common.stop(self.proc)


def _setup_samples(cmd_for, work: str, log: str, image: str | None = None) -> list[float]:
    """Boot and stop the service SETUP_REPEATS - 1 times; launch-to-ready times.

    Each boot gets a fresh directory, a copy of ``image`` when given (a
    boot may checkpoint what it recovered, so no two share one).
    """
    out = []
    for i in range(SETUP_REPEATS - 1):
        d = os.path.join(work, f"setup{i}")
        if image is not None:
            shutil.copytree(image, d)
        booted = Booted(cmd_for(d, d + ".port"), d + ".port", common.program_env(), log)
        out.append(booted.setup_s)
        booted.shutdown_now()
    return out


def _outcomes(result: client.LoopResult):
    ok = failed = 0
    for replies in result.replies:
        for r in replies:
            if r.ok:
                ok += 1
            else:
                failed += 1
    return ok, failed


def _latency_metrics(result: client.LoopResult) -> dict:
    ms = [1000.0 * s for s in result.latency_s]
    out = {"latency_p50_ms": common.median(ms)}
    if len(ms) >= P99_MIN_SAMPLES:
        out["latency_p99_ms"] = common.quantile(ms, 0.99)
    return out


# -- serve-steady ----------------------------------------------------------------
def _serve_input(seed: int, seconds: float) -> dict:
    from repro.workloads.random_workloads import poisson_workload

    n = int(SERVE_RATE * seconds * 1.2) + 100
    items = poisson_workload(n, seed, arrival_rate=SERVE_INSTANCE_RATE, mu_target=SERVE_MU)
    scale = SERVE_INSTANCE_RATE / SERVE_RATE  # wall seconds per unit of trace time
    first = items[0].arrival
    sent = [it for it in items if (it.arrival - first) * scale < seconds]
    schedule = [((it.arrival - first) * scale, client.submit(it), it.item_id) for it in sent]
    return {"sent": sent, "schedule": schedule,
            "desc": {"kind": "poisson", "rate": SERVE_INSTANCE_RATE, "mu": SERVE_MU,
                     "sent": len(sent), "digest": common.digest_items(sent)}}


def _serve_once(inp: dict, work: str, name: str, env: dict, log: str, traced: bool) -> dict:
    """Boot one ``repro serve``, drive the schedule open loop, drain, check."""
    sent = inp["sent"]
    wal_dir = os.path.join(work, name)
    booted = Booted(serve_cmd(wal_dir, wal_dir + ".port"), wal_dir + ".port", env, log)
    pids = booted.pids()
    conn = client.Connection(HOST, booted.port)
    try:
        cpu = common.cpu_seconds(pids)
        res = client.open_loop(conn, inp["schedule"])
        cpu_s = common.cpu_seconds(pids) - cpu
        rss = common.peak_rss_mb(pids)
        written = common.write_bytes(pids)
        metrics = conn.call({"op": "metrics"}) if traced else {}
        drained = conn.call({"op": "drain"})
        bye = conn.call({"op": "shutdown"})
    except BaseException:
        common.kill_group(booted.proc)
        raise
    finally:
        conn.close()
    common.stop(booted.proc)
    failures = check_serve(sent, res, drained, wal_dir)
    failures += [] if bye.get("ok") else ["shutdown refused"]
    ok, failed = _outcomes(res)
    last_arrival = max(it.arrival for it in sent)
    departed = sum(1 for it in sent if it.departure <= last_arrival)
    ms = [1000.0 * s for s in res.latency_s]
    within = sum(1 for lat, replies in zip(ms, res.replies)
                 if lat <= 50.0 and all(r.ok for r in replies))
    return {
        "failures": failures,
        "attempted": res.sent,
        "failed": failed + (res.sent - len(res.replies)),
        "result": res,
        "setup_s": booted.setup_s,
        "metrics_text": metrics.get("text"),
        "latency_samples": len(ms),
        "client_lag_p99_ms": 1000.0 * common.quantile(res.lag_s, 0.99),
        "metrics": {
            "usage_ratio": _usage_ratio(drained, sent),
            "peak_rss_mb": rss,
            "cpu_us_per_event": 1e6 * cpu_s / (ok + departed),
            "events_per_s": (ok + departed) / (res.finished - res.started),
            **_latency_metrics(res),
            "within_50ms_frac": within / res.sent,
            "error_frac": failed / res.sent,
            "disk_bytes_per_event": written / max(1, ok),
        },
    }


def check_serve(sent, result: client.LoopResult, drained: dict, wal_dir: str) -> list[str]:
    """Drained service == batch First Fit on the same jobs, bit for bit."""
    from repro.algorithms import FirstFit
    from repro.core.items import ItemList
    from repro.core.packing import run_packing
    from repro.service.wal import verify_wal_dir

    failures = []
    batch = run_packing(ItemList(sent), FirstFit())
    placed = {}
    for replies in result.replies:
        for r in replies:
            if r.kind == "placement" and r.ok:
                placed[r.item_id] = r.bin
    if placed != batch.item_bin:
        wrong = sum(1 for k, v in batch.item_bin.items() if placed.get(k) != v)
        failures.append(f"{wrong} of {len(sent)} placements differ from batch First Fit")
    if not drained.get("ok"):
        failures.append(f"drain failed: {drained}")
    elif (drained["bins"], drained["total_usage_time"]) != (batch.num_bins,
                                                           batch.total_usage_time):
        failures.append(
            f"drained ({drained['bins']} bins, usage {drained['total_usage_time']!r}) != "
            f"batch ({batch.num_bins}, {batch.total_usage_time!r})")
    report = verify_wal_dir(wal_dir)
    if not report["ok"]:
        failures.append(f"WAL verify failed: {report['errors'][:3]}")
    return failures


def _usage_ratio(drained: dict, items) -> float:
    """Drained usage time over the whole input's lower bound (0 if the drain failed)."""
    from repro.core.items import ItemList
    from repro.opt.lower_bounds import combined_lower_bound

    if not drained.get("ok"):
        return 0.0
    return drained["total_usage_time"] / combined_lower_bound(ItemList(items))


def client_view(res: client.LoopResult, open_loop: bool) -> dict:
    """The client's side of a traced run, for the ledger's joins."""
    failed = sum(1 for replies in res.replies for r in replies if not r.ok)
    return {
        "sent": res.sent,
        "failed": failed,
        "lag_p99_ms": 1000.0 * common.quantile(res.lag_s, 0.99) if open_loop else 0.0,
        "frames": list(zip(res.first_job, res.latency_s)),
    }


# -- fleet-recover ---------------------------------------------------------------
def _fleet_input(seed: int, seconds: float, work: str) -> dict:
    """The crash image's events and the ``seconds`` × FLEET_RATE events replayed after it."""
    from repro.core.events import event_tuples
    from repro.traces import generate_azure_trace, load_items, normalize_items

    replay = int(seconds * FLEET_RATE)
    # each replayed event needs at most one arrival past the image's
    rows = max(FLEET_TRACE_ROWS, FLEET_IMAGE_ITEMS + replay)
    path = os.path.join(work, "trace.csv")
    generate_azure_trace(path, rows, seed=seed)
    t0 = time.perf_counter()
    raw, astats = load_items(path)
    items, nstats = normalize_items(raw)
    ingest_s = time.perf_counter() - t0
    events = [(kind, item) for _, kind, _, item in event_tuples(items)]
    arrivals = 0
    cut = len(events)
    for i, (kind, _) in enumerate(events):
        arrivals += kind
        if arrivals == FLEET_IMAGE_ITEMS:
            cut = i + 1
            break
    rest = events[cut:cut + replay]
    if len(rest) < replay:
        raise common.BenchError(f"trace too short: {len(rest)} of {replay} replay events")
    return {
        "image_events": events[:cut], "replay": rest,
        "ingest_s": ingest_s, "records": astats.records,
        "skipped": astats.records - nstats.kept,
        "desc": {"kind": "azure-trace", "rows": rows, "digest": common.digest_file(path),
                 "image_items": FLEET_IMAGE_ITEMS, "image_events": cut,
                 "replay_events": replay},
    }


class _Frames:
    """Batches of consecutive events as frames; remembers the submits it sent."""

    def __init__(self, events, size: int = FLEET_BATCH):
        self.events = events
        self.size = size
        self.submitted: list = []

    def __iter__(self):
        for i in range(0, len(self.events), self.size):
            chunk = self.events[i:i + self.size]
            subs = []
            for kind, item in chunk:
                if kind:
                    subs.append(client.submit(item))
                    self.submitted.append(item)
                else:
                    subs.append(client.depart(item.item_id))
            yield client.batch(subs), chunk[0][1].item_id


def _build_image(inp: dict, work: str, log: str) -> str:
    """Run the fleet on the first jobs, take every reply, SIGKILL the group."""
    image = os.path.join(work, "image")
    booted = Booted(fleet_cmd(image, image + ".port"), image + ".port",
                    common.program_env(), log)
    try:
        conn = client.Connection(HOST, booted.port)
        try:
            result = client.closed_loop(conn, _Frames(inp["image_events"], IMAGE_BATCH),
                                        FLEET_DEPTH)
        finally:
            conn.close()
    finally:
        common.kill_group(booted.proc)
    ok, failed = _outcomes(result)
    if failed or ok != len(inp["image_events"]):
        raise common.BenchError(
            f"crash image: {failed} of {len(inp['image_events'])} ops failed")
    return image


def _fleet_once(inp: dict, work: str, name: str, env: dict, log: str, traced: bool) -> dict:
    """Boot the fleet on a copy of the crash image, replay closed loop, drain, check."""
    root = os.path.join(work, name)
    shutil.copytree(inp["image"], root)
    booted = Booted(fleet_cmd(root, root + ".port"), root + ".port", env, log)
    pids = booted.pids()
    frames = _Frames(inp["replay"])
    conn = client.Connection(HOST, booted.port)
    try:
        cpu = common.cpu_seconds(pids)
        res = client.closed_loop(conn, frames, FLEET_DEPTH)
        cpu_s = common.cpu_seconds(pids) - cpu
        rss = common.peak_rss_mb(pids)
        written = common.write_bytes(pids)
        metrics = conn.call({"op": "metrics"}) if traced else {}
        drained = conn.call({"op": "drain"})
        bye = conn.call({"op": "shutdown"})
    except BaseException:
        common.kill_group(booted.proc)
        raise
    finally:
        conn.close()
    common.stop(booted.proc)
    sent_items = [item for kind, item in inp["image_events"] if kind] + frames.submitted
    failures = check_fleet(sent_items, res, drained, root)
    failures += [] if bye.get("ok") else ["shutdown refused"]
    ok, failed = _outcomes(res)
    return {
        "failures": failures,
        "attempted": ok + failed,
        "failed": failed,
        "result": res,
        "setup_s": booted.setup_s,
        "metrics_text": metrics.get("text"),
        "latency_samples": len(res.latency_s),
        "metrics": {
            "usage_ratio": _usage_ratio(drained, sent_items),
            "peak_rss_mb": rss,
            "cpu_us_per_event": 1e6 * cpu_s / max(1, ok),
            "events_per_s": ok / (res.finished - res.started),
            **_latency_metrics(res),
            "error_frac": failed / max(1, ok + failed),
            "disk_bytes_per_event": written / max(1, ok),
        },
    }


def check_fleet(sent_items, result: client.LoopResult, drained: dict, root: str) -> list[str]:
    """Each shard, recovered offline, == batch First Fit on its key partition."""
    from repro.algorithms import FirstFit
    from repro.core.items import ItemList
    from repro.core.packing import run_packing
    from repro.service.recovery import recover
    from repro.service.router import partition_items
    from repro.service.wal import verify_wal_dir

    failures = []
    parts = partition_items(sent_items, FLEET_SHARDS, tenants=FLEET_TENANTS)
    shard_of = {}
    batches = []
    for k, part in enumerate(parts):
        for it in part:
            shard_of[it.item_id] = k
        batches.append(run_packing(ItemList(part), FirstFit()) if part else None)
    wrong = 0
    for replies in result.replies:
        for r in replies:
            if r.kind == "placement" and r.ok:
                b = batches[shard_of[r.item_id]]
                if b.item_bin.get(r.item_id) != r.bin:
                    wrong += 1
    if wrong:
        failures.append(f"{wrong} replayed placements differ from batch First Fit per shard")
    if not drained.get("ok"):
        failures.append(f"drain failed: {drained}")
    for k, b in enumerate(batches):
        shard_dir = os.path.join(root, f"shard-{k:02d}")
        report = verify_wal_dir(shard_dir)
        if not report["ok"]:
            failures.append(f"shard {k}: WAL verify failed: {report['errors'][:3]}")
            continue
        durable, _ = recover(shard_dir)
        try:
            got = durable.engine.result()
        finally:
            durable.close()
        if b is None:
            continue
        if got.item_bin != b.item_bin or got.total_usage_time != b.total_usage_time:
            failures.append(f"shard {k}: recovered result != batch First Fit on its partition")
        if drained.get("ok") and drained["shards"][k]["total_usage_time"] != b.total_usage_time:
            failures.append(f"shard {k}: drained usage != batch First Fit on its partition")
    return failures


# -- both workloads --------------------------------------------------------------
def prepare(workload: str, seed: int, seconds: float, work: str) -> dict:
    """The run's inputs, made from the seed and seconds; the fleet's crash image too."""
    if workload == "serve-steady":
        inp = _serve_input(seed, seconds)
        inp["manifest"] = {
            "server": ["repro", "serve", *SERVE_FLAGS, "--wal-dir", "<dir>"],
            "offered_rate_per_s": SERVE_RATE,
            "frames": "one submit per frame, one connection, open loop",
        }
    else:
        inp = _fleet_input(seed, seconds, work)
        inp["image"] = _build_image(inp, work, os.path.join(work, "image.log"))
        inp["manifest"] = {
            "fleet": ["repro", "fleet", *FLEET_FLAGS, "--wal-dir", "<dir>"],
            "frames": f"closed loop, {FLEET_BATCH} events per frame, {FLEET_DEPTH} in "
                      "flight, one connection, explicit departs",
        }
    inp["workload"] = workload
    return inp


def measure(inp: dict, seconds: float, work: str, trace_dir: str | None = None) -> dict:
    """One measured session of the service; returns the run record.

    Untraced, the service is also booted and stopped
    :data:`SETUP_REPEATS` − 1 more times for ``setup_s``.  With
    ``trace_dir`` the session runs under the span hook and the record
    carries what the ledger joins: the client's per-frame view and the
    service's own metrics exposition.
    """
    fleet = inp["workload"] == "fleet-recover"
    traced = trace_dir is not None
    log = os.path.join(work, "service.log")
    once = _fleet_once if fleet else _serve_once
    run = once(inp, work, "traced" if traced else "run", common.program_env(trace_dir), log,
               traced)
    setups = [run["setup_s"]]
    if not traced:
        setups += _setup_samples(fleet_cmd if fleet else serve_cmd, work, log,
                                 inp.get("image"))
    record = {
        "failures": run["failures"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "manifest": {**inp["manifest"], "input": inp["desc"], "wal_fs": common.fs_type(work),
                     "latency_samples": run["latency_samples"]},
        "metrics": {**run["metrics"], "setup_s": common.median(setups)},
    }
    if not fleet:
        record["manifest"]["client_lag_p99_ms"] = run["client_lag_p99_ms"]
    if traced:
        record.update(
            trace_dir=trace_dir,
            client=client_view(run["result"], open_loop=not fleet),
            expect_dumps={"router": 1, "worker": FLEET_SHARDS} if fleet else {"worker": 1},
            metrics_text=run["metrics_text"],
        )
        if fleet:
            record["traces"] = {"ingest_s": inp["ingest_s"], "records": inp["records"],
                                "skipped": inp["skipped"]}
    return record
