"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The smoke runs take about two minutes: every workload once untraced
and once traced, 3 s each.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import client
import common
import pbtrace
import run
import service
import spec

SMOKE_SECONDS = 3.0
WORKLOADS = [w for w, _ in spec.WORKLOADS]

#: wrapped span name -> workloads on which it must record calls
MUST_FIRE = {
    "driver.run_events": spec.BATCH,
    "driver.arrive": spec.SERVICE,
    "driver.depart": spec.SERVICE,
    "state.place": spec.ALL,
    "state.depart": spec.ALL,
    "state.migrate": ("pack-repack",),
    "state.first_fit_bin": spec.ALL,
    "ffindex.activate": ("pack-highload",),
    "ffindex.query": ("pack-highload",),
    "ffindex.update": ("pack-highload",),
    "ffindex.rebuild": ("pack-highload",),
    "policy.choose_bin": spec.ALL,
    "planner.plan": ("pack-repack",),
    "engine.submit": spec.SERVICE,
    "engine.depart": ("fleet-recover",),
    "engine.finish": spec.SERVICE,
    "metrics.update": spec.SERVICE,
    "metrics.expose": spec.SERVICE,
    "wal.append": spec.SERVICE,
    "wal.sync": spec.SERVICE,
    "wal.prune": spec.SERVICE,
    "wal.replay": spec.SERVICE,
    "wal.fsync": spec.SERVICE,
    "durable.submit": spec.SERVICE,
    "durable.depart": ("fleet-recover",),
    "durable.finish": spec.SERVICE,
    "ckpt.checkpoint": spec.SERVICE,
    "recover.recover": spec.SERVICE,
    "snapshot.snapshot": spec.SERVICE,
    "snapshot.write": spec.SERVICE,
    "snapshot.read": ("fleet-recover",),
    "snapshot.restore": ("fleet-recover",),
    "snapshot.fsync": spec.SERVICE,
    "protocol.decode_job": spec.SERVICE,
    "protocol.decode_frame": ("fleet-recover",),
    "protocol.encode_job": spec.SERVICE,
    "protocol.encode_frame": spec.SERVICE,
    "server.dispatch": spec.SERVICE,
    "server.write": spec.SERVICE,
    "router.frame": ("fleet-recover",),
    "router.route_batch": ("fleet-recover",),
    "router.call_shard": ("fleet-recover",),
    "traces.load_items": ("pack-repack",),
    "traces.normalize_items": ("pack-repack",),
    "loop.idle": spec.SERVICE,
}

#: wrapped on purpose but not reached by these four workloads: the
#: vector engine's generic mutations, the other Any-Fit tree queries,
#: the service's advance/submit_many and batch-migration paths, and
#: the group-commit fsync thread, which runs only when an interval's
#: worth of records is due
NOT_REACHED = {
    "driver.apply_migrations", "engine.advance", "durable.advance",
    "durable.submit_many", "wal.append_many", "wal.fsync_bg",
}


@pytest.fixture(scope="module")
def records():
    """One untraced and one traced smoke run of every workload."""
    out = {}
    for workload in WORKLOADS:
        out[(workload, 0)] = run.run_one(workload, 7, SMOKE_SECONDS, False)
        out[(workload, 1)] = run.run_one(workload, 7, SMOKE_SECONDS, True)
    return out


# -- the smoke runs ------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_runs_are_correct_and_complete(records, workload):
    units = spec.units()
    for trace in (0, 1):
        record = records[(workload, trace)]
        assert record["correct"], record["failures"]
        line = run.result_line(record, bool(trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1 and line["failed"] == 0
        want = spec.per_layer_names() if trace else [m[0] for m in spec.END_TO_END]
        assert list(line["metrics"]) == want
        for name, cell in line["metrics"].items():
            assert cell["unit"] == units[name]
            assert isinstance(cell["value"], float), name
        if not trace:
            for name, cell in line["metrics"].items():
                assert cell["value"] > 0, f"{workload}: {name} reads 0"
            for name, value in record["metrics"].items():
                assert name in units
                assert value > 0 or name == "error_frac", f"{workload}: {name} reads 0"


def test_latency_only_where_defined(records):
    for workload in spec.BATCH:
        assert not any(k.startswith("latency") for k in records[(workload, 0)]["metrics"])
    for workload in spec.SERVICE:
        record = records[(workload, 0)]
        assert "latency_p50_ms" in record["metrics"]
        enough = record["manifest"]["latency_samples"] >= service.P99_MIN_SAMPLES
        assert ("latency_p99_ms" in record["metrics"]) == enough, workload


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_wrapper_fires_where_its_layer_runs(records, workload):
    spans = records[(workload, 1)]["ledger"]["spans"]
    silent = [name for name, where in MUST_FIRE.items()
              if workload in where and spans.get(name, {}).get("count", 0) == 0]
    assert not silent, f"{workload}: wrapped but never called: {silent}"


def test_every_wrapped_name_is_accounted_for():
    wrapped = {name for _, _, name, *_ in pbtrace.TARGETS}
    wrapped |= {"wal.fsync", "wal.fsync_bg", "snapshot.fsync"}
    unlisted = wrapped - set(MUST_FIRE) - NOT_REACHED - {"fsync.other"}
    assert not unlisted


def test_idle_layer_predictions_hold(records):
    per = {w: records[(w, 1)]["metrics"] for w in WORKLOADS}
    assert per["pack-highload"]["ffindex.tree_frac"] >= 0.9
    for w in ("pack-repack", "serve-steady", "fleet-recover"):
        assert per[w]["ffindex.tree_frac"] == 0.0
    for w in WORKLOADS:
        if w != "pack-repack":
            assert per[w]["planner.calls"] == 0.0
        if w != "fleet-recover":
            assert all(v == 0.0 for k, v in per[w].items() if k.startswith("router."))
    assert per["fleet-recover"]["router.frames"] > 0
    assert per["fleet-recover"]["router.split_frac"] > 0


def test_ledger_accounts_for_the_traced_time(records):
    for workload in WORKLOADS:
        m = records[(workload, 1)]["metrics"]
        bill = sum(v for k, v in m.items() if k.startswith("bill."))
        assert 0.0 <= m["ledger.unattributed_frac"] < 0.6, workload
        assert bill + m["ledger.unattributed_frac"] == pytest.approx(1.0, abs=0.1), workload


def test_server_time_agrees_with_its_own_histogram(records):
    m = records[("serve-steady", 1)]["metrics"]
    ratio = m["server.service_us_per_frame"] / m["server.histogram_us_per_frame"]
    assert 0.8 < ratio < 1.25


def test_manifest_identifies_what_was_measured(records):
    for (workload, trace), record in records.items():
        manifest = record["manifest"]
        for key in ("workload", "seed", "seconds", "nproc", "python", "work_fs", "input"):
            assert key in manifest, (workload, key)
        assert manifest["input"]["digest"]
    assert "offered_rate_per_s" in records[("serve-steady", 0)]["manifest"]
    assert records[("serve-steady", 0)]["manifest"]["wal_fs"] != "unknown"
    assert "fleet" in records[("fleet-recover", 0)]["manifest"]


def test_fleet_replays_a_fixed_count(records):
    want = int(SMOKE_SECONDS * service.FLEET_RATE)
    untraced, traced = records[("fleet-recover", 0)], records[("fleet-recover", 1)]
    assert untraced["manifest"]["input"] == traced["manifest"]["input"]
    assert untraced["manifest"]["input"]["replay_events"] == want
    assert untraced["attempted"] == want
    assert traced["attempted"] == 2 * want  # its untraced baseline and itself


def test_same_seed_same_inputs(records):
    again = run.run_one("pack-repack", 7, 1.0, False)
    assert again["manifest"]["input"]["digest"] == \
        records[("pack-repack", 0)]["manifest"]["input"]["digest"]
    assert again["metrics"]["usage_ratio"] == records[("pack-repack", 0)]["metrics"]["usage_ratio"]


# -- the contract around the runs ----------------------------------------------------
def test_benchmark_json_matches_spec():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == spec.benchmark_json()


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pack-highload", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the client's own codec against the program's ------------------------------------
def test_client_codec_agrees_with_the_service_codec():
    from repro.core.items import Item
    from repro.service import protocol as wire

    item = Item(41, 0.3125, 1.5, 7.25)
    assert client.submit(item) == wire.encode_submit(item)
    assert client.depart(41) == wire.encode_depart(41)
    subs = [client.submit(item), client.depart(41)]
    assert client.batch(subs) == wire.encode_batch(subs)
    replies = client.decode(wire.encode_batch([
        wire.encode_placement(41, "placed", 3, True, 1.5),
        wire.encode_clock(7.25),
        wire.encode_json_response({"ok": False, "error": "x"}),
    ]))
    assert [(r.ok, r.kind, r.item_id, r.bin) for r in replies] == [
        (True, "placement", 41, 3), (True, "clock", None, None),
        (False, "json", None, None)]


# -- the recorder's accounting -------------------------------------------------------
def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture
def recorder(tmp_path):
    rec = pbtrace.Recorder(str(tmp_path))
    pbtrace.REC = rec
    yield rec
    pbtrace.REC = None


def _row(rec, name):
    return rec.agg[rec.nid(name)]


def test_self_time_excludes_nested_spans(recorder):
    inner = pbtrace._sync(lambda: _spin(0.004), recorder.nid("inner"))

    def body():
        _spin(0.002)
        inner()
        inner()

    pbtrace._sync(body, recorder.nid("outer"))()
    outer, nested = _row(recorder, "outer"), _row(recorder, "inner")
    assert nested[0] == 2 and nested[2] >= 0.008
    # a fresh recorder charges no tracer cost, so the identity is exact
    assert outer[2] == pytest.approx(outer[1] - nested[1], abs=1e-9)
    assert outer[2] >= 0.002
    main = recorder.threads[recorder.main_ident]
    assert main[2] == pytest.approx(outer[1], abs=1e-9)


def test_coroutine_self_time_excludes_suspension(recorder):
    async def child():
        _spin(0.002)
        await asyncio.sleep(0.05)
        _spin(0.002)

    wrapped = pbtrace._async(child, recorder.nid("child"))
    asyncio.run(wrapped())
    row = _row(recorder, "child")
    assert row[1] >= 0.05
    assert 0.004 <= row[2] < row[1] - 0.045


def test_spawned_tasks_are_not_charged_to_their_parent(recorder):
    async def worker():
        _spin(0.003)

    wrapped_worker = pbtrace._async(worker, recorder.nid("worker"))

    async def parent():
        _spin(0.001)
        await asyncio.gather(wrapped_worker(), wrapped_worker())

    asyncio.run(pbtrace._async(parent, recorder.nid("parent"))())
    workers, own = _row(recorder, "worker"), _row(recorder, "parent")
    assert workers[0] == 2 and workers[2] >= 0.006
    # the workers ran as their own tasks, outside the parent's steps
    assert 0.001 <= own[2] < 0.006
    main = recorder.threads[recorder.main_ident]
    assert main[2] == pytest.approx(own[2] + workers[2], abs=1e-6)


def test_direct_value_stores_are_counted(recorder):
    class Instrument:
        value = pbtrace._value_property(recorder.nid("store"))

    inst = Instrument()
    inst.value = 0.0
    for _ in range(10):
        inst.value += 1.0
    assert inst.value == 10.0
    assert _row(recorder, "store")[0] == 11
