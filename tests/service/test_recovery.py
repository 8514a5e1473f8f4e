"""Crash recovery: killed-anywhere ≡ never-killed, bit for bit.

The property test at the heart of the durability claim: run a seeded
trace through a :class:`DurableEngine` with a fault plan that kills the
process at *every possible event index* — before the WAL append, after
the append but before the apply, and after the apply — then
:func:`recover` from the directory and resume the trace from the killed
index.  Retried submits carry the same ``request_id`` as the original,
so the idempotency window absorbs the may-or-may-not-have-applied
ambiguity, and the final packing (``item_bin``, float-exact
``total_usage_time``) must equal the run that never crashed.  Variants
cover torn tail records, the vector engine, and cuts landing while the
adaptive first-fit index is active.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.core.state as state_mod
from repro.algorithms import make_algorithm
from repro.multidim import make_vector_algorithm, vector_workload
from repro.service import (
    DedupWindow,
    DurableEngine,
    FaultInjector,
    FaultPlan,
    KillPoint,
    MetricsRegistry,
    StreamingEngine,
    WriteAheadLog,
    recover,
)
from repro.service.recovery import CHECKPOINT_PREFIX, CHECKPOINT_SUFFIX
from repro.service.snapshot import SNAPSHOT_VERSION
from repro.workloads import poisson_workload

CHECKPOINT_EVERY = 7  # small, so most kill runs cross several checkpoints


def scalar_ops(n=36, seed=17, arrival_rate=4.0):
    items = poisson_workload(n, seed=seed, mu_target=8.0, arrival_rate=arrival_rate)
    ordered = sorted(items, key=lambda it: it.arrival)
    ops = []
    for i, it in enumerate(ordered):
        ops.append(("submit", it))
        if i % 10 == 9:  # sprinkle explicit clock moves into the log
            ops.append(("advance", it.arrival))
    return items.capacity, ops


def vector_ops(n=30, seed=19):
    items = vector_workload(n, seed=seed, dimensions=2, arrival_rate=10.0)
    ordered = sorted(items, key=lambda it: it.arrival)
    return items.capacity, [("submit", it) for it in ordered]


def apply_op(engine, i, op, durable):
    kind, arg = op
    if kind == "submit":
        if durable:
            engine.submit(arg, request_id=f"op-{i}")
        else:
            engine.submit(arg)
    else:
        engine.advance(arg)


def baseline_result(make_engine, ops):
    engine = make_engine()
    for i, op in enumerate(ops):
        apply_op(engine, i, op, durable=False)
    return engine.finish()


def run_with_kill(directory, make_engine, ops, point, hit, torn=False):
    """One crash-recovery round trip; returns (result, report)."""
    plan = FaultPlan(seed=1, kill={point: hit}, torn_tail=torn)
    injector = FaultInjector(plan)
    wal = WriteAheadLog(directory, fsync="never")
    durable = DurableEngine(
        make_engine(), wal, checkpoint_every=CHECKPOINT_EVERY, injector=injector
    )
    killed_at = None
    try:
        for i, op in enumerate(ops):
            apply_op(durable, i, op, durable=True)
        durable.finish()
    except KillPoint:
        killed_at = i
    finally:
        wal.close()
    assert killed_at is not None, f"kill {point}@{hit} never fired"

    recovered, report = recover(
        directory,
        engine_builder=make_engine,
        fsync="never",
        checkpoint_every=CHECKPOINT_EVERY,
    )
    # the restarted client retries from the killed event with the same
    # request ids — the dedup window absorbs the maybe-applied one
    for i in range(killed_at, len(ops)):
        apply_op(recovered, i, ops[i], durable=True)
    result = recovered.finish()
    recovered.close()
    return result, report


# every hit index, for the kill windows on either side of the apply:
# before the WAL append (nothing durable) and after the apply (both the
# log and the in-memory state saw the op)
@pytest.mark.parametrize("point", ["wal.write", "applied"])
def test_scalar_kill_at_every_event_index(tmp_path, point):
    capacity, ops = scalar_ops()
    make_engine = lambda: StreamingEngine.scalar(
        make_algorithm("first-fit"), capacity=capacity
    )
    expected = baseline_result(make_engine, ops)
    for hit in range(1, len(ops) + 1):
        result, _ = run_with_kill(
            str(tmp_path / f"{point}-{hit}"), make_engine, ops, point, hit
        )
        assert result.item_bin == expected.item_bin, f"{point}@{hit}"
        assert result.total_usage_time == expected.total_usage_time, f"{point}@{hit}"
        assert result.num_bins == expected.num_bins, f"{point}@{hit}"


def test_scalar_kill_between_append_and_apply(tmp_path):
    """The narrowest window: logged but never applied.  Replay applies it."""
    capacity, ops = scalar_ops()
    make_engine = lambda: StreamingEngine.scalar(
        make_algorithm("first-fit"), capacity=capacity
    )
    expected = baseline_result(make_engine, ops)
    for hit in range(1, len(ops) + 1, 3):
        result, report = run_with_kill(
            str(tmp_path / f"gap-{hit}"), make_engine, ops, "wal.appended", hit
        )
        assert result.item_bin == expected.item_bin, f"wal.appended@{hit}"
        assert result.total_usage_time == expected.total_usage_time


def test_scalar_kill_with_torn_tail(tmp_path):
    """The kill tears the in-flight record; recovery truncates and resumes."""
    capacity, ops = scalar_ops()
    make_engine = lambda: StreamingEngine.scalar(
        make_algorithm("first-fit"), capacity=capacity
    )
    expected = baseline_result(make_engine, ops)
    saw_torn = 0
    for hit in range(1, len(ops) + 1, 2):
        result, report = run_with_kill(
            str(tmp_path / f"torn-{hit}"), make_engine, ops, "wal.write", hit,
            torn=True,
        )
        saw_torn += report.torn_bytes > 0
        assert result.item_bin == expected.item_bin, f"torn@{hit}"
        assert result.total_usage_time == expected.total_usage_time, f"torn@{hit}"
    assert saw_torn > 0, "at least one run must recover an actual torn tail"


def test_vector_kill_at_every_event_index(tmp_path):
    capacity, ops = vector_ops()
    make_engine = lambda: StreamingEngine.vector(
        make_vector_algorithm("vector-first-fit"), capacity=capacity
    )
    expected = baseline_result(make_engine, ops)
    for hit in range(1, len(ops) + 1):
        result, _ = run_with_kill(
            str(tmp_path / f"v-{hit}"), make_engine, ops, "applied", hit
        )
        assert result.item_bin == expected.item_bin, f"vector applied@{hit}"
        assert result.total_usage_time == expected.total_usage_time


def test_scalar_kill_with_index_active(tmp_path, monkeypatch):
    """Cuts landing in the adaptive-tree regime recover identically."""
    monkeypatch.setattr(state_mod, "INDEX_THRESHOLD", 1)
    capacity, ops = scalar_ops(n=25, seed=3, arrival_rate=30.0)
    make_engine = lambda: StreamingEngine.scalar(
        make_algorithm("first-fit"), capacity=capacity
    )
    expected = baseline_result(make_engine, ops)
    for hit in range(1, len(ops) + 1, 2):
        result, _ = run_with_kill(
            str(tmp_path / f"tree-{hit}"), make_engine, ops, "applied", hit
        )
        assert result.item_bin == expected.item_bin, f"tree applied@{hit}"
        assert result.total_usage_time == expected.total_usage_time


def test_mid_step_kill_inside_the_driver(tmp_path):
    """Kills landing *inside* the engine's event step still recover."""
    capacity, ops = scalar_ops(n=20, seed=5)
    make_engine = lambda: StreamingEngine.scalar(
        make_algorithm("first-fit"), capacity=capacity
    )
    expected = baseline_result(make_engine, ops)
    for point in ("arrive.pre", "arrive.post"):
        for hit in (1, 5, 11):
            result, _ = run_with_kill(
                str(tmp_path / f"{point}-{hit}"), make_engine, ops, point, hit
            )
            assert result.item_bin == expected.item_bin, f"{point}@{hit}"
            assert result.total_usage_time == expected.total_usage_time


def test_recovery_metrics_and_report(tmp_path):
    capacity, ops = scalar_ops(n=15, seed=9)
    make_engine = lambda: StreamingEngine.scalar(
        make_algorithm("first-fit"), capacity=capacity, metrics=MetricsRegistry()
    )
    wal = WriteAheadLog(str(tmp_path), fsync="never")
    durable = DurableEngine(make_engine(), wal, checkpoint_every=1000)
    for i, op in enumerate(ops):
        apply_op(durable, i, op, durable=True)
    wal.close()  # no checkpoint, no clean shutdown: a full-tail replay

    recovered, report = recover(
        str(tmp_path), engine_builder=make_engine, fsync="never"
    )
    assert report.checkpoint_path is None
    assert report.replayed == len(ops)
    assert report.replay_errors == 0
    assert report.dedup_entries == sum(1 for k, _ in ops if k == "submit")
    reg = recovered.metrics
    assert reg.get("repro_service_recoveries_total").value == 1
    assert reg.get("repro_service_wal_replayed_total").value == len(ops)
    text = report.render()
    assert "cold replay" in text
    assert f"replayed {len(ops)} WAL records" in text
    recovered.close()


def test_recovery_decodes_each_record_once(tmp_path, monkeypatch):
    """Opening the log decodes every record on disk; replaying the tail
    past a mid-log checkpoint reuses them instead of reading again."""
    import repro.service.wal as wal_mod

    capacity, ops = scalar_ops(n=30, seed=13)
    make_engine = lambda: StreamingEngine.scalar(
        make_algorithm("first-fit"), capacity=capacity
    )
    wal = WriteAheadLog(str(tmp_path), fsync="never")
    durable = DurableEngine(make_engine(), wal, checkpoint_every=1000)
    half = len(ops) // 2
    for i, op in enumerate(ops):
        if i == half:
            durable.checkpoint_now()
        apply_op(durable, i, op, durable=True)
    wal.close()
    on_disk = wal.last_seq

    calls = []
    decode = wal_mod._decode

    def counting(line):
        calls.append(line)
        return decode(line)

    monkeypatch.setattr(wal_mod, "_decode", counting)
    recovered, report = recover(
        str(tmp_path), engine_builder=make_engine, fsync="never"
    )
    recovered.close()
    assert 0 < report.checkpoint_seq < on_disk
    assert report.replayed == on_disk - report.checkpoint_seq
    assert len(calls) == on_disk


def test_duplicate_submit_is_answered_from_the_window(tmp_path):
    capacity, ops = scalar_ops(n=10, seed=21)
    engine = StreamingEngine.scalar(
        make_algorithm("first-fit"), capacity=capacity, metrics=MetricsRegistry()
    )
    wal = WriteAheadLog(str(tmp_path), fsync="never")
    durable = DurableEngine(engine, wal)
    item = ops[0][1]
    first = durable.submit(item, request_id="rid-1")
    again = durable.submit(item, request_id="rid-1")
    assert again.to_dict() == first.to_dict()
    assert wal.records_written == 1, "the duplicate must not touch the log"
    assert (
        engine.metrics.get("repro_service_duplicate_requests_total").value == 1
    )
    durable.close()


def test_newer_schema_checkpoint_is_refused(tmp_path):
    doc = {"version": SNAPSHOT_VERSION + 1, "wal_seq": 5, "engine": {}}
    path = tmp_path / f"{CHECKPOINT_PREFIX}{5:010d}{CHECKPOINT_SUFFIX}"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="newer than this code"):
        recover(
            str(tmp_path),
            engine_builder=lambda: StreamingEngine.scalar(
                make_algorithm("first-fit")
            ),
        )


def test_unreadable_checkpoint_is_skipped_for_an_older_one(tmp_path):
    capacity, ops = scalar_ops(n=12, seed=33)
    make_engine = lambda: StreamingEngine.scalar(
        make_algorithm("first-fit"), capacity=capacity
    )
    wal = WriteAheadLog(str(tmp_path), fsync="never")
    durable = DurableEngine(make_engine(), wal, checkpoint_every=1000)
    for i, op in enumerate(ops):
        apply_op(durable, i, op, durable=True)
    good = durable.checkpoint_now()
    wal.close()
    # a newer checkpoint truncated by a crash predating atomic writes
    bad = tmp_path / f"{CHECKPOINT_PREFIX}{9999:010d}{CHECKPOINT_SUFFIX}"
    bad.write_text('{"version": 1, "wal_')

    recovered, report = recover(str(tmp_path), engine_builder=make_engine)
    assert report.checkpoint_path == good
    assert report.skipped_checkpoints == [str(bad)]
    assert recovered.engine.state.num_bins_used > 0
    recovered.close()


def test_corrupt_newest_checkpoint_falls_back_and_replays_the_gap(tmp_path):
    """A parseable-but-broken newest checkpoint must not sink recovery.

    Checkpoint A covers the first half of the trace, checkpoint B the
    whole of it.  B then gets its engine section mangled (valid JSON, so
    it survives ``read_checkpoint`` and only dies inside the restore).
    Recovery must fall back to A, count B in ``fallback_checkpoints``,
    and replay the WAL records between A and the end of the log so the
    final packing still matches the run that never crashed.
    """
    capacity, ops = scalar_ops(n=12, seed=33)
    make_engine = lambda: StreamingEngine.scalar(
        make_algorithm("first-fit"), capacity=capacity
    )
    wal = WriteAheadLog(str(tmp_path), fsync="never")
    durable = DurableEngine(make_engine(), wal, checkpoint_every=1000)
    half = len(ops) // 2
    for i, op in enumerate(ops[:half]):
        apply_op(durable, i, op, durable=True)
    good = durable.checkpoint_now()
    for i, op in enumerate(ops[half:], start=half):
        apply_op(durable, i, op, durable=True)
    bad = durable.checkpoint_now()
    assert bad != good
    wal.close()

    doc = json.loads(open(bad).read())
    doc["engine"] = {"kind": "scalar"}  # structurally gutted, still JSON
    with open(bad, "w") as fh:
        fh.write(json.dumps(doc))

    recovered, report = recover(str(tmp_path), engine_builder=make_engine)
    assert report.checkpoint_path == good
    assert report.fallback_checkpoints == [str(bad)]
    assert report.skipped_checkpoints == []
    assert report.replayed == len(
        [op for op in ops[half:]]
    ), "every op after checkpoint A must come back from the log"
    result = recovered.finish()
    recovered.close()
    baseline = baseline_result(make_engine, ops)
    assert result.item_bin == baseline.item_bin
    assert result.total_usage_time == baseline.total_usage_time


def test_fallback_refuses_when_the_log_cannot_cover_the_gap(tmp_path):
    """Falling back past a pruned log must fail loudly, not lose ops."""
    from repro.service.wal import SEGMENT_PREFIX, SEGMENT_SUFFIX, WalCorruptionError

    capacity, ops = scalar_ops(n=12, seed=33)
    make_engine = lambda: StreamingEngine.scalar(
        make_algorithm("first-fit"), capacity=capacity
    )
    wal = WriteAheadLog(str(tmp_path), fsync="never")
    durable = DurableEngine(make_engine(), wal, checkpoint_every=1000)
    half = len(ops) // 2
    for i, op in enumerate(ops[:half]):
        apply_op(durable, i, op, durable=True)
    a_seq = wal.last_seq
    durable.checkpoint_now()
    for i, op in enumerate(ops[half:], start=half):
        apply_op(durable, i, op, durable=True)
    bad = durable.checkpoint_now()
    wal.close()

    doc = json.loads(open(bad).read())
    doc["engine"] = {"kind": "scalar"}
    with open(bad, "w") as fh:
        fh.write(json.dumps(doc))
    # simulate the prune that would normally follow checkpoint B: drop
    # the records checkpoint A depends on, leaving a seq gap after it
    for name in os.listdir(tmp_path):
        if name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX):
            seg = tmp_path / name
            kept = [
                line
                for line in seg.read_bytes().splitlines(keepends=True)
                if int(line.split(b" ", 1)[0]) > a_seq + 1
            ]
            seg.write_bytes(b"".join(kept))

    with pytest.raises(WalCorruptionError, match="acknowledged operations missing"):
        recover(str(tmp_path), engine_builder=make_engine)


def test_checkpoint_retention_keeps_three(tmp_path):
    capacity, ops = scalar_ops(n=20, seed=41)
    wal = WriteAheadLog(str(tmp_path), fsync="never")
    durable = DurableEngine(
        StreamingEngine.scalar(make_algorithm("first-fit"), capacity=capacity),
        wal,
        checkpoint_every=2,
    )
    for i, op in enumerate(ops):
        apply_op(durable, i, op, durable=True)
    durable.close()
    checkpoints = [
        n for n in os.listdir(str(tmp_path)) if n.startswith(CHECKPOINT_PREFIX)
    ]
    assert 1 <= len(checkpoints) <= 3


def test_cold_start_without_builder_is_an_error(tmp_path):
    with pytest.raises(ValueError, match="engine_builder"):
        recover(str(tmp_path))


def test_dedup_window_is_bounded():
    window = DedupWindow(limit=3)
    for i in range(5):
        window.put(f"r{i}", {"n": i})
    assert len(window) == 3
    assert "r0" not in window and "r1" not in window
    assert window.get("r4") == {"n": 4}
    with pytest.raises(ValueError):
        DedupWindow(limit=0)


# -- the resume rule ------------------------------------------------------------
def _ff_engine(capacity):
    return lambda: StreamingEngine.scalar(
        make_algorithm("first-fit"), capacity=capacity
    )


def test_refused_write_after_rotation_keeps_the_sequence(tmp_path):
    """A disk-full refusal right after rotation leaves the live segment
    empty; a checkpoint then prunes every older one.  The log must still
    number the next record past the checkpoint, or the next recovery
    skips the acknowledged jobs as covered."""
    from repro.service.wal import wal_segments

    directory = str(tmp_path)
    capacity, ops = scalar_ops(n=20, seed=7)
    items = [arg for kind, arg in ops if kind == "submit"]
    refused = []

    def disk_full_after_rotation(op, seq):
        if op == "write" and not refused and len(wal_segments(directory)) > 1:
            refused.append(seq)
            raise OSError("no space left on device")

    wal = WriteAheadLog(
        directory, fsync="never", segment_bytes=300,
        io_hook=disk_full_after_rotation,
    )
    durable = DurableEngine(_ff_engine(capacity)(), wal, checkpoint_every=1000)
    for k, item in enumerate(items):
        try:
            durable.submit(item)
        except OSError:
            break
    assert refused, "the log never rotated"
    durable.checkpoint_now()
    durable.close()

    recovered, _ = recover(directory, engine_builder=_ff_engine(capacity), fsync="never")
    late = items[k : k + 3]
    for item in late:
        recovered.submit(item)
    recovered.close()

    again, report = recover(directory, engine_builder=_ff_engine(capacity), fsync="never")
    assert report.replayed == 3
    for item in late:
        assert item.item_id in again.engine.state.item_bin
    again.close()


def _checkpoint_only_dir(tmp_path, capacity, items):
    """A directory holding nothing but ``checkpoint-0000000010.json``."""
    import shutil

    source = str(tmp_path / "source")
    wal = WriteAheadLog(source, fsync="never")
    durable = DurableEngine(_ff_engine(capacity)(), wal, checkpoint_every=1000)
    for item in items[:10]:
        durable.submit(item)
    path = durable.checkpoint_now()
    durable.close()
    assert os.path.basename(path) == f"{CHECKPOINT_PREFIX}{10:010d}{CHECKPOINT_SUFFIX}"
    target = tmp_path / "only-checkpoint"
    target.mkdir()
    shutil.copy(path, target)
    return str(target)


def test_log_continues_past_a_checkpoint_it_does_not_reach(tmp_path):
    capacity, ops = scalar_ops(n=20, seed=7)
    items = [arg for kind, arg in ops if kind == "submit"]
    directory = _checkpoint_only_dir(tmp_path, capacity, items)

    recovered, report = recover(directory, engine_builder=_ff_engine(capacity), fsync="never")
    assert report.checkpoint_seq == 10 and report.last_seq == 10
    for item in items[10:13]:
        recovered.submit(item)
    recovered.close()

    again, report = recover(directory, engine_builder=_ff_engine(capacity), fsync="never")
    assert report.replayed == 3
    for item in items[:13]:
        assert item.item_id in again.engine.state.item_bin
    again.close()


def test_wal_verify_flags_a_log_resuming_below_its_checkpoint(tmp_path, capsys):
    """The directory a log that restarted at seq 1 leaves behind: the
    checkpoint covers seq 10, and three acknowledged submits sit in the
    log as seqs 1-3, numbered as covered.  Verify flags it, and recovery
    refuses it rather than skip them."""
    from repro.cli import main as cli_main
    from repro.service.wal import WalCorruptionError, verify_wal_dir

    capacity, ops = scalar_ops(n=20, seed=7)
    items = [arg for kind, arg in ops if kind == "submit"]
    directory = _checkpoint_only_dir(tmp_path, capacity, items)
    wal = WriteAheadLog(directory, fsync="never")
    durable = DurableEngine(_ff_engine(capacity)(), wal, checkpoint_every=1000)
    for item in items[10:13]:
        durable.submit(item)
    durable.close()

    report = verify_wal_dir(directory)
    assert not report["ok"]
    assert report["resume_seq"] == 4
    assert any("resumes at seq 4" in e for e in report["errors"]), report["errors"]
    assert cli_main(["wal", "verify", directory]) == 1
    assert "resumes at seq 4" in capsys.readouterr().out
    on_disk = sorted(os.listdir(directory))
    with pytest.raises(WalCorruptionError, match="ends at seq 3"):
        recover(directory, engine_builder=_ff_engine(capacity), fsync="never")
    assert sorted(os.listdir(directory)) == on_disk


# -- job-id rules across a checkpoint -----------------------------------------
# A job has departed iff it is in the item→bin map and no longer active.
# The rules must hold for a job whose bin closed, and was dropped from the
# engine, before the checkpoint that recovery restores:
# - a second depart of a departed id is a no-op;
# - an id that was never submitted cannot depart (KeyError);
# - a departed id cannot be submitted again (ValueError).
def _recovered_after_closed_bin(tmp_path):
    from repro.core.items import Item

    directory = str(tmp_path / "ids")
    make_engine = lambda: StreamingEngine.scalar(make_algorithm("first-fit"))
    durable = DurableEngine(
        make_engine(), WriteAheadLog(directory, fsync="never"), checkpoint_every=1000
    )
    durable.submit(Item(1, 0.5, 0.0, 1.0))  # alone in bin 0 ...
    durable.submit(Item(2, 0.5, 2.0, 5.0))  # ... which closes at t=1
    assert durable.engine.state.bins[0] is None, "bin 0 left the engine"
    durable.checkpoint_now()
    durable.close()
    recovered, report = recover(directory, engine_builder=make_engine, fsync="never")
    assert report.checkpoint_path is not None and report.replayed == 0
    assert recovered.engine.state.item_bin[1] == 0
    return recovered


def test_job_id_rules_hold_across_a_checkpoint(tmp_path):
    from repro.core.items import Item

    durable = _recovered_after_closed_bin(tmp_path)
    assert durable.depart(1) is None
    with pytest.raises(KeyError, match="not active"):
        durable.depart(42)
    with pytest.raises(ValueError, match="already submitted"):
        durable.submit(Item(1, 0.3, 3.0, 4.0))
    # none of the refusals touched the packing
    assert durable.engine.state.num_open == 1
    assert durable.engine.state.item_bin == {1: 0, 2: 1}
    durable.close()


def test_job_id_rules_hold_across_a_checkpoint_on_the_wire(tmp_path):
    import asyncio

    from repro.service import AllocationService

    durable = _recovered_after_closed_bin(tmp_path)

    async def scenario():
        service = AllocationService(durable, quiet=True)
        port = await service.start("127.0.0.1", 0)
        waiter = asyncio.ensure_future(service.wait_closed())
        reader, writer = await asyncio.open_connection("127.0.0.1", port)

        async def call(payload):
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            return json.loads(await reader.readline())

        replies = [
            await call({"op": "depart", "id": 1}),
            await call({"op": "depart", "id": 42}),
            await call({"op": "submit", "job": {
                "id": 1, "size": 0.3, "arrival": 3.0, "departure": 4.0}}),
        ]
        await call({"op": "shutdown"})
        writer.close()
        await waiter
        return replies

    again, unknown, resubmit = asyncio.run(scenario())
    assert again["ok"] is True
    assert unknown["ok"] is False and unknown["error_type"] == "rejected"
    assert "not active" in unknown["error"]
    assert resubmit["ok"] is False and resubmit["error_type"] == "rejected"
    assert "already submitted" in resubmit["error"]
    durable.close()
