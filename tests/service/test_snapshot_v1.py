"""Version-1 checkpoints still restore, and cut version 2 from then on.

Version 1 wrote every bin ever opened, ``placed_order`` and
``departed``; version 2 writes only what is open.  The fixtures in
``tests/data/service_v1/`` were written by the version-1 code (the
script beside them says how): a crashed shard directory — MANIFEST, a
version-1 checkpoint holding closed bins and pending departures, and a
WAL tail past it — and a Next Fit ``dumps()`` document cut where the
policy's available bin has already closed.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

from repro.algorithms import make_algorithm
from repro.core.items import Item
from repro.service import ShardContext, ShardSpec, build_engine, dumps, loads
from repro.service.snapshot import SNAPSHOT_VERSION, read_checkpoint, snapshot_engine
from repro.service.wal import checkpoint_files, replay_wal
from repro.workloads import load_trace

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "service_v1"
CHECKPOINT_EVERY = 36  # what the fixture's shard was written with


def shard_copy(tmp_path) -> str:
    directory = str(tmp_path / "shard")
    shutil.copytree(FIXTURE / "shard", directory)
    return directory


def apply(engine, payload) -> None:
    """One logged operation, applied to a plain engine."""
    op = payload["op"]
    if op == "submit":
        engine.submit(Item(*payload["job"]), schedule_departure=payload["sd"])
    elif op == "depart":
        engine.depart(payload["id"], payload.get("now"))
    else:
        assert op == "advance", payload
        engine.advance(payload["now"])


def recover_shard(directory: str):
    ctx = ShardContext.create(
        ShardSpec(),
        wal_dir=directory,
        fsync="never",
        checkpoint_every=CHECKPOINT_EVERY,
    )
    return ctx.engine, ctx.recovery_report


def without_metrics(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "metrics"}


def test_fixture_is_version_1_with_closed_bins_and_pending_departures():
    (path,) = checkpoint_files(str(FIXTURE / "shard"))
    doc = read_checkpoint(path)
    engine = doc["engine"]
    assert doc["version"] == engine["version"] == 1
    assert any(b["closed_at"] is not None for b in engine["bins"])
    assert engine["pending"]
    records, _ = replay_wal(str(FIXTURE / "shard"))
    assert records[-1].seq > doc["wal_seq"], "the WAL runs past the checkpoint"


def test_v1_shard_recovers_bit_identically(tmp_path):
    directory = shard_copy(tmp_path)
    records, _ = replay_wal(directory)
    straight = build_engine(algorithm="first-fit")
    for rec in records:
        apply(straight, rec.payload)

    durable, report = recover_shard(directory)
    assert report.checkpoint_seq == CHECKPOINT_EVERY
    assert report.replayed == len(records) - CHECKPOINT_EVERY
    assert report.replay_errors == 0
    # the whole live state, usage fold included, as the run that never
    # crashed holds it
    assert without_metrics(snapshot_engine(durable.engine)) == without_metrics(
        snapshot_engine(straight)
    )

    a, b = durable.finish(), straight.finish()
    assert a.item_bin == b.item_bin
    assert a.num_bins == b.num_bins
    assert a.total_usage_time == b.total_usage_time  # exact
    engine_metrics = straight.metrics.as_dict()
    got = durable.engine.metrics.as_dict()
    assert {k: got[k] for k in engine_metrics} == engine_metrics
    durable.close()


def test_v1_shard_then_cuts_version_2_with_only_open_bins(tmp_path):
    directory = shard_copy(tmp_path)
    durable, _ = recover_shard(directory)
    state = durable.engine.state
    assert state.num_open > 0
    doc = read_checkpoint(durable.checkpoint_now())
    engine = doc["engine"]
    assert doc["version"] == engine["version"] == SNAPSHOT_VERSION == 2
    assert sorted(b["index"] for b in engine["bins"]) == sorted(state._open)
    assert all(b["closed_at"] is None for b in engine["bins"])
    assert engine["bins_used"] == state.num_bins_used
    assert "placed_order" not in engine and "departed" not in engine
    assert len(engine["item_bin"]) == 2 * len(state.item_bin)

    durable.finish()  # drains, then cuts the final checkpoint
    durable.close()
    final = read_checkpoint(checkpoint_files(directory)[-1])["engine"]
    assert final["version"] == 2
    assert final["bins"] == [] and final["items"] == []


def test_v1_next_fit_document_with_a_closed_available_bin_resumes(tmp_path):
    text = (FIXTURE / "next_fit.dumps.json").read_text()
    doc = json.loads(text)
    assert doc["version"] == 1
    assert doc["algorithm_state"]["_available"] == {"__bin__": 11}
    jobs = sorted(load_trace(FIXTURE / "next_fit_jobs.json"), key=lambda it: it.arrival)
    cut = len(doc["placed_order"])
    assert [it.item_id for it in jobs[:cut]] == doc["placed_order"]

    straight = build_engine(algorithm="next-fit", with_metrics=False)
    for it in jobs[:cut]:
        straight.submit(it)
    straight.advance(doc["clock"])
    assert straight.algorithm._available.is_closed

    resumed = loads(text, make_algorithm("next-fit"))
    available = resumed.algorithm._available
    assert available.index == 11
    assert available.is_closed and not available.is_open
    # restored from version 1, it is the state the straight run holds
    assert dumps(resumed) == dumps(straight)

    for it in jobs[cut:]:
        assert resumed.submit(it) == straight.submit(it)
    a, b = resumed.finish(), straight.finish()
    assert a.item_bin == b.item_bin
    assert a.num_bins == b.num_bins
    assert a.total_usage_time == b.total_usage_time


def test_fixture_directory_is_untouched():
    """Tests work on copies: the committed fixture holds no new files."""
    names = sorted(os.listdir(FIXTURE / "shard"))
    assert names == ["MANIFEST", "checkpoint-0000000036.json", "wal-0000000001.log"]
