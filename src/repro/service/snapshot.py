"""Checkpoint/restore for the streaming engine.

A long-lived allocation service must survive restarts without forgetting
which jobs live on which servers.  :func:`snapshot_engine` captures the
engine's *live* state as one JSON-serialisable document: the open bins
(with their items and level histories), the items that those bins, the
scheduled-departure heap and the admission queue reference, the
running level totals, the adaptive first-fit index's **activation
status**, the usage-time fold and bin count that stand for every
closed bin, the item→bin map as one flat integer list, the counters,
the metric values, and the placement policy's internal state (Next
Fit's available bin, the classified policies' class maps, seeded RNG
states).
:func:`restore_engine` rebuilds a live engine from the document.

Closed bins are not in it: the engine drops a bin when it closes, after
:attr:`~repro.service.engine.StreamingEngine.bin_closed_callbacks` ran,
so a checkpoint grows with what is open, plus one ``item_bin`` pair per
job ever placed.  Version 1 documents, which held every bin ever
opened, ``placed_order`` and ``departed``, still restore: their closed
bins are folded exactly as the live engine folds them.

The contract is exact resumption: checkpointing mid-trace and restoring
into a fresh process must reproduce the uninterrupted run bit for bit —
placements *and* metrics (pinned by the randomized differential test in
``tests/service/test_checkpoint.py``).  JSON round-trips Python floats
exactly (``repr`` shortest-round-trip), so no precision is lost.

Restoring the index deserves a note: the snapshot records only *whether*
the tree was active, not its internals.  Rebuilding it from the open set
assigns fresh slots, but slots are always in increasing bin-index order
(closed bins merely mark their slot infeasible), and every tree query
resolves ties by bin index — so a rebuilt tree answers every query
identically to the incrementally maintained one.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
from itertools import chain
from typing import Any, Callable

from ..core.bins import Bin
from ..core.items import Item
from ..core.state import PackingState

__all__ = [
    "SNAPSHOT_VERSION",
    "snapshot_engine",
    "restore_engine",
    "dumps",
    "loads",
    "write_checkpoint",
    "read_checkpoint",
    "check_version",
    "config_fingerprint",
]

SNAPSHOT_VERSION = 2


def config_fingerprint(config: dict) -> str:
    """A stable hex digest of an engine-configuration dict.

    Canonical JSON (sorted keys, compact separators) in, sha256 out —
    the same config always fingerprints the same across processes and
    Python versions.  The shard MANIFEST stores this next to the raw
    config so a WAL directory can refuse an engine it was not written
    by (see :mod:`repro.service.shard`).
    """
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check_version(version: Any) -> None:
    """Refuse snapshots this code cannot faithfully restore.

    A *newer* snapshot than the code means a downgraded service is
    looking at state written by its future self — restoring a subset of
    it would silently drop fields, so the error says exactly that.
    Version 1 (every bin ever opened) is still read.
    """
    if type(version) is int and 1 <= version <= SNAPSHOT_VERSION:
        return
    if isinstance(version, int) and version > SNAPSHOT_VERSION:
        raise ValueError(
            f"checkpoint schema version {version} is newer than this code "
            f"supports ({SNAPSHOT_VERSION}) — refusing to load it with an "
            f"older service; upgrade the service or restore from an older "
            f"checkpoint"
        )
    raise ValueError(
        f"snapshot version {version!r} not supported (expected {SNAPSHOT_VERSION})"
    )


def write_checkpoint(path: str, doc: dict) -> None:
    """Write a checkpoint document atomically (tmp file + ``os.replace``).

    A crash mid-write must never leave a half-written checkpoint where
    recovery will find it: the document lands in ``<path>.tmp`` first,
    is flushed and fsynced, and only then renamed over ``path`` — the
    rename is atomic on POSIX, so ``path`` always holds either the old
    complete document or the new one.
    """
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        # json.dump streams chunks into the file; CPython serves it with
        # the pure-Python encoder, so it is the slower call: on a
        # drained 9,282-job shard's checkpoint (92 KB) it took 7.5 ms
        # against 1.7 ms for json.dumps (2-vCPU VM, CPython 3.11).
        # json.dumps builds the whole document first (1.4 MB of traced
        # allocation against 0.15 MB), and it raised fleet-recover's
        # peak_rss_mb in 3 of 3 pairs; see docs/PERFORMANCE.md,
        # "Checkpoint encoding".
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def read_checkpoint(path: str) -> dict:
    """Load a checkpoint document, enforcing the schema-version gate."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    check_version(doc.get("version"))
    return doc


# -- algorithm-state codec ----------------------------------------------------
def _encode_value(value: Any) -> Any:
    """Encode one algorithm attribute into JSON-safe form.

    Handles the state the registry policies actually keep: primitives,
    tuples, dicts with non-string keys, ``random.Random`` instances and
    live :class:`Bin` references.  Anything else is a hard error — an
    algorithm with exotic state must not silently checkpoint wrong.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"__list__": [_encode_value(v) for v in value]}
    if isinstance(value, dict):
        return {
            "__map__": [
                [_encode_value(k), _encode_value(v)] for k, v in value.items()
            ]
        }
    if isinstance(value, random.Random):
        version, internal, gauss = value.getstate()
        return {"__rng__": [version, list(internal), gauss]}
    if hasattr(value, "index") and hasattr(value, "is_open"):  # a bin reference
        return {"__bin__": value.index}
    raise TypeError(
        f"cannot checkpoint algorithm attribute of type {type(value).__name__}"
    )


def _decode_value(value: Any, bin_ref: Callable[[int], Any]) -> Any:
    if isinstance(value, dict):
        if "__tuple__" in value:
            return tuple(_decode_value(v, bin_ref) for v in value["__tuple__"])
        if "__list__" in value:
            return [_decode_value(v, bin_ref) for v in value["__list__"]]
        if "__map__" in value:
            return {
                _decode_value(k, bin_ref): _decode_value(v, bin_ref)
                for k, v in value["__map__"]
            }
        if "__rng__" in value:
            version, internal, gauss = value["__rng__"]
            rng = random.Random()
            rng.setstate((version, tuple(internal), gauss))
            return rng
        if "__bin__" in value:
            return bin_ref(value["__bin__"])
        raise ValueError(f"unrecognised snapshot marker in {sorted(value)}")
    return value


# -- item / bin codecs --------------------------------------------------------
def _item_record(item, scalar: bool) -> list:
    size = item.size if scalar else list(item.sizes)
    return [item.item_id, size, item.arrival, item.departure]


def _make_item(rec: list, scalar: bool):
    if scalar:
        return Item(rec[0], rec[1], rec[2], rec[3])
    from ..multidim.items import VectorItem

    return VectorItem(rec[0], tuple(rec[1]), rec[2], rec[3])


def _bin_record(b, scalar: bool) -> dict:
    rec = {
        "index": b.index,
        "opened_at": b.opened_at,
        "closed_at": b.closed_at,
        "active": sorted(b.active_items),
        "all": [it.item_id for it in b.all_items],
    }
    if scalar:
        rec["level"] = b.level
        rec["history"] = [
            [t, lvl] for t, lvl in zip(b.level_times, b.level_values)
        ]
    else:
        rec["levels"] = list(b.levels)
    return rec


def _make_bin(rec: dict, items: dict, capacity, scalar: bool):
    if scalar:
        b = Bin(index=rec["index"], capacity=capacity)
        b.level = rec["level"]
        b.level_times.extend(t for t, _ in rec["history"])
        b.level_values.extend(lvl for _, lvl in rec["history"])
    else:
        from ..multidim.bins import VectorBin

        b = VectorBin(index=rec["index"], capacity=capacity)
        b.levels = tuple(rec["levels"])
    b.opened_at = rec["opened_at"]
    b.closed_at = rec["closed_at"]
    b.active_items = {iid: items[iid] for iid in rec["active"]}
    b.all_items = [items[iid] for iid in rec["all"]]
    return b


# -- engine snapshot ----------------------------------------------------------
def snapshot_engine(engine) -> dict:
    """The engine's live state as one JSON-serialisable document."""
    state = engine.state
    scalar = isinstance(state, PackingState)
    open_bins = list(state._open.values())
    active = engine._active
    pending = [
        (t, seq, it) for t, seq, it in engine._pending if it.item_id in active
    ]

    # the item table: everything the restored process may still touch
    items: dict[int, Any] = {}
    for b in open_bins:
        for it in b.all_items:
            items[it.item_id] = it
    for _, _, it in engine._queue:
        items[it.item_id] = it

    doc = {
        "version": SNAPSHOT_VERSION,
        "kind": "scalar" if scalar else "vector",
        "algorithm": engine.algorithm.name,
        "capacity": state.capacity if scalar else list(state.capacity),
        "indexed": state.indexed,
        "index_active": state._index is not None,
        "now": state.now,
        "clock": engine.clock,
        "started": engine._started,
        "seq": engine._seq,
        "total_level": state.total_level
        if scalar
        else list(state.total_level),
        "items": [_item_record(it, scalar) for it in items.values()],
        "bins": [_bin_record(b, scalar) for b in open_bins],
        "bins_used": state.num_bins_used,
        "usage": [
            engine._usage_total,
            engine._usage_next,
            sorted(engine._usage_waiting.items()),
        ],
        "item_bin": list(chain.from_iterable(state.item_bin.items())),
        "pending": [[t, seq, it.item_id] for t, seq, it in pending],
        "queue": [[t, seq, it.item_id] for t, seq, it in engine._queue],
        "migrations": engine.migrations,
        "defrag_runs": engine.defrag_runs,
        "bins_evacuated": engine.bins_evacuated,
        "algorithm_state": {
            k: _encode_value(v) for k, v in vars(engine.algorithm).items()
        },
        "admission": engine.admission.snapshot(),
        "metrics": engine.metrics.snapshot() if engine.metrics is not None else None,
    }
    return doc


def restore_engine(
    doc: dict,
    algorithm,
    *,
    admission=None,
    metrics=None,
    decision_log=None,
    observers=(),
):
    """Rebuild a live :class:`~repro.service.engine.StreamingEngine`.

    ``algorithm`` must be a fresh instance of the same policy (same
    constructor arguments) that produced the snapshot; its internal
    state is restored from the document.  ``admission`` likewise: pass
    a policy of the same shape and its accounting is restored.  Pass a
    fresh :class:`~repro.service.metrics.MetricsRegistry` to resume the
    metric values; the decision log starts fresh (it is an audit trail,
    not state).  A version-1 document's closed bins are folded into the
    usage total the way the live engine folds them.
    """
    from .engine import StreamingEngine

    version = doc.get("version")
    check_version(version)
    if doc["algorithm"] != algorithm.name:
        raise ValueError(
            f"snapshot was taken under policy {doc['algorithm']!r}, "
            f"got {algorithm.name!r}"
        )
    scalar = doc["kind"] == "scalar"

    # 1. the packing state
    if scalar:
        state = PackingState(capacity=doc["capacity"], indexed=doc["indexed"])
    else:
        from ..multidim.state import VectorPackingState

        state = VectorPackingState(
            capacity=tuple(doc["capacity"]), indexed=doc["indexed"]
        )
    state.now = doc["now"]
    records, item_bin = doc["items"], doc["item_bin"]
    if version == 1:  # items keyed by str(item id), the map as [id, bin] pairs
        records, item_bin = records.values(), chain.from_iterable(item_bin)
    items = {rec[0]: _make_item(rec, scalar) for rec in records}
    capacity = state.capacity
    # version 1 lists every bin ever opened: its closed bins are folded
    # into the usage total below, once the engine exists
    bins = [_make_bin(rec, items, capacity, scalar) for rec in doc["bins"]]
    state.bins = [None] * doc.get("bins_used", len(bins))
    for b in bins:
        state.bins[b.index] = b
    flat = iter(item_bin)
    state.item_bin = dict(zip(flat, flat))
    state._open = {b.index: b for b in bins if b.closed_at is None}
    if scalar:
        state.total_level = doc["total_level"]
    else:
        state._total = list(doc["total_level"])
    if doc["index_active"]:
        # once activated, the index stays active for the rest of the run
        # even if the open set has shrunk below the threshold since
        state._activate_index()

    # 2. the engine shell (constructing it resets the algorithm...)
    factory = StreamingEngine.scalar if scalar else StreamingEngine.vector
    engine = factory(
        algorithm,
        state=state,
        admission=admission,
        metrics=metrics,
        decision_log=decision_log,
        observers=observers,
    )
    total, nxt, waiting = doc.get("usage", (0.0, 0, ()))
    engine._usage_total, engine._usage_next = total, nxt
    engine._usage_waiting = dict(waiting)
    for b in bins:
        if b.closed_at is not None:
            engine._fold_closed(b)

    # 3. ...so the algorithm's internals are restored afterwards
    def bin_ref(index: int):
        # a policy may still point at a bin that has closed (Next Fit's
        # available bin); it only ever asks such a bin whether it is
        # open, so a stand-in closed by the checkpoint's clock serves
        b = state.bins[index]
        if b is None:
            if scalar:
                b = Bin(index=index, capacity=capacity)
            else:
                from ..multidim.bins import VectorBin

                b = VectorBin(index=index, capacity=capacity)
            b.closed_at = state.now
        return b

    for key, value in doc["algorithm_state"].items():
        setattr(algorithm, key, _decode_value(value, bin_ref))
    on_restored = getattr(algorithm, "on_restored", None)  # vector policies: none
    if on_restored is not None:
        on_restored(state)

    # 4. engine bookkeeping
    engine.clock = doc["clock"]
    engine._started = doc["started"]
    engine._seq = doc["seq"]
    engine._active = {
        iid: it for b in state._open.values() for iid, it in b.active_items.items()
    }
    engine._pending = [(t, seq, items[iid]) for t, seq, iid in doc["pending"]]
    heapq.heapify(engine._pending)
    engine._queue = [(t, seq, items[iid]) for t, seq, iid in doc["queue"]]
    # migration counters arrived after SNAPSHOT_VERSION 1 froze; older
    # documents simply never migrated, so absence means zero
    engine.migrations = doc.get("migrations", 0)
    engine.defrag_runs = doc.get("defrag_runs", 0)
    engine.bins_evacuated = doc.get("bins_evacuated", 0)
    engine.admission.restore(doc["admission"])
    if metrics is not None and doc["metrics"] is not None:
        metrics.restore(doc["metrics"])
    return engine


def dumps(engine) -> str:
    """Checkpoint ``engine`` to a JSON string."""
    return json.dumps(snapshot_engine(engine), sort_keys=True)


def loads(text: str, algorithm, **kwargs):
    """Restore an engine from a :func:`dumps` checkpoint."""
    return restore_engine(json.loads(text), algorithm, **kwargs)
