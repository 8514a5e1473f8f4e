"""Crash recovery: durable engine = checkpoint + WAL replay.

The durability contract of the service stack:

1. every accepted ``submit``/``depart``/``advance`` is appended to the
   :class:`~repro.service.wal.WriteAheadLog` *before* it is applied to
   the :class:`~repro.service.engine.StreamingEngine`;
2. checkpoints (atomic ``tmp`` + ``os.replace`` via
   :func:`~repro.service.snapshot.write_checkpoint`) are cut every
   ``checkpoint_every`` records or ``checkpoint_bytes`` of log, after an
   fsync barrier, and fully-covered WAL segments are pruned;
3. :func:`recover` restores the newest loadable checkpoint and replays
   the WAL tail through the *same* engine code paths, so a recovered
   service is **bit-identical** to one that never crashed — placements,
   usage time, metrics, admission accounting, idempotency window (pinned
   by ``tests/service/test_recovery.py`` at every possible kill index,
   torn tails included).

Replay determinism leans on a property the engine already guarantees:
every validation error (out-of-order arrival, duplicate id, unknown
departure) is raised *before* any state mutation.  An operation that
failed live therefore fails identically on replay, and the log can
record operations before knowing their outcome.

Exactly-once: clients may tag submits with a ``request_id``.  The
:class:`DedupWindow` maps recent ids to their placements; a retry of an
acknowledged submit returns the cached placement without touching the
engine or the log, and because the window is rebuilt from the checkpoint
*and* the replayed tail, the guarantee holds across a crash — whether
the original attempt died before or after its WAL append.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from math import isfinite
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..core.state import PackingState
from .engine import Placement, StreamingEngine
from .faults import FaultInjector
from .metrics import MetricsRegistry
from .snapshot import (
    SNAPSHOT_VERSION,
    _item_record,
    _make_item,
    read_checkpoint,
    restore_engine,
    snapshot_engine,
    write_checkpoint,
)
from .wal import (
    CHECKPOINT_PREFIX,
    CHECKPOINT_SUFFIX,
    WalCorruptionError,
    WalRecord,
    WriteAheadLog,
    checkpoint_files,
)

__all__ = [
    "CHECKPOINT_PREFIX",
    "DedupWindow",
    "DurableEngine",
    "RecoveryReport",
    "declare_durable_metrics",
    "recover",
]

#: Names the durable layer adds to the engine's metrics registry.
_DURABLE_COUNTERS = (
    ("repro_service_wal_records_total", "operations appended to the WAL"),
    ("repro_service_wal_fsyncs_total", "WAL fsync barriers issued"),
    ("repro_service_wal_bytes_total", "bytes appended to the WAL"),
    ("repro_service_wal_errors_total", "WAL appends refused by I/O errors"),
    ("repro_service_checkpoints_total", "checkpoints written"),
    ("repro_service_recoveries_total", "crash recoveries performed"),
    ("repro_service_wal_replayed_total", "WAL records replayed during recovery"),
    ("repro_service_duplicate_requests_total",
     "submits answered from the idempotency window"),
)


def declare_durable_metrics(reg: MetricsRegistry) -> None:
    """Idempotently declare the durability counters.

    Called *before* a snapshot's metric values are restored so the
    recovered registry resumes these counters instead of dropping them.
    """
    for name, help_text in _DURABLE_COUNTERS:
        if name not in reg:
            reg.counter(name, help_text)


class DedupWindow:
    """Bounded request-id → placement cache (the idempotency window).

    FIFO eviction at ``limit`` entries: a retry older than the window is
    indistinguishable from a new request, which is the standard bounded
    -memory trade-off — size the window above the client's maximum retry
    horizon (the load generator retries within seconds; the default
    window holds thousands of requests).
    """

    def __init__(self, limit: int = 4096):
        if limit < 1:
            raise ValueError(f"dedup window limit must be >= 1, got {limit}")
        self.limit = int(limit)
        self._entries: "OrderedDict[str, dict]" = OrderedDict()

    def get(self, request_id: str) -> Optional[dict]:
        return self._entries.get(request_id)

    def put(self, request_id: str, placement: dict) -> None:
        self._entries[request_id] = placement
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, request_id: str) -> bool:
        return request_id in self._entries

    def snapshot(self) -> list:
        return [[rid, doc] for rid, doc in self._entries.items()]

    @classmethod
    def restore(cls, payload: list) -> "DedupWindow":
        window = cls()
        for rid, doc in payload:
            window.put(rid, doc)
        return window


@dataclass
class RecoveryReport:
    """What :func:`recover` found and did."""

    directory: str
    checkpoint_path: Optional[str] = None
    checkpoint_seq: int = 0
    skipped_checkpoints: list[str] = field(default_factory=list)
    #: checkpoints that parsed as JSON but failed the full restore
    #: (structurally corrupt) — recovery fell back past each of these
    #: to the next-newest generation
    fallback_checkpoints: list[str] = field(default_factory=list)
    replayed: int = 0
    replay_errors: int = 0
    torn_bytes: int = 0
    dedup_entries: int = 0
    last_seq: int = 0

    def render(self) -> str:
        lines = [f"recovery from {self.directory}:"]
        if self.checkpoint_path:
            lines.append(
                f"  checkpoint {os.path.basename(self.checkpoint_path)} "
                f"(wal_seq {self.checkpoint_seq})"
            )
        else:
            lines.append("  no checkpoint found — cold replay from the log start")
        for path in self.skipped_checkpoints:
            lines.append(f"  skipped unreadable checkpoint {os.path.basename(path)}")
        for path in self.fallback_checkpoints:
            lines.append(
                f"  fell back past corrupt checkpoint {os.path.basename(path)}"
            )
        lines.append(
            f"  replayed {self.replayed} WAL records"
            + (f" ({self.replay_errors} replay-rejected)" if self.replay_errors else "")
        )
        if self.torn_bytes:
            lines.append(f"  discarded {self.torn_bytes} torn tail bytes")
        lines.append(
            f"  log resumes at seq {self.last_seq + 1}; "
            f"{self.dedup_entries} idempotency entries live"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "directory": self.directory,
            "checkpoint": self.checkpoint_path,
            "checkpoint_seq": self.checkpoint_seq,
            "skipped_checkpoints": self.skipped_checkpoints,
            "fallback_checkpoints": self.fallback_checkpoints,
            "replayed": self.replayed,
            "replay_errors": self.replay_errors,
            "torn_bytes": self.torn_bytes,
            "dedup_entries": self.dedup_entries,
            "last_seq": self.last_seq,
        }


class DurableEngine:
    """A :class:`StreamingEngine` with a write-ahead log in front of it.

    Duck-types the engine's push API (everything else delegates through
    ``__getattr__``), so :class:`~repro.service.server.AllocationService`
    serves either transparently.  The WAL record formats are internal to
    this module — ``{"op": "submit", "job": [...], "sd": ..., "rid": ...}``,
    ``{"op": "depart", "id": ..., "now": ...}``, ``{"op": "advance",
    "now": ...}``, ``{"op": "drain"}``, ``{"op": "defrag", "budget": ...}``
    — kept one-line-JSON small because the log is on the request path.
    """

    def __init__(
        self,
        engine: StreamingEngine,
        wal: WriteAheadLog,
        *,
        checkpoint_every: int = 1000,
        checkpoint_bytes: Optional[int] = None,
        auto_checkpoint: bool = True,
        dedup: Optional[DedupWindow] = None,
        injector: Optional[FaultInjector] = None,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.engine = engine
        self.wal = wal
        self.directory = wal.directory
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_bytes = checkpoint_bytes
        self.auto_checkpoint = auto_checkpoint
        self.dedup = dedup if dedup is not None else DedupWindow()
        self.injector = injector
        if injector is not None:
            engine._stepper.fault_hook = injector.point
            if wal.io_hook is None:
                wal.io_hook = injector
        self._scalar = isinstance(engine.state, PackingState)
        self._since_checkpoint = 0
        self._bytes_at_checkpoint = wal.bytes_written
        # deltas already mirrored into the metrics registry
        self._seen_records = 0
        self._seen_fsyncs = 0
        self._seen_bytes = 0
        # the registry is fixed for the engine's lifetime, so the counter
        # objects are resolved once here instead of per append
        self._counters: dict[str, Any] = {}
        if engine.metrics is not None:
            declare_durable_metrics(engine.metrics)
            for name, _ in _DURABLE_COUNTERS:
                self._counters[name] = engine.metrics.get(name)

    def __getattr__(self, name):
        try:
            engine = self.__dict__["engine"]
        except KeyError:
            raise AttributeError(name) from None
        return getattr(engine, name)

    # -- the durable push API -------------------------------------------------
    def submit(
        self, item, *, request_id: Optional[str] = None,
        schedule_departure: bool = True,
    ) -> Placement:
        if request_id is not None:
            cached = self.dedup.get(request_id)
            if cached is not None:
                self._count("repro_service_duplicate_requests_total")
                return Placement.from_dict(cached)
        return self._commit(
            self.wal.append,
            self._submit_body(item, request_id, schedule_departure),
            self._apply_submit,
            ((item, request_id, schedule_departure),),
        )[0]

    def submit_many(
        self, requests: "list[tuple[Any, Optional[str]]]"
    ) -> list:
        """Submit a batch of jobs through **one** WAL group-commit window.

        ``requests`` is ``[(item, request_id), ...]`` (ids may be
        ``None``).  Returns one outcome per request, in order:
        ``("placed", Placement)``, ``("cached", placement_dict)`` for a
        request id already in the idempotency window, or
        ``("refused", exception)`` — an engine refusal (``ValueError`` /
        ``KeyError``) or, for the whole batch at once, a WAL ``OSError``.

        The durability contract is unchanged: every record is appended
        before any of the batch is applied, replay refuses the same ops
        recovery-side, and the dedup window absorbs retries.  Two
        differences from a per-op loop, both invisible to a client:
        the WAL fsync policy is consulted once per batch (the group
        commit), and the auto-checkpoint check runs after the batch
        instead of between its ops.  A request id repeated *within* one
        batch is logged and applied once, at its first copy; every
        later copy gets the first copy's outcome, a placement answered
        as ``cached`` (what the per-op path answers from the window) or
        the same refusal.
        """
        outcomes: list = [None] * len(requests)
        fresh: list[int] = []
        bodies: list = []
        calls: list = []
        first_copy: dict[str, int] = {}  # request id -> its index in ``fresh``
        repeats: list[tuple[int, int]] = []
        for i, (item, rid) in enumerate(requests):
            if rid is not None:
                cached = self.dedup.get(rid)
                if cached is not None:
                    self._count("repro_service_duplicate_requests_total")
                    outcomes[i] = ("cached", cached)
                    continue
                if rid in first_copy:
                    repeats.append((i, first_copy[rid]))
                    continue
                first_copy[rid] = len(fresh)
            fresh.append(i)
            bodies.append(self._submit_body(item, rid, True))
            calls.append((item, rid, True))
        if not fresh:
            return outcomes
        try:
            results = self._commit(
                self.wal.append_many, bodies, self._apply_submit, calls,
                (ValueError, KeyError),
            )
        except OSError as exc:
            results = [exc] * len(fresh)
        for i, result in zip(fresh, results):
            refused = isinstance(result, Exception)
            outcomes[i] = ("refused" if refused else "placed", result)
        for i, j in repeats:
            kind, value = outcomes[fresh[j]]
            if kind == "placed":
                self._count("repro_service_duplicate_requests_total")
                outcomes[i] = ("cached", value.to_dict())
            else:
                outcomes[i] = (kind, value)
        return outcomes

    def depart(self, item_id: int, now: Optional[float] = None) -> None:
        payload: dict[str, Any] = {"op": "depart", "id": int(item_id)}
        if now is not None:
            payload["now"] = float(now)
        self._commit(self.wal.append, payload, self.engine.depart, ((item_id, now),))

    def advance(self, now: float) -> int:
        return self._commit(
            self.wal.append, {"op": "advance", "now": float(now)},
            self.engine.advance, ((now,),),
        )[0]

    def defrag(self, budget: int) -> int:
        """One durable defragmenter pass: append-before-move.

        The record stores only the *budget*; replay re-plans against the
        engine state at that WAL position, which is byte-identical to
        the state the live pass planned against, so the same moves come
        out (the planner is deterministic and index-free).  A pass whose
        plan is empty is a complete no-op — no record, no counter — so
        an idle defragmenter loop cannot grow the log or perturb
        recovery.
        """
        budget = int(budget)
        if not self.engine.plan_defrag(budget):
            return 0
        return self._commit(
            self.wal.append, {"op": "defrag", "budget": budget},
            self.engine.defrag, ((budget,),),
        )[0]

    def finish(self):
        """Log the drain, drain, and cut a final (empty-fleet) checkpoint.

        With ``auto_checkpoint`` off the caller owns checkpoint timing,
        so only the drain record is logged — replay re-drains.
        """
        result = self._commit(
            self.wal.append, {"op": "drain"}, self.engine.finish, ((),)
        )[0]
        # the commit's own checkpoint check may already have cut it
        if self.auto_checkpoint and self._since_checkpoint:
            self.checkpoint_now()
        return result

    def stats(self) -> dict:
        out = self.engine.stats()
        out["wal"] = {
            "last_seq": self.wal.last_seq,
            "records_written": self.wal.records_written,
            "fsyncs": self.wal.fsyncs,
            "bytes_written": self.wal.bytes_written,
            "fsync_mode": self.wal.fsync,
            "since_checkpoint": self._since_checkpoint,
            "dedup_entries": len(self.dedup),
        }
        return out

    def close(self) -> None:
        self.wal.close()

    # -- checkpointing --------------------------------------------------------
    def checkpoint_now(self) -> str:
        """Cut a checkpoint: fsync barrier, atomic write, prune the log."""
        if self.injector is not None:
            self.injector.point("checkpoint")
        self.wal.sync()
        doc = {
            "version": SNAPSHOT_VERSION,
            "wal_seq": self.wal.last_seq,
            "dedup": self.dedup.snapshot(),
            "engine": snapshot_engine(self.engine),
        }
        path = os.path.join(
            self.directory,
            f"{CHECKPOINT_PREFIX}{self.wal.last_seq:010d}{CHECKPOINT_SUFFIX}",
        )
        write_checkpoint(path, doc)
        self.wal.prune(self.wal.last_seq)
        self._retire_checkpoints(keep=3)
        self._since_checkpoint = 0
        self._bytes_at_checkpoint = self.wal.bytes_written
        self._count("repro_service_checkpoints_total")
        self._mirror_wal_metrics()
        return path

    def _retire_checkpoints(self, keep: int) -> None:
        """Delete all but the newest ``keep`` checkpoint files.

        A couple of older generations are kept as a hedge against a
        latent defect in the newest file; everything older is covered
        by it and only wastes disk.
        """
        for path in checkpoint_files(self.directory)[:-keep]:
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    # -- internals ------------------------------------------------------------
    def _submit_body(self, item, request_id, schedule_departure) -> "str | dict":
        """The submit record, pre-serialized when the types allow it.

        The WAL sits on the request path, so the common case — int job
        id, float coordinates — is formatted directly (``repr`` of a
        finite float is exact, round-trippable JSON).  Anything unusual
        falls back to ``json.dumps`` of the dict form.
        """
        iid = item.item_id
        arrival, departure = item.arrival, item.departure
        if (
            type(iid) is int
            and type(arrival) is float
            and type(departure) is float
            and isfinite(arrival)
            and isfinite(departure)
        ):
            if self._scalar:
                size = item.size
                if type(size) is float and isfinite(size):
                    sizes = repr(size)
                else:
                    return self._submit_payload(item, request_id, schedule_departure)
            else:
                sizes_t = item.sizes
                if all(type(s) is float and isfinite(s) for s in sizes_t):
                    sizes = "[" + ",".join(map(repr, sizes_t)) + "]"
                else:
                    return self._submit_payload(item, request_id, schedule_departure)
            rid = "" if request_id is None else f',"rid":{json.dumps(request_id)}'
            sd = "true" if schedule_departure else "false"
            return (
                f'{{"job":[{iid},{sizes},{arrival!r},{departure!r}]'
                f',"op":"submit"{rid},"sd":{sd}}}'
            )
        return self._submit_payload(item, request_id, schedule_departure)

    def _submit_payload(self, item, request_id, schedule_departure) -> dict:
        payload: dict[str, Any] = {
            "op": "submit",
            "job": _item_record(item, self._scalar),
            "sd": bool(schedule_departure),
        }
        if request_id is not None:
            payload["rid"] = request_id
        return payload

    def _apply_submit(self, item, request_id, schedule_departure) -> Placement:
        placement = self.engine.submit(item, schedule_departure=schedule_departure)
        if request_id is not None:
            self.dedup.put(request_id, placement.to_dict())
        return placement

    def _commit(self, append, logged, apply, calls, refusals=()) -> list:
        """The one log-then-apply body behind every durable operation.

        ``append(logged)`` writes the operations' records in one WAL
        write: ``wal.append`` for a single op, ``wal.append_many`` for
        a batch.  Then ``apply(*args)`` runs for each entry of
        ``calls``, between the ``wal.appended`` and ``applied`` kill
        points, and the auto-checkpoint check runs once at the end.
        Returns one result per call; an exception listed in
        ``refusals`` becomes that call's result, so a batch refuses the
        op and goes on.  A single op lists none: an engine refusal
        propagates to its caller and skips the checkpoint check.
        """
        try:
            append(logged)
        except OSError:
            # an I/O fault refuses the *operation*, not the service: the
            # engine was never touched, the client sees a clean error
            self._count("repro_service_wal_errors_total")
            self._mirror_wal_metrics()
            raise
        self._since_checkpoint += len(calls)
        if self._counters:
            self._mirror_wal_metrics()
        injector = self.injector
        results = []
        for args in calls:
            if injector is not None:
                injector.point("wal.appended")
            try:
                result = apply(*args)
            except refusals as exc:
                results.append(exc)
                continue
            if injector is not None:
                injector.point("applied")
            results.append(result)
        if self.auto_checkpoint and (
            self._since_checkpoint >= self.checkpoint_every
            or (
                self.checkpoint_bytes is not None
                and self.wal.bytes_written - self._bytes_at_checkpoint
                >= self.checkpoint_bytes
            )
        ):
            self.checkpoint_now()
        return results

    def _count(self, name: str, amount: float = 1.0) -> None:
        counter = self._counters.get(name)
        if counter is not None:
            counter.inc(amount)

    def _mirror_wal_metrics(self) -> None:
        counters = self._counters
        if not counters:
            return
        wal = self.wal
        delta = wal.records_written - self._seen_records
        if delta:
            counters["repro_service_wal_records_total"].inc(delta)
            self._seen_records = wal.records_written
        delta = wal.fsyncs - self._seen_fsyncs
        if delta:
            counters["repro_service_wal_fsyncs_total"].inc(delta)
            self._seen_fsyncs = wal.fsyncs
        delta = wal.bytes_written - self._seen_bytes
        if delta:
            counters["repro_service_wal_bytes_total"].inc(delta)
            self._seen_bytes = wal.bytes_written


# -- recovery -----------------------------------------------------------------
def _replay_record(engine: StreamingEngine, rec: WalRecord, scalar: bool):
    """Apply one logged operation; returns the placement for submits."""
    payload = rec.payload
    op = payload.get("op")
    if op == "submit":
        item = _make_item(payload["job"], scalar)
        return engine.submit(
            item, schedule_departure=bool(payload.get("sd", True))
        )
    if op == "depart":
        engine.depart(int(payload["id"]), payload.get("now"))
        return None
    if op == "advance":
        engine.advance(float(payload["now"]))
        return None
    if op == "drain":
        engine.finish()
        return None
    if op == "defrag":
        engine.defrag(int(payload["budget"]))
        return None
    raise ValueError(f"unknown WAL op {op!r} at seq {rec.seq}")


def _restore_newest(
    directory: str, report: RecoveryReport, admission, metrics, decision_log
) -> tuple[Optional[StreamingEngine], Optional[DedupWindow]]:
    """Restore the newest loadable checkpoint; ``(None, None)`` if none is.

    Records what it restored, skipped and fell back past on ``report``.
    Its parsed document is garbage once this returns, before
    :func:`recover` reads the log.

    The generations are walked newest-first, attempting a FULL restore
    of each: a checkpoint that parses as JSON but is structurally
    corrupt (missing fields, mangled engine section) must not kill
    recovery while an older intact generation — kept exactly for this
    case by ``_retire_checkpoints`` — can serve, with the gap replayed
    from the WAL.
    """
    engine = None
    dedup: Optional[DedupWindow] = None
    skipped: list[str] = []
    reg = metrics
    dirty = False  # a failed restore may have half-populated ``reg``
    for path in reversed(checkpoint_files(directory)):
        try:
            doc = read_checkpoint(path)
        except ValueError as exc:
            if "newer than this code" in str(exc):
                raise
            skipped.append(path)
            continue
        except OSError:
            skipped.append(path)
            continue
        if dirty:
            reg = MetricsRegistry() if metrics is not None else None
            if reg is not None:
                declare_durable_metrics(reg)
        try:
            checkpoint_seq = int(doc["wal_seq"])
            engine_doc = doc["engine"]
            if engine_doc["kind"] == "scalar":
                from ..algorithms import make_algorithm as factory
            else:
                from ..multidim import make_vector_algorithm as factory
            engine = restore_engine(
                engine_doc,
                factory(engine_doc["algorithm"]),
                admission=admission,
                metrics=reg,
                decision_log=decision_log,
            )
            dedup = DedupWindow.restore(doc.get("dedup", []))
        except (ValueError, KeyError, TypeError):
            report.fallback_checkpoints.append(path)
            engine = None
            dirty = True
            continue
        report.checkpoint_path = path
        report.checkpoint_seq = checkpoint_seq
        break
    report.skipped_checkpoints = skipped
    return engine, dedup


def recover(
    directory: str,
    *,
    engine_builder: Optional[Callable[[], StreamingEngine]] = None,
    admission=None,
    metrics: Optional[MetricsRegistry] = None,
    decision_log=None,
    fsync: str = "interval",
    fsync_every: int = 512,
    segment_bytes: Optional[int] = None,
    checkpoint_every: int = 1000,
    checkpoint_bytes: Optional[int] = None,
    injector: Optional[FaultInjector] = None,
    manifest: Optional[dict] = None,
) -> tuple[DurableEngine, RecoveryReport]:
    """Rebuild a live durable engine from ``directory``.

    The standard restart path — ``repro serve --wal-dir`` calls this on
    boot, ``repro recover`` calls it for offline inspection.  Sequence:
    restore the newest loadable checkpoint, open the WAL (which decodes
    every record once, keeps only those past the checkpoint's
    ``wal_seq`` and truncates a torn tail, so recovery holds the tail it
    replays and never the whole segment), replay those records through
    the real engine code paths, rebuild the idempotency window,
    continue the log past the checkpoint
    (:meth:`~repro.service.wal.WriteAheadLog.resume_after`), and hand
    back a :class:`DurableEngine` ready to serve.

    The checkpoint's policy comes from the scalar or vector registry,
    by snapshot kind.  ``engine_builder()`` supplies the *fresh* engine
    when no checkpoint exists (a cold start or a crash before the first
    one); without it an empty directory is an error.

    ``manifest`` binds the directory to a shard identity: on a fresh
    directory it is written as the MANIFEST file; on an existing one it
    must match the recorded MANIFEST field for field, or recovery
    refuses with :class:`ValueError` **before** touching the log —
    silently replaying another shard's WAL into the wrong engine is the
    one mistake this layer must never make.  ``None`` (the default)
    keeps the pre-fleet behaviour: no manifest is written or checked.
    """
    from .wal import DEFAULT_SEGMENT_BYTES, read_manifest, write_manifest

    if manifest is not None:
        recorded = read_manifest(directory)
        if recorded is None:
            write_manifest(directory, manifest)
        elif recorded != manifest:
            diffs = sorted(
                key
                for key in set(recorded) | set(manifest)
                if recorded.get(key) != manifest.get(key)
            )
            detail = ", ".join(
                f"{key}: recorded {recorded.get(key)!r} != given {manifest.get(key)!r}"
                for key in diffs
            )
            raise ValueError(
                f"WAL directory {directory} belongs to a different shard/config "
                f"({detail}) — refusing to replay it; pick the matching "
                f"--shard-id/--num-shards/engine flags or a fresh --wal-dir"
            )

    report = RecoveryReport(directory=directory)
    if metrics is not None:
        declare_durable_metrics(metrics)

    engine, dedup = _restore_newest(
        directory, report, admission, metrics, decision_log
    )

    if engine is None:
        if engine_builder is None:
            raise ValueError(
                f"no checkpoint in {directory} and no engine_builder given — "
                f"cannot cold-start the replay"
            )
        engine = engine_builder()
        dedup = DedupWindow()

    # opening the log decodes every record once and keeps only those
    # past the restored checkpoint; it refuses a log ending below it
    wal = WriteAheadLog(
        directory,
        fsync=fsync,
        fsync_every=fsync_every,
        segment_bytes=segment_bytes or DEFAULT_SEGMENT_BYTES,
        io_hook=injector,
        _after_seq=report.checkpoint_seq,
    )
    report.torn_bytes = wal.recovered_torn_bytes
    scalar = isinstance(engine.state, PackingState)
    records = wal.take_records()
    first = records[0].seq if records else wal.last_seq + 1
    if first > report.checkpoint_seq + 1:
        raise WalCorruptionError(
            f"WAL resumes at seq {first} but the newest loadable "
            f"checkpoint covers only through seq {report.checkpoint_seq} — "
            f"records {report.checkpoint_seq + 1}..{first - 1} "
            f"are gone; refusing to recover with acknowledged operations "
            f"missing"
        )
    for rec in records:
        try:
            placement = _replay_record(engine, rec, scalar)
        except (ValueError, KeyError):
            # the operation was refused live (pre-mutation validation is
            # deterministic), so it is refused identically here
            report.replay_errors += 1
            continue
        rid = rec.payload.get("rid")
        if rid is not None and placement is not None:
            dedup.put(rid, placement.to_dict())
    report.replayed = len(records)
    report.dedup_entries = len(dedup)
    wal.resume_after(report.checkpoint_seq)
    report.last_seq = wal.last_seq

    durable = DurableEngine(
        engine,
        wal,
        checkpoint_every=checkpoint_every,
        checkpoint_bytes=checkpoint_bytes,
        dedup=dedup,
        injector=injector,
    )
    reg = engine.metrics
    if reg is not None:
        declare_durable_metrics(reg)
        reg.get("repro_service_recoveries_total").inc()
        if report.replayed:
            reg.get("repro_service_wal_replayed_total").inc(report.replayed)
    return durable, report
