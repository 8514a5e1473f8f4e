"""The allocation service's network face: a JSON-lines protocol over TCP.

``repro serve`` binds a :class:`~repro.service.engine.StreamingEngine`
(optionally wrapped in a :class:`~repro.service.recovery.DurableEngine`
for WAL durability) to a socket.  One request per line, one JSON
response per line — the simplest protocol that a load generator, a
sidecar, or ``nc`` can speak.  All engine operations run on the event
loop thread, so concurrent connections are serialised naturally; the
engine itself never needs a lock.

Everything up to a parsed request lives in the base class
:class:`~repro.service.frontdoor.FrontDoor`, which the fleet's
:class:`~repro.service.router.ShardRouter` subclasses too: the read
loops, request parsing, ``hello``, deadlines, the reply writer and the
error taxonomy, with its hardening contract.  :class:`AllocationService`
answers a parsed JSON request (``_answer_json``) and a binary frame
(``_answer_frame``) from its engine.

Operations
----------
``{"op": "submit", "job": {"id", "size" | "sizes", "arrival", "departure"},
   "request_id": ...}``
    Place a job (through admission control).  Response carries the
    placement: action, bin, whether a new server was opened.  The job
    id must be a JSON integer.  With a client-supplied ``request_id``
    the submit is idempotent: a retry of an acknowledged id returns the
    cached placement flagged ``"duplicate": true`` (exactly-once under
    the load generator's retry policy), on every kind of engine.
``{"op": "depart", "id": ..., "now": ...}``
    Explicit departure (``now`` optional — defaults to the job's
    recorded departure time; when given it must be a finite number).
``{"op": "advance", "now": ...}``
    Move the service clock, applying scheduled departures.
``{"op": "drain"}``
    Apply *all* scheduled departures (end of stream) and report the
    final packing summary.
``{"op": "stats"}`` / ``{"op": "metrics"}``
    Engine status dict / Prometheus text exposition.
``{"op": "checkpoint", "path": ...}``
    Snapshot the engine atomically; inline in the response, or to
    ``path``.  On a durable engine this cuts a real WAL checkpoint.
``{"op": "ping"}`` / ``{"op": "shutdown"}``
    Liveness / stop the server (used by tests and ``repro loadgen
    --shutdown``).
``{"op": "health"}``
    Cheap liveness-plus-progress probe for the fleet supervisor: engine
    clock, admission queue depth, WAL seq and records since the last
    checkpoint (durable engines), requests served.  Unlike ``ping`` it
    reads real engine state, so a wedged event loop or a hung handler
    cannot answer it — which is exactly what makes it a hang detector.
``{"op": "hello", "protocol": "json" | "binary", "version": 2}``
    Protocol negotiation.  Acknowledging a ``"binary"`` hello switches
    the connection to the length-prefixed binary framing of
    :mod:`repro.service.protocol` — same op set, same error taxonomy,
    ~10x the throughput once the client batches and pipelines.  The ack
    carries ``min(client, server)`` — the newest dialect both ends
    speak — so old peers interoperate.  The JSON-lines protocol stays
    the debug/compat surface; the two are differential-tested
    bit-identical (``tests/service/test_protocol_differential.py``).

Deadlines: any request (JSON field ``deadline_ms``, or the binary
``0x05`` DEADLINE wrapper) may carry its remaining deadline budget in
milliseconds.  A request whose budget is already spent is refused with
``error_type: deadline_exceeded`` *without touching the engine* — the
client has stopped waiting, so applying the operation would place a job
nobody acknowledges.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Optional

from ..algorithms import ALGORITHM_REGISTRY, make_algorithm
from ..core.items import Item
from ..core.state import PackingState
from ..multidim.items import VectorItem
from . import protocol as wire
from .admission import AdmissionPolicy
from .engine import StreamingEngine
from .faults import FaultInjector, KillPoint
from .frontdoor import (
    _DEADLINE_EXCEEDED,
    _DISCONNECTS,
    _INTERNAL_ERRORS,
    _MALFORMED,
    _PROTOCOL_ERRORS,
    _TIMEOUTS,
    DEFAULT_MAX_LINE_BYTES,
    FrontDoor,
    ProtocolError,
    _finite,
    _job_id,
)
from .metrics import DEFAULT_LATENCY_BUCKETS, DecisionLog, MetricsRegistry
from .recovery import DedupWindow, DurableEngine
from .shard import ShardSpec
from .snapshot import snapshot_engine, write_checkpoint

__all__ = ["AllocationService", "ProtocolError", "build_engine", "serve"]


def build_engine(
    algorithm: str = "first-fit",
    capacity: float = 1.0,
    indexed: bool = True,
    admission: Optional[AdmissionPolicy] = None,
    with_metrics: bool = True,
    decision_log: Optional[DecisionLog] = None,
) -> StreamingEngine:
    """The standard scalar service engine (metrics on by default)."""
    if algorithm not in ALGORITHM_REGISTRY:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; known: {sorted(ALGORITHM_REGISTRY)}"
        )
    return StreamingEngine.scalar(
        make_algorithm(algorithm),
        capacity=capacity,
        indexed=indexed,
        admission=admission,
        metrics=MetricsRegistry() if with_metrics else None,
        decision_log=decision_log,
    )


class AllocationService(FrontDoor):
    """One engine behind the front door."""

    def __init__(
        self,
        engine: StreamingEngine | DurableEngine,
        quiet: bool = True,
        *,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        request_timeout: float = 30.0,
        idle_timeout: Optional[float] = None,
        injector: Optional[FaultInjector] = None,
        shard: Optional["ShardSpec"] = None,
        defrag_budget: int = 0,
        defrag_interval: float = 0.5,
    ):
        super().__init__(
            quiet=quiet,
            max_line_bytes=max_line_bytes,
            request_timeout=request_timeout,
            idle_timeout=idle_timeout,
            injector=injector,
        )
        self.engine = engine
        #: fleet identity; None = standalone service (stats unchanged)
        self.shard = shard
        #: background defragmenter: every ``defrag_interval`` wall-clock
        #: seconds, migrate up to ``defrag_budget`` items (0 = off)
        self.defrag_budget = int(defrag_budget)
        self.defrag_interval = float(defrag_interval)
        self._defrag_task: Optional[asyncio.Task] = None
        self._durable = isinstance(engine, DurableEngine)
        #: the idempotency window: a durable engine owns its own,
        #: rebuilt by recovery
        self._dedup = engine.dedup if self._durable else DedupWindow()
        base = engine.engine if self._durable else engine
        self._scalar = isinstance(base.state, PackingState)
        #: service-owned observables (request latency): kept *out* of the
        #: engine registry on purpose — engine metrics are checkpointed
        #: and differential-compared, and wall-clock latency is neither
        #: replayable nor deterministic
        self.service_metrics = MetricsRegistry()
        self._latency = self.service_metrics.histogram(
            "repro_service_request_latency_seconds",
            "server-side request handling latency, dispatch to reply written",
            DEFAULT_LATENCY_BUCKETS,
        )
        if engine.metrics is not None:
            self._declare_metrics(engine.metrics)

    # -- lifecycle ------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and start serving; returns the actual port (for port 0)."""
        bound = await super().start(host, port)
        if self.defrag_budget > 0:
            self._defrag_task = asyncio.get_running_loop().create_task(
                self._defrag_loop()
            )
        if not self.quiet:
            print(f"repro service listening on {host}:{bound}")
        return bound

    async def _defrag_loop(self) -> None:
        """The background defragmenter: one bounded pass per interval.

        Runs on the connection handlers' event loop, so each pass is
        serialised against request dispatch — the engine never sees a
        migration interleaved inside an event.  An injected
        :class:`KillPoint` (chaos testing kills a pass mid-migration)
        escalates through the same fatal-shutdown path a connection
        handler uses.
        """
        try:
            while True:
                await asyncio.sleep(self.defrag_interval)
                self.engine.defrag(self.defrag_budget)
        except asyncio.CancelledError:
            raise
        except KillPoint as exc:
            self._fatal = exc
            self._shutdown.set()

    async def wait_closed(self) -> None:
        await self._shutdown.wait()
        if self._defrag_task is not None:
            self._defrag_task.cancel()
            try:
                await self._defrag_task
            except asyncio.CancelledError:
                pass
            self._defrag_task = None
        await super().wait_closed()

    # -- JSON requests --------------------------------------------------------
    async def _answer_json(self, request: dict) -> dict:
        return self._dispatch_safely(request)

    def _dispatch_safely(self, request: dict) -> dict:
        """Dispatch one parsed request under the full error taxonomy."""
        try:
            self._budget(request.get("deadline_ms"))
            return self._dispatch(request)
        except Exception as exc:
            return self._error_reply(exc)

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        engine = self.engine
        if op == "submit":
            if "job" not in request:
                raise ProtocolError("submit needs a 'job' object")
            rid = request.get("request_id")
            return self._submit(
                self._job_item(request["job"]), None if rid is None else str(rid)
            )
        if op == "depart":
            if "id" not in request:
                raise ProtocolError("depart needs an 'id'")
            now = request.get("now")
            engine.depart(
                _job_id(request["id"]), None if now is None else _finite(now, "now")
            )
            return {"ok": True, "clock": engine.clock}
        if op == "advance":
            if "now" not in request:
                raise ProtocolError("advance needs a 'now'")
            applied = engine.advance(_finite(request["now"], "now"))
            return {"ok": True, "departed": applied, "clock": engine.clock}
        if op == "drain":
            result = engine.finish()
            return {
                "ok": True,
                "bins": result.num_bins,
                "total_usage_time": result.total_usage_time,
                "algorithm": result.algorithm_name,
            }
        if op == "defrag":
            budget = request.get("budget", self.defrag_budget)
            try:
                budget = int(budget)
            except (TypeError, ValueError):
                raise ProtocolError(
                    f"defrag budget must be an integer, got {budget!r}"
                ) from None
            if budget < 0:
                raise ProtocolError(f"defrag budget must be >= 0, got {budget}")
            moved = engine.defrag(budget)
            return {"ok": True, "moved": moved, "migrations": engine.migrations}
        if op == "stats":
            stats = engine.stats()
            if self.shard is not None:
                stats = dict(stats)
                stats["shard"] = {
                    "id": self.shard.shard_id,
                    "of": self.shard.num_shards,
                }
            return {"ok": True, "stats": stats}
        if op == "metrics":
            if engine.metrics is None:
                return {
                    "ok": False,
                    "error": "service was started without metrics",
                    "error_type": "protocol",
                }
            return {
                "ok": True,
                "text": engine.metrics.expose_text()
                + self.service_metrics.expose_text(),
            }
        if op == "checkpoint":
            if self._durable and not request.get("path"):
                path = engine.checkpoint_now()
                return {"ok": True, "path": path}
            doc = snapshot_engine(engine.engine if self._durable else engine)
            path = request.get("path")
            if path:
                write_checkpoint(str(path), doc)
                return {"ok": True, "path": path}
            return {"ok": True, "snapshot": doc}
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "health":
            health = {
                "clock": engine.clock,
                "queue_depth": getattr(engine, "queue_depth", 0),
                "requests": self.requests_served,
            }
            if self._durable:
                health["wal_seq"] = engine.wal.last_seq
                health["since_checkpoint"] = engine._since_checkpoint
            if self.shard is not None:
                health["shard"] = self.shard.shard_id
            return {"ok": True, "health": health}
        if op == "shutdown":
            return {"ok": True, "bye": True}
        if op == "hello":
            return self._hello(request)
        raise ProtocolError(f"unknown op {op!r}")

    # -- submits --------------------------------------------------------------
    def _job_item(self, job):
        """A JSON ``job`` object as an item (see :meth:`_build_item`)."""
        if not isinstance(job, dict):
            raise ProtocolError(f"'job' must be an object, got {type(job).__name__}")
        size_field = "size" if self._scalar else "sizes"
        missing = [k for k in ("id", size_field, "arrival", "departure") if k not in job]
        if missing:
            raise ProtocolError(f"job record is missing field {missing[0]!r}")
        return self._build_item(
            job["id"], job[size_field], job["arrival"], job["departure"],
            not self._scalar,
        )

    def _build_item(self, item_id, size, arrival, departure, vector: bool):
        """The one validator: a job's decoded fields, from either protocol, as an item.

        Refuses (as ``protocol`` errors) an id that is not an integer,
        a non-finite or non-numeric time or size, a departure not after
        the arrival, a non-positive size and an item of the wrong kind
        for the engine.  An injected clock skew moves the arrival of
        the validated item.
        """
        if vector == self._scalar:
            kind = "vector" if vector else "scalar"
            want = "scalar" if self._scalar else "vector"
            raise ProtocolError(f"{kind} submit against a {want} engine")
        item_id = _job_id(item_id)
        arrival = _finite(arrival, "arrival")
        departure = _finite(departure, "departure")
        if departure <= arrival:
            raise ProtocolError(
                f"job departure ({departure}) must be after arrival ({arrival})"
            )
        if vector:
            if not isinstance(size, (list, tuple)) or not size:
                raise ProtocolError(
                    f"job field 'sizes' must be a non-empty array, got {size!r}"
                )
            sizes = tuple(_finite(s, "sizes") for s in size)
            try:
                item = VectorItem(item_id, sizes, arrival, departure)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from None
        else:
            size = _finite(size, "size")
            if size <= 0:
                raise ProtocolError(f"job size must be positive, got {size}")
            item = Item(item_id, size, arrival, departure)
        injector = self.injector
        if injector is not None and injector.plan.clock_skew:
            item = replace(item, arrival=injector.skew(item.arrival))
        return item

    def _decode_submit(self, sub):
        """One SUBMIT payload as ``(item, request id or None)``."""
        item_id, size, arrival, departure, vector, rid = wire.decode_submit(sub)
        return self._build_item(item_id, size, arrival, departure, vector), rid

    def _submit(self, item, rid: Optional[str]) -> dict:
        """The one submit body: idempotency window, then the engine.

        A request id already in the window is answered with its cached
        placement, flagged ``duplicate``, on every kind of engine.
        """
        if rid is not None:
            cached = self._dedup.get(rid)
            if cached is not None:
                self._count("repro_service_duplicate_requests_total")
                return {"ok": True, "placement": cached, "duplicate": True}
        if self._durable:
            placement = self.engine.submit(item, request_id=rid)
        else:
            placement = self.engine.submit(item)
            if rid is not None:
                self._dedup.put(rid, placement.to_dict())
        return {"ok": True, "placement": placement.to_dict()}

    # -- binary frames --------------------------------------------------------
    async def _answer_frame(self, payload) -> tuple[bytes, bool]:
        return self._dispatch_frame(payload)

    def _dispatch_frame(self, payload) -> tuple[bytes, bool]:
        """One frame payload -> ``(response payload, shutdown?)``."""
        try:
            payload, _ = self._unwrap(payload)
            subs = wire.split_batch(payload) if payload[0] == wire.OP_BATCH else None
        except (wire.FrameError, ProtocolError) as exc:
            self.requests_served += 1
            return wire.encode_json_response(self._error_reply(exc)), False
        if subs is None:
            self.requests_served += 1
            return self._answer_sub(payload)
        self.requests_served += len(subs)
        if self._durable and all(sub[0] == wire.OP_SUBMIT for sub in subs):
            return self._submit_many(subs), False
        parts: list[bytes] = []
        bye = False
        for sub in subs:
            out, sub_bye = self._answer_sub(sub)
            bye = bye or sub_bye
            parts.append(out)
        return wire.encode_batch(parts), bye

    def _answer_sub(self, sub) -> tuple[bytes, bool]:
        """One non-batch sub-request (top-level or inside a batch)."""
        try:
            if sub[0] == wire.OP_SUBMIT:
                response = self._submit(*self._decode_submit(sub))
            else:
                response = self._dispatch_safely(self._frame_request(sub))
        except Exception as exc:
            response = self._error_reply(exc)
        return self._encode_reply(response), bool(response.get("bye"))

    def _submit_many(self, subs) -> bytes:
        """An all-submit batch on a durable engine: decode everything, then
        one :meth:`~repro.service.recovery.DurableEngine.submit_many` —
        one WAL group-commit window (one fsync under ``fsync="always"``)
        instead of one per job.  Its ``cached`` outcome is a replay,
        flagged like the single-submit path flags one.
        """
        replies: list = [None] * len(subs)
        requests: list = []
        indices: list[int] = []
        for i, sub in enumerate(subs):
            try:
                requests.append(self._decode_submit(sub))
            except Exception as exc:
                replies[i] = self._error_reply(exc)
            else:
                indices.append(i)
        if requests:
            for i, (kind, value) in zip(indices, self.engine.submit_many(requests)):
                if kind == "placed":
                    replies[i] = {"ok": True, "placement": value.to_dict()}
                elif kind == "cached":
                    replies[i] = {"ok": True, "placement": value, "duplicate": True}
                else:
                    replies[i] = self._error_reply(value)
        return wire.encode_batch([self._encode_reply(r) for r in replies])

    # -- metrics plumbing -----------------------------------------------------
    def _declare_metrics(self, reg: MetricsRegistry) -> None:
        for name, help_text in (
            (_MALFORMED, "requests that were not valid JSON"),
            (_PROTOCOL_ERRORS, "structurally invalid or refused requests"),
            (_INTERNAL_ERRORS, "requests that hit an unexpected server error"),
            (_DISCONNECTS, "client connections lost mid-request"),
            (_TIMEOUTS, "connections reaped by the idle timeout"),
            ("repro_service_dropped_replies_total",
             "replies dropped by fault injection"),
            ("repro_service_duplicate_requests_total",
             "submits answered from the idempotency window"),
            (_DEADLINE_EXCEEDED,
             "requests refused because their deadline budget was spent"),
        ):
            if name not in reg:
                reg.counter(name, help_text)

    def _count(self, name: str) -> None:
        metrics = self.engine.metrics
        if metrics is not None and name in metrics:
            metrics.get(name).inc()


async def serve(
    engine: StreamingEngine | DurableEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = False,
    port_file: Optional[str] = None,
    **service_kwargs,
) -> int:
    """Run the service until a ``shutdown`` op arrives.

    ``port_file`` (when given) receives the bound port as text — how
    tests and scripts discover a ``--port 0`` ephemeral binding.  Extra
    keyword arguments reach :class:`AllocationService` (timeouts, line
    limits, fault injector).
    """
    service = AllocationService(engine, quiet=quiet, **service_kwargs)
    bound = await service.start(host, port)
    if port_file:
        with open(port_file, "w") as f:
            f.write(str(bound))
    await service.wait_closed()
    if not quiet:
        print(
            f"service stopped after {service.requests_served} requests; "
            f"{engine.state.num_bins_used} servers used"
        )
    return 0
