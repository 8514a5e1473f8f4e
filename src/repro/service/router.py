"""The fleet's front door: consistent-hash routing onto N shard workers.

One asyncio process accepts client connections on the same two wire
protocols the single-process service speaks (JSON lines and the
length-prefixed binary framing of :mod:`repro.service.protocol`) and
fans each operation out to the worker that owns its key:

- ``submit`` / ``depart`` route by the job id's session key — with
  ``tenants=M`` the key is ``id % M`` (every session of a tenant lands
  on the same shard), otherwise the raw id.  The key → shard map is a
  consistent-hash ring (:class:`HashRing`, CRC-32 points so the mapping
  is identical in every process), which keeps most keys in place when
  the fleet is resized.
- ``advance`` / ``drain`` / ``stats`` / ``metrics`` / ``checkpoint`` /
  ``defrag`` / ``shutdown`` broadcast to every shard and aggregate:
  departures and migration counters sum, clocks max, metrics are
  re-exposed under a ``shard`` label
  (:func:`repro.service.metrics.relabel_exposition`).
- batch frames are split per shard (order within each shard preserved —
  the per-key subsequence a shard sees is exactly the subsequence of
  the global stream, which is what makes the differential test's
  fleet ≡ standalone-shard equivalence hold) and the sub-responses are
  reassembled in the client's order.  With a single backend, binary
  frames are relayed verbatim — the 1-shard router overhead is one
  socket hop, pinned ≤15% by the ``router-loopback`` bench cells.

:class:`ShardRouter` subclasses the service's
:class:`~repro.service.frontdoor.FrontDoor`, so everything up to a parsed
request is the single-process service's own code: the JSON-lines and
frame loops, request parsing, the binary sub-request decoder, ``hello``,
deadline budgets, the binary response encoder and the error taxonomy.
The router supplies only what answers a parsed JSON request (route or
broadcast it) and what answers a binary frame (relay it, split it, or
decode it to JSON), which is why a malformed frame, a spent budget or a
bad ``hello`` gets the same reply from the router as from a worker
(pinned by ``tests/service/test_front_door.py``).

Each backend is one persistent pipelined binary connection
(:class:`BackendLink`): requests enqueue onto an unacknowledged window
and complete FIFO.  When a worker dies the link keeps the window, waits
for the supervisor to restart the worker (``redirect``), then resends
it — with request ids the recovered worker's dedup window absorbs the
replays, so a mid-stream crash loses no acknowledged operation
(at-least-once delivery + idempotent submits = exactly-once).  Live
handoff (drain → checkpoint → restore elsewhere) uses ``pause`` /
``control`` / ``redirect`` / ``resume`` on the same machinery.

Resilience layer
----------------
Every forward to a worker goes through one chokepoint
(``_call_shard``) that enforces three policies:

- **deadlines** — a request carrying a deadline budget (JSON
  ``deadline_ms``, or the v2 binary DEADLINE wrapper) is bounded by
  ``min(request_timeout, remaining budget)`` per hop; an expired
  budget is refused *before* forwarding, and a hop that outlives it is
  answered ``error_type: deadline_exceeded``.  The remaining budget is
  re-wrapped toward the worker (when the backend negotiated protocol
  v2), so the worker can refuse work nobody is waiting for.
- **per-shard circuit breakers** — a windowed failure-rate breaker
  (:class:`CircuitBreaker`) per backend.  Open shards answer
  immediately (``degraded="failfast"``, the default: a
  ``shard_unavailable`` error flagged ``"breaker": "open"``) or park
  the caller until the breaker closes (``degraded="queue"``, bounded
  by the deadline/request timeout).  The control lane
  (:meth:`ShardRouter.shard_control` — handoffs, health probes)
  bypasses the breaker like it bypasses the pause gate.
- **fault injection** — with a :class:`~repro.service.faults.LinkFaults`
  stream attached (link name ``backend-<i>``), connects and sends
  consult the seeded plan: injected drops/truncations sever the
  connection (never silently skip a frame — that would desync the FIFO
  window), so they exercise exactly the reconnect + resend + dedup
  path a real flaky network does; partitions refuse connects for a
  hit-window, then heal.

Breaker state, transitions, rejections, probe failures, and deadline
overruns are all exported per shard in the router's own metrics
exposition.
"""

from __future__ import annotations

import asyncio
import json
import random
import struct
import zlib
from bisect import bisect_right
from collections import deque
from time import monotonic
from typing import Awaitable, Callable, Optional, Sequence

from . import protocol as wire
from .faults import FaultInjector, LinkFaults
from .metrics import merge_expositions, relabel_exposition
from .frontdoor import DEFAULT_MAX_LINE_BYTES, FrontDoor, ProtocolError

__all__ = [
    "BackendLink",
    "BreakerOpenError",
    "CircuitBreaker",
    "DeadlineExceededError",
    "HashRing",
    "ShardRouter",
    "partition_items",
    "route_key",
]

_SUB_ID = struct.Struct(">q")  # item id at bytes 2:10 of SUBMIT/DEPART

#: vnodes per backend — enough that a 2..16-shard ring is well mixed
DEFAULT_REPLICAS = 64


def route_key(item_id: int, tenants: int = 0) -> int:
    """The session/tenant routing key of a job id."""
    return item_id % tenants if tenants > 0 else item_id


class HashRing:
    """A consistent-hash ring over a set of backend nodes.

    Points are CRC-32 digests (Python's ``hash`` is salted per process
    — useless for a mapping that the router, the tests, and any future
    second router must all agree on).  Each node contributes
    ``replicas`` vnodes; a key belongs to the first point clockwise
    from its own hash.

    The membership is mutable (:meth:`add_node` / :meth:`remove_node`)
    and the point set is a pure function of the member set — adding,
    removing, and re-adding a node restores the exact prior mapping,
    and resizing ``N → N+1`` moves only ~``1/(N+1)`` of the keyspace.
    """

    def __init__(self, nodes: int, replicas: int = DEFAULT_REPLICAS):
        if nodes < 1:
            raise ValueError(f"ring needs at least one node, got {nodes}")
        if replicas < 1:
            raise ValueError(f"ring needs at least one vnode, got {replicas}")
        self.replicas = replicas
        self._members: set[int] = set(range(nodes))
        self._rebuild()

    def _rebuild(self) -> None:
        points = sorted(
            (zlib.crc32(b"shard-%d#vnode-%d" % (node, r)), node)
            for node in self._members
            for r in range(self.replicas)
        )
        self._hashes = [h for h, _ in points]
        self._nodes = [n for _, n in points]
        # the single-member shortcut in node_for_key
        self._only = next(iter(self._members)) if len(self._members) == 1 else None

    @property
    def num_nodes(self) -> int:
        return len(self._members)

    @property
    def members(self) -> frozenset:
        return frozenset(self._members)

    def add_node(self, node: int) -> None:
        """Add a member (idempotent: re-adding is a no-op)."""
        if node in self._members:
            return
        self._members.add(node)
        self._rebuild()

    def remove_node(self, node: int) -> None:
        """Remove a member.  The last member cannot leave — every key
        must always map somewhere."""
        if node not in self._members:
            raise KeyError(f"node {node} is not on the ring")
        if len(self._members) == 1:
            raise ValueError(
                f"cannot remove node {node}: it is the last member of the ring"
            )
        self._members.discard(node)
        self._rebuild()

    def node_for_key(self, key: int) -> int:
        if self._only is not None:
            return self._only
        h = zlib.crc32(b"key-%d" % key)
        i = bisect_right(self._hashes, h)
        if i == len(self._hashes):
            i = 0
        return self._nodes[i]


def partition_items(items, shards: int, tenants: int = 0,
                    replicas: int = DEFAULT_REPLICAS) -> list[list]:
    """Split a trace into the per-shard subsequences the router produces.

    Order within each subsequence is the items' order in ``items`` —
    exactly what each worker sees through the router.  The differential
    suite replays these standalone and compares WAL/checkpoint bytes.
    """
    ring = HashRing(shards, replicas)
    parts: list[list] = [[] for _ in range(shards)]
    for item in items:
        parts[ring.node_for_key(route_key(item.item_id, tenants))].append(item)
    return parts


class BreakerOpenError(ConnectionError):
    """A request refused because the shard's circuit breaker is open.

    Subclasses ``ConnectionError`` so every forwarding path that
    already maps connection failures to ``shard_unavailable`` handles
    it for free; the error doc additionally carries ``"breaker":
    "open"`` so clients can tell load-shedding from a dead shard.
    """


class DeadlineExceededError(ConnectionError):
    """A hop that outlived the request's remaining deadline budget."""


class CircuitBreaker:
    """A windowed failure-rate breaker with closed/open/half-open states.

    Outcomes of the last ``window`` forwards feed a failure fraction;
    once at least ``min_volume`` outcomes are in the window and the
    fraction reaches ``threshold``, the breaker opens: requests are
    refused without touching the backend.  After ``cooldown`` seconds
    the next :meth:`allow` transitions to half-open and admits up to
    ``probes`` trial requests — one success closes the breaker (and
    clears the window), one failure re-opens it for another cooldown.

    ``clock`` is injectable so unit tests drive the cooldown with a
    fake clock instead of sleeping.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"
    #: numeric gauge values for the metrics exposition
    STATE_CODES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}

    def __init__(
        self,
        *,
        window: int = 20,
        min_volume: int = 5,
        threshold: float = 0.5,
        cooldown: float = 1.0,
        probes: int = 1,
        clock: Callable[[], float] = monotonic,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if min_volume < 1:
            raise ValueError(f"min_volume must be >= 1, got {min_volume}")
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        if probes < 1:
            raise ValueError(f"probes must be >= 1, got {probes}")
        self.window = window
        self.min_volume = min_volume
        self.threshold = threshold
        self.cooldown = cooldown
        self.probes = probes
        self._clock = clock
        self.state = self.CLOSED
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._opened_at = 0.0
        self._probes_left = 0
        #: state -> number of transitions *into* that state
        self.transitions = {self.CLOSED: 0, self.OPEN: 0, self.HALF_OPEN: 0}
        self._closed_event = asyncio.Event()
        self._closed_event.set()

    @property
    def state_code(self) -> int:
        return self.STATE_CODES[self.state]

    def _transition(self, state: str) -> None:
        self.state = state
        self.transitions[state] += 1
        if state == self.CLOSED:
            self._closed_event.set()
        else:
            self._closed_event.clear()

    def allow(self) -> bool:
        """May a request go to the backend right now?

        In the open state this is also where the cooldown expires: the
        first ``allow`` past the deadline flips to half-open and is
        admitted as a probe.
        """
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if self._clock() - self._opened_at < self.cooldown:
                return False
            self._transition(self.HALF_OPEN)
            self._probes_left = self.probes
        # half-open: admit while probe budget remains
        if self._probes_left > 0:
            self._probes_left -= 1
            return True
        return False

    def record_success(self) -> None:
        if self.state == self.HALF_OPEN:
            # the probe came back: the shard is healthy again
            self._outcomes.clear()
            self._transition(self.CLOSED)
            return
        self._outcomes.append(True)

    def record_failure(self) -> None:
        if self.state == self.HALF_OPEN:
            # the probe failed: back to open for another cooldown
            self._opened_at = self._clock()
            self._transition(self.OPEN)
            return
        self._outcomes.append(False)
        if self.state != self.CLOSED:
            return
        if len(self._outcomes) < self.min_volume:
            return
        failures = sum(1 for ok in self._outcomes if not ok)
        if failures / len(self._outcomes) >= self.threshold:
            self._opened_at = self._clock()
            self._transition(self.OPEN)

    async def wait_closed(self) -> None:
        """Park until the breaker closes (the ``queue`` degraded mode)."""
        await self._closed_event.wait()


class BackendLink:
    """One persistent, pipelined binary connection to a shard worker.

    ``request`` enqueues the payload onto the unacknowledged window and
    resolves FIFO when the worker's reply arrives.  A broken connection
    triggers reconnection (same address, or the new one supplied by
    ``redirect`` when the supervisor restarted the worker elsewhere)
    and the whole window is resent.  ``pause`` gates new requests and
    waits for the window to drain — the quiesce step of a live handoff;
    ``control`` bypasses the gate for the handoff's own checkpoint/
    shutdown ops.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        label: str = "",
        reconnect_wait: float = 30.0,
        max_frame_bytes: int = DEFAULT_MAX_LINE_BYTES,
        faults: Optional[LinkFaults] = None,
    ):
        self.host = host
        self.port = int(port)
        self.label = label or f"{host}:{port}"
        self.reconnect_wait = reconnect_wait
        self.max_frame_bytes = max_frame_bytes
        self.faults = faults
        #: dialect the worker acked in the hello (refined per connect);
        #: v2-only frames (the DEADLINE wrapper) require >= 2
        self.negotiated_version = wire.PROTOCOL_VERSION
        #: reconnect backoff jitter — seeded by the label so one link's
        #: retry schedule is reproducible and independent of its peers'
        self._backoff_rng = random.Random(self.label)
        self.reconnects = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: deque[tuple[bytes, asyncio.Future]] = deque()
        self._idle = asyncio.Event()
        self._idle.set()
        self._gate = asyncio.Event()
        self._gate.set()
        self._redirected = asyncio.Event()
        self._closing = False

    # -- connection management ------------------------------------------------
    async def connect(self) -> None:
        """Establish the connection (reviving a given-up link too)."""
        await self._do_connect()
        if self._reader_task is None or self._reader_task.done():
            self._reader_task = asyncio.ensure_future(self._read_loop())

    async def _do_connect(self) -> None:
        if self.faults is not None:
            self.faults.connect_check()  # injected partition: refuse
        reader, writer = await asyncio.open_connection(
            self.host, self.port, limit=self.max_frame_bytes
        )
        try:
            writer.write(wire.hello_line())
            await writer.drain()
            ack_line = await reader.readline()
            try:
                ack = json.loads(ack_line)
            except ValueError:
                ack = None
            if not (isinstance(ack, dict) and ack.get("ok")):
                raise ConnectionError(
                    f"backend {self.label} refused the binary hello: {ack_line!r}"
                )
            try:
                self.negotiated_version = int(ack.get("version", 1))
            except (TypeError, ValueError):
                self.negotiated_version = 1
            self._reader, self._writer = reader, writer
            # resend the unacknowledged window, oldest first — replies
            # stay FIFO, and the worker's dedup window absorbs any
            # duplicates
            if self._pending:
                for payload, _ in self._pending:
                    writer.write(wire.frame(payload))
                await writer.drain()
        except BaseException:
            # failed, or cancelled by close(): leave no connection open
            writer.close()
            if self._writer is writer:
                self._writer = None
            raise

    async def redirect(self, host: str, port: int) -> None:
        """Retarget the link (the worker moved) and reconnect if dead."""
        self.host, self.port = host, int(port)
        self._redirected.set()
        if self._writer is None and (
            self._reader_task is None or self._reader_task.done()
        ):
            await self.connect()

    async def close(self) -> None:
        self._closing = True
        self._gate.set()
        task = self._reader_task
        if task is not None and not task.done():
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._fail_pending(ConnectionError(f"backend link {self.label} closed"))

    # -- the request path -----------------------------------------------------
    async def request(self, payload: bytes) -> bytes:
        """Send one frame payload; resolves with the reply payload."""
        if not self._gate.is_set():
            await self._gate.wait()
        return await self._enqueue(payload)

    async def control(self, payload: bytes) -> bytes:
        """A request that bypasses the pause gate (handoff bookkeeping)."""
        return await self._enqueue(payload)

    async def _enqueue(self, payload: bytes) -> bytes:
        if self._closing:
            raise ConnectionError(f"backend link {self.label} is closed")
        fut: asyncio.Future = asyncio.get_event_loop().create_future()
        self._pending.append((payload, fut))
        self._idle.clear()
        writer = self._writer
        if writer is not None:
            faults = self.faults
            if faults is not None:
                verdict = await self._faulty_send(writer, payload, faults)
                if verdict:
                    return await fut  # severed; reconnect resends the window
            try:
                writer.write(wire.frame(payload))
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # the read loop notices the break and resends
        return await fut

    async def _faulty_send(
        self, writer: asyncio.StreamWriter, payload: bytes, faults: LinkFaults
    ) -> bool:
        """Apply the link's injected send faults; True = frame not sent.

        A dropped or truncated frame always *severs the connection* —
        the read loop then reconnects and resends the whole
        unacknowledged window, so the frame is delayed, never lost
        (silently skipping it would permanently desync the FIFO
        request/reply matching).  A mid-window partition acts like a
        drop and keeps refusing reconnects until its hit-window passes.
        Injected delay is charged to the plan's virtual clock; the only
        wall-clock cost is one event-loop yield.
        """
        verdict, delay = faults.send_fate()
        if delay:
            await asyncio.sleep(0)  # virtual delay: account, yield, move on
        if faults.partition is not None and faults.partitioned():
            writer.close()
            return True
        if verdict == "drop":
            writer.close()
            return True
        if verdict == "truncate":
            data = wire.frame(payload)
            try:
                writer.write(data[: max(1, len(data) // 2)])
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return True
        return False

    @property
    def pending(self) -> int:
        return len(self._pending)

    # -- handoff quiesce ------------------------------------------------------
    async def pause(self) -> None:
        """Stop accepting requests and wait for the window to drain."""
        self._gate.clear()
        await self._idle.wait()

    def resume(self) -> None:
        self._gate.set()

    # -- reply pump + reconnection --------------------------------------------
    async def _read_loop(self) -> None:
        while True:
            try:
                assert self._reader is not None
                head = await self._reader.readexactly(wire.HEADER.size)
                (length,) = wire.HEADER.unpack(head)
                if length == 0 or length > self.max_frame_bytes:
                    raise ConnectionError(
                        f"backend {self.label} sent an invalid frame length {length}"
                    )
                payload = await self._reader.readexactly(length)
            except asyncio.CancelledError:
                raise
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                if self._closing:
                    return
                if await self._reconnect():
                    self.reconnects += 1
                    continue
                self._writer = None
                self._fail_pending(
                    ConnectionError(f"backend {self.label} unreachable")
                )
                return  # a later redirect() revives the link
            if self._pending:
                _, fut = self._pending.popleft()
                if not fut.done():
                    fut.set_result(payload)
                if not self._pending:
                    self._idle.set()

    async def _reconnect(self) -> bool:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()  # the broken connection's socket
        deadline = monotonic() + self.reconnect_wait
        cap = 0.05
        while monotonic() < deadline:
            self._redirected.clear()
            try:
                await self._do_connect()
                return True
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
            if self._closing:
                return False
            # exponential backoff with full jitter: uniform over the
            # doubling cap, so a fleet of links retrying the same dead
            # worker never thunders in lockstep
            delay = self._backoff_rng.uniform(0.0, cap)
            try:
                # a redirect retargets the address and retries at once
                await asyncio.wait_for(self._redirected.wait(), timeout=delay)
            except asyncio.TimeoutError:
                pass
            cap = min(cap * 2, 0.5)
        return False

    def _fail_pending(self, exc: Exception) -> None:
        while self._pending:
            _, fut = self._pending.popleft()
            if not fut.done():
                fut.set_exception(exc)
        self._idle.set()


class ShardRouter(FrontDoor):
    """The consistent-hash front-end over N backend workers.

    A :class:`~repro.service.frontdoor.FrontDoor`: the read loops, request
    parsing, ``hello``, deadline budgets, the binary response encoder
    and the error taxonomy are the single-process service's own, so
    both client protocols are answered exactly as a worker would
    answer them.  The router supplies only the routing of a parsed
    JSON request (:meth:`_answer_json`) and of a binary frame
    (:meth:`_dispatch_frame`), and always speaks binary to the
    backends.  Its front-door counters, latency histogram and fault
    seams stay inert (``fault_injector`` faults the backend links).
    ``handoff_callback`` (set by the fleet supervisor) serves the
    ``{"op": "handoff", "shard": k}`` operation — the router itself
    only quiesces links; moving processes is the supervisor's job.
    """

    def __init__(
        self,
        backends: Sequence[tuple[str, int]],
        *,
        tenants: int = 0,
        replicas: int = DEFAULT_REPLICAS,
        quiet: bool = True,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        request_timeout: float = 30.0,
        reconnect_wait: float = 30.0,
        handoff_callback: Optional[Callable[[int], Awaitable[Optional[dict]]]] = None,
        degraded: str = "failfast",
        breaker_window: int = 20,
        breaker_min_volume: int = 5,
        breaker_threshold: float = 0.5,
        breaker_cooldown: float = 1.0,
        breaker_probes: int = 1,
        fault_injector: Optional[FaultInjector] = None,
    ):
        if not backends:
            raise ValueError("router needs at least one backend")
        if degraded not in ("failfast", "queue"):
            raise ValueError(
                f"degraded policy must be 'failfast' or 'queue', got {degraded!r}"
            )
        super().__init__(
            quiet=quiet, max_line_bytes=max_line_bytes,
            request_timeout=request_timeout,
        )
        self.tenants = int(tenants)
        self.handoff_callback = handoff_callback
        self.degraded = degraded
        self.links = [
            BackendLink(
                host, port, label=f"shard-{i}@{host}:{port}",
                reconnect_wait=reconnect_wait, max_frame_bytes=max_line_bytes,
                faults=(
                    fault_injector.link(f"backend-{i}")
                    if fault_injector is not None else None
                ),
            )
            for i, (host, port) in enumerate(backends)
        ]
        self.breakers = [
            CircuitBreaker(
                window=breaker_window,
                min_volume=breaker_min_volume,
                threshold=breaker_threshold,
                cooldown=breaker_cooldown,
                probes=breaker_probes,
            )
            for _ in self.links
        ]
        self.ring = HashRing(len(self.links), replicas)
        #: job ops forwarded per shard (the loadgen imbalance report)
        self.requests_routed = [0] * len(self.links)
        #: forwards refused/overrun against the deadline budget, per shard
        self.deadline_exceeded = [0] * len(self.links)
        #: requests refused by an open breaker, per shard
        self.breaker_rejected = [0] * len(self.links)
        #: supervisor health probes that timed out, per shard (the fleet
        #: prober reports into the router so one exposition carries all
        #: resilience signals)
        self.probe_failures = [0] * len(self.links)

    @property
    def num_shards(self) -> int:
        return len(self.links)

    def shard_of(self, item_id: int) -> int:
        return self.ring.node_for_key(route_key(item_id, self.tenants))

    # -- lifecycle ------------------------------------------------------------
    async def connect(self) -> None:
        await asyncio.gather(*(link.connect() for link in self.links))

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        bound = await super().start(host, port)
        if not self.quiet:
            print(
                f"repro router listening on {host}:{bound} "
                f"({self.num_shards} shards, tenants={self.tenants or 'raw ids'})"
            )
        return bound

    async def wait_closed(self) -> None:
        await self._shutdown.wait()
        # links first: a forward still waiting on a worker fails at once,
        # so its handler answers and returns before the front door waits
        for link in self.links:
            await link.close()
        await super().wait_closed()

    async def serve_until_shutdown(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> int:
        await self.connect()
        return await super().serve_until_shutdown(host, port)

    def shutdown(self) -> None:
        self._shutdown.set()

    # -- shard plumbing for the supervisor ------------------------------------
    async def pause_shard(self, index: int) -> None:
        await self.links[index].pause()

    def resume_shard(self, index: int) -> None:
        self.links[index].resume()

    async def redirect_shard(self, index: int, host: str, port: int) -> None:
        await self.links[index].redirect(host, port)

    async def shard_control(self, index: int, request: dict) -> dict:
        """A pause-proof JSON op against one shard (handoff checkpoints)."""
        out = await self.links[index].control(wire.encode_json_request(request))
        return wire.decode_response(out)

    # -- JSON requests --------------------------------------------------------
    async def _answer_json(self, request: dict) -> dict:
        try:
            budget_ms = self._budget(request.get("deadline_ms"))
            return await self._dispatch(request, budget_ms)
        except Exception as exc:
            return self._error_reply(exc)

    def _error_reply(self, exc: Exception) -> dict:
        """The service's taxonomy, plus ``shard_unavailable`` for a failed forward."""
        if isinstance(exc, ConnectionError):
            return self._error_doc(None, exc)
        return super()._error_reply(exc)

    async def _dispatch(
        self, request: dict, budget_ms: Optional[float] = None
    ) -> dict:
        op = request.get("op")
        if op == "submit":
            job = request.get("job")
            key = job.get("id") if isinstance(job, dict) else None
            return await self._forward_json(
                self._shard_for_raw(key), request, budget_ms
            )
        if op == "depart":
            return await self._forward_json(
                self._shard_for_raw(request.get("id")), request, budget_ms
            )
        if op == "advance":
            docs = await self._broadcast_json(request, budget_ms)
            return _first_error(docs) or {
                "ok": True,
                "departed": sum(d.get("departed", 0) for d in docs),
                "clock": max(d.get("clock", 0.0) for d in docs),
            }
        if op == "drain":
            docs = await self._broadcast_json(request, budget_ms)
            return _first_error(docs) or {
                "ok": True,
                "bins": sum(d["bins"] for d in docs),
                "total_usage_time": sum(d["total_usage_time"] for d in docs),
                "algorithm": docs[0]["algorithm"],
                "shards": [
                    {"bins": d["bins"], "total_usage_time": d["total_usage_time"]}
                    for d in docs
                ],
            }
        if op == "stats":
            docs = await self._broadcast_json(request)
            shards = [d.get("stats", d) for d in docs]
            totals: dict = {}
            for field in ("open_bins", "bins_used", "placed", "active",
                          "queue_depth", "migrations", "defrag_runs",
                          "bins_evacuated"):
                values = [s.get(field) for s in shards]
                if all(isinstance(v, (int, float)) for v in values):
                    totals[field] = sum(values)
            return {"ok": True, "stats": {
                "router": {
                    "shards": self.num_shards,
                    "tenants": self.tenants,
                    "per_shard_requests": list(self.requests_routed),
                    "reconnects": [link.reconnects for link in self.links],
                    "breakers": [b.state for b in self.breakers],
                    "breaker_rejected": list(self.breaker_rejected),
                    "deadline_exceeded": list(self.deadline_exceeded),
                    "probe_failures": list(self.probe_failures),
                    "degraded": self.degraded,
                },
                "shards": shards,
                "totals": totals,
            }}
        if op == "metrics":
            docs = await self._broadcast_json(request)
            texts = [
                relabel_exposition(d["text"], {"shard": str(i)})
                for i, d in enumerate(docs)
                if d.get("ok") and "text" in d
            ]
            texts.append(self._own_exposition())
            return {"ok": True, "text": merge_expositions(texts)}
        if op == "checkpoint":
            docs = await self._broadcast_json(request)
            return _first_error(docs) or {"ok": True, "shards": docs}
        if op == "defrag":
            docs = await self._broadcast_json(request)
            return _first_error(docs) or {
                "ok": True,
                "moved": sum(d.get("moved", 0) for d in docs),
                "migrations": sum(d.get("migrations", 0) for d in docs),
                "shards": [d.get("moved", 0) for d in docs],
            }
        if op == "ping":
            return {"ok": True, "pong": True, "shards": self.num_shards}
        if op == "shutdown":
            await self._broadcast_json({"op": "shutdown"})
            return {"ok": True, "bye": True}
        if op == "handoff":
            if self.handoff_callback is None:
                raise ProtocolError("no fleet supervisor: handoff unavailable")
            shard = request.get("shard")
            if not isinstance(shard, int) or not 0 <= shard < self.num_shards:
                raise ProtocolError(
                    f"handoff needs a 'shard' in [0, {self.num_shards})"
                )
            detail = await self.handoff_callback(shard)
            out = {"ok": True, "shard": shard}
            if isinstance(detail, dict):
                out.update(detail)
            return out
        if op == "hello":
            return self._hello(request)
        # anything else (including unknown ops): let shard 0 answer, so
        # the error taxonomy has exactly one source of truth
        return await self._forward_json(0, request)

    def _shard_for_raw(self, raw_id) -> int:
        """Routing for a client-supplied id that may be malformed.

        A bad id still goes to a real worker (shard 0) so the client
        gets the worker's own validation error, byte-identical to the
        single-process service's.
        """
        return self.shard_of(raw_id) if type(raw_id) is int else 0

    async def _forward_json(
        self, index: int, request: dict, budget_ms: Optional[float] = None
    ) -> dict:
        out = await self._forward(
            index, wire.encode_json_request(request), budget_ms
        )
        return wire.decode_response(out)

    async def _forward(
        self, index: int, payload, budget_ms: Optional[float] = None
    ) -> bytes:
        self.requests_routed[index] += 1
        return await self._call_shard(index, payload, budget_ms)

    async def _call_shard(
        self, index: int, payload, budget_ms: Optional[float] = None
    ) -> bytes:
        """The forwarding chokepoint: breaker, deadline, per-hop timeout.

        Every data-path forward lands here (the control lane —
        :meth:`shard_control` — deliberately does not: handoffs and
        health probes must reach a shard the breaker has written off).
        """
        breaker = self.breakers[index]
        if not breaker.allow():
            if self.degraded == "queue":
                budget_ms = await self._queue_for_breaker(index, budget_ms)
            else:
                self.breaker_rejected[index] += 1
                raise BreakerOpenError("circuit breaker open")
        link = self.links[index]
        send = payload
        timeout = self.request_timeout
        if budget_ms is not None:
            timeout = min(timeout, budget_ms / 1e3)
            if link.negotiated_version >= 2:
                # hand the worker its remaining budget so it can refuse
                # work nobody is waiting for any more
                if not isinstance(payload, bytes):
                    payload = bytes(payload)
                send = wire.wrap_deadline(payload, budget_ms)
        try:
            out = await asyncio.wait_for(link.request(send), timeout)
        except asyncio.TimeoutError:
            breaker.record_failure()
            # the cancelled request stays in the link's resend window —
            # the worker may still apply it, and with a request id the
            # retry dedups; the *client's* wait is what expired here
            if budget_ms is not None and budget_ms / 1e3 <= self.request_timeout:
                self.deadline_exceeded[index] += 1
                raise DeadlineExceededError(
                    f"no reply within the {budget_ms:.1f} ms deadline budget"
                ) from None
            raise ConnectionError(
                f"no reply within {self.request_timeout}s"
            ) from None
        except ConnectionError:
            breaker.record_failure()
            raise
        breaker.record_success()
        return out

    async def _queue_for_breaker(
        self, index: int, budget_ms: Optional[float]
    ) -> Optional[float]:
        """The ``queue`` degraded mode: park until the breaker admits us.

        Returns the caller's remaining deadline budget.  The wait is
        bounded by that budget (or ``request_timeout``); waiters poll
        :meth:`CircuitBreaker.allow` in slices so the first one past
        the cooldown becomes the half-open probe — pure event waiting
        would deadlock with every request parked and nobody probing.
        """
        breaker = self.breakers[index]
        wait = self.request_timeout
        if budget_ms is not None:
            wait = min(wait, budget_ms / 1e3)
        slice_s = max(0.01, min(0.05, breaker.cooldown / 4))
        started = monotonic()
        deadline = started + wait
        while True:
            if breaker.allow():
                break
            if monotonic() >= deadline:
                self.breaker_rejected[index] += 1
                raise BreakerOpenError(
                    f"circuit breaker open ({wait:.2f}s queue wait exhausted)"
                )
            try:
                await asyncio.wait_for(
                    breaker.wait_closed(),
                    min(slice_s, deadline - monotonic()),
                )
            except asyncio.TimeoutError:
                pass
        if budget_ms is None:
            return None
        remaining = budget_ms - (monotonic() - started) * 1e3
        if remaining <= 0:
            self.deadline_exceeded[index] += 1
            raise DeadlineExceededError(
                "deadline budget exhausted waiting for the circuit breaker"
            )
        return remaining

    async def _broadcast_json(
        self, request: dict, budget_ms: Optional[float] = None
    ) -> list[dict]:
        payload = wire.encode_json_request(request)

        async def one(index: int) -> bytes:
            return await self._call_shard(index, payload, budget_ms)

        outs = await asyncio.gather(
            *(one(i) for i in range(len(self.links))),
            return_exceptions=True,
        )
        docs: list[dict] = []
        for i, out in enumerate(outs):
            if isinstance(out, BaseException):
                docs.append(self._error_doc(i, out))
            else:
                docs.append(wire.decode_response(out))
        return docs

    def _error_doc(self, index: Optional[int], exc: BaseException) -> dict:
        """One forwarding failure as a client-facing error doc."""
        where = f"shard {index}: " if index is not None else ""
        if isinstance(exc, DeadlineExceededError):
            return {
                "ok": False,
                "error": f"{where}{exc}",
                "error_type": "deadline_exceeded",
            }
        doc = {
            "ok": False,
            "error": f"{where}{exc}",
            "error_type": "shard_unavailable",
        }
        if isinstance(exc, BreakerOpenError):
            doc["breaker"] = "open"
        return doc

    def _own_exposition(self) -> str:
        lines = [
            "# HELP repro_router_requests_total job ops routed to each shard",
            "# TYPE repro_router_requests_total counter",
        ]
        lines += [
            f'repro_router_requests_total{{shard="{i}"}} {n}'
            for i, n in enumerate(self.requests_routed)
        ]
        lines += [
            "# HELP repro_router_reconnects_total backend link reconnections",
            "# TYPE repro_router_reconnects_total counter",
        ]
        lines += [
            f'repro_router_reconnects_total{{shard="{i}"}} {link.reconnects}'
            for i, link in enumerate(self.links)
        ]
        lines += [
            "# HELP repro_router_breaker_state circuit state per shard "
            "(0=closed, 1=open, 2=half_open)",
            "# TYPE repro_router_breaker_state gauge",
        ]
        lines += [
            f'repro_router_breaker_state{{shard="{i}"}} {b.state_code}'
            for i, b in enumerate(self.breakers)
        ]
        lines += [
            "# HELP repro_router_breaker_transitions_total circuit state "
            "transitions per shard",
            "# TYPE repro_router_breaker_transitions_total counter",
        ]
        lines += [
            f'repro_router_breaker_transitions_total'
            f'{{shard="{i}",state="{state}"}} {n}'
            for i, b in enumerate(self.breakers)
            for state, n in sorted(b.transitions.items())
        ]
        lines += [
            "# HELP repro_router_breaker_rejected_total requests refused by "
            "an open circuit breaker",
            "# TYPE repro_router_breaker_rejected_total counter",
        ]
        lines += [
            f'repro_router_breaker_rejected_total{{shard="{i}"}} {n}'
            for i, n in enumerate(self.breaker_rejected)
        ]
        lines += [
            "# HELP repro_router_deadline_exceeded_total forwards that "
            "overran the request's deadline budget",
            "# TYPE repro_router_deadline_exceeded_total counter",
        ]
        lines += [
            f'repro_router_deadline_exceeded_total{{shard="{i}"}} {n}'
            for i, n in enumerate(self.deadline_exceeded)
        ]
        lines += [
            "# HELP repro_router_probe_failures_total supervisor health "
            "probes that timed out",
            "# TYPE repro_router_probe_failures_total counter",
        ]
        lines += [
            f'repro_router_probe_failures_total{{shard="{i}"}} {n}'
            for i, n in enumerate(self.probe_failures)
        ]
        return "\n".join(lines) + "\n"

    # -- binary frames --------------------------------------------------------
    async def _answer_frame(self, payload) -> tuple[bytes, bool]:
        return await self._dispatch_frame(payload)

    async def _dispatch_frame(self, payload) -> tuple[bytes, bool]:
        """One frame payload -> ``(response payload, shutdown?)``.

        SUBMIT and DEPART relay verbatim to the shard that owns the id;
        with a single backend every non-JSON frame does (the 1-shard
        router overhead is one socket hop).
        """
        try:
            payload, budget_ms = self._unwrap(payload)
        except (wire.FrameError, ProtocolError) as exc:
            self.requests_served += 1
            return wire.encode_json_response(self._error_reply(exc)), False
        if budget_ms is not None:
            payload = bytes(payload)  # relay paths re-frame the payload
        op = payload[0]
        if op != wire.OP_JSON and self.num_shards == 1:
            # single-backend fast path: no decode, no re-encode
            self.requests_served += 1
            return await self._relay(0, payload, budget_ms), False
        if op != wire.OP_BATCH:
            self.requests_served += 1
            return await self._answer_sub(payload, budget_ms)
        try:
            subs = wire.split_batch(payload)
        except wire.FrameError as exc:
            self.requests_served += 1
            return wire.encode_json_response(self._error_reply(exc)), False
        self.requests_served += len(subs)
        if all(sub[0] == wire.OP_SUBMIT or sub[0] == wire.OP_DEPART
               for sub in subs):
            return await self._route_job_batch(payload, subs, budget_ms), False
        # a mixed batch (advance/JSON riding along): strictly sequential
        # per-sub dispatch, preserving the client's op order globally;
        # the batch budget governs every sub-op
        parts: list[bytes] = []
        bye = False
        for sub in subs:
            out, sub_bye = await self._answer_sub(sub, budget_ms)
            bye = bye or sub_bye
            parts.append(out)
        return wire.encode_batch(parts), bye

    async def _answer_sub(
        self, sub, budget_ms: Optional[float]
    ) -> tuple[bytes, bool]:
        """One non-batch sub-request: a job op relays, the rest is JSON."""
        op = sub[0]
        if op == wire.OP_SUBMIT or op == wire.OP_DEPART:
            index = self._frame_shard(sub)
            return await self._relay(index, bytes(sub), budget_ms), False
        try:
            request = self._frame_request(sub)
        except (wire.FrameError, ProtocolError) as exc:
            return wire.encode_json_response(self._error_reply(exc)), False
        if budget_ms is not None and "deadline_ms" not in request:
            # the frame wrapper's budget governs the inner request too
            request["deadline_ms"] = budget_ms
        response = await self._answer_json(request)
        return self._encode_reply(response), bool(response.get("bye"))

    def _frame_shard(self, sub) -> int:
        """The shard of a SUBMIT/DEPART payload; shard 0 answers a truncated one."""
        try:
            (item_id,) = _SUB_ID.unpack_from(sub, 2)
        except struct.error:
            return 0  # malformed: the worker owns the error message
        return self.shard_of(item_id)

    async def _relay(self, index: int, payload, budget_ms: Optional[float]) -> bytes:
        """One payload to one shard, its reply back verbatim."""
        try:
            return await self._forward(index, payload, budget_ms)
        except ConnectionError as exc:
            return self._unavailable(index, exc)

    async def _route_job_batch(
        self, payload: bytes, subs, budget_ms: Optional[float] = None
    ) -> bytes:
        """An all-job batch: split per shard, fan out, reassemble."""
        groups: dict[int, list[int]] = {}
        order: list[int] = []  # shard of each sub, in client order
        for sub in subs:
            index = self._frame_shard(sub)
            if index not in groups:
                groups[index] = []
            groups[index].append(len(order))
            order.append(index)
        if len(groups) == 1:
            index = next(iter(groups))
            self.requests_routed[index] += len(subs)
            try:
                return await self._call_shard(index, payload, budget_ms)
            except ConnectionError as exc:
                return wire.encode_batch(
                    [self._unavailable(index, exc)] * len(subs)
                )
        indices = list(groups)

        async def one(index: int) -> "bytes | Exception":
            sub_payload = wire.encode_batch(
                [bytes(subs[i]) for i in groups[index]]
            )
            self.requests_routed[index] += len(groups[index])
            try:
                return await self._call_shard(index, sub_payload, budget_ms)
            except ConnectionError as exc:
                return exc

        replies = await asyncio.gather(*(one(i) for i in indices))
        parts: list[Optional[bytes]] = [None] * len(subs)
        for index, reply in zip(indices, replies):
            positions = groups[index]
            if isinstance(reply, Exception):
                err = self._unavailable(index, reply)
                for pos in positions:
                    parts[pos] = err
                continue
            try:
                sub_replies = wire.split_batch(reply)
            except wire.FrameError as exc:
                err = wire.encode_json_response({
                    "ok": False,
                    "error": f"shard {index} sent a malformed batch: {exc}",
                    "error_type": "internal",
                })
                sub_replies = None
            if sub_replies is None or len(sub_replies) != len(positions):
                if sub_replies is not None:
                    err = wire.encode_json_response({
                        "ok": False,
                        "error": (
                            f"shard {index} answered {len(sub_replies)} of "
                            f"{len(positions)} batch ops"
                        ),
                        "error_type": "internal",
                    })
                for pos in positions:
                    parts[pos] = err
                continue
            for pos, sub_reply in zip(positions, sub_replies):
                parts[pos] = bytes(sub_reply)
        return wire.encode_batch(parts)  # type: ignore[arg-type]

    def _unavailable(self, index: int, exc: Exception) -> bytes:
        return wire.encode_json_response(self._error_doc(index, exc))


def _first_error(docs: list[dict]) -> Optional[dict]:
    """The first shard reply of a broadcast that is an error, if any."""
    return next((doc for doc in docs if not doc.get("ok")), None)
