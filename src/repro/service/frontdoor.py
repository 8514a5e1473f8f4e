"""The front door: everything up to a parsed request, for the server and the router.

:class:`FrontDoor` is the base class of both the single-process
service (:class:`~repro.service.server.AllocationService`) and the
fleet's :class:`~repro.service.router.ShardRouter`: the listener, the
JSON-lines loop and its binary upgrade, the frame loop (zero-length,
oversize and torn frames; idle and request timeouts), the reply writer
with the fault injector's hang, delay, drop and tear seams, JSON
request parsing for lines and ``OP_JSON`` frames, the binary
sub-request decoder, ``hello``, deadline budgets (the JSON field and
the v2 wrapper), the binary response encoder, and the error taxonomy.
A subclass supplies only what answers a parsed JSON request
(``_answer_json``) and what answers a binary frame (``_answer_frame``).

This module imports the wire protocol and the fault injector and
nothing of the engine, so a router process never loads the packing
stack it does not run.

Hardening contract (pinned by ``tests/service/test_protocol_fuzz.py``):
malformed JSON, oversized lines, unknown ops, bad field types, protocol
violations, and client disconnects at any byte **never crash the
server** — they produce one structured error reply
(``{"ok": false, "error": ..., "error_type": ...}``) or a clean close,
and a metrics counter.  Only an injected
:class:`~repro.service.faults.KillPoint` (which subclasses
``BaseException`` precisely so these handlers cannot swallow it) tears
the service down.
"""

from __future__ import annotations

import asyncio
import json
import math
from time import perf_counter
from typing import Optional

from . import protocol as wire
from .faults import FaultInjector, KillPoint

__all__ = ["DEFAULT_MAX_LINE_BYTES", "FrontDoor", "ProtocolError"]

#: Default cap on one request line.  A line beyond it is a protocol
#: violation (the connection is closed after the error reply, since the
#: stream cannot be resynchronised mid-line).
DEFAULT_MAX_LINE_BYTES = 1 << 20

_MALFORMED = "repro_service_malformed_requests_total"
_PROTOCOL_ERRORS = "repro_service_protocol_errors_total"
_INTERNAL_ERRORS = "repro_service_internal_errors_total"
_DISCONNECTS = "repro_service_disconnects_total"
_TIMEOUTS = "repro_service_request_timeouts_total"
_DEADLINE_EXCEEDED = "repro_service_deadline_exceeded_total"


class ProtocolError(ValueError):
    """A structurally invalid request (reported, never fatal).

    ``error_type`` and ``counter`` place it in the error taxonomy: most
    are ``protocol`` errors, but unparseable JSON, a non-object request
    and a spent deadline budget are refused through this class too.
    """

    def __init__(self, message: str, error_type: str = "protocol",
                 counter: str = _PROTOCOL_ERRORS):
        super().__init__(message)
        self.error_type = error_type
        self.counter = counter


def _finite(value, name: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ProtocolError(f"job field {name!r} is not a number: {value!r}") from None
    if not math.isfinite(out):
        raise ProtocolError(f"job field {name!r} must be finite, got {out!r}")
    return out


def _job_id(value) -> int:
    """A client-supplied job id: a JSON integer, never coerced."""
    if type(value) is not int:
        raise ProtocolError(f"job id must be an integer, got {value!r}")
    return value


def _line(response: dict) -> bytes:
    return (json.dumps(response) + "\n").encode()


class FrontDoor:
    """Everything up to a parsed request, shared by the service and the router.

    Owns the listener, the JSON-lines loop and its binary upgrade, the
    frame loop, the reply writer and its fault seams, request parsing,
    ``hello``, deadline budgets, the binary response encoder and the
    error taxonomy.  A subclass supplies two coroutines:
    ``_answer_json(request) -> response dict`` for a parsed JSON
    request, and ``_answer_frame(payload) -> (reply payload,
    shutdown?)`` for a binary frame.

    ``request_timeout`` bounds each frame read and every write that can
    block; ``idle_timeout`` optionally reaps connections that go silent
    between requests.  The counters (:meth:`_count`), the latency
    histogram and the ``injector`` seams are inert unless a subclass
    provides them.  Shutdown closes the listener, then every connection
    still open, and waits for their handlers to return.
    """

    def __init__(
        self,
        *,
        quiet: bool,
        max_line_bytes: int,
        request_timeout: float,
        idle_timeout: Optional[float] = None,
        injector: Optional[FaultInjector] = None,
    ):
        self.quiet = quiet
        self.max_line_bytes = int(max_line_bytes)
        self.request_timeout = request_timeout
        self.idle_timeout = idle_timeout
        self.injector = injector
        self.requests_served = 0
        self._latency = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._fatal: Optional[BaseException] = None
        #: each open connection's writer and the task serving it
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}

    # -- lifecycle ------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and start serving; returns the actual port (for port 0)."""
        self._server = await asyncio.start_server(
            self._serve_connection, host, port, limit=self.max_line_bytes
        )
        return self._server.sockets[0].getsockname()[1]

    async def wait_closed(self) -> None:
        """Block until a ``shutdown`` op arrives, then close the sockets.

        The listener closes first, then every connection still open:
        a handler waiting in a read sees end of stream and returns on
        its own, so none is left for the event loop to cancel.  A
        handler that does not return within ``request_timeout`` (one
        parked by an injected hang) is left to the loop.

        Re-raises an injected :class:`KillPoint` as soon as the listener
        is closed, without waiting for any handler: the kill fires
        inside a per-connection handler task, where asyncio would
        otherwise log it and keep the server alive, and a crashed
        process must not serve the requests still buffered.
        """
        await self._shutdown.wait()
        assert self._server is not None
        self._server.close()
        if self._fatal is not None:
            raise self._fatal
        handlers = list(self._connections.values())
        for writer in list(self._connections):
            writer.close()
        if handlers:
            await asyncio.wait(handlers, timeout=self.request_timeout)
        await self._server.wait_closed()
        if self._fatal is not None:
            raise self._fatal

    async def serve_until_shutdown(self, host: str = "127.0.0.1", port: int = 0) -> int:
        await self.start(host, port)
        await self.wait_closed()
        return 0

    # -- the two read loops ---------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The JSON-lines loop; a binary ``hello`` hands over to the frame loop."""
        self._connections[writer] = asyncio.current_task()
        try:
            while not reader.at_eof():
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), self.idle_timeout
                    )
                except asyncio.TimeoutError:
                    self._count(_TIMEOUTS)
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    # the line outgrew the buffer limit: report and close —
                    # there is no way to resynchronise mid-line
                    self._count(_MALFORMED)
                    await self._write_reply(writer, _line({
                        "ok": False,
                        "error": f"request line exceeds {self.max_line_bytes} bytes",
                        "error_type": "line_too_long",
                    }))
                    break
                if not line:
                    break
                if not line.endswith(b"\n") and reader.at_eof():
                    # a torn final request: the client died mid-line
                    self._count(_DISCONNECTS)
                    break
                await self._hang_point()
                started = perf_counter()
                self.requests_served += 1
                try:
                    request = self._parse_request(line)
                except ProtocolError as exc:
                    response = self._error_reply(exc)
                else:
                    response = await self._answer_json(request)
                if not await self._send_reply(writer, _line(response), started):
                    break
                if response.get("bye"):
                    self._shutdown.set()
                    break
                if response.get("ok") and response.get("protocol") == "binary":
                    # the hello ack is on the wire; from the next byte
                    # both directions speak length-prefixed binary frames
                    await self._serve_frames(reader, writer)
                    break
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            # the client vanished mid-request: count it, close cleanly —
            # never let it surface as an unhandled task exception
            self._count(_DISCONNECTS)
        except KillPoint as exc:
            # an injected crash must take the whole process down, but it
            # fires inside this connection's task — asyncio would log it
            # and carry on.  Escalate through the shutdown path instead.
            self._fatal = exc
            self._shutdown.set()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            finally:
                del self._connections[writer]

    async def _serve_frames(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The post-hello frame loop: same ops, same taxonomy, no JSON.

        Framing keeps the stream in sync, so a malformed payload inside
        a well-formed frame is answered and the connection survives.
        Only two defects force a close: a declared length beyond
        ``max_line_bytes`` (``frame_too_long`` — reading it out would be
        unbounded) and a frame torn by a disconnect.
        """
        header_size = wire.HEADER.size
        unpack_header = wire.HEADER.unpack
        while True:
            try:
                head = await asyncio.wait_for(
                    reader.readexactly(header_size), self.idle_timeout
                )
            except asyncio.TimeoutError:
                self._count(_TIMEOUTS)
                return
            except asyncio.IncompleteReadError as exc:
                if exc.partial:  # torn header: the client died mid-frame
                    self._count(_DISCONNECTS)
                return
            (length,) = unpack_header(head)
            if length == 0 or length > self.max_line_bytes:
                # a zero-length frame is answered and the stream goes on;
                # an oversized one cannot be read out, so the answer closes
                self.requests_served += 1
                self._count(_MALFORMED)
                if length == 0:
                    doc = {"ok": False, "error": "zero-length frame",
                           "error_type": "malformed_frame"}
                else:
                    doc = {
                        "ok": False,
                        "error": (
                            f"frame declares {length} bytes, "
                            f"limit is {self.max_line_bytes}"
                        ),
                        "error_type": "frame_too_long",
                    }
                sent = await self._write_reply(
                    writer, wire.frame(wire.encode_json_response(doc))
                )
                if length or not sent:
                    return
                continue
            try:
                payload = await asyncio.wait_for(
                    reader.readexactly(length), self.request_timeout
                )
            except asyncio.TimeoutError:
                self._count(_TIMEOUTS)
                return
            except asyncio.IncompleteReadError:
                self._count(_DISCONNECTS)
                return
            await self._hang_point()
            started = perf_counter()
            out, bye = await self._answer_frame(payload)
            if not await self._send_reply(writer, wire.frame(out), started):
                return
            if bye:
                self._shutdown.set()
                return

    # -- the reply writer -----------------------------------------------------
    async def _hang_point(self) -> None:
        """The injected hang: the process stays alive but never answers
        again — only the supervisor's health prober (missed-probe
        restart) can clear it."""
        if self.injector is not None and self.injector.hang_point("request"):
            await asyncio.Event().wait()

    async def _send_reply(
        self, writer: asyncio.StreamWriter, data: bytes, started: float
    ) -> bool:
        """One reply through the injected delay and drop; False ends the connection."""
        if self.injector is not None:
            fate, delay = self.injector.reply_fate()
            if delay:
                await asyncio.sleep(delay)
            if fate == "drop":
                self._count("repro_service_dropped_replies_total")
                return False
        if not await self._write_reply(writer, data):
            return False
        if self._latency is not None:
            self._latency.observe(perf_counter() - started)
        return True

    async def _write_reply(self, writer: asyncio.StreamWriter, data: bytes) -> bool:
        """Write one encoded reply (line or frame), torn-kill seam included.

        ``drain`` waits only while the transport has paused writing,
        and a paused transport holds more than its low-water mark, so
        ``request_timeout`` is applied (through ``wait_for``, which
        costs a task and a turn of the loop) only then.  Below the mark
        the drain returns at once, or raises for a lost connection.  A
        peer that stops reading is cut off when the timeout expires:
        the transport is aborted, its unsent replies dropped, rather
        than closed, which would wait for them to flush.
        """
        injector = self.injector
        try:
            if injector is not None and injector.reply_kill() == "tear":
                # crash mid-reply: half the bytes reach the client, then
                # the process dies (reply_torn raises the KillPoint)
                writer.write(data[: max(1, len(data) // 2)])
                await asyncio.wait_for(writer.drain(), self.request_timeout)
                injector.reply_torn()
            writer.write(data)
            transport = writer.transport
            if transport.get_write_buffer_size() > transport.get_write_buffer_limits()[0]:
                await asyncio.wait_for(writer.drain(), self.request_timeout)
            else:
                await writer.drain()
            return True
        except (ConnectionError, asyncio.TimeoutError, OSError):
            writer.transport.abort()
            self._count(_DISCONNECTS)
            return False

    # -- decoding -------------------------------------------------------------
    @staticmethod
    def _parse_request(data) -> dict:
        """One JSON request, from a line or the body of an ``OP_JSON`` frame."""
        try:
            request = json.loads(data)
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(
                f"malformed JSON: {exc}", "malformed_json", _MALFORMED
            ) from None
        if not isinstance(request, dict):
            raise ProtocolError(
                f"request must be a JSON object, got {type(request).__name__}",
                counter=_MALFORMED,
            )
        return request

    @staticmethod
    def _budget(raw) -> Optional[float]:
        """A deadline budget in ms (the JSON field or the v2 wrapper's).

        ``None`` passes; anything but a positive number is refused.
        """
        if raw is None:
            return None
        try:
            budget = float(raw)
        except (TypeError, ValueError):
            raise ProtocolError(f"deadline_ms must be a number, got {raw!r}") from None
        if budget > 0:
            return budget
        raise ProtocolError(
            f"deadline budget exhausted ({budget:.3f} ms remaining)",
            "deadline_exceeded", _DEADLINE_EXCEEDED,
        )

    def _unwrap(self, payload):
        """``(inner payload, budget ms or None)`` of one request frame.

        The v2 DEADLINE wrapper is stripped here, at the top level only
        — one budget covers a whole batch, and sub-requests cannot
        carry their own.
        """
        payload, budget_ms = wire.unwrap_deadline(payload)
        return payload, self._budget(budget_ms)

    def _frame_request(self, sub) -> dict:
        """A DEPART, ADVANCE or JSON sub-request as the JSON request it encodes."""
        op = sub[0]
        if op == wire.OP_DEPART:
            item_id, now = wire.decode_depart(sub)
            if now is None:
                return {"op": "depart", "id": item_id}
            return {"op": "depart", "id": item_id, "now": now}
        if op == wire.OP_ADVANCE:
            return {"op": "advance", "now": wire.decode_advance(sub)}
        if op == wire.OP_JSON:
            return self._parse_request(bytes(sub[1:]))
        if op == wire.OP_BATCH:
            raise wire.FrameError("batch frames cannot nest")
        raise ProtocolError(f"unknown opcode 0x{op:02x}")

    @staticmethod
    def _hello(request: dict) -> dict:
        """Protocol negotiation: the ack names the dialect both ends speak."""
        proto = request.get("protocol", "json")
        if proto not in wire.PROTOCOLS:
            raise ProtocolError(
                f"unknown protocol {proto!r}; known: {list(wire.PROTOCOLS)}"
            )
        version = request.get("version", wire.PROTOCOL_VERSION)
        if not isinstance(version, int):
            raise ProtocolError(
                f"protocol version must be an integer, got {version!r}"
            )
        agreed = wire.negotiate_version(version)
        if agreed is None:
            raise ProtocolError(
                f"unsupported protocol version {version!r} (this server "
                f"speaks {wire.MIN_PROTOCOL_VERSION}.."
                f"{wire.PROTOCOL_VERSION})"
            )
        return {"ok": True, "protocol": proto, "version": agreed}

    # -- encoding -------------------------------------------------------------
    @staticmethod
    def _encode_reply(response: dict) -> bytes:
        """A response dict in the binary response scheme."""
        if response.get("ok"):
            placement = response.get("placement")
            if placement is not None:
                return wire.encode_placement(
                    placement["item_id"], placement["action"], placement["bin"],
                    placement["new_bin"], placement["time"],
                    duplicate=bool(response.get("duplicate")),
                )
            if "clock" in response:
                if "departed" in response:
                    return wire.encode_clock(
                        response["clock"], response["departed"]
                    )
                if len(response) == 2:
                    return wire.encode_clock(response["clock"])
        return wire.encode_json_response(response)

    def _error_reply(self, exc: Exception) -> dict:
        """The error taxonomy: one refused request as its error document."""
        if isinstance(exc, wire.FrameError):
            error_type, counter, error = "malformed_frame", _MALFORMED, str(exc)
        elif isinstance(exc, ProtocolError):
            error_type, counter, error = exc.error_type, exc.counter, str(exc)
        elif isinstance(exc, (ValueError, KeyError)):
            # engine-level refusals (time-ordering, unknown ids, ...)
            detail = exc.args[0] if exc.args else exc
            error_type, counter, error = "rejected", _PROTOCOL_ERRORS, str(detail)
        elif isinstance(exc, OSError):
            # WAL I/O failure: the operation was refused, state is intact
            error_type, counter = "wal_unavailable", None
            error = f"durability failure: {exc}"
        else:  # protocol boundary: report, don't crash
            error_type, counter = "internal", _INTERNAL_ERRORS
            error = f"{type(exc).__name__}: {exc}"
        if counter is not None:
            self._count(counter)
        return {"ok": False, "error": error, "error_type": error_type}

    def _count(self, name: str) -> None:
        """Bump a front-door counter (inert unless a subclass keeps them)."""

    # -- what a subclass answers ----------------------------------------------
    async def _answer_json(self, request: dict) -> dict:
        raise NotImplementedError

    async def _answer_frame(self, payload) -> tuple[bytes, bool]:
        raise NotImplementedError
