"""The benchmark's own load client for the binary wire protocol.

It speaks the frame format documented in ``repro.service.protocol``
(a u32 length prefix, then an opcode byte) with its own encoder and
decoder, so the client's cost and correctness do not ride on the codec
under test.

Two drivers share one connection type:

- :func:`open_loop` sends each request at its scheduled time whether or
  not earlier ones were answered (independent tenants), and times each
  request from its *scheduled* send time, so a stall in the service is
  charged to every request it delayed.  How late the sender itself ran
  is reported as lag.
- :func:`closed_loop` keeps a fixed number of frames in flight and sends
  the next one only when a reply arrives (callers that wait) until every
  frame is answered; each frame is timed from its actual send.  It blocks on the socket instead of
  polling, leaving the CPU to the service's processes.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

HEADER = struct.Struct(">I")
_SUBMIT = struct.Struct(">BBqddd")  # op, flags, id, size, arrival, departure
_DEPART = struct.Struct(">BBq")  # op, flags, id
_BATCH_HEAD = struct.Struct(">BI")
_SUB_LEN = struct.Struct(">I")
_PLACEMENT = struct.Struct(">BBBqid")  # op, flags, action, id, bin, time
_CLOCK = struct.Struct(">BBid")

OP_JSON = 0x00
OP_SUBMIT = 0x01
OP_DEPART = 0x02
OP_BATCH = 0x10
RESP_PLACEMENT = 0x01
RESP_CLOCK = 0x02
_HAS_BIN = 0x04
_PLACED = 0  # action code of "placed"


def submit(item) -> bytes:
    return _SUBMIT.pack(OP_SUBMIT, 0, item.item_id, item.size, item.arrival, item.departure)


def depart(item_id: int) -> bytes:
    return _DEPART.pack(OP_DEPART, 0, item_id)


def json_request(doc: dict) -> bytes:
    return bytes([OP_JSON]) + json.dumps(doc).encode()


def batch(subs: list[bytes]) -> bytes:
    parts = [_BATCH_HEAD.pack(OP_BATCH, len(subs))]
    for sub in subs:
        parts.append(_SUB_LEN.pack(len(sub)))
        parts.append(sub)
    return b"".join(parts)


@dataclass
class Reply:
    """One decoded sub-response."""

    ok: bool
    kind: str  # placement | clock | json
    item_id: Optional[int] = None
    bin: Optional[int] = None
    doc: Optional[dict] = None


def _one(payload: bytes) -> Reply:
    op = payload[0]
    if op == RESP_PLACEMENT and len(payload) == _PLACEMENT.size:
        _, flags, action, item_id, bin_index, _t = _PLACEMENT.unpack(payload)
        return Reply(action == _PLACED, "placement", item_id,
                     bin_index if flags & _HAS_BIN else None)
    if op == RESP_CLOCK and len(payload) == _CLOCK.size:
        return Reply(True, "clock")
    if op == OP_JSON:
        doc = json.loads(payload[1:])
        return Reply(bool(doc.get("ok")), "json", doc=doc)
    return Reply(False, "json", doc={"error": f"undecodable reply opcode {op:#x}"})


def decode(payload: bytes) -> list[Reply]:
    """A reply frame's sub-responses, in request order."""
    if payload[0] != OP_BATCH:
        return [_one(payload)]
    (_, count) = _BATCH_HEAD.unpack_from(payload)
    out, offset = [], _BATCH_HEAD.size
    for _ in range(count):
        (length,) = _SUB_LEN.unpack_from(payload, offset)
        offset += _SUB_LEN.size
        out.append(_one(payload[offset:offset + length]))
        offset += length
    return out


class Connection:
    """One TCP connection upgraded to binary frames."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.timeout = timeout
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.sock.sendall(b'{"op": "hello", "protocol": "binary", "version": 2}\n')
        ack = json.loads(self.rfile.readline())
        if not ack.get("ok") or ack.get("protocol") != "binary":
            raise ConnectionError(f"binary protocol refused: {ack}")

    def send(self, payload: bytes) -> None:
        self.sock.sendall(HEADER.pack(len(payload)) + payload)

    def read(self) -> bytes:
        head = self.rfile.read(HEADER.size)
        if len(head) < HEADER.size:
            raise ConnectionError("connection closed by the service")
        (length,) = HEADER.unpack(head)
        payload = self.rfile.read(length)
        if len(payload) < length:
            raise ConnectionError("connection closed mid-frame")
        return payload

    def call(self, doc: dict) -> dict:
        """One JSON op, answered before anything else is sent."""
        self.send(json_request(doc))
        reply = decode(self.read())[0]
        return reply.doc if reply.doc is not None else {"ok": reply.ok}

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


@dataclass
class LoopResult:
    """What one driver saw: per-request timings and every decoded reply."""

    sent: int = 0
    latency_s: list = field(default_factory=list)  # per frame
    lag_s: list = field(default_factory=list)  # per frame, open loop only
    replies: list = field(default_factory=list)  # per frame: list[Reply]
    first_job: list = field(default_factory=list)  # per frame
    started: float = 0.0
    finished: float = 0.0


def open_loop(conn: Connection, schedule: list, stall_s: float = 60.0) -> LoopResult:
    """Send ``schedule`` = ``[(offset_s, payload, first_job_id)]`` on time.

    Offsets are seconds after the start; a request is due at its offset
    and its latency runs from then to its reply, however late the
    sender got it onto the wire.  One thread busy-polls a non-blocking
    socket: a sleeping sender on a virtual machine can wake
    milliseconds late, which would be charged to the service.
    """
    out = LoopResult()
    sock = conn.sock
    due: deque = deque()
    outbox = bytearray()
    inbox = bytearray()
    pack_header = HEADER.pack
    unpack_header = HEADER.unpack_from
    total = len(schedule)
    i = 0
    start = time.perf_counter() + 0.01
    out.started = start
    last_progress = start
    sock.setblocking(False)
    try:
        while len(out.replies) < total:
            now = time.perf_counter()
            while i < total and start + schedule[i][0] <= now:
                offset, payload, job = schedule[i]
                due.append((start + offset, job))
                outbox += pack_header(len(payload))
                outbox += payload
                out.lag_s.append(now - start - offset)
                out.sent += 1
                i += 1
            if outbox:
                try:
                    del outbox[:sock.send(outbox)]
                except BlockingIOError:
                    pass
            try:
                data = sock.recv(1 << 16)
            except BlockingIOError:
                data = None
            if data is not None:
                if not data:
                    raise ConnectionError(
                        f"service closed the connection after {len(out.replies)} replies")
                inbox += data
                now = time.perf_counter()
                while len(inbox) >= HEADER.size:
                    (length,) = unpack_header(inbox)
                    if len(inbox) < HEADER.size + length:
                        break
                    payload = bytes(inbox[HEADER.size:HEADER.size + length])
                    del inbox[:HEADER.size + length]
                    at, job = due.popleft()
                    out.latency_s.append(now - at)
                    out.replies.append(decode(payload))
                    out.first_job.append(job)
                last_progress = now
            elif now - last_progress > stall_s and i == total:
                raise ConnectionError(f"no reply for {stall_s:.0f}s")
    finally:
        sock.settimeout(conn.timeout)
    out.finished = time.perf_counter()
    return out


def closed_loop(conn: Connection, frames: Iterator, depth: int) -> LoopResult:
    """Send every frame of ``frames`` = ``(payload, first_job_id)``, ``depth`` in flight."""
    out = LoopResult()
    inflight: deque = deque()
    out.started = time.perf_counter()
    source = iter(frames)

    def send_next() -> None:
        item = next(source, None)
        if item is not None:
            payload, job = item
            inflight.append((time.perf_counter(), job))
            conn.send(payload)
            out.sent += 1

    for _ in range(depth):
        send_next()
    while inflight:
        payload = conn.read()
        now = time.perf_counter()
        sent_at, job = inflight.popleft()
        out.latency_s.append(now - sent_at)
        out.replies.append(decode(payload))
        out.first_job.append(job)
        send_next()
    out.finished = time.perf_counter()
    return out
