"""The front door: one set of answers for every refusal, wherever it lands.

The service and the fleet router share one front door
(:class:`repro.service.server.FrontDoor`): the read loops, request
parsing, ``hello``, deadline budgets and the error taxonomy.  The
differential here sends one script of requests the front refuses
before any engine or shard touches them — as JSON lines and as binary
frames — to a direct server, a 1-shard router and a 2-shard router,
and requires every reply to equal the direct server's field for field.

The rest pins the request validation the front door applies on both
protocols: a job id must be a JSON integer, a ``depart``'s ``now`` must
be a finite number, and a request id replayed from the idempotency
window is flagged ``duplicate`` on in-memory and durable engines alike.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import struct
import warnings

import pytest

from repro.core.items import Item
from repro.service import (
    AllocationService,
    DurableEngine,
    ShardRouter,
    WriteAheadLog,
    build_engine,
)
from repro.service import protocol as wire

NAN = float("nan")

SUBMIT = wire.encode_submit(Item(1, 0.5, 0.0, 1.0))
ADVANCE = wire.encode_advance(1.0)


def job(item_id, arrival=0.0, departure=1.0, size=0.5):
    return {"id": item_id, "size": size, "arrival": arrival, "departure": departure}


#: JSON-line requests the front refuses before any engine call
JSON_SCRIPT = [
    b'{"op": "sub\n',
    b"\x00\xff\xfe garbage\n",
    b"[1, 2]\n",
    b'"just a string"\n',
    b'{"op": "frobnicate"}\n',
    b'{"no_op_at_all": 1}\n',
    b'{"op": "hello", "protocol": "binary", "version": 999}\n',
    b'{"op": "hello", "protocol": "carrier-pigeon"}\n',
    b'{"op": "hello", "protocol": "binary", "version": "2"}\n',
    b'{"op": "stats", "deadline_ms": 0}\n',
    b'{"op": "advance", "now": 1.0, "deadline_ms": -5}\n',
    b'{"op": "stats", "deadline_ms": "soonish"}\n',
    b'{"op": "ping", "deadline_ms": NaN}\n',
    b'{"op": "submit", "job": {"id": 3.9, "size": 0.5, "arrival": 0, "departure": 1}}\n',
    b'{"op": "submit", "job": {"id": true, "size": 0.5, "arrival": 0, "departure": 1}}\n',
    b'{"op": "submit", "job": {"id": "7", "size": 0.5, "arrival": 0, "departure": 1}}\n',
    b'{"op": "depart", "id": 3.2}\n',
    b'{"op": "depart", "id": "abc"}\n',
    b'{"op": "depart", "id": 1, "now": NaN}\n',
    b'{"op": "depart", "id": 1, "now": Infinity}\n',
    b'{"op": "depart", "id": 1, "now": "later"}\n',
    b'{"op": "advance", "now": NaN}\n',
    b'{"op": "advance", "now": "later"}\n',
    b'{"op": "submit", "job": {"id": 2, "size": 0.5, "arrival": Infinity, "departure": 1}}\n',
    b'{"op": "submit", "job": {"id": 2, "size": NaN, "arrival": 0, "departure": 1}}\n',
]

#: binary frame payloads the front refuses before any engine call
FRAME_SCRIPT = [
    b"\xee\x00",                                   # unknown opcode
    SUBMIT[:8],                                    # truncated SUBMIT
    SUBMIT + b"junk",                              # trailing bytes
    b"\x02\x01",                                   # truncated DEPART
    b"\x03\x00",                                   # truncated ADVANCE
    wire.wrap_deadline(wire.wrap_deadline(ADVANCE, 5.0), 5.0),  # nested wrapper
    wire.wrap_deadline(ADVANCE, 0.0),              # spent wrapper budget
    wire.wrap_deadline(ADVANCE, -1.0),
    wire.wrap_deadline(ADVANCE, NAN),              # non-numeric wrapper budget
    wire.wrap_deadline(ADVANCE, 5.0)[:5],          # truncated wrapper
    wire.encode_batch([                            # a BATCH nested in a mixed one
        wire.encode_json_request({"op": "frobnicate"}),
        wire.encode_batch([b"\xee"]),
    ]),
    wire.encode_batch([b"\x03\x00", b"\xee"]),     # malformed ops in a batch
    wire.encode_batch([SUBMIT])[:-3],              # malformed BATCH
    bytes([wire.OP_BATCH]) + wire.HEADER.pack(10_000) + b"x" * 4,
    wire.encode_json_request({"op": "stats", "deadline_ms": 0}),
    wire.encode_json_request({"op": "stats", "deadline_ms": "soonish"}),
    b"\x00{not json",
    b"\x00[1, 2]",
    wire.encode_json_request({"op": "hello", "protocol": "binary", "version": 999}),
    wire.encode_json_request({"op": "submit", "job": job(3.9)}),
    wire.encode_json_request({"op": "depart", "id": "abc"}),
    wire.encode_depart(1, now=NAN),
    wire.encode_depart(1, now=math.inf),
    wire.encode_advance(NAN),
    SUBMIT[:10] + struct.pack(">ddd", NAN, NAN, NAN),  # NaN size and times
]


def decode(payload) -> object:
    """A reply payload as dicts; a BATCH becomes a list of them."""
    payload = memoryview(payload)
    if payload[0] == wire.RESP_BATCH:
        out = []
        for sub in wire.split_batch(payload):
            try:
                out.append(wire.decode_response(sub))
            except wire.FrameError as exc:
                out.append({"undecodable": str(exc)})
        return out
    return wire.decode_response(payload)


async def run_script(port: int) -> list:
    """Every reply to both scripts, the zero-length and the oversize frame."""
    replies: list = []
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for line in JSON_SCRIPT:
        writer.write(line)
        await writer.drain()
        replies.append(json.loads(await reader.readline()))
    writer.close()

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(wire.hello_line())
    await writer.drain()
    replies.append(json.loads(await reader.readline()))

    async def read_frame():
        (length,) = wire.HEADER.unpack(await reader.readexactly(wire.HEADER.size))
        return await reader.readexactly(length)

    for payload in FRAME_SCRIPT:
        writer.write(wire.frame(payload))
        await writer.drain()
        replies.append(decode(await read_frame()))
    writer.write(wire.HEADER.pack(0))
    await writer.drain()
    replies.append(decode(await read_frame()))
    writer.write(wire.HEADER.pack(4096))  # over the 1 KiB cap: answered, closed
    await writer.drain()
    replies.append(decode(await read_frame()))
    replies.append(await reader.read())
    writer.close()
    return replies


async def through_front(shards: int) -> list:
    """The script against a direct server (``shards=0``) or a router."""
    workers = [
        AllocationService(build_engine(), quiet=True, max_line_bytes=1024)
        for _ in range(max(shards, 1))
    ]
    ports = [await w.start("127.0.0.1", 0) for w in workers]
    router = None
    try:
        if shards == 0:
            return await run_script(ports[0])
        router = ShardRouter(
            [("127.0.0.1", p) for p in ports], max_line_bytes=1024
        )
        await router.connect()
        return await run_script(await router.start("127.0.0.1", 0))
    finally:
        if router is not None:
            router.shutdown()
            await router.wait_closed()
        for w in workers:
            assert w.engine.stats()["placed"] == 0, "a refusal reached the engine"
            w._shutdown.set()
            await w.wait_closed()


def test_script_is_refused_everywhere():
    direct = asyncio.run(through_front(0))
    for reply in direct[: len(JSON_SCRIPT)]:
        assert reply["ok"] is False and reply["error_type"], reply
    assert direct[-1] == b"", "an oversize frame closes the connection"
    assert direct[-2]["error_type"] == "frame_too_long"
    assert direct[-3]["error_type"] == "malformed_frame"


@pytest.mark.parametrize("shards", [1, 2])
def test_router_answers_like_the_direct_server(shards):
    direct = asyncio.run(through_front(0))
    routed = asyncio.run(through_front(shards))
    requests = (
        [line.decode("latin-1") for line in JSON_SCRIPT]
        + ["hello"] + [payload.hex() for payload in FRAME_SCRIPT]
        + ["zero-length frame", "oversize frame", "close"]
    )
    assert len(direct) == len(routed) == len(requests)
    for request, want, got in zip(requests, direct, routed):
        assert got == want, request


# -- the validation the front door applies -------------------------------------
async def session(service: AllocationService, script):
    port = await service.start("127.0.0.1", 0)
    reader, writer = await asyncio.open_connection("127.0.0.1", port)

    async def call(doc) -> dict:
        line = doc if isinstance(doc, bytes) else (json.dumps(doc) + "\n").encode()
        writer.write(line)
        await writer.drain()
        return json.loads(await reader.readline())

    async def upgrade():
        assert (await call(json.loads(wire.hello_line())))["protocol"] == "binary"

    async def frame(payload: bytes):
        writer.write(wire.frame(payload))
        await writer.drain()
        (length,) = wire.HEADER.unpack(await reader.readexactly(wire.HEADER.size))
        return decode(await reader.readexactly(length))

    try:
        return await script(call, upgrade, frame)
    finally:
        writer.close()
        service._shutdown.set()
        await service.wait_closed()


def two_jobs_then(bad_depart, binary=False):
    """Submit 0->5 and 1->10, send one bad depart, then probe the clock."""
    engine = build_engine()

    async def script(call, upgrade, frame):
        assert (await call({"op": "submit", "job": job(0, 0.0, 5.0)}))["ok"]
        assert (await call({"op": "submit", "job": job(1, 1.0, 10.0)}))["ok"]
        if binary:
            await upgrade()
            reply = await frame(bad_depart)
            later = await frame(wire.encode_submit(Item(2, 0.2, 2.0, 3.0)))
        else:
            reply = await call(bad_depart)
            later = await call({"op": "submit", "job": job(2, 2.0, 3.0, 0.2)})
        return reply, later

    reply, later = asyncio.run(session(AllocationService(engine), script))
    return reply, later, engine


@pytest.mark.parametrize("bad", [
    b'{"op": "depart", "id": 1, "now": NaN}\n',
    b'{"op": "depart", "id": 1, "now": Infinity}\n',
    b'{"op": "depart", "id": 1, "now": "later"}\n',
], ids=["nan", "infinity", "string"])
def test_json_depart_now_must_be_finite(bad):
    reply, later, engine = two_jobs_then(bad)
    assert reply["ok"] is False and reply["error_type"] == "protocol", reply
    assert "'now'" in reply["error"]
    # nothing was touched: the clock stayed put and both jobs are active
    assert engine.clock == 2.0
    assert later["ok"] and later["placement"]["action"] == "placed", later
    assert engine.stats()["active"] == 3


@pytest.mark.parametrize("now", [NAN, math.inf], ids=["nan", "infinity"])
def test_binary_depart_now_must_be_finite(now):
    reply, later, engine = two_jobs_then(wire.encode_depart(1, now=now), binary=True)
    assert reply["ok"] is False and reply["error_type"] == "protocol", reply
    assert later["ok"] and later["placement"]["action"] == "placed", later
    assert engine.stats()["active"] == 3


@pytest.mark.parametrize("request_doc", [
    {"op": "submit", "job": job(3.9)},
    {"op": "submit", "job": job(True)},
    {"op": "submit", "job": job("7")},
    {"op": "depart", "id": 3.2},
    {"op": "depart", "id": "abc"},
    {"op": "depart", "id": True},
], ids=["float", "bool", "string", "depart-float", "depart-string", "depart-bool"])
def test_json_job_ids_must_be_integers(request_doc):
    engine = build_engine()

    async def script(call, upgrade, frame):
        for item_id in (1, 3, 7):
            assert (await call({"op": "submit", "job": job(item_id)}))["ok"]
        line = await call(request_doc)
        await upgrade()
        framed = await frame(wire.encode_json_request(request_doc))
        return line, framed

    line, framed = asyncio.run(session(AllocationService(engine), script))
    for reply in (line, framed):
        assert reply["ok"] is False and reply["error_type"] == "protocol", reply
        assert "must be an integer" in reply["error"], reply
    stats = engine.stats()
    assert stats["placed"] == 3 and stats["active"] == 3


def test_durable_replays_are_flagged_on_every_path(tmp_path):
    engine = DurableEngine(build_engine(), WriteAheadLog(str(tmp_path), fsync="never"))
    first_job = {"op": "submit", "job": job(1, 0.0, 2.0, 0.4), "request_id": "r-1"}
    framed = wire.encode_submit(Item(2, 0.3, 0.0, 2.0), request_id="r-2")

    async def script(call, upgrade, frame):
        first = await call(first_job)
        again = await call(first_job)
        await upgrade()
        one = await frame(framed)
        one_again = await frame(framed)
        batch = await frame(wire.encode_batch([framed, framed]))
        by_json = await frame(wire.encode_json_request(first_job))
        return first, again, one, one_again, batch, by_json

    first, again, one, one_again, batch, by_json = asyncio.run(
        session(AllocationService(engine), script)
    )
    records = engine.wal.last_seq
    engine.close()
    assert "duplicate" not in first and "duplicate" not in one
    for replay, original in ((again, first), (one_again, one), (by_json, first),
                             *((doc, one) for doc in batch)):
        assert replay["ok"] is True
        assert replay["placement"] == original["placement"]
        assert replay["duplicate"] is True
    assert records == 2, "a replay logs nothing"
    duplicates = engine.engine.metrics.as_dict()["repro_service_duplicate_requests_total"]
    assert duplicates == 5


def test_a_request_id_repeated_in_one_batch_gets_one_answer_everywhere(tmp_path):
    """One BATCH frame carrying the same request id more than once: the
    later copies get the first copy's outcome (a placement flagged
    ``duplicate``, or the same refusal) from an in-memory and a durable
    engine alike, and the durable one logs each id once."""
    a = wire.encode_submit(Item(1, 0.4, 1.0, 4.0), request_id="r-1")
    b = wire.encode_submit(Item(2, 0.3, 1.0, 4.0), request_id="r-2")
    late = wire.encode_submit(Item(3, 0.2, 0.5, 4.0), request_id="r-3")  # before the clock
    batches = [wire.encode_batch([a, a, b, a]), wire.encode_batch([late, late])]

    def replies(engine):
        async def script(call, upgrade, frame):
            await upgrade()
            return [await frame(batch) for batch in batches]

        return asyncio.run(session(AllocationService(engine), script))

    in_memory = replies(build_engine())
    durable = DurableEngine(build_engine(), WriteAheadLog(str(tmp_path), fsync="never"))
    logged = replies(durable)
    records = durable.wal.last_seq
    durable.close()
    assert logged == in_memory
    placed, again, other, third = in_memory[0]
    assert "duplicate" not in placed and "duplicate" not in other
    for copy in (again, third):
        assert copy == {**placed, "duplicate": True}
    refused, refused_again = in_memory[1]
    assert refused["ok"] is False and refused["error_type"] == "rejected", refused
    assert refused_again == refused
    assert records == 3, "r-1, r-2 and r-3 logged once each"
    duplicates = durable.engine.metrics.as_dict()["repro_service_duplicate_requests_total"]
    assert duplicates == 2


# -- connections at shutdown and a client that stops reading -------------------
async def _front(shards: int, **kwargs):
    """A direct server (``shards=0``) or a router over in-process workers:
    ``(front, port, workers)``, no workers for the direct server."""
    if shards == 0:
        front = AllocationService(build_engine(), **kwargs)
        return front, await front.start("127.0.0.1", 0), []
    workers = [AllocationService(build_engine()) for _ in range(shards)]
    ports = [await w.start("127.0.0.1", 0) for w in workers]
    front = ShardRouter([("127.0.0.1", p) for p in ports], **kwargs)
    await front.connect()
    return front, await front.start("127.0.0.1", 0), workers


@pytest.mark.parametrize("shards", [0, 2], ids=["server", "router"])
def test_shutdown_closes_the_connections_still_open(shards):
    """An idle client connected across ``shutdown`` sees end of stream,
    and no handler is left for the event loop to cancel (which asyncio
    reports through the loop's exception handler)."""
    errors: list = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context)
        )
        front, port, workers = await _front(shards)
        closed = asyncio.ensure_future(front.wait_closed())
        idle_json = await asyncio.open_connection("127.0.0.1", port)
        idle_binary = await asyncio.open_connection("127.0.0.1", port)
        idle_binary[1].write(wire.hello_line())
        assert json.loads(await idle_binary[0].readline())["protocol"] == "binary"
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b'{"op": "shutdown"}\n')
        assert json.loads(await reader.readline())["bye"] is True
        await asyncio.wait_for(closed, 10)
        for idle_reader, idle_writer in (idle_json, idle_binary):
            assert await asyncio.wait_for(idle_reader.read(), 10) == b""
            idle_writer.close()
        writer.close()
        for worker in workers:  # the router broadcast the shutdown
            await asyncio.wait_for(worker.wait_closed(), 10)

    asyncio.run(main())
    assert errors == []


def test_router_shutdown_leaves_no_backend_connection_open():
    """``shutdown`` closes the workers first, so each backend link sees
    its connection break, reconnects to a listener still open, and is
    then cancelled mid-hello by the router's own close: the broken
    connection and the half-made one are both closed, not dropped for
    the garbage collector to warn about."""

    async def main():
        front, port, workers = await _front(2)
        closed = asyncio.ensure_future(front.wait_closed())
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b'{"op": "shutdown"}\n')
        assert json.loads(await reader.readline())["bye"] is True
        await asyncio.wait_for(closed, 10)
        writer.close()
        for worker in workers:
            await asyncio.wait_for(worker.wait_closed(), 10)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        asyncio.run(main())
        gc.collect()
    unclosed = [str(w.message) for w in caught if "unclosed" in str(w.message)]
    assert unclosed == []


@pytest.mark.parametrize("shards", [0, 2], ids=["server", "router"])
def test_a_client_that_stops_reading_is_cut_off(shards):
    """Replies pile up until the transport pauses; the write that then
    cannot drain is bounded by ``request_timeout``, and the connection
    is dropped at once (its unsent replies with it, so nothing waits on
    a peer that does not read) and counted as a disconnect."""
    timeout = 0.3
    request = json.dumps({"op": "hello", "protocol": "x" * 50_000}).encode() + b"\n"

    async def main():
        front, port, workers = await _front(shards, request_timeout=timeout)
        counted: list = []
        count = front._count
        front._count = lambda name: (counted.append(name), count(name))
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(request * 400)  # ~20 MB of replies, none of them read
        loop = asyncio.get_running_loop()
        started = loop.time()
        while "repro_service_disconnects_total" not in counted:
            assert loop.time() - started < 20, "the stalled client was never cut off"
            await asyncio.sleep(0.02)
        waited = loop.time() - started
        while front._connections:  # the handler returns without the client
            assert loop.time() - started < 20, "the cut connection stayed open"
            await asyncio.sleep(0.02)
        # the client reads what reached it, then end of stream or a reset
        received = b""
        try:
            while chunk := await asyncio.wait_for(reader.read(1 << 16), 20):
                received += chunk
        except ConnectionResetError:
            pass
        assert received.count(b"\n") < 400
        writer.close()
        front._shutdown.set()
        await asyncio.wait_for(front.wait_closed(), 10)
        for worker in workers:
            worker._shutdown.set()
            await asyncio.wait_for(worker.wait_closed(), 10)
        return waited, counted, (workers or [front])[0].engine.metrics.as_dict()

    waited, counted, metrics = asyncio.run(main())
    assert waited >= timeout
    assert counted.count("repro_service_disconnects_total") == 1
    if not shards:  # the router's own counters are inert
        assert metrics["repro_service_disconnects_total"] == 1
