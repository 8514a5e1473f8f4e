"""The consistent-hash router: fleet ≡ standalone shards ≡ batch engine.

The fleet tentpole's load-bearing guarantee is differential: a 2-shard
fleet driven through the router leaves each shard's durable state —
WAL bytes, checkpoint bytes, engine snapshot, metrics — **bit-identical**
to a standalone single-shard service fed that shard's key-partitioned
subsequence directly, which in turn matches the batch engine on the
same subsequence.  On top sit the router's own behaviours: protocol
hardening with the service's error taxonomy, shard-labelled metrics
aggregation, live handoff that loses no accepted request, and survival
of a worker killed mid-stream (the link window + dedup replay).
"""

from __future__ import annotations

import asyncio
import json
import os
import random

import pytest

from repro.algorithms import make_algorithm
from repro.core.packing import run_packing
from repro.service import (
    AllocationService,
    HashRing,
    MetricsRegistry,
    RetryPolicy,
    ShardRouter,
    StreamingEngine,
    partition_items,
    recover,
    route_key,
    run_loadgen,
    tenantize,
)
from repro.service import protocol as wire
from repro.service.snapshot import dumps
from repro.workloads import poisson_workload

N_JOBS = 240
TENANTS = 8
SHARDS = 2


def make_engine():
    return StreamingEngine.scalar(
        make_algorithm("first-fit"), metrics=MetricsRegistry()
    )


def trace():
    items = poisson_workload(N_JOBS, seed=23, mu_target=8.0, arrival_rate=6.0)
    return sorted(items, key=lambda it: it.arrival)


def durable_files(directory) -> dict[str, bytes]:
    """name -> bytes of the WAL segments and checkpoints (identity files
    like MANIFEST are deliberately outside the durable byte stream)."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith(("wal-", "checkpoint-")):
            with open(os.path.join(directory, name), "rb") as f:
                out[name] = f.read()
    return out


# -- the ring -----------------------------------------------------------------
def test_ring_is_deterministic_across_instances():
    a, b = HashRing(4), HashRing(4)
    keys = list(range(1000))
    assert [a.node_for_key(k) for k in keys] == [b.node_for_key(k) for k in keys]
    with pytest.raises(ValueError):
        HashRing(0)


def test_ring_spreads_and_mostly_persists_on_resize():
    ring4, ring5 = HashRing(4), HashRing(5)
    keys = list(range(4000))
    owners4 = [ring4.node_for_key(k) for k in keys]
    from collections import Counter

    spread = Counter(owners4)
    assert len(spread) == 4
    assert min(spread.values()) > len(keys) * 0.1  # no starving shard
    moved = sum(
        1 for k, o in zip(keys, owners4) if ring5.node_for_key(k) != o
    )
    # consistent hashing: growing 4 -> 5 moves roughly 1/5 of the keys,
    # nowhere near the ~4/5 a modulo mapping would reshuffle
    assert moved / len(keys) < 0.45


def test_ring_single_vnode_still_covers_every_key():
    ring = HashRing(3, replicas=1)
    owners = {ring.node_for_key(k) for k in range(2000)}
    assert owners <= {0, 1, 2}
    # with one vnode per node every key must still land somewhere valid,
    # including keys hashing past the highest point (the wraparound arc)
    assert len(owners) >= 1
    with pytest.raises(ValueError):
        HashRing(3, replicas=0)


def test_ring_membership_edge_cases():
    ring = HashRing(2)
    assert ring.members == frozenset({0, 1})
    ring.remove_node(1)
    assert ring.members == frozenset({0})
    # the last member can never leave — keys must always map somewhere
    with pytest.raises(ValueError, match="last member"):
        ring.remove_node(0)
    # removing a node that is not on the ring is a caller bug
    with pytest.raises(KeyError):
        ring.remove_node(7)
    assert ring.node_for_key(12345) == 0  # single-member shortcut holds


def test_ring_add_remove_readd_restores_the_exact_mapping():
    ring = HashRing(4)
    keys = list(range(3000))
    before = [ring.node_for_key(k) for k in keys]
    ring.remove_node(2)
    assert all(ring.node_for_key(k) != 2 for k in keys)
    ring.add_node(2)
    assert [ring.node_for_key(k) for k in keys] == before
    # re-adding an existing member is an idempotent no-op
    ring.add_node(2)
    assert [ring.node_for_key(k) for k in keys] == before
    assert ring.num_nodes == 4


@pytest.mark.parametrize("n", [2, 4, 8])
def test_ring_resize_moves_at_most_its_fair_share(n):
    """Property: growing N -> N+1 moves ~1/(N+1) of the keys, not more.

    The bound is 1/(N+1) plus generous slack for vnode-placement
    variance at 64 replicas — far below the (N-1)/N a modulo mapping
    reshuffles, which is the failure mode this guards against.
    """
    small, big = HashRing(n), HashRing(n + 1)
    keys = list(range(6000))
    moved = sum(1 for k in keys if small.node_for_key(k) != big.node_for_key(k))
    fair = 1.0 / (n + 1)
    assert moved / len(keys) < fair + 0.15
    # and every moved key moved *to the new node*, never between old ones
    for k in keys:
        a, b = small.node_for_key(k), big.node_for_key(k)
        if a != b:
            assert b == n


def test_partition_items_matches_route_key():
    items = tenantize(trace(), TENANTS)
    parts = partition_items(items, SHARDS, tenants=TENANTS)
    assert sum(len(p) for p in parts) == len(items)
    ring = HashRing(SHARDS)
    for shard, part in enumerate(parts):
        for it in part:
            assert ring.node_for_key(route_key(it.item_id, TENANTS)) == shard
    # per-shard order is the global submission order restricted to the shard
    for part in parts:
        arrivals = [it.arrival for it in part]
        assert arrivals == sorted(arrivals)


def test_tenantize_keys_are_stable_and_unique():
    items = trace()
    a = tenantize(items, TENANTS)
    b = tenantize(items, TENANTS)
    assert [it.item_id for it in a] == [it.item_id for it in b]
    ids = [it.item_id for it in a]
    assert len(set(ids)) == len(ids)
    assert {it.item_id % TENANTS for it in a} <= set(range(TENANTS))
    # only the ids change
    assert [(it.size, it.arrival, it.departure) for it in a] == [
        (it.size, it.arrival, it.departure) for it in items
    ]


# -- in-process fleet plumbing ------------------------------------------------
class Fleet:
    """N durable in-process services behind one router."""

    def __init__(self, tmp_path, prefix, shards=SHARDS, tenants=TENANTS,
                 checkpoint_every=1000):
        self.dirs = [str(tmp_path / f"{prefix}-{i}") for i in range(shards)]
        self.checkpoint_every = checkpoint_every
        self.tenants = tenants
        self.engines = [None] * shards
        self.services = [None] * shards
        self.router = None
        self.front = None

    def boot_shard(self, i):
        engine, _ = recover(
            self.dirs[i],
            engine_builder=make_engine,
            metrics=MetricsRegistry(),
            fsync="never",
            checkpoint_every=self.checkpoint_every,
        )
        self.engines[i] = engine
        self.services[i] = AllocationService(engine, quiet=True)
        return self.services[i]

    async def start(self, handoff_callback=None):
        ports = []
        for i in range(len(self.dirs)):
            self.boot_shard(i)
            ports.append(await self.services[i].start("127.0.0.1", 0))
        self.router = ShardRouter(
            [("127.0.0.1", p) for p in ports],
            tenants=self.tenants,
            reconnect_wait=10.0,
            handoff_callback=handoff_callback,
        )
        await self.router.connect()
        self.front = await self.router.start("127.0.0.1", 0)
        return self.front

    async def stop(self):
        self.router.shutdown()
        await self.router.wait_closed()
        for service in self.services:
            service._shutdown.set()
            await service.wait_closed()
        for engine in self.engines:
            engine.close()


# -- the differential ---------------------------------------------------------
async def json_call(port, *docs):
    """Send JSON ops on one throwaway connection; returns the replies."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    out = []
    for doc in docs:
        writer.write((json.dumps(doc) + "\n").encode())
        await writer.drain()
        out.append(json.loads(await reader.readline()))
    writer.close()
    return out


def standalone_run(wal_dir, part, loadgen_kwargs):
    """One shard's subsequence against a plain single service.

    After the drain an explicit ``checkpoint`` op is cut, mirroring the
    fleet run — both sides then hold a checkpoint at the same WAL seq,
    which the test compares byte-for-byte.  (Automatic mid-run
    checkpoint *cadence* is allowed to differ: it follows group-commit
    boundaries, which the router's batch splitting legitimately moves.)
    """

    async def go():
        engine, _ = recover(
            wal_dir, engine_builder=make_engine, fsync="never",
        )
        service = AllocationService(engine, quiet=True)
        port = await service.start("127.0.0.1", 0)
        waiter = asyncio.ensure_future(service.wait_closed())
        report = await run_loadgen(part, port=port, **loadgen_kwargs)
        checkpoint, _ = await json_call(
            port, {"op": "checkpoint"}, {"op": "shutdown"}
        )
        assert checkpoint["ok"], checkpoint
        await waiter
        return engine, report

    engine, report = asyncio.run(go())
    snapshot = dumps(engine.engine)
    metrics = engine.engine.metrics.as_dict()
    engine.close()
    return {
        "snapshot": snapshot,
        "metrics": metrics,
        "files": durable_files(wal_dir),
        "report": report,
    }


@pytest.mark.parametrize(
    "loadgen_kwargs",
    [{}, {"protocol": "binary", "batch": 16, "pipeline": 4}],
    ids=["json", "binary-pipelined"],
)
def test_fleet_is_bit_identical_to_standalone_shards(tmp_path, loadgen_kwargs):
    items = trace()
    tenantized = tenantize(items, TENANTS)
    parts = partition_items(tenantized, SHARDS, tenants=TENANTS)
    assert all(parts), "trace must exercise every shard"

    async def fleet_run():
        fleet = Fleet(tmp_path, "fleet")
        front = await fleet.start()
        report = await run_loadgen(
            items, port=front, tenants=TENANTS, **loadgen_kwargs
        )
        (checkpoint,) = await json_call(front, {"op": "checkpoint"})
        assert checkpoint["ok"] and len(checkpoint["shards"]) == SHARDS
        await fleet.stop()
        return fleet, report

    fleet, report = asyncio.run(fleet_run())
    assert report.jobs == N_JOBS
    assert report.errors == 0
    assert sum(report.per_shard.values()) == N_JOBS
    assert report.per_shard == {
        str(i): len(parts[i]) for i in range(SHARDS)
    }
    fleet_state = [
        {
            "snapshot": dumps(fleet.engines[i].engine),
            "metrics": fleet.engines[i].engine.metrics.as_dict(),
            "files": durable_files(fleet.dirs[i]),
        }
        for i in range(SHARDS)
    ]

    total_bins = 0.0
    total_usage = 0.0
    for i in range(SHARDS):
        alone = standalone_run(
            str(tmp_path / f"alone-{i}"), parts[i], loadgen_kwargs
        )
        assert alone["report"].errors == 0
        # bit-identical durable state: same snapshot, same WAL segment
        # and checkpoint file names with the same bytes, same metrics
        assert fleet_state[i]["snapshot"] == alone["snapshot"], i
        assert fleet_state[i]["metrics"] == alone["metrics"], i
        assert fleet_state[i]["files"] == alone["files"], i
        assert fleet_state[i]["files"], i  # the compare is not vacuous
        # and the shard agrees with the batch engine on its subsequence
        batch = run_packing(parts[i], make_algorithm("first-fit"))
        assert alone["report"].drain["bins"] == batch.num_bins
        assert alone["report"].drain["total_usage_time"] == pytest.approx(
            batch.total_usage_time
        )
        total_bins += batch.num_bins
        total_usage += batch.total_usage_time
    # the router's drain aggregation is the sum over shards
    assert report.drain["bins"] == total_bins
    assert report.drain["total_usage_time"] == pytest.approx(total_usage)


def test_single_shard_fleet_matches_direct_service(tmp_path):
    """The 1-shard router is a transparent proxy (degenerate fleet)."""
    items = trace()
    kwargs = {"protocol": "binary", "batch": 16, "pipeline": 2}

    async def routed():
        fleet = Fleet(tmp_path, "routed", shards=1, tenants=0)
        front = await fleet.start()
        report = await run_loadgen(items, port=front, **kwargs)
        (checkpoint,) = await json_call(front, {"op": "checkpoint"})
        assert checkpoint["ok"], checkpoint
        await fleet.stop()
        return dumps(fleet.engines[0].engine), durable_files(fleet.dirs[0]), report

    snapshot, files, report = asyncio.run(routed())
    assert report.errors == 0
    direct = standalone_run(str(tmp_path / "direct"), items, kwargs)
    assert snapshot == direct["snapshot"]
    assert files == direct["files"]
    assert report.actions == direct["report"].actions


# -- handoff ------------------------------------------------------------------
def test_handoff_mid_stream_loses_nothing(tmp_path):
    """Drain -> checkpoint -> restart on the same WAL dir -> repoint.

    Half the jobs land before the handoff, a few acknowledged ids are
    maliciously resent after it (the at-least-once replay a crashed
    client would produce), and the rest land after.  The recovered
    worker's dedup window absorbs the replays, so the final state is
    identical to an uninterrupted run.
    """
    items = tenantize(trace(), TENANTS)
    half = len(items) // 2

    async def run(with_handoff):
        fleet = Fleet(tmp_path, "hand" if with_handoff else "ctrl")

        async def handoff(shard):
            await fleet.router.pause_shard(shard)
            try:
                doc = await fleet.router.shard_control(
                    shard, {"op": "checkpoint"}
                )
                assert doc.get("ok"), doc
                await fleet.router.shard_control(shard, {"op": "shutdown"})
                await fleet.services[shard].wait_closed()
                fleet.engines[shard].close()
                service = fleet.boot_shard(shard)
                port = await service.start("127.0.0.1", 0)
                await fleet.router.redirect_shard(shard, "127.0.0.1", port)
            finally:
                fleet.router.resume_shard(shard)
            return {"port": port}

        front = await fleet.start(handoff_callback=handoff)
        reader, writer = await asyncio.open_connection("127.0.0.1", front)

        async def call(doc):
            writer.write((json.dumps(doc) + "\n").encode())
            await writer.drain()
            return json.loads(await reader.readline())

        def submit_doc(it):
            return {
                "op": "submit",
                "request_id": f"rid-{it.item_id}",
                "job": {
                    "id": it.item_id, "size": it.size,
                    "arrival": it.arrival, "departure": it.departure,
                },
            }

        first = {}
        for it in items[:half]:
            doc = await call(submit_doc(it))
            assert doc["ok"], doc
            first[it.item_id] = doc
        if with_handoff:
            for shard in range(SHARDS):
                doc = await call({"op": "handoff", "shard": shard})
                assert doc["ok"] and "port" in doc, doc
            # replay a few acknowledged submits: the recovered dedup
            # window must serve the cached outcome, not double-place,
            # and flag it as a replay
            for it in items[:10]:
                doc = await call(submit_doc(it))
                assert doc["placement"] == first[it.item_id]["placement"], it.item_id
                assert doc["duplicate"] is True, it.item_id
        for it in items[half:]:
            doc = await call(submit_doc(it))
            assert doc["ok"], doc
        stats = (await call({"op": "stats"}))["stats"]
        assert stats["totals"]["placed"] == len(items)
        drain = await call({"op": "drain"})
        assert drain["ok"], drain
        writer.close()
        await fleet.stop()
        return (
            [json.loads(dumps(e.engine)) for e in fleet.engines],
            {k: v for k, v in drain.items() if k != "ok"},
        )

    snapshots_handoff, drain_handoff = asyncio.run(run(True))
    snapshots_control, drain_control = asyncio.run(run(False))
    assert drain_handoff == drain_control
    # The packing state must be identical; the durable layer's own
    # counters legitimately differ (the handoff run performed an extra
    # recovery, cut a checkpoint, and answered replays from the dedup
    # window), so those — and only those — are excluded.
    from repro.service.recovery import _DURABLE_COUNTERS

    durable_names = {name for name, _ in _DURABLE_COUNTERS}
    for snap in (*snapshots_handoff, *snapshots_control):
        for name in durable_names:
            snap["metrics"].pop(name, None)
    assert snapshots_handoff == snapshots_control


# -- aggregation and hardening ------------------------------------------------
def test_metrics_are_aggregated_under_shard_labels(tmp_path):
    async def go():
        fleet = Fleet(tmp_path, "metrics")
        front = await fleet.start()
        await run_loadgen(
            tenantize(trace(), TENANTS)[:60], port=front, drain=False
        )
        reader, writer = await asyncio.open_connection("127.0.0.1", front)
        writer.write(b'{"op":"metrics"}\n{"op":"stats"}\n{"op":"ping"}\n')
        await writer.drain()
        metrics = json.loads(await reader.readline())
        stats = json.loads(await reader.readline())
        ping = json.loads(await reader.readline())
        writer.close()
        await fleet.stop()
        return metrics, stats, ping

    metrics, stats, ping = asyncio.run(go())
    assert metrics["ok"]
    text = metrics["text"]
    for i in range(SHARDS):
        assert f'shard="{i}"' in text
    # one TYPE header per family even though every shard declares it
    assert text.count("# TYPE repro_service_jobs_submitted_total counter") == 1
    assert "repro_router_requests_total" in text
    router_stats = stats["stats"]["router"]
    assert router_stats["shards"] == SHARDS
    assert router_stats["tenants"] == TENANTS
    assert sum(router_stats["per_shard_requests"]) == 60
    assert stats["stats"]["totals"]["placed"] == 60
    assert len(stats["stats"]["shards"]) == SHARDS
    assert ping == {"ok": True, "pong": True, "shards": SHARDS}


def test_router_error_taxonomy(tmp_path):
    async def go():
        fleet = Fleet(tmp_path, "tax")
        front = await fleet.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", front)

        async def call(raw):
            writer.write(raw)
            await writer.drain()
            return json.loads(await reader.readline())

        out = {}
        out["malformed"] = await call(b"{nope\n")
        out["not_object"] = await call(b"[1,2]\n")
        # unknown op: forwarded to shard 0 so the worker's taxonomy is
        # the single source of truth
        out["unknown"] = await call(b'{"op":"frobnicate"}\n')
        out["bad_submit"] = await call(b'{"op":"submit","job":{"id":"x"}}\n')
        out["handoff_nosup"] = await call(b'{"op":"handoff","shard":0}\n')
        out["handoff_range"] = await call(b'{"op":"handoff","shard":99}\n')
        out["ping"] = await call(b'{"op":"ping"}\n')  # still alive
        writer.close()
        await fleet.stop()
        return out

    out = asyncio.run(go())
    assert out["malformed"]["error_type"] == "malformed_json"
    assert out["not_object"]["error_type"] == "protocol"
    assert out["unknown"]["error_type"] == "protocol"
    assert not out["bad_submit"]["ok"]
    assert out["handoff_nosup"]["error_type"] == "protocol"
    assert out["handoff_range"]["error_type"] == "protocol"
    assert out["ping"]["ok"]


def test_binary_front_hardening(tmp_path):
    async def go():
        fleet = Fleet(tmp_path, "bin")
        front = await fleet.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", front)
        writer.write(wire.hello_line())
        await writer.drain()
        ack = json.loads(await reader.readline())
        assert ack["ok"] and ack["protocol"] == "binary"

        async def frame_call(payload):
            writer.write(wire.frame(payload))
            await writer.drain()
            head = await reader.readexactly(wire.HEADER.size)
            (length,) = wire.HEADER.unpack(head)
            return await reader.readexactly(length)

        # zero-length frame: reported, connection survives
        writer.write(wire.HEADER.pack(0))
        await writer.drain()
        head = await reader.readexactly(wire.HEADER.size)
        (length,) = wire.HEADER.unpack(head)
        zero = wire.decode_response(await reader.readexactly(length))
        # advance broadcasts and aggregates
        advance = wire.decode_response(await frame_call(wire.encode_advance(5.0)))
        # unknown opcode
        unknown = wire.decode_response(await frame_call(b"\xee\x00"))
        # an OP_JSON control op over the binary front
        ping = wire.decode_response(
            await frame_call(wire.encode_json_request({"op": "ping"}))
        )
        writer.close()
        await fleet.stop()
        return zero, advance, unknown, ping

    zero, advance, unknown, ping = asyncio.run(go())
    assert zero["error_type"] == "malformed_frame"
    assert advance["ok"] and advance["clock"] == 5.0 and advance["departed"] == 0
    assert unknown["error_type"] == "protocol"
    assert ping["ok"] and ping["pong"]


def test_oversized_frame_closes_with_frame_too_long(tmp_path):
    async def go():
        fleet = Fleet(tmp_path, "big")
        front = await fleet.start()
        fleet.router.max_line_bytes = 4096
        reader, writer = await asyncio.open_connection("127.0.0.1", front)
        writer.write(wire.hello_line())
        await writer.drain()
        assert json.loads(await reader.readline())["ok"]
        writer.write(wire.HEADER.pack(1 << 20))
        await writer.drain()
        head = await reader.readexactly(wire.HEADER.size)
        (length,) = wire.HEADER.unpack(head)
        doc = wire.decode_response(await reader.readexactly(length))
        tail = await reader.read()  # router closes after the error
        writer.close()
        await fleet.stop()
        return doc, tail

    doc, tail = asyncio.run(go())
    assert doc["error_type"] == "frame_too_long"
    assert tail == b""


@pytest.mark.chaos
def test_router_front_survives_random_garbage(tmp_path):
    """Seeded fuzz at the router's front door: it must answer every
    well-framed probe with a structured error and outlive the rest."""
    rng = random.Random(1337)

    async def go():
        fleet = Fleet(tmp_path, "fuzz")
        front = await fleet.start()
        for round_no in range(30):
            reader, writer = await asyncio.open_connection("127.0.0.1", front)
            mode = round_no % 3
            try:
                if mode == 0:  # garbage JSON lines
                    for _ in range(rng.randint(1, 5)):
                        blob = bytes(
                            rng.randrange(32, 127)
                            for _ in range(rng.randint(1, 80))
                        )
                        writer.write(blob + b"\n")
                        await writer.drain()
                        doc = json.loads(await asyncio.wait_for(
                            reader.readline(), 5.0
                        ))
                        assert "error_type" in doc or doc.get("ok")
                elif mode == 1:  # well-framed random binary payloads
                    writer.write(wire.hello_line())
                    await writer.drain()
                    await asyncio.wait_for(reader.readline(), 5.0)
                    for _ in range(rng.randint(1, 5)):
                        payload = bytes(
                            rng.randrange(256)
                            for _ in range(rng.randint(1, 64))
                        )
                        writer.write(wire.frame(payload))
                        await writer.drain()
                        head = await asyncio.wait_for(
                            reader.readexactly(wire.HEADER.size), 5.0
                        )
                        (length,) = wire.HEADER.unpack(head)
                        await asyncio.wait_for(
                            reader.readexactly(length), 5.0
                        )
                else:  # torn connections mid-frame
                    writer.write(wire.HEADER.pack(rng.randint(1, 512)))
                    await writer.drain()
            except (ConnectionError, asyncio.IncompleteReadError):
                pass  # the router may close on fatal framing — allowed
            writer.close()
        # after the storm the router still routes real work
        report = await run_loadgen(
            tenantize(trace(), TENANTS)[:40], port=front, tenants=TENANTS
        )
        await fleet.stop()
        return report

    report = asyncio.run(go())
    assert report.errors == 0
    assert report.jobs == 40
