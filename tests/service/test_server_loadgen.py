"""End-to-end: the asyncio JSON-lines server and the load generator.

Two layers: library-level (AllocationService + run_loadgen on one event
loop, ephemeral port) and CLI-level (``repro serve`` in a thread with
``--port 0 --port-file``, ``repro loadgen --shutdown`` through
``main()`` — the exact loopback recipe the README documents).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.algorithms import make_algorithm
from repro.cli import main
from repro.core.packing import run_packing
from repro.service import (
    AllocationService,
    LoadgenReport,
    build_engine,
    make_admission_policy,
    run_loadgen,
)
from repro.workloads import poisson_workload


async def serve_and_drive(engine, client_coro_factory):
    """Start a service on an ephemeral port, run the client against it."""
    service = AllocationService(engine, quiet=True)
    port = await service.start("127.0.0.1", 0)
    waiter = asyncio.ensure_future(service.wait_closed())
    try:
        return await client_coro_factory(port), service
    finally:
        await waiter


class TestLoopbackLibrary:
    def test_loadgen_replay_matches_batch(self):
        items = poisson_workload(150, seed=9, mu_target=8.0, arrival_rate=4.0)
        engine = build_engine(algorithm="first-fit", capacity=items.capacity)

        async def scenario():
            return await serve_and_drive(
                engine,
                lambda port: run_loadgen(items, port=port, shutdown=True),
            )

        report, service = asyncio.run(scenario())
        assert isinstance(report, LoadgenReport)
        assert report.jobs == 150
        assert report.errors == 0
        assert report.actions == {"placed": 150}
        assert report.requests_per_sec > 0
        assert len(report.latencies_ms) == 150
        # the drained packing equals the batch run on the same instance
        batch = run_packing(
            items, make_algorithm("first-fit"), capacity=items.capacity
        )
        assert report.drain["bins"] == batch.num_bins
        assert report.drain["total_usage_time"] == batch.total_usage_time
        assert service.requests_served == 150 + 2  # + drain + shutdown

    def test_protocol_ops(self):
        engine = build_engine(
            admission=make_admission_policy("reject", max_open=1)
        )

        async def scenario():
            async def client(port):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)

                async def call(payload):
                    writer.write((json.dumps(payload) + "\n").encode())
                    await writer.drain()
                    return json.loads(await reader.readline())

                out = {}
                out["ping"] = await call({"op": "ping"})
                out["sub1"] = await call({"op": "submit", "job": {
                    "id": 1, "size": 0.9, "arrival": 0.0, "departure": 5.0}})
                out["sub2"] = await call({"op": "submit", "job": {
                    "id": 2, "size": 0.9, "arrival": 1.0, "departure": 6.0}})
                out["stats"] = await call({"op": "stats"})
                out["advance"] = await call({"op": "advance", "now": 5.5})
                out["metrics"] = await call({"op": "metrics"})
                out["checkpoint"] = await call({"op": "checkpoint"})
                out["bad_op"] = await call({"op": "frobnicate"})
                out["bad_json"] = None
                writer.write(b"{not json\n")
                await writer.drain()
                out["bad_json"] = json.loads(await reader.readline())
                out["drain"] = await call({"op": "drain"})
                await call({"op": "shutdown"})
                writer.close()
                return out

            return await serve_and_drive(engine, client)

        out, _ = asyncio.run(scenario())
        assert out["ping"] == {"ok": True, "pong": True}
        assert out["sub1"]["placement"]["action"] == "placed"
        assert out["sub2"]["placement"]["action"] == "rejected"
        assert out["stats"]["stats"]["open_bins"] == 1
        assert out["stats"]["stats"]["admission"]["reject"] == 1
        assert out["advance"]["departed"] == 1
        assert "repro_service_jobs_submitted_total 2" in out["metrics"]["text"]
        assert out["checkpoint"]["snapshot"]["kind"] == "scalar"
        assert out["bad_op"]["ok"] is False
        assert out["bad_json"]["ok"] is False
        assert out["drain"]["ok"] is True

    def test_checkpoint_to_file(self, tmp_path):
        engine = build_engine()
        target = str(tmp_path / "ckpt.json")

        async def scenario():
            async def client(port):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)

                async def call(payload):
                    writer.write((json.dumps(payload) + "\n").encode())
                    await writer.drain()
                    return json.loads(await reader.readline())

                await call({"op": "submit", "job": {
                    "id": 7, "size": 0.5, "arrival": 0.0, "departure": 3.0}})
                response = await call({"op": "checkpoint", "path": target})
                await call({"op": "shutdown"})
                writer.close()
                return response

            return await serve_and_drive(engine, client)

        response, _ = asyncio.run(scenario())
        assert response == {"ok": True, "path": target}
        with open(target) as f:
            doc = json.load(f)
        assert doc["item_bin"] == [7, 0]


class TestLoopbackCli:
    def test_serve_and_loadgen_commands(self, tmp_path, capsys):
        """The README quickstart, end to end through ``main()``."""
        port_file = tmp_path / "port.txt"
        log_file = tmp_path / "decisions.jsonl"
        report_file = tmp_path / "loadgen.json"
        server = threading.Thread(
            target=main,
            args=(
                [
                    "serve", "--port", "0",
                    "--port-file", str(port_file),
                    "--quiet",
                    "--admission", "reject", "--max-open", "200",
                    "--log", str(log_file),
                ],
            ),
            daemon=True,
        )
        server.start()
        deadline = time.time() + 10
        while not port_file.exists() and time.time() < deadline:
            time.sleep(0.02)
        assert port_file.exists(), "serve never wrote its port file"
        port = port_file.read_text().strip()

        rc = main([
            "loadgen", "--port", port, "--n", "80", "--seed", "3",
            "--shutdown", "--json", str(report_file),
        ])
        assert rc == 0
        server.join(timeout=10)
        assert not server.is_alive()
        out = capsys.readouterr().out
        assert "80 jobs" in out
        assert "placed=80" in out
        payload = json.loads(report_file.read_text())
        assert payload["jobs"] == 80
        assert payload["errors"] == 0
        assert payload["drain"]["bins"] > 0
        # the decision log recorded every submit and every departure
        records = [json.loads(l) for l in log_file.read_text().splitlines()]
        assert sum(1 for r in records if r["op"] == "submit") == 80
        assert sum(1 for r in records if r["op"] == "depart") == 80

    def test_loadgen_against_dead_port_fails_cleanly(self, capsys):
        rc = main(["loadgen", "--port", "1", "--n", "5"])
        assert rc == 1
        assert "cannot reach the service" in capsys.readouterr().err

    def test_serve_rejects_inconsistent_admission_flags(self, capsys):
        rc = main(["serve", "--admission", "shed"])
        assert rc == 2
        assert "--max-load" in capsys.readouterr().err

    def test_port_validation(self):
        with pytest.raises(SystemExit):
            main(["serve", "--port", "70000"])
        with pytest.raises(SystemExit):
            main(["loadgen", "--port", "-1"])


class TestReportAndBinaryCli:
    def test_report_percentiles_render_and_json(self):
        report = LoadgenReport(
            jobs=100,
            actions={"placed": 100},
            wall_seconds=2.0,
            latencies_ms=[float(i + 1) for i in range(100)],
        )
        assert report.latency_percentile(50) == 51.0
        assert report.latency_percentile(95) == 96.0
        text = report.render()
        assert "p50=51.000" in text
        assert "p95=96.000" in text
        assert "p99=100.000" in text
        payload = report.to_json()
        assert payload["latency_ms"] == {
            "p50": 51.0, "p90": 91.0, "p95": 96.0, "p99": 100.0,
        }

    def test_request_latency_histogram_on_metrics_endpoint(self):
        """Per-request latency is service-owned — observed on both wire
        protocols, exposed on the metrics op, and absent from the engine
        registry (which checkpoints and must stay protocol-independent)."""
        items = poisson_workload(30, seed=5, mu_target=8.0, arrival_rate=4.0)
        engine = build_engine(algorithm="first-fit", capacity=items.capacity)

        async def scenario():
            return await serve_and_drive(
                engine,
                lambda port: run_loadgen(
                    items, port=port, shutdown=True,
                    protocol="binary", batch=8, pipeline=2,
                ),
            )

        report, service = asyncio.run(scenario())
        assert report.errors == 0
        text = service.service_metrics.expose_text()
        assert "repro_service_request_latency_seconds_count" in text
        assert "repro_service_request_latency_seconds_bucket" in text
        assert "repro_service_request_latency_seconds" not in (
            engine.metrics.expose_text()
        )

    def test_pipeline_requires_binary_protocol(self, capsys):
        rc = main(["loadgen", "--port", "1", "--n", "5", "--pipeline", "4"])
        assert rc == 2
        assert "binary" in capsys.readouterr().err

    def test_serve_and_loadgen_binary_pipelined_cli(self, tmp_path, capsys):
        port_file = tmp_path / "port.txt"
        report_file = tmp_path / "loadgen.json"
        server = threading.Thread(
            target=main,
            args=(
                ["serve", "--port", "0", "--port-file", str(port_file),
                 "--quiet"],
            ),
            daemon=True,
        )
        server.start()
        deadline = time.time() + 10
        while not port_file.exists() and time.time() < deadline:
            time.sleep(0.02)
        assert port_file.exists(), "serve never wrote its port file"
        port = port_file.read_text().strip()

        rc = main([
            "loadgen", "--port", port, "--n", "80", "--seed", "3",
            "--protocol", "binary", "--batch", "16", "--pipeline", "4",
            "--shutdown", "--json", str(report_file),
        ])
        assert rc == 0
        server.join(timeout=10)
        assert not server.is_alive()
        out = capsys.readouterr().out
        assert "80 jobs" in out
        assert "placed=80" in out
        assert "p95=" in out
        payload = json.loads(report_file.read_text())
        assert payload["jobs"] == 80
        assert payload["errors"] == 0
        assert payload["actions"] == {"placed": 80}
        assert payload["drain"]["bins"] > 0
