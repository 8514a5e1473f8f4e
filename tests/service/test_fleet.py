"""The fleet supervisor: real worker processes behind the router.

Two layers are exercised here.  The tier-1 smoke drives the actual
``repro fleet`` CLI as a subprocess — workers spawn, the router binds,
a tenant-keyed loadgen runs through it, and a clean ``shutdown``
broadcast takes the whole fleet down with rc 0.  The chaos test runs
the :class:`FleetSupervisor` in-process and murders one worker
mid-stream with a fault plan; the supervisor must respawn it on the
same WAL directory and the client must observe zero errors (the link
window resend + the recovered dedup window = exactly-once).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service import (
    FleetSupervisor,
    RetryPolicy,
    partition_items,
    read_manifest,
    run_loadgen,
    tenantize,
    write_manifest,
)
from repro.workloads import poisson_workload

TENANTS = 8
SHARDS = 2


def trace(n=160, seed=7):
    items = poisson_workload(n, seed=seed, mu_target=8.0, arrival_rate=6.0)
    return sorted(items, key=lambda it: it.arrival)


def _env_with_src():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    paths = [p for p in (src, env.get("PYTHONPATH")) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def wait_for_port(port_file, proc=None, deadline=30.0):
    """Poll ``port_file`` until a port appears (or ``proc`` dies)."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            with open(port_file) as f:
                text = f.read().strip()
            if text:
                return int(text)
        except (FileNotFoundError, ValueError):
            pass
        if proc is not None and proc.poll() is not None:
            raise RuntimeError(f"fleet exited early with rc {proc.returncode}")
        time.sleep(0.02)
    raise RuntimeError(f"no port in {port_file} after {deadline:.0f}s")


def test_fleet_cli_smoke(tmp_path):
    """``repro fleet``: spawn 2 workers, loadgen through the router,
    clean shutdown — and each shard directory carries its MANIFEST."""
    wal_root = str(tmp_path / "fleet")
    port_file = str(tmp_path / "PORT")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fleet",
            "--shards", str(SHARDS),
            "--wal-dir", wal_root,
            "--port", "0",
            "--port-file", port_file,
            "--tenants", str(TENANTS),
            "--fsync", "never",
            "--quiet",
        ],
        env=_env_with_src(),
    )
    try:
        port = wait_for_port(port_file, proc)
        report = asyncio.run(
            run_loadgen(
                trace(),
                port=port,
                tenants=TENANTS,
                protocol="binary",
                batch=16,
                pipeline=2,
                retry=RetryPolicy(retries=2),
                shutdown=True,
            )
        )
    finally:
        if proc.poll() is None:
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
    assert proc.returncode == 0
    assert report.errors == 0
    assert report.jobs == len(trace())
    assert report.actions.get("placed", 0) + report.actions.get(
        "rejected", 0
    ) == report.jobs
    assert set(report.per_shard) == {str(i) for i in range(SHARDS)}
    assert sum(report.per_shard.values()) == report.jobs
    assert report.drain.get("bins", 0) > 0
    # every worker stamped its shard identity onto its WAL directory
    for i in range(SHARDS):
        manifest = read_manifest(os.path.join(wal_root, f"shard-{i:02d}"))
        assert manifest is not None
        assert manifest["shard_id"] == i
        assert manifest["num_shards"] == SHARDS


def _workers_under(root: str) -> list[int]:
    """Pids of live processes whose command line names a path under ``root``."""
    needle = os.fsencode(root)
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue  # exited while we looked
        if b"serve" in argv and any(arg.startswith(needle) for arg in argv):
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_failed_fleet_boot_stops_every_worker(tmp_path):
    """One worker refusing to boot (its WAL dir belongs to a 3-shard
    fleet) fails ``repro fleet`` with rc 1, and the workers that did
    start are stopped rather than left running."""
    wal_root = str(tmp_path / "fleet")
    write_manifest(
        os.path.join(wal_root, "shard-01"),
        {"version": 1, "shard_id": 1, "num_shards": 3},
    )
    # a file, not a pipe: a leaked worker would hold a pipe open
    stderr_path = tmp_path / "stderr"
    try:
        with open(stderr_path, "w") as stderr:
            rc = subprocess.call(
                [
                    sys.executable, "-m", "repro", "fleet",
                    "--shards", str(SHARDS),
                    "--wal-dir", wal_root,
                    "--port", "0",
                    "--fsync", "never",
                    "--quiet",
                ],
                env=_env_with_src(),
                stderr=stderr,
                timeout=120,
            )
        errors = stderr_path.read_text()
        assert rc == 1, errors
        assert "shard 1 worker exited with rc 2 before binding a port" in errors
        assert "belongs to a different shard/config" in errors
        assert _workers_under(wal_root) == []
    finally:
        for pid in _workers_under(wal_root):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_sigterm_stops_every_worker(tmp_path):
    """``kill -TERM`` on ``repro fleet`` closes it with rc 0 and takes
    its workers down with it instead of leaving them reparented."""
    wal_root = str(tmp_path / "fleet")
    port_file = str(tmp_path / "PORT")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fleet",
            "--shards", str(SHARDS),
            "--wal-dir", wal_root,
            "--port", "0",
            "--port-file", port_file,
            "--fsync", "never",
            "--quiet",
        ],
        env=_env_with_src(),
    )
    try:
        wait_for_port(port_file, proc)
        assert len(_workers_under(wal_root)) == SHARDS
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        assert _workers_under(wal_root) == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in _workers_under(wal_root):
            os.kill(pid, signal.SIGKILL)


_STAND_IN_WORKER = """
import os, sys, time
port_file, delay = sys.argv[1], sys.argv[2]
if delay == "never":
    time.sleep(60)
time.sleep(float(delay))
with open(port_file + ".tmp", "w") as f:
    f.write("1\\n")
os.replace(port_file + ".tmp", port_file)
time.sleep(60)
"""


class _StaggeredFleet(FleetSupervisor):
    """Workers replaced by stand-ins that write ``PORT`` after a delay."""

    def __init__(self, wal_root, delays, spawn_deadline):
        super().__init__(len(delays), wal_root, spawn_deadline=spawn_deadline)
        self.delays = delays

    def worker_command(self, index, *, first_boot):
        return [sys.executable, "-c", _STAND_IN_WORKER,
                self._port_file(index), str(self.delays[index])]


def test_boot_deadline_restarts_whenever_a_worker_binds(tmp_path):
    """A fleet whose workers come up one after another, each within the
    spawn deadline of the last, boots even though the whole boot takes
    longer than the deadline (more shards than CPUs recover in turn)."""
    fleet = _StaggeredFleet(str(tmp_path), [0.6, 1.2, 1.8], spawn_deadline=1.0)
    try:
        assert fleet.spawn_all() == [("127.0.0.1", 1)] * 3
    finally:
        fleet.stop_workers()


def test_boot_fails_once_no_worker_binds_within_the_deadline(tmp_path):
    fleet = _StaggeredFleet(str(tmp_path), [0.2, "never"], spawn_deadline=1.0)
    try:
        with pytest.raises(RuntimeError,
                           match="shard 1 worker did not bind a port within 1s"):
            fleet.spawn_all()
        assert fleet.procs[1].wait(timeout=5) is not None  # killed
    finally:
        fleet.stop_workers()


_ROUTER_LOADS_AFTER_THE_WORKERS_START = """
import asyncio, sys

from repro.service import FleetSupervisor


class Probe(FleetSupervisor):
    def _start(self, index, *, first_boot):
        self.seen.append("repro.service.router" in sys.modules)
        super()._start(index, first_boot=first_boot)
        self._terminate()  # as SIGTERM would: stop once the router is up


fleet = Probe(2, sys.argv[1], serve_args=["--fsync", "never"])
fleet.seen = []
assert asyncio.run(fleet.run()) == 0
assert fleet.seen == [False, False], fleet.seen
assert "repro.service.router" in sys.modules
"""


def test_workers_start_before_the_router_loads(tmp_path):
    """In a fresh interpreter, every worker is started before the
    supervisor imports the router, so its import overlaps their boot."""
    proc = subprocess.run(
        [sys.executable, "-c", _ROUTER_LOADS_AFTER_THE_WORKERS_START,
         str(tmp_path / "fleet")],
        env=_env_with_src(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.chaos
def test_fleet_restarts_killed_worker_without_client_errors(tmp_path):
    """A worker murdered mid-stream (fault-plan kill at a WAL-applied
    hit) is respawned on its WAL dir; the client sees zero errors."""
    items = tenantize(trace(240, seed=23), TENANTS)
    parts = partition_items(items, SHARDS, tenants=TENANTS)
    assert len(parts[1]) >= 9, "trace must land enough jobs on shard 1"
    plan_path = str(tmp_path / "plan.json")
    with open(plan_path, "w") as f:
        json.dump({"seed": 5, "kill": {"applied": len(parts[1]) // 3}}, f)

    supervisor = FleetSupervisor(
        SHARDS,
        str(tmp_path / "fleet"),
        tenants=TENANTS,
        serve_args=["--fsync", "never"],
        fault_plans={1: plan_path},
        reconnect_wait=20.0,
    )
    port_file = str(tmp_path / "PORT")

    async def go():
        runner = asyncio.ensure_future(
            supervisor.run(front_host="127.0.0.1", front_port=0,
                           port_file=port_file)
        )
        loop = asyncio.get_event_loop()
        port = await loop.run_in_executor(
            None, lambda: wait_for_port(port_file)
        )
        report = await run_loadgen(
            items,
            port=port,
            protocol="binary",
            batch=8,
            pipeline=2,
            retry=RetryPolicy(retries=3),
            shutdown=True,
        )
        rc = await asyncio.wait_for(runner, timeout=30)
        return report, rc

    report, rc = asyncio.run(go())
    assert rc == 0
    assert report.errors == 0
    assert report.jobs == len(items)
    assert supervisor.restarts[1] >= 1, "the fault plan must have fired"
    assert supervisor.restarts[0] == 0
    # nothing double-placed: every job got exactly one verdict
    assert report.actions.get("placed", 0) + report.actions.get(
        "rejected", 0
    ) == report.jobs
