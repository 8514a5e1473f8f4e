"""Fleet supervisor: N shard workers + one router, restart on crash.

``repro fleet --shards N`` turns the single-process service into a
horizontally sharded one without changing a line of engine code: the
supervisor spawns N ``repro serve`` worker processes (each a
:class:`~repro.service.shard.ShardContext` bound to its own
``<wal-root>/shard-XX`` directory), fronts them with a
:class:`~repro.service.router.ShardRouter`, and babysits the processes:

- **Boot.**  Every worker starts at once, before the supervisor loads
  the router, and the supervisor waits for their ports together, so a
  fleet is up in the time of one worker boot, not N, and the router's
  import overlaps the workers' own.  A worker that fails to boot stops
  the fleet: every worker already started is terminated before the
  error propagates.
- **Crash restart.**  A worker that dies mid-stream is respawned on the
  same WAL directory — ``repro serve --wal-dir`` *is* ``repro recover``
  followed by listening, so the restarted worker comes back with the
  exact engine state, dedup window, and metrics it crashed with.  The
  router's backend link holds the unacknowledged window meanwhile and
  resends it after the redirect; the dedup window turns the resends
  into cached replies.  Clients see a latency blip, not an error.
- **Live handoff.**  ``{"op": "handoff", "shard": k}`` (or
  :meth:`FleetSupervisor.handoff`) drains shard *k*'s in-flight window,
  checkpoints it, stops the worker, boots a replacement on the same
  directory, and repoints the link — the drain/checkpoint/restore move
  behind one pause gate, losing no accepted request.
- **SIGTERM.**  ``kill -TERM`` on the supervisor closes the router as
  the ``shutdown`` op does, and the workers are stopped on the way out,
  so none outlives it.
- **Health probing.**  With ``probe_interval > 0`` the supervisor sends
  a cheap ``health`` op down each shard's control lane every interval.
  A worker that misses ``probe_misses`` consecutive probes (each bounded
  by ``probe_timeout``) is declared *hung* — alive as a process but not
  answering — and is killed and respawned on its WAL directory through
  the same redirect machinery the crash path uses.  The control lane
  bypasses the circuit breaker on purpose: a shard the breaker has
  written off is exactly the one that needs probing.

Worker stdout/stderr are inherited, so ``--fault-plan`` kill messages
and recovery reports land in the fleet's own log stream.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # imported by run(), once the workers are started
    from .router import ShardRouter

__all__ = ["FleetSupervisor"]

PORT_FILE_NAME = "PORT"


class FleetSupervisor:
    """Owns the worker processes and the router that fronts them.

    ``serve_args`` is passed through to every ``repro serve`` worker
    verbatim (engine and durability flags: ``--algorithm``, ``--fsync``,
    ...).  ``fault_plans`` maps shard index → fault-plan path, applied
    only to the *first* boot of that worker — the respawn after the
    planned crash must come up clean, which is exactly the scenario the
    chaos suite drives.
    """

    def __init__(
        self,
        shards: int,
        wal_root: str,
        *,
        host: str = "127.0.0.1",
        tenants: int = 0,
        serve_args: Optional[Sequence[str]] = None,
        fault_plans: Optional[dict[int, str]] = None,
        quiet: bool = True,
        spawn_deadline: float = 20.0,
        reconnect_wait: float = 30.0,
        probe_interval: float = 0.0,
        probe_timeout: float = 1.0,
        probe_misses: int = 3,
        router_kwargs: Optional[dict] = None,
    ):
        if shards < 1:
            raise ValueError(f"fleet needs at least one shard, got {shards}")
        if probe_interval < 0:
            raise ValueError(f"probe_interval must be >= 0, got {probe_interval}")
        if probe_timeout <= 0:
            raise ValueError(f"probe_timeout must be > 0, got {probe_timeout}")
        if probe_misses < 1:
            raise ValueError(f"probe_misses must be >= 1, got {probe_misses}")
        self.num_shards = shards
        self.wal_root = wal_root
        self.host = host
        self.quiet = quiet
        self.serve_args = list(serve_args or ())
        self.fault_plans = dict(fault_plans or {})
        self.spawn_deadline = spawn_deadline
        self.reconnect_wait = reconnect_wait
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.probe_misses = probe_misses
        self.router_kwargs = dict(router_kwargs or {})
        self.procs: list[Optional[subprocess.Popen]] = [None] * shards
        self.ports: list[int] = [0] * shards
        self.restarts: list[int] = [0] * shards
        self.probe_missed: list[int] = [0] * shards
        self.probe_restarts: list[int] = [0] * shards
        self.last_health: list[Optional[dict]] = [None] * shards
        self.router: Optional[ShardRouter] = None
        self._moving = [False] * shards  # handoff in progress: monitor, hands off
        self._stopping = False
        self._terminated = False  # SIGTERM received
        self._tenants = tenants

    # -- worker processes -----------------------------------------------------
    def shard_dir(self, index: int) -> str:
        return os.path.join(self.wal_root, f"shard-{index:02d}")

    def _port_file(self, index: int) -> str:
        return os.path.join(self.shard_dir(index), PORT_FILE_NAME)

    def worker_command(self, index: int, *, first_boot: bool) -> list[str]:
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host,
            "--port", "0",
            "--port-file", self._port_file(index),
            "--wal-dir", self.shard_dir(index),
            "--shard-id", str(index),
            "--num-shards", str(self.num_shards),
        ]
        if self.quiet:
            cmd.append("--quiet")
        cmd.extend(self.serve_args)
        if first_boot and index in self.fault_plans:
            cmd.extend(["--fault-plan", self.fault_plans[index]])
        return cmd

    def _start(self, index: int, *, first_boot: bool) -> None:
        """Launch worker ``index`` without waiting for it to bind."""
        os.makedirs(self.shard_dir(index), exist_ok=True)
        try:
            os.remove(self._port_file(index))
        except FileNotFoundError:
            pass
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        paths = [p for p in (src_root, env.get("PYTHONPATH")) if p]
        env["PYTHONPATH"] = os.pathsep.join(paths)
        self.procs[index] = subprocess.Popen(
            self.worker_command(index, first_boot=first_boot), env=env
        )

    def _await_ports(self, indices: Sequence[int]) -> None:
        """Wait until every worker in ``indices`` has written its bound port.

        Raises ``RuntimeError`` as soon as one of them exits first; the
        ones still silent at the deadline are killed.  The deadline
        restarts whenever one of them binds, so no wait outlasts
        ``spawn_deadline`` without some worker coming up, however many
        recoveries share the CPUs.
        """
        pending = list(indices)
        deadline = time.monotonic() + self.spawn_deadline
        while True:
            for index in list(pending):
                try:
                    with open(self._port_file(index)) as f:
                        text = f.read().strip()
                    if text:
                        self.ports[index] = int(text)
                        pending.remove(index)
                        deadline = time.monotonic() + self.spawn_deadline
                        continue
                except (FileNotFoundError, ValueError):
                    pass
                proc = self.procs[index]
                if proc.poll() is not None:
                    raise RuntimeError(
                        f"shard {index} worker exited with rc {proc.returncode} "
                        f"before binding a port"
                    )
            if not pending:
                return
            if time.monotonic() >= deadline:
                for index in pending:
                    self.procs[index].kill()
                raise RuntimeError(
                    f"shard {pending[0]} worker did not bind a port within "
                    f"{self.spawn_deadline:.0f}s"
                )
            time.sleep(0.02)

    def spawn(self, index: int) -> int:
        """Restart worker ``index`` and wait for its bound port."""
        self._start(index, first_boot=False)
        self._await_ports([index])
        return self.ports[index]

    def spawn_all(self) -> list[tuple[str, int]]:
        """Start every worker, then wait for all their ports.

        The workers boot (import, recover their WAL dirs) concurrently,
        so the fleet is up in the time of its slowest worker rather
        than the sum.  On failure the caller stops the workers already
        started (:meth:`run` does, in its ``finally``).
        """
        self._start_all()
        return self._backends()

    def _start_all(self) -> None:
        for index in range(self.num_shards):
            self._start(index, first_boot=True)

    def _backends(self) -> list[tuple[str, int]]:
        """Wait for every worker's port; the router's backend list."""
        self._await_ports(range(self.num_shards))
        if not self.quiet:
            for index in range(self.num_shards):
                print(
                    f"repro fleet: shard {index} up at "
                    f"{self.host}:{self.ports[index]} "
                    f"(wal {self.shard_dir(index)})"
                )
        return [(self.host, port) for port in self.ports]

    def stop_workers(self, timeout: float = 5.0) -> None:
        for proc in self.procs:
            if proc is not None and proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + timeout
        for proc in self.procs:
            if proc is None:
                continue
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    # -- supervision ----------------------------------------------------------
    async def _monitor(self, interval: float = 0.1) -> None:
        """Respawn crashed workers and repoint their router links."""
        assert self.router is not None
        while True:
            await asyncio.sleep(interval)
            if self._stopping:
                return
            for index, proc in enumerate(self.procs):
                if proc is None or proc.poll() is None or self._moving[index]:
                    continue
                rc = proc.returncode
                if not self.quiet:
                    print(
                        f"repro fleet: shard {index} worker died (rc {rc}); "
                        f"restarting on {self.shard_dir(index)}"
                    )
                self.restarts[index] += 1
                # the respawn runs in a thread so a slow recovery does
                # not stall routing (and crash detection) for the fleet
                port = await asyncio.get_event_loop().run_in_executor(
                    None, self.spawn, index
                )
                await self.router.redirect_shard(index, self.host, port)

    async def probe_shard(self, index: int) -> bool:
        """One health probe of shard ``index``; ``True`` if it answered.

        A miss bumps the consecutive-miss counter (and the router's
        shard-labelled ``probe_failures`` metric); hitting
        ``probe_misses`` declares the worker hung and restarts it even
        though the process is still alive.
        """
        assert self.router is not None
        if self._moving[index]:
            return True  # a handoff owns the shard; don't fight it
        try:
            doc = await asyncio.wait_for(
                self.router.shard_control(index, {"op": "health"}),
                self.probe_timeout,
            )
            healthy = bool(doc.get("ok"))
        except (asyncio.TimeoutError, ConnectionError, OSError):
            healthy = False
            doc = None
        if healthy:
            self.probe_missed[index] = 0
            self.last_health[index] = doc.get("health") if doc else None
            return True
        self.probe_missed[index] += 1
        self.router.probe_failures[index] += 1
        if self.probe_missed[index] >= self.probe_misses:
            await self._restart_hung(index)
        return False

    async def _restart_hung(self, index: int) -> None:
        """Kill and respawn a worker that stopped answering probes."""
        if self._moving[index]:
            return
        self._moving[index] = True  # keep _monitor off the carcass
        try:
            if not self.quiet:
                print(
                    f"repro fleet: shard {index} missed "
                    f"{self.probe_missed[index]} health probes; restarting "
                    f"hung worker on {self.shard_dir(index)}"
                )
            proc = self.procs[index]
            loop = asyncio.get_event_loop()
            if proc is not None and proc.poll() is None:
                proc.kill()
                await loop.run_in_executor(None, proc.wait)
            port = await loop.run_in_executor(None, self.spawn, index)
            await self.router.redirect_shard(index, self.host, port)
            self.restarts[index] += 1
            self.probe_restarts[index] += 1
            self.probe_missed[index] = 0
        finally:
            self._moving[index] = False

    async def _prober(self) -> None:
        """Periodic health sweep over every shard."""
        while True:
            await asyncio.sleep(self.probe_interval)
            if self._stopping:
                return
            for index in range(self.num_shards):
                if self._stopping:
                    return
                await self.probe_shard(index)

    async def handoff(self, index: int) -> dict:
        """Drain → checkpoint → restart on the same WAL dir → repoint.

        The pause gate holds new requests for the shard while its
        in-flight window drains; the checkpoint and shutdown ride the
        ``control`` lane past the gate.  Nothing accepted is lost: the
        replacement worker recovers the checkpoint (and any WAL tail)
        before the gate reopens.
        """
        if not 0 <= index < self.num_shards:
            raise ValueError(f"no shard {index} in a {self.num_shards}-shard fleet")
        assert self.router is not None
        if self._moving[index]:
            raise RuntimeError(f"shard {index} handoff already in progress")
        self._moving[index] = True
        try:
            await self.router.pause_shard(index)
            doc = await self.router.shard_control(index, {"op": "checkpoint"})
            if not doc.get("ok"):
                raise RuntimeError(
                    f"shard {index} checkpoint failed: {doc.get('error')}"
                )
            await self.router.shard_control(index, {"op": "shutdown"})
            proc = self.procs[index]
            loop = asyncio.get_event_loop()
            if proc is not None:
                await loop.run_in_executor(None, proc.wait)
            port = await loop.run_in_executor(
                None, lambda: self.spawn(index)
            )
            await self.router.redirect_shard(index, self.host, port)
            self.restarts[index] += 1
            return {"port": port, "checkpoint": doc.get("path")}
        finally:
            self.router.resume_shard(index)
            self._moving[index] = False

    # -- the fleet entry point ------------------------------------------------
    def _terminate(self) -> None:
        """SIGTERM: close the router as the ``shutdown`` op does.

        :meth:`run`'s ``finally`` then stops the workers.  A signal that
        lands while the workers boot closes the router once it exists.
        """
        self._terminated = True
        if self.router is not None:
            self.router.shutdown()

    async def run(
        self,
        *,
        front_host: str = "127.0.0.1",
        front_port: int = 0,
        port_file: Optional[str] = None,
    ) -> int:
        """Boot the workers, front them, serve until shutdown.

        The workers are stopped on every way out, a failed boot and a
        SIGTERM included.
        """
        monitor: Optional[asyncio.Task] = None
        prober: Optional[asyncio.Task] = None
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, self._terminate)
        try:
            self._start_all()
            # the router stack loads while the workers boot
            from .router import ShardRouter

            backends = await loop.run_in_executor(None, self._backends)
            self.router = ShardRouter(
                backends,
                tenants=self._tenants,
                quiet=self.quiet,
                reconnect_wait=self.reconnect_wait,
                handoff_callback=self.handoff,
                **self.router_kwargs,
            )
            if self._terminated:
                self.router.shutdown()
            await self.router.connect()
            bound = await self.router.start(front_host, front_port)
            if port_file:
                with open(port_file, "w") as f:
                    f.write(f"{bound}\n")
            monitor = asyncio.ensure_future(self._monitor())
            if self.probe_interval > 0:
                prober = asyncio.ensure_future(self._prober())
            await self.router.wait_closed()
        finally:
            self._stopping = True
            for task in (monitor, prober):
                if task is None:
                    continue
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
            await asyncio.get_event_loop().run_in_executor(
                None, self.stop_workers
            )
            loop.remove_signal_handler(signal.SIGTERM)
        return 0
