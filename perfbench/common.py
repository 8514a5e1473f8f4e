"""Paths, child processes, /proc readings and order statistics.

Everything the benchmark writes goes under ``.perfbench/`` at the root
of the checkout it runs from, one directory per run, removed when the
run ends.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Iterable, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
HOOK = os.path.join(BENCH_DIR, "hook")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: how long a service may take to write its port file
SPAWN_DEADLINE_S = 60.0


class BenchError(RuntimeError):
    """The run cannot produce numbers (bad checkout, a process died, ...)."""


def ensure_program() -> None:
    """Fail fast when the checkout has no program to measure."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to measure: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def become_subreaper() -> None:
    """Adopt orphaned grandchildren (a killed fleet's workers) so they are reaped here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_orphans() -> None:
    """Collect exit statuses of adopted processes that have ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def make_work_dir(tag: str) -> str:
    path = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}-{time.time_ns()}")
    os.makedirs(path)
    return path


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)  # only when no other run is using it
    except OSError:
        pass


def program_env(trace_dir: Optional[str] = None) -> dict:
    """Environment of a process under test; ``trace_dir`` turns the span hook on."""
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE_DIR", None)
    paths = [SRC]
    if trace_dir is not None:
        paths.insert(0, HOOK)
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: Sequence[str], env: dict, log_path: str, **kwargs) -> subprocess.Popen:
    log = open(log_path, "ab")
    try:
        return subprocess.Popen(
            list(cmd), env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True, **kwargs,
        )
    finally:
        log.close()


def wait_for_file(path: str, proc: subprocess.Popen, deadline_s: float = SPAWN_DEADLINE_S) -> str:
    """Poll until ``path`` has content; the process must stay alive meanwhile."""
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        try:
            with open(path) as f:
                text = f.read().strip()
            if text:
                return text
        except FileNotFoundError:
            pass
        if proc.poll() is not None:
            raise BenchError(f"{proc.args[:4]} exited with rc {proc.returncode} before ready")
        time.sleep(0.002)
    raise BenchError(f"{proc.args[:4]} not ready within {deadline_s:.0f}s")


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """Wait for ``proc`` to exit; kill its whole process group after ``timeout``."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc)
    reap_orphans()


def kill_group(proc: subprocess.Popen) -> None:
    pids = [proc.pid] + descendants(proc.pid)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    proc.wait()
    wait_gone([p for p in pids if p != proc.pid])


def wait_gone(pids: Iterable[int], timeout: float = 10.0) -> None:
    end = time.monotonic() + timeout
    pending = set(pids)
    while pending and time.monotonic() < end:
        reap_orphans()
        pending = {p for p in pending if _alive(p)}
        if pending:
            time.sleep(0.01)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
        return state != "Z"
    except (FileNotFoundError, IndexError, ProcessLookupError):
        return False


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (from the ppid field of /proc/*/stat)."""
    parent_of: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            parent_of[int(name)] = int(fields[1])
        except (FileNotFoundError, IndexError, ValueError, ProcessLookupError):
            continue
    out: list[int] = []
    frontier = [pid]
    while frontier:
        nxt = [c for c, p in parent_of.items() if p in frontier]
        out.extend(nxt)
        frontier = nxt
    return out


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of VmHWM (peak resident set) over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except FileNotFoundError:
            raise BenchError(f"process {pid} ended before its peak RSS was read")
    return total_kb / 1024.0


def cpu_seconds(pids: Iterable[int]) -> float:
    """User plus system CPU time of ``pids`` so far (``/proc/<pid>/stat``)."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            raise BenchError(f"process {pid} ended before its CPU time was read")
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / tick


def write_bytes(pids: Iterable[int]) -> int:
    """Bytes ``pids`` sent to the storage layer (``write_bytes`` in /proc/<pid>/io)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/io") as f:
                for line in f:
                    if line.startswith("write_bytes:"):
                        total += int(line.split()[1])
                        break
        except FileNotFoundError:
            raise BenchError(f"process {pid} ended before its I/O was read")
    return total


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/self/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def digest_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def digest_items(items) -> str:
    """Digest of an instance's exact floats, in instance order."""
    h = hashlib.sha256()
    for it in items:
        h.update(repr((it.item_id, it.size, it.arrival, it.departure)).encode())
    return h.hexdigest()[:16]


# -- order statistics ------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)
