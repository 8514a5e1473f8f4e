"""The import graph follows the layers.

A ``repro serve`` worker and the batch engine import only what they
run: never numpy, the experiments, the analysis and visualisation code,
the cloud, offline, adversary and deferral models, or the workload
generators.  The ``repro fleet`` process only routes, so it loads no
engine at all, and ``import repro`` loads no subpackage.  Each path
runs in a fresh interpreter under ``python -X importtime`` and the test
reads the module names it loaded from stderr — module names, never
times.  The lazy package exports (:mod:`repro._lazy`) must keep every
public name resolvable.

No service process speaks TLS, so none maps OpenSSL: a ``repro serve``
process and a fleet's router and workers load neither ``ssl`` nor
``_hashlib``, and ``/proc/<pid>/maps`` lists neither libssl nor
libcrypto while they serve.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import textwrap
import time
from types import ModuleType
from typing import NamedTuple

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: modules neither the service nor the batch engine may load
OFF_THE_ENGINE_PATH = (
    "numpy",
    "repro.experiments",
    "repro.analysis",
    "repro.viz",
    "repro.cloud",
    "repro.offline",
    "repro.adversary",
    "repro.deferral",
    # the workload generators (repro.workloads.traces is the trace file
    # reader the batch path uses)
    "repro.workloads.adversarial",
    "repro.workloads.distributions",
    "repro.workloads.diurnal",
    "repro.workloads.gaming",
    "repro.workloads.mmpp",
    "repro.workloads.profile",
    "repro.workloads.random_workloads",
    "repro.workloads.resample",
)

#: the fleet's modules, which a single ``repro serve`` worker never needs
FLEET_ONLY = (
    "repro.service.router",
    "repro.service.loadgen",
    "repro.service.fleet",
)

#: what a worker runs and the ``repro fleet`` process (supervisor and
#: router) never loads
ENGINE = (
    "repro.service.server",
    "repro.service.engine",
    "repro.service.recovery",
    "repro.service.wal",
    "repro.service.snapshot",
    "repro.service.shard",
    "repro.service.admission",
    "repro.core",
    "repro.algorithms",
    "repro.opt",
    "repro.multidim",
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _imported(stderr: str) -> set[str]:
    """Module names from ``-X importtime`` output."""
    names = set()
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            name = line.rsplit("|", 1)[1].strip()
            if name != "imported package":
                names.add(name)
    return names


def _loaded_from(imported: set[str], banned: tuple[str, ...]) -> list[str]:
    return sorted(
        name
        for name in imported
        if any(name == b or name.startswith(b + ".") for b in banned)
    )


def _run_importtime(script: str, *args: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", textwrap.dedent(script), *args],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported = _imported(proc.stderr)
    assert "repro.core.packing" in imported  # the parse saw the program
    return imported


def _request(f, doc: dict) -> dict:
    f.write((json.dumps(doc) + "\n").encode())
    f.flush()
    reply = json.loads(f.readline())
    assert reply["ok"], reply
    return reply


class Session(NamedTuple):
    #: modules the booted process loaded (not its children's)
    imported: set[str]
    #: the OpenSSL libraries each process mapped while serving: the
    #: booted process first, then its children (a fleet's workers)
    openssl: list[list[str]]


def _process_tree(pid: int) -> list[int]:
    pids = [pid]
    for parent in pids:  # grows as children are found
        with open(f"/proc/{parent}/task/{parent}/children") as f:
            pids += [int(child) for child in f.read().split()]
    return pids


def _openssl_mapped(pid: int) -> list[str]:
    with open(f"/proc/{pid}/maps") as f:
        return sorted(
            {line.split()[-1] for line in f if "libssl" in line or "libcrypto" in line}
        )


def _serve_a_session(tmp_path, command: str, *flags: str) -> Session:
    """Boot ``repro <command>`` under ``-X importtime``, serve one session
    of every kind of op through its socket, read which OpenSSL libraries
    each of its processes maps, shut it down, and return both (a
    fleet's workers run without the flag, so only the fleet process
    itself reports its modules)."""
    port_file = tmp_path / "port"
    stderr_path = tmp_path / "stderr"
    with open(stderr_path, "w") as stderr:
        proc = subprocess.Popen(
            [
                sys.executable, "-X", "importtime", "-m", "repro", command,
                "--port", "0",
                "--port-file", str(port_file),
                "--wal-dir", str(tmp_path / "wal"),
                "--checkpoint-interval", "4",
                "--quiet",
                *flags,
            ],
            env=_env(),
            stderr=stderr,
        )
    try:
        deadline = time.monotonic() + 60
        while not (port_file.exists() and port_file.read_text().strip()):
            assert proc.poll() is None, stderr_path.read_text()[-2000:]
            assert time.monotonic() < deadline, f"repro {command} never bound a port"
            time.sleep(0.02)
        port = int(port_file.read_text())
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            f = sock.makefile("rwb")
            for i, (size, arrival) in enumerate([(0.6, 0.0), (0.5, 0.0), (0.3, 1.0)]):
                job = {"id": i, "size": size, "arrival": arrival, "departure": 5.0 + i}
                _request(f, {"op": "submit", "job": job})
            _request(f, {"op": "depart", "id": 1, "now": 2.0})
            _request(f, {"op": "advance", "now": 3.0})
            _request(f, {"op": "checkpoint"})
            assert _request(f, {"op": "drain"})["bins"] >= 1
            _request(f, {"op": "stats"})
            _request(f, {"op": "metrics"})
            openssl = [_openssl_mapped(pid) for pid in _process_tree(proc.pid)]
            _request(f, {"op": "shutdown"})
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    stderr = stderr_path.read_text()
    assert proc.returncode == 0, stderr[-2000:]
    return Session(_imported(stderr), openssl)


@pytest.fixture(scope="module")
def serve_session(tmp_path_factory) -> Session:
    return _serve_a_session(tmp_path_factory.mktemp("serve"), "serve")


@pytest.fixture(scope="module")
def fleet_session(tmp_path_factory) -> Session:
    return _serve_a_session(
        tmp_path_factory.mktemp("fleet"), "fleet", "--shards", "2", "--fsync", "never"
    )


def test_serve_worker_loads_only_its_layers(serve_session):
    imported = serve_session.imported
    assert "repro.service.server" in imported
    assert _loaded_from(imported, OFF_THE_ENGINE_PATH + FLEET_ONLY) == []
    # nothing from the workload package at all: serve reads no trace files
    assert _loaded_from(imported, ("repro.workloads",)) == []
    # a First Fit worker loads its own policy and no other
    assert _loaded_from(imported, ("repro.algorithms",)) == [
        "repro.algorithms", "repro.algorithms.base", "repro.algorithms.first_fit"
    ]


def test_fleet_process_loads_no_engine(fleet_session):
    """The supervisor and router process routes frames; its workers run
    the engine, it never loads any of it."""
    imported = fleet_session.imported
    assert {"repro.service.router", "repro.service.frontdoor"} <= imported
    assert _loaded_from(imported, ENGINE) == []
    assert _loaded_from(imported, OFF_THE_ENGINE_PATH) == []


# ``-X importtime`` prints ``ssl`` and ``_hashlib`` for an import that a
# ``None`` in ``sys.modules`` refused, too; a real ``import ssl`` imports
# ``_ssl``, and a loaded ``_hashlib`` maps libcrypto


def test_serve_process_maps_no_openssl(serve_session):
    """The MANIFEST fingerprint is taken with hashlib's builtin sha256."""
    assert "_ssl" not in serve_session.imported
    assert "hashlib" in serve_session.imported
    assert serve_session.openssl == [[]]


def test_fleet_processes_map_no_openssl(fleet_session):
    """The router takes no digest at all; its two workers are ``repro
    serve`` processes."""
    assert _loaded_from(fleet_session.imported, ("_ssl", "hashlib", "_hashlib")) == []
    assert fleet_session.openssl == [[], [], []]


def test_import_repro_loads_no_subpackage():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = {name for name in _imported(proc.stderr) if name.startswith("repro")}
    assert loaded == {"repro", "repro._lazy"}


def test_batch_trace_packing_loads_only_its_layers(tmp_path):
    from repro.workloads import poisson_workload, save_trace

    path = tmp_path / "instance.json"
    save_trace(poisson_workload(200, seed=3, arrival_rate=20.0), str(path))
    imported = _run_importtime(
        """
        import sys
        from repro.algorithms import FirstFit
        from repro.core.packing import run_packing
        from repro.workloads import load_trace

        result = run_packing(load_trace(sys.argv[1]), FirstFit())
        assert result.total_usage_time > 0
        """,
        str(path),
    )
    assert "repro.workloads.traces" in imported
    assert _loaded_from(imported, OFF_THE_ENGINE_PATH + FLEET_ONLY) == []
    assert _loaded_from(imported, ("repro.service",)) == []


def test_batch_repack_of_external_trace_loads_only_its_layers(tmp_path):
    from repro.traces import generate_azure_trace

    path = tmp_path / "trace.csv"
    generate_azure_trace(str(path), 300, seed=5)
    imported = _run_importtime(
        """
        import sys
        from repro.algorithms import make_algorithm
        from repro.core.packing import run_packing
        from repro.traces import load_items, normalize_items

        raw, _ = load_items(sys.argv[1])
        items, _ = normalize_items(raw)
        result = run_packing(items, make_algorithm("repack-ff"))
        assert result.total_usage_time > 0
        """,
        str(path),
    )
    assert "repro.traces.azure" in imported
    assert _loaded_from(imported, OFF_THE_ENGINE_PATH + FLEET_ONLY) == []
    assert _loaded_from(imported, ("repro.service",)) == []


#: a shard directory written by an older version, with its MANIFEST
V1_MANIFEST = os.path.join(
    os.path.dirname(__file__), "data", "service_v1", "shard", "MANIFEST"
)


def _run_fresh(script: str) -> None:
    """``script`` in a fresh interpreter: argv[1] is the v1 MANIFEST."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), V1_MANIFEST],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr == ""


def test_openssl_stays_importable_after_the_service_imports():
    """asyncio and hashlib are imported without OpenSSL, the MANIFEST
    fingerprint comes out the same, and the hidden entries are gone
    afterwards, so a later ``import ssl`` loads it as usual."""
    _run_fresh(
        """
        import json, sys
        from repro.cli import _import_without_openssl

        before = {name for name, module in sys.modules.items() if module is None}
        _import_without_openssl("asyncio", "hashlib")
        import asyncio.base_events
        from repro.service.snapshot import config_fingerprint

        assert asyncio.base_events.ssl is None  # plain TCP
        assert {n for n, m in sys.modules.items() if m is None} == before
        with open(sys.argv[1]) as f:
            manifest = json.load(f)
        assert config_fingerprint(manifest["engine"]) == manifest["fingerprint"]
        assert not {"ssl", "_ssl", "_hashlib"} & set(sys.modules)
        import ssl

        assert "_ssl" in sys.modules
        """
    )


def test_an_interpreter_without_builtin_digests_imports_hashlib_with_openssl():
    """On an OpenSSL-only build hashlib has no fallback, so the service
    keeps OpenSSL for it rather than lose sha256."""
    _run_fresh(
        """
        import json, sys

        for name in ("_sha2", "_sha256"):  # as if the build had none
            sys.modules[name] = None
        from repro.cli import _import_without_openssl

        _import_without_openssl("asyncio", "hashlib")
        import asyncio.base_events
        from repro.service.snapshot import config_fingerprint

        assert asyncio.base_events.ssl is None
        assert "_hashlib" in sys.modules
        with open(sys.argv[1]) as f:
            manifest = json.load(f)
        assert config_fingerprint(manifest["engine"]) == manifest["fingerprint"]
        """
    )


@pytest.mark.parametrize(
    "package",
    [
        "repro",
        "repro.algorithms",
        "repro.multidim",
        "repro.service",
        "repro.traces",
        "repro.workloads",
    ],
)
def test_every_lazy_export_resolves(package):
    """In a fresh interpreter, each ``__all__`` name resolves to the object
    its submodule defines, and ``dir()`` lists it before first use.  A
    name the package defines itself (``repro.__version__``) is there
    from the start."""
    proc = subprocess.run(
        [
            sys.executable, "-c",
            textwrap.dedent(
                """
                import importlib, sys

                pkg = importlib.import_module(sys.argv[1])
                assert set(pkg.__all__) <= set(dir(pkg))
                for name in pkg.__all__:
                    source = pkg._lazy_sources.get(name)
                    if source is None:
                        assert name in vars(pkg), name
                        continue
                    sub = importlib.import_module(f"{pkg.__name__}.{source}")
                    assert getattr(pkg, name) is getattr(sub, name), name
                try:
                    pkg.no_such_name
                except AttributeError:
                    pass
                else:
                    raise AssertionError("unknown name resolved")
                """
            ),
            package,
        ],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_a_name_exported_twice_is_refused(monkeypatch):
    from repro._lazy import lazy_exports

    monkeypatch.setitem(sys.modules, "lazy_pkg", ModuleType("lazy_pkg"))
    with pytest.raises(
        ValueError, match="'x' is exported by both lazy_pkg.a and lazy_pkg.b"
    ):
        lazy_exports("lazy_pkg", {"a": ["x", "y"], "b": ["x"]})
    assert type(sys.modules["lazy_pkg"]) is ModuleType


def test_export_named_like_its_submodule_survives_a_direct_import():
    """``repro.service.loadgen`` is the function, as the eager package had
    it, even when the submodule of the same name is imported first."""
    proc = subprocess.run(
        [
            sys.executable, "-c",
            textwrap.dedent(
                """
                import importlib

                module = importlib.import_module("repro.service.loadgen")
                import repro.service as service
                from repro.service import loadgen

                assert loadgen is module.loadgen
                assert service.loadgen is module.loadgen
                """
            ),
        ],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
