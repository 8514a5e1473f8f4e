"""Bench-trajectory harness: measured throughput → ``BENCH_perf.json``.

``repro bench --json BENCH_perf.json`` times the packing engine on a
fixed grid of seeded Poisson instances — both the default (adaptively
indexed) path and the ``indexed=False`` reference scans, for the scalar
grid and the 2-D vector grid (both run through the unified event
driver) — plus the service-layer cells (streaming push-path replays,
bare and with metrics, and closed-loop runs against an in-process
asyncio server over both wire protocols — JSON lines and the
length-prefixed binary fast path, with and without pipelining; those
cells' throughput counts request round trips) and
one serial-vs-parallel Monte Carlo wall-clock
comparison, and writes a machine-readable report.  The committed ``BENCH_perf.json`` is the
regression baseline future PRs diff against: the *instances* are fully
deterministic (seeded), so any structural slowdown shows up as a drop in
``events_per_sec`` on the same cell.

Timing method: one loop, :func:`_laps`, times every cell but the
one-shot Monte Carlo comparison.  It times a *group* of cells lap by
lap: each lap starts with an untimed ``gc.collect()``, runs with the
cyclic GC paused, and runs every cell of the group once, in a fixed
order, on the wall clock (a loopback cell's lap is its load
generator's own ``wall_seconds``).  Every lap is kept, and
:func:`_row` writes each row: ``seconds`` is the median lap,
``q1`` and ``q3`` its quartiles (the inclusive rule of
``benchmarks/pairs.py``), ``n`` the number of laps, and
``events_per_sec`` = events / median.  Cells that are read against
each other share a group, so their laps run side by side and a drift
in machine speed falls on all of them alike: the trace-vs-Poisson
cells, one service instance's streaming cells (bare, metrics,
migration, WAL), the loopback and router cells, and the ``default``
and ``reference`` paths of one throughput grid instance and algorithm.

``repro bench --only PATTERN`` regenerates a subset: every cell has a
composite key (``throughput/<instance>/<algorithm>/<path>``,
``service/<instance>/<mode>``, or ``montecarlo``) matched with fnmatch,
and when ``--json`` points at an existing report the unmatched cells are
carried over from it rather than dropped — so one noisy or newly added
row can be re-measured without re-running the whole grid.  A group
runs whole when any of its keys matches, so
``throughput/n2000/first-fit/default`` re-measures the ``reference``
row beside it too.
"""

from __future__ import annotations

import asyncio
import fnmatch
import gc
import json
import os
import platform
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .algorithms import make_algorithm
from .core.packing import run_packing
from .experiments.harness import format_table
from .experiments.montecarlo import EXPECTED_RATIO_SPEC
from .experiments.runner import run_spec
from .multidim import make_vector_algorithm, run_vector_packing, vector_workload
from .traces import generate_azure_trace, load_items, normalize_items
from .workloads.random_workloads import poisson_workload

__all__ = [
    "run_bench",
    "BenchReport",
    "THROUGHPUT_GRID",
    "QUICK_GRID",
    "VECTOR_GRID",
    "VECTOR_QUICK_GRID",
    "SERVICE_GRID",
    "SERVICE_QUICK_GRID",
]

#: (label, n_items, arrival_rate) — seed and µ are fixed so every cell
#: is the same instance on every machine.  ``n2000`` matches the
#: instance in ``benchmarks/bench_perf.py`` (seed 99, µ=8, rate 4).
THROUGHPUT_GRID: tuple[tuple[str, int, float], ...] = (
    ("n2000", 2_000, 4.0),
    ("n20000", 20_000, 4.0),
    ("n100000", 100_000, 4.0),
    ("n20000-highload", 20_000, 200.0),
)

QUICK_GRID: tuple[tuple[str, int, float], ...] = (
    ("n2000", 2_000, 4.0),
    ("n2000-highload", 2_000, 200.0),
)

ALGORITHMS = ("first-fit", "best-fit", "worst-fit")

#: Vector (2-D) cells through the same unified driver.  The high-load
#: cell holds a few hundred bins open at once, so it exercises the
#: adaptively activated :class:`~repro.core.ffindex.VectorFirstFitIndex`
#: on the default path; the low-load cell stays under the activation
#: threshold and measures the linear-scan regime.
VECTOR_GRID: tuple[tuple[str, int, float], ...] = (
    ("v20000", 20_000, 4.0),
    ("v20000-highload", 20_000, 200.0),
)

VECTOR_QUICK_GRID: tuple[tuple[str, int, float], ...] = (
    ("v2000", 2_000, 4.0),
)

VECTOR_ALGORITHMS = ("vector-first-fit", "vector-best-fit")
VECTOR_DIMENSIONS = 2

#: Service-layer cells: the same seeded instances replayed through the
#: streaming push path (``StreamingEngine.submit``/``finish``), bare and
#: with the metrics registry attached, plus the loopback cells that
#: drive a real asyncio server with the closed-loop load generator
#: (protocol + event loop overhead included) over JSON lines and the
#: binary fast path, batched and pipelined.
SERVICE_GRID: tuple[tuple[str, int, float], ...] = (
    ("n20000", 20_000, 4.0),
    ("n20000-highload", 20_000, 200.0),
)

SERVICE_QUICK_GRID: tuple[tuple[str, int, float], ...] = (
    ("n2000", 2_000, 4.0),
)

#: The loopback cells are bounded by per-request round trips, not
#: packing, so a smaller instance keeps the full bench run short.
SERVICE_LOOPBACK_JOBS = 2_000

#: Arrival rate for the high-load loopback cell: the same job count
#: packed into a far denser arrival window, so many more bins are open
#: at once and each request does more packing work.
SERVICE_LOOPBACK_HIGHLOAD_RATE = 200.0

#: Frame size / in-flight window for the binary loopback cells — the
#: settings the pipelined load generator defaults are tuned around.
#: 512 jobs per frame measured fastest on the loopback scan (larger
#: frames amortise the per-frame event-loop round trip further, with
#: diminishing returns past this point).
SERVICE_LOOPBACK_BATCH = 512
SERVICE_LOOPBACK_PIPELINE = 8

#: ``fsync="always"`` pays one disk flush per record, so its cell uses a
#: smaller instance (events/sec stays comparable across cell sizes).
SERVICE_WAL_ALWAYS_JOBS = 2_000

#: Router-loopback cells: the pipelined load generator driven through
#: a :class:`~repro.service.router.ShardRouter` fronting N in-process
#: workers.  On a 1-CPU host every worker shares the core, so shard
#: counts > 1 measure the router's *coordination* overhead, not parallel
#: speedup — the number to read is the 1-shard row against the
#: ``server-loopback-pipelined`` row timed in the same laps (the
#: router-as-transparent-proxy tax).  The router keys jobs by
#: ``id % SERVICE_ROUTER_TENANTS``; the client sends the same raw ids
#: to a router as to a server.
SERVICE_ROUTER_SHARDS: tuple[int, ...] = (1, 2, 4)
SERVICE_ROUTER_QUICK_SHARDS: tuple[int, ...] = (1, 2)
SERVICE_ROUTER_TENANTS = 16

WORKLOAD_SEED = 99
WORKLOAD_MU = 8.0

#: Trace-replay cells: a generated Azure-schema trace file pulled
#: through the full ingestion pipeline (adapter parse + normalize) once,
#: then packed on the default path — scalar (core only) and vector
#: (core, memory).  Each cell is interleaved with a same-size Poisson
#: baseline lap inside the repeat loop, so the rows read as "what does
#: trace-shaped demand (discrete size catalogue, heavy-tailed
#: durations) cost the engine relative to the synthetic grid", with
#: machine drift cancelled out.
TRACE_BENCH_JOBS = 20_000
TRACE_BENCH_QUICK_JOBS = 2_000


@dataclass
class BenchReport:
    """The measured cells, renderable as a table or JSON."""

    throughput: list[dict[str, Any]] = field(default_factory=list)
    service: list[dict[str, Any]] = field(default_factory=list)
    montecarlo: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": 2,
            "meta": self.meta,
            "throughput": self.throughput,
            "service": self.service,
            "montecarlo": self.montecarlo,
        }

    def render(self) -> str:
        parts = ["== bench: packing engine throughput =="]
        parts.append(format_table(self.throughput))
        if self.service:
            parts.append("== bench: service layer (streaming path) ==")
            parts.append(format_table(self.service))
        if self.montecarlo:
            mc = self.montecarlo
            parts.append(
                f"monte carlo (X7 config {mc['config']}): "
                f"serial {mc['serial_seconds']:.2f}s, "
                f"parallel[{mc['workers']}] {mc['parallel_seconds']:.2f}s "
                f"(speedup {mc['speedup']:.2f}x, results identical: "
                f"{mc['identical']})"
            )
        return "\n".join(parts)


class _Selector:
    """Decides which bench cells run, by fnmatch over composite keys.

    ``None`` (the default) selects everything.  A cell group calls
    :meth:`any` with every key it would emit and runs all-or-nothing.
    """

    def __init__(self, pattern: Optional[str]):
        self.pattern = pattern

    def __call__(self, key: str) -> bool:
        return self.pattern is None or fnmatch.fnmatchcase(key, self.pattern)

    def any(self, keys) -> bool:
        return any(self(key) for key in keys)


def _merge_rows(old_rows, new_rows, key_fields) -> list:
    """Carry old rows over, replacing any the new run re-measured.

    Old-row order is preserved (the committed baseline diffs cleanly);
    rows for genuinely new keys append at the end in measured order.
    """
    key = lambda row: tuple(row.get(f) for f in key_fields)
    fresh = {key(row): row for row in new_rows}
    merged = [fresh.get(key(row), row) for row in old_rows]
    replaced = {key(row) for row in old_rows}
    merged.extend(row for row in new_rows if key(row) not in replaced)
    return merged


def _laps(repeats: int, cells: dict[str, Callable[[], Any]]) -> dict[str, list[float]]:
    """``repeats`` laps of a group of cells: every lap time of every cell.

    Each lap runs every cell once, in the dict's order, so cells that
    are read against each other are timed side by side and a drift in
    machine speed falls on all of them alike.  A cell that returns a
    float has timed itself and that float is its lap (the loopback
    cells return their load generator's ``wall_seconds``); any other
    return value is dropped and the lap is the wall clock around the
    call.

    Each lap starts with an untimed ``gc.collect()`` and runs with the
    cyclic GC paused (what ``timeit`` does).  Otherwise generation-2
    collections triggered by allocations in *earlier* cells fire inside
    later ones (each scan walks the whole live instance), so a cell's
    number depends on its position in the run — measured ~35%
    distortion on the 100k-job cell.  Packing garbage is acyclic, so
    refcounting frees it as usual.
    """
    laps: dict[str, list[float]] = {key: [] for key in cells}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            gc.collect()
            for key, cell in cells.items():
                t0 = time.perf_counter()
                own = cell()
                wall = time.perf_counter() - t0
                laps[key].append(own if isinstance(own, float) else wall)
    finally:
        if enabled:
            gc.enable()
    return laps


def _row(fields: dict[str, Any], events: int, laps: list[float]) -> dict[str, Any]:
    """One report row: ``fields``, then the laps' median [Q1, Q3] and n.

    Quartiles interpolate between order statistics (the inclusive rule
    of ``benchmarks/pairs.py``); ``events_per_sec`` is ``events`` over
    the median lap.
    """
    if len(laps) == 1:
        q1 = median = q3 = laps[0]
    else:
        q1, median, q3 = statistics.quantiles(laps, n=4, method="inclusive")
    return {
        **fields,
        "seconds": round(median, 6),
        "q1": round(q1, 6),
        "q3": round(q3, 6),
        "n": len(laps),
        "events_per_sec": round(events / median),
    }


#: A bench cell: its row's identifying fields, the events one lap
#: serves (the ``events_per_sec`` numerator), and the lap itself.
_Cell = tuple[dict[str, Any], int, Callable[[], Any]]


def _bench_group(
    rows: list, section: str, sel: "_Selector", repeats: int, cells: list[_Cell]
) -> None:
    """Time ``cells`` as one group and append their rows to ``rows``.

    All or nothing: the group runs when any cell's ``--only`` key
    (``<section>/<instance>/<algorithm>/<path>`` or
    ``<section>/<instance>/<mode>``) matches, since a row re-timed apart
    from the rows it is read against would measure machine drift.
    """
    names = ("algorithm", "path") if section == "throughput" else ("mode",)
    keys = [
        "/".join([section, fields["instance"], *(fields[name] for name in names)])
        for fields, _, _ in cells
    ]
    if not sel.any(keys):
        return
    laps = _laps(repeats, {key: fn for key, (_, _, fn) in zip(keys, cells)})
    rows.extend(
        _row(fields, events, laps[key])
        for key, (fields, events, _) in zip(keys, cells)
    )


def _stream_replay(ordered, algorithm=None, with_metrics: bool = False) -> None:
    """One full replay through the streaming push path (submit + drain).

    ``algorithm`` defaults to First Fit.
    """
    from .service import MetricsRegistry, StreamingEngine

    engine = StreamingEngine.scalar(
        make_algorithm("first-fit") if algorithm is None else algorithm,
        metrics=MetricsRegistry() if with_metrics else None,
    )
    for it in ordered:
        engine.submit(it)
    engine.finish()


#: Move budget for the ``stream+migration`` churn cell.
STREAM_MIGRATION_BUDGET = 4


def _wal_stream_replay(ordered, fsync: str) -> None:
    """One streaming replay with the write-ahead log in the loop.

    Bare engine (no metrics registry), matching the ``stream`` cell, so
    the cell isolates what durability itself costs.
    """
    from .service import DurableEngine, StreamingEngine, WriteAheadLog

    directory = tempfile.mkdtemp(prefix="repro-bench-wal-")
    try:
        engine = DurableEngine(
            StreamingEngine.scalar(make_algorithm("first-fit"), metrics=None),
            WriteAheadLog(directory, fsync=fsync),
            auto_checkpoint=False,
        )
        for it in ordered:
            engine.submit(it)
        engine.finish()
        engine.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


async def _loopback_replay(ordered, shards: int = 0, **loadgen_kwargs) -> float:
    """Closed-loop load generation against in-process asyncio servers.

    ``shards=0`` drives one server directly; ``shards=N`` drives a
    consistent-hash router fronting N servers.  The load generator's
    ``shutdown`` takes every server down (through the router, which
    broadcasts it).  Returns the load generator's own ``wall_seconds``,
    which leaves out server start-up and shutdown.
    """
    from .service import AllocationService, ShardRouter, build_engine, run_loadgen

    services = [
        AllocationService(build_engine(), quiet=True) for _ in range(max(shards, 1))
    ]
    ports = [await s.start("127.0.0.1", 0) for s in services]
    waiters = [asyncio.ensure_future(s.wait_closed()) for s in services]
    port = ports[0]
    if shards:
        router = ShardRouter(
            [("127.0.0.1", p) for p in ports], tenants=SERVICE_ROUTER_TENANTS
        )
        await router.connect()
        port = await router.start("127.0.0.1", 0)
        waiters.append(asyncio.ensure_future(router.wait_closed()))
    client = await run_loadgen(ordered, port=port, shutdown=True, **loadgen_kwargs)
    for waiter in waiters:
        await waiter
    if client.errors:
        raise RuntimeError(f"loopback lap lost {client.errors} requests")
    return client.wall_seconds


def _bench_traces(
    report: "BenchReport", quick: bool, repeats: int, sel: "_Selector"
) -> None:
    """Trace-replay packing cells (scalar + vector) vs Poisson baselines.

    The trace file is generated, parsed, and normalized *once* outside
    the timed region — these cells measure packing on trace-shaped
    demand, not the ingestion pipeline (the CLI smoke and golden tests
    own that).
    """
    n = TRACE_BENCH_QUICK_JOBS if quick else TRACE_BENCH_JOBS
    instance = f"trace-azure-n{n}"
    # the baselines' arrival rate; a replayed trace has none in
    # trace-time units (the generator's rate is per day), so its rows
    # record None
    rate = 4.0
    modes = (
        ("first-fit", "trace-replay", None),
        ("first-fit", "poisson-baseline", rate),
        ("vector-first-fit", "trace-replay-vector", None),
        ("vector-first-fit", "poisson-baseline-vector", rate),
    )
    if not sel.any(f"throughput/{instance}/{algo}/{mode}" for algo, mode, _ in modes):
        return  # before the trace file is generated for nothing
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        path = os.path.join(tmp, f"azure-{n}.csv")
        generate_azure_trace(path, n, seed=WORKLOAD_SEED)
        scalar, _ = load_items(path, schema="azure")
        scalar, _ = normalize_items(scalar)
        vector, _ = load_items(path, schema="azure", vector=True)
        vector, _ = normalize_items(vector)
    base_scalar = poisson_workload(
        len(scalar), seed=WORKLOAD_SEED, mu_target=WORKLOAD_MU, arrival_rate=rate
    )
    base_vector = vector_workload(
        len(vector), seed=WORKLOAD_SEED, dimensions=VECTOR_DIMENSIONS,
        arrival_rate=rate,
    )
    ff = lambda items: run_packing(items, make_algorithm("first-fit"))
    vff = lambda items: run_vector_packing(
        items, make_vector_algorithm("vector-first-fit")
    )
    laps = (
        lambda: ff(scalar),
        lambda: ff(base_scalar),
        lambda: vff(vector),
        lambda: vff(base_vector),
    )
    _bench_group(report.throughput, "throughput", sel, repeats, [
        (
            {
                "instance": instance,
                "n_items": len(scalar),
                "arrival_rate": arrival_rate,
                "algorithm": algo,
                "path": mode,
            },
            2 * len(scalar),
            lap,
        )
        for (algo, mode, arrival_rate), lap in zip(modes, laps)
    ])


def _bench_service(
    report: "BenchReport", quick: bool, repeats: int, sel: "_Selector"
) -> None:
    grid = SERVICE_QUICK_GRID if quick else SERVICE_GRID
    for index, (label, n, rate) in enumerate(grid):
        items = poisson_workload(
            n, seed=WORKLOAD_SEED, mu_target=WORKLOAD_MU, arrival_rate=rate
        )
        ordered = sorted(items, key=lambda it: it.arrival)
        fields = lambda mode: {
            "instance": label, "n_items": n, "arrival_rate": rate, "mode": mode,
        }
        cells: list[_Cell] = [
            (fields("stream"), 2 * n, lambda: _stream_replay(ordered)),
            (
                fields("stream+metrics"), 2 * n,
                lambda: _stream_replay(ordered, with_metrics=True),
            ),
        ]
        if index == 0:
            # The first instance also carries the cells read against its
            # plain ``stream`` row.  ``stream+migration`` replays it
            # under repack-ff with a nonzero move budget: the per-event
            # planner plus the migrate (remove + reinsert) index lanes.
            # The low-load instance is deliberate: the planner is a
            # linear scan of the open set per event, and this cell
            # watches *that* constant, not hundreds of open bins.  The
            # WAL cells replay it through the durable engine under each
            # fsync policy; ``always`` pays one disk flush per record,
            # so it replays a prefix (events/sec stays comparable).
            from .algorithms.migration import BudgetedRepack

            always_n = min(n, SERVICE_WAL_ALWAYS_JOBS)
            cells += [
                (
                    fields("stream+migration"), 2 * n,
                    lambda: _stream_replay(
                        ordered, BudgetedRepack(budget=STREAM_MIGRATION_BUDGET)
                    ),
                ),
                (
                    fields("stream+wal(never)"), 2 * n,
                    lambda: _wal_stream_replay(ordered, "never"),
                ),
                (
                    fields("stream+wal(interval)"), 2 * n,
                    lambda: _wal_stream_replay(ordered, "interval"),
                ),
                (
                    {**fields("stream+wal(always)"), "instance": f"n{always_n}",
                     "n_items": always_n},
                    2 * always_n,
                    lambda: _wal_stream_replay(ordered[:always_n], "always"),
                ),
            ]
        _bench_group(report.service, "service", sel, repeats, cells)
    # Loopback cells: a real asyncio server driven by the closed-loop
    # load generator.  The JSON cells measure the debug/compat wire; the
    # binary cells measure the negotiated fast path, first one request
    # per frame window (batch only), then with eight frames in flight
    # (pipelining), then the pipelined client through the router.  All
    # run the same seeded instances with the same client ids, so the
    # rows' ratio is the protocol or the router hop and nothing else.
    # Each lap counts one request per job.
    n = SERVICE_LOOPBACK_JOBS
    low, high = (
        sorted(
            poisson_workload(
                n, seed=WORKLOAD_SEED, mu_target=WORKLOAD_MU, arrival_rate=rate
            ),
            key=lambda it: it.arrival,
        )
        for rate in (4.0, SERVICE_LOOPBACK_HIGHLOAD_RATE)
    )
    binary = {"protocol": "binary", "batch": SERVICE_LOOPBACK_BATCH}
    pipelined = dict(binary, pipeline=SERVICE_LOOPBACK_PIPELINE)
    loop = lambda mode, ordered, rate, shards=0, **kwargs: (
        {"instance": f"n{n}", "n_items": n, "arrival_rate": rate, "mode": mode},
        n,
        lambda: asyncio.run(_loopback_replay(ordered, shards, **kwargs)),
    )
    shard_counts = SERVICE_ROUTER_QUICK_SHARDS if quick else SERVICE_ROUTER_SHARDS
    _bench_group(report.service, "service", sel, repeats, [
        loop("server-loopback", low, 4.0),
        loop("server-loopback-highload", high, SERVICE_LOOPBACK_HIGHLOAD_RATE),
        loop("server-loopback-binary", low, 4.0, **binary),
        loop("server-loopback-pipelined", low, 4.0, **pipelined),
        *(
            loop(f"router-loopback-{s}shard", low, 4.0, s, **pipelined)
            for s in shard_counts
        ),
    ])


def run_bench(
    quick: bool = False,
    repeats: int = 3,
    json_path: Optional[str] = None,
    montecarlo: bool = True,
    only: Optional[str] = None,
) -> BenchReport:
    """Measure the throughput grid and (optionally) write the report.

    ``only`` restricts the run to cells whose composite key matches the
    fnmatch pattern (see the module docstring for the key grammar); with
    ``json_path`` pointing at an existing report, the cells that did not
    run are carried over from it so the written file stays complete.
    """
    sel = _Selector(only)
    report = BenchReport(
        meta={
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "seed": WORKLOAD_SEED,
            "mu": WORKLOAD_MU,
            "repeats": repeats,
            "quick": quick,
        }
    )
    grids = (
        (
            QUICK_GRID if quick else THROUGHPUT_GRID, ALGORITHMS, run_packing,
            make_algorithm,
            lambda n, rate: poisson_workload(
                n, seed=WORKLOAD_SEED, mu_target=WORKLOAD_MU, arrival_rate=rate
            ),
        ),
        (
            VECTOR_QUICK_GRID if quick else VECTOR_GRID, VECTOR_ALGORITHMS,
            run_vector_packing, make_vector_algorithm,
            lambda n, rate: vector_workload(
                n, seed=WORKLOAD_SEED, dimensions=VECTOR_DIMENSIONS,
                arrival_rate=rate,
            ),
        ),
    )
    for grid, algorithms, pack, make, workload in grids:
        for label, n, rate in grid:
            items = workload(n, rate)
            for algo in algorithms:
                _bench_group(report.throughput, "throughput", sel, repeats, [
                    (
                        {
                            "instance": label, "n_items": n,
                            "arrival_rate": rate, "algorithm": algo,
                            "path": path,
                        },
                        2 * n,
                        lambda indexed=indexed: pack(
                            items, make(algo), indexed=indexed
                        ),
                    )
                    for path, indexed in (("default", True), ("reference", False))
                ])
    _bench_traces(report, quick, repeats, sel)
    _bench_service(report, quick, repeats, sel)
    if montecarlo and sel("montecarlo"):
        # heavy enough that process startup amortises on multi-core
        # machines; on a single-CPU host workers=-1 degrades to serial
        # and the speedup honestly reads ~1.0
        config = dict(
            n=70, replications=24, loads=(2.0, 6.0), mus=(8.0,), node_budget=60_000
        )
        t_serial = time.perf_counter()
        serial = run_spec(EXPECTED_RATIO_SPEC, config)
        t_serial = time.perf_counter() - t_serial
        t_par = time.perf_counter()
        parallel = run_spec(EXPECTED_RATIO_SPEC, config, workers=-1)
        t_par = time.perf_counter() - t_par
        report.montecarlo = {
            "config": config,
            "serial_seconds": round(t_serial, 3),
            "parallel_seconds": round(t_par, 3),
            "workers": -1,
            "speedup": round(t_serial / t_par, 3),
            "identical": serial.rows == parallel.rows,
        }
    if only is not None and json_path and os.path.exists(json_path):
        # partial regeneration onto an existing report: carry the cells
        # that did not run over from the file, so the written JSON stays
        # a complete baseline with only the matched rows re-measured
        with open(json_path) as f:
            previous = json.load(f)
        report.throughput = _merge_rows(
            previous.get("throughput", []), report.throughput,
            ("instance", "algorithm", "path"),
        )
        report.service = _merge_rows(
            previous.get("service", []), report.service, ("instance", "mode")
        )
        if not report.montecarlo:
            report.montecarlo = previous.get("montecarlo", {})
    if json_path:
        with open(json_path, "w") as f:
            json.dump(report.to_json(), f, indent=2, sort_keys=True)
            f.write("\n")
    return report
