"""Command-line interface.

Usage (installed as the ``repro`` console script, or
``python -m repro``):

    repro list-algorithms            # available policies + known bounds
    repro list-experiments           # the DESIGN.md experiment index
    repro run T2                     # regenerate one experiment
    repro run T5 --workers -1 --json t5.json  # sharded + JSON artifact
    repro report --workers -1 --resume       # cached, resumable report
    repro bounds --mu 8              # analytic bounds table at a µ
    repro generate poisson --n 100 --seed 1 --out trace.json
    repro pack trace.json --algorithm first-fit --opt --render
    repro verify trace.json          # proof-invariant checkers on FF run
    repro bench --json BENCH_perf.json   # throughput baseline
    repro serve --port 7077          # live allocation service (JSON lines)
    repro loadgen --port 7077 --n 500    # replay a workload against it
    repro loadgen --port 7077 --n 5000 --protocol binary --batch 256 --pipeline 8
    repro fleet --shards 4 --wal-dir /var/lib/repro --port 7070  # sharded fleet
    repro loadgen --port 7070 --tenants 16 --n 5000  # multi-tenant traffic
    repro trace generate --schema azure --n 10000 --out az.csv.gz  # synthetic trace file
    repro trace info az.csv.gz           # schema detection + streaming stats
    repro trace convert az.csv.gz --out az.json   # external schema -> internal trace
    repro trace sample az.csv.gz --out small.csv --fraction 0.1  # entity-keyed thinning
    repro loadgen --port 7070 --trace az.csv.gz --trace-schema azure --departs --speed 50
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterator, Optional, Sequence

from . import __version__

__all__ = ["main", "build_parser"]

# Each command imports the layers it runs inside its own function, so
# ``repro fleet`` loads no engine, ``repro serve`` never loads numpy,
# the experiments or the analysis code, and a batch ``repro pack``
# never loads the service.


class _ChoicesFrom:
    """Argparse ``choices`` read from module attributes on first use.

    ``repro run`` still rejects an unknown experiment id at parse time,
    but the registry (every experiment spec) is imported only when a
    value is checked or an error lists the choices; likewise the policy
    registries behind ``--algorithm``.  The choices are the attributes'
    values in order.  Arguments using it set a ``metavar`` and keep
    ``%(choices)s`` out of their help, because argparse would list the
    choices to format either.
    """

    def __init__(self, module: str, *names: str):
        self._module = module
        self._names = names

    def _values(self) -> Sequence[str]:
        __import__(self._module)
        module = sys.modules[self._module]
        return [value for name in self._names for value in getattr(module, name)]

    def __contains__(self, value) -> bool:
        return value in self._values()

    def __iter__(self) -> Iterator[str]:
        return iter(self._values())


_EXPERIMENT_IDS = _ChoicesFrom("repro.experiments", "EXPERIMENT_ORDER")
_PROFILES = _ChoicesFrom("repro.experiments.spec", "PROFILES")
_ONLINE_POLICIES = _ChoicesFrom("repro.algorithms", "ALGORITHM_REGISTRY")
_ALL_POLICIES = _ChoicesFrom(
    "repro.algorithms", "ALGORITHM_REGISTRY", "CLAIRVOYANT_REGISTRY"
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _workers_int(text: str) -> int:
    value = int(text)
    if value == 0 or value < -1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1, or -1 for one worker per CPU; got {value}"
        )
    return value


def _port_int(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be a port in [0, 65535] (0 = ephemeral), got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MinUsageTime DBP reproduction (Tang et al., IPDPS 2016)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-algorithms", help="available packing policies")
    sub.add_parser("list-experiments", help="the experiment index")

    p_run = sub.add_parser("run", help="run one experiment by id")
    p_run.add_argument(
        "experiment", metavar="experiment", choices=_EXPERIMENT_IDS,
        help="experiment id (see 'repro list-experiments')",
    )
    p_run.add_argument(
        "--workers",
        type=_workers_int,
        default=None,
        help="worker processes for sharded experiments "
        "(default: serial; -1 = one per CPU; single-task experiments "
        "always run serially)",
    )
    p_run.add_argument(
        "--seed", type=int, default=None,
        help="override the experiment's seed parameter (seed, seeds or "
        "random_seeds — whichever the spec declares; errors otherwise)",
    )
    p_run.add_argument(
        "--node-budget", type=_positive_int, default=None,
        help="override the spec's node_budget parameter (OPT search "
        "effort; errors if the spec has none)",
    )
    p_run.add_argument(
        "--profile", metavar="PROFILE", choices=_PROFILES, default=None,
        help="parameter profile (default: full; smoke = small CI config)",
    )
    p_run.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the JSON result artifact here",
    )

    p_bounds = sub.add_parser("bounds", help="analytic bounds table")
    p_bounds.add_argument("--mu", type=float, default=8.0)

    p_gen = sub.add_parser("generate", help="generate a workload trace file")
    p_gen.add_argument(
        "kind",
        choices=["poisson", "gaming", "mmpp", "nextfit-lb", "universal-lb", "staircase"],
    )
    p_gen.add_argument("--out", required=True, help=".json or .csv path")
    p_gen.add_argument("--n", type=_positive_int, default=100)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--mu", type=float, default=8.0)
    p_gen.add_argument("--rate", type=float, default=2.0)

    p_pack = sub.add_parser("pack", help="pack a trace with a policy")
    p_pack.add_argument("trace", help="trace file from 'generate'")
    p_pack.add_argument(
        "--algorithm", metavar="POLICY", default="first-fit",
        choices=_ALL_POLICIES,
        help="online or clairvoyant policy (see 'repro list-algorithms')",
    )
    p_pack.add_argument("--opt", action="store_true", help="also bracket OPT_total")
    p_pack.add_argument("--render", action="store_true", help="ASCII bin timeline")

    p_verify = sub.add_parser(
        "verify", help="run the proof-invariant checkers on a First Fit run"
    )
    p_verify.add_argument("trace")

    p_bench = sub.add_parser(
        "bench",
        help=(
            "throughput benchmarks (scalar + 2-D vector grids); "
            "optionally write BENCH_perf.json"
        ),
    )
    p_bench.add_argument(
        "--json", default=None, help="write the machine-readable report here"
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="small instances only (smoke test, not a baseline)",
    )
    p_bench.add_argument(
        "--repeats", type=_positive_int, default=3,
        help="timed laps per cell; a row gives their median [Q1, Q3] (default 3)",
    )
    p_bench.add_argument(
        "--only", default=None, metavar="PATTERN",
        help="run only cells whose key matches this fnmatch pattern "
        "(e.g. 'service/*', 'throughput/*/first-fit/*', 'montecarlo'); "
        "with --json onto an existing report, unmatched cells are "
        "carried over instead of dropped",
    )

    p_inspect = sub.add_parser("inspect", help="profile a workload trace")
    p_inspect.add_argument("trace")

    # the flags serve and fleet share, with one meaning and default (fleet
    # passes the engine, durability and defragmenter ones to every worker)
    server_flags = argparse.ArgumentParser(add_help=False)
    server_flags.add_argument("--host", default="127.0.0.1")
    server_flags.add_argument(
        "--algorithm", metavar="POLICY", default="first-fit",
        choices=_ONLINE_POLICIES,
        help="online policy (see 'repro list-algorithms')",
    )
    server_flags.add_argument("--capacity", type=float, default=1.0)
    server_flags.add_argument(
        "--reference", action="store_true",
        help="disable the adaptive first-fit index (reference scans)",
    )
    server_flags.add_argument(
        "--fsync", default="interval", choices=["never", "interval", "always"],
        help="WAL fsync policy (default: interval)",
    )
    server_flags.add_argument(
        "--fsync-interval", type=_positive_int, default=512,
        help="records between fsyncs for --fsync interval (default 512)",
    )
    server_flags.add_argument(
        "--checkpoint-interval", type=_positive_int, default=1000,
        help="WAL records between automatic checkpoints (default 1000)",
    )
    server_flags.add_argument(
        "--defrag", type=int, default=0, metavar="BUDGET",
        help="background defragmenter: migrate up to BUDGET items per "
        "pass to evacuate high-waste bins (default 0 = off)",
    )
    server_flags.add_argument(
        "--defrag-interval", type=float, default=0.5, metavar="SECONDS",
        help="seconds between defragmenter passes (default 0.5)",
    )
    server_flags.add_argument("--quiet", action="store_true")

    p_serve = sub.add_parser(
        "serve",
        parents=[server_flags],
        help="run the live allocation service (JSON lines over TCP)",
    )
    p_serve.add_argument(
        "--port", type=_port_int, default=7077, help="0 = ephemeral port"
    )
    p_serve.add_argument(
        "--port-file", default=None,
        help="write the bound port here (how scripts discover --port 0)",
    )
    p_serve.add_argument(
        "--admission", default="admit-all",
        choices=["admit-all", "reject", "queue", "shed"],
        help="overload behaviour (reject/queue need --max-open, shed --max-load)",
    )
    p_serve.add_argument(
        "--max-open", type=_positive_int, default=None,
        help="open-server budget for --admission reject|queue",
    )
    p_serve.add_argument(
        "--max-load", type=float, default=None,
        help="load ceiling (bins' worth of work) for --admission shed",
    )
    p_serve.add_argument(
        "--log", default=None,
        help="append the per-decision JSON-lines trace to this file",
    )
    p_serve.add_argument(
        "--wal-dir", default=None,
        help="durability directory: write-ahead log + checkpoints; an "
        "existing directory is recovered from on startup",
    )
    p_serve.add_argument(
        "--checkpoint-bytes", type=_positive_int, default=None,
        help="also checkpoint after this many WAL bytes",
    )
    p_serve.add_argument(
        "--segment-bytes", type=_positive_int, default=None,
        help="WAL segment rotation threshold (default 4 MiB)",
    )
    p_serve.add_argument(
        "--fault-plan", default=None,
        help="JSON fault-injection plan (chaos testing; see docs/OPERATIONS.md)",
    )
    p_serve.add_argument(
        "--shard-id", type=int, default=0,
        help="this worker's shard index in a fleet (default 0)",
    )
    p_serve.add_argument(
        "--num-shards", type=_positive_int, default=1,
        help="total shards in the fleet this worker belongs to "
        "(default 1 = standalone); recorded in the WAL dir MANIFEST",
    )
    p_serve.add_argument(
        "--max-line-bytes", type=_positive_int, default=None,
        help="max request line length (default 1 MiB)",
    )
    p_serve.add_argument(
        "--idle-timeout", type=float, default=None,
        help="close connections idle for this many seconds",
    )

    p_fleet = sub.add_parser(
        "fleet",
        parents=[server_flags],
        help="run a sharded fleet: N serve workers behind a "
        "consistent-hash router, restarted on crash",
    )
    p_fleet.add_argument(
        "--shards", type=_positive_int, default=2,
        help="number of shard workers (default 2)",
    )
    p_fleet.add_argument(
        "--wal-dir", required=True,
        help="fleet root: each worker gets <wal-dir>/shard-XX",
    )
    p_fleet.add_argument(
        "--port", type=_port_int, default=7070,
        help="router front port (0 = ephemeral)",
    )
    p_fleet.add_argument(
        "--port-file", default=None,
        help="write the router's bound port here",
    )
    p_fleet.add_argument(
        "--tenants", type=int, default=0,
        help="route key = id %% tenants (0 = raw job ids)",
    )
    p_fleet.add_argument(
        "--fault-plan", action="append", default=None, metavar="SHARD=PATH",
        help="inject a fault plan into one shard's first boot "
        "(chaos testing; repeatable)",
    )
    p_fleet.add_argument(
        "--router-fault-plan", default=None, metavar="PATH",
        help="arm the plan's net faults (delay/drop/truncate/reorder/"
        "partition, keyed by backend-<k> link name) on the router's "
        "worker links (chaos testing)",
    )
    p_fleet.add_argument(
        "--probe-interval", type=float, default=0.0,
        help="seconds between health probes of each worker "
        "(0 = probing disabled, the default)",
    )
    p_fleet.add_argument(
        "--probe-timeout", type=float, default=1.0,
        help="seconds a health probe may take before it counts as missed "
        "(default 1.0)",
    )
    p_fleet.add_argument(
        "--probe-misses", type=_positive_int, default=3,
        help="consecutive missed probes before a worker is declared hung "
        "and restarted (default 3)",
    )
    p_fleet.add_argument(
        "--breaker-window", type=_positive_int, default=20,
        help="per-shard circuit breaker: sliding window of recent "
        "outcomes (default 20)",
    )
    p_fleet.add_argument(
        "--breaker-threshold", type=float, default=0.5,
        help="failure rate over the window that opens the breaker "
        "(default 0.5)",
    )
    p_fleet.add_argument(
        "--breaker-cooldown", type=float, default=1.0,
        help="seconds an open breaker waits before half-open probing "
        "(default 1.0)",
    )
    p_fleet.add_argument(
        "--degraded", choices=["failfast", "queue"], default="failfast",
        help="what an open breaker does with requests: answer "
        "shard_unavailable immediately (failfast, the default) or park "
        "them until the breaker closes (queue)",
    )

    p_wal = sub.add_parser(
        "wal", help="offline write-ahead-log maintenance tools"
    )
    wal_sub = p_wal.add_subparsers(dest="wal_command", required=True)
    w_verify = wal_sub.add_parser(
        "verify",
        help="integrity-scan a WAL dir without booting an engine: "
        "record CRCs, sequence gaps, torn tails, checkpoint "
        "readability, MANIFEST fingerprint (rc 0 clean, 1 problems)",
    )
    w_verify.add_argument("wal_dir", help="the service's --wal-dir")
    w_verify.add_argument(
        "--json", default=None,
        help="write the scan report here ('-' for stdout)",
    )

    p_recover = sub.add_parser(
        "recover",
        help="inspect/recover a --wal-dir: restore the latest checkpoint, "
        "replay the WAL tail, report the recovered state",
    )
    p_recover.add_argument("wal_dir", help="the service's --wal-dir")
    p_recover.add_argument(
        "--algorithm", metavar="POLICY", default="first-fit",
        choices=_ONLINE_POLICIES,
        help="online policy for a cold replay when no checkpoint exists",
    )
    p_recover.add_argument("--capacity", type=float, default=1.0)
    p_recover.add_argument(
        "--checkpoint", action="store_true",
        help="cut a fresh checkpoint of the recovered state (and prune the WAL)",
    )
    p_recover.add_argument(
        "--json", default=None, help="write the recovery report here"
    )

    p_load = sub.add_parser(
        "loadgen",
        help="replay a workload as live traffic against a running service",
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=_port_int, default=7077)
    p_load.add_argument(
        "--trace", default=None,
        help="replay this saved trace file instead of generating one",
    )
    p_load.add_argument(
        "--trace-schema", choices=["auto", "azure", "google"], default=None,
        help="treat --trace as an external cluster trace in this schema "
        "(auto = sniff it); default: the internal trace format",
    )
    p_load.add_argument(
        "--departs", action="store_true",
        help="also announce each job's departure as an explicit depart "
        "request at its trace time (trace replay mode)",
    )
    p_load.add_argument(
        "--kind", choices=["poisson", "gaming"], default="poisson",
        help="generated workload kind (ignored with --trace)",
    )
    p_load.add_argument("--n", type=_positive_int, default=200)
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--mu", type=float, default=8.0)
    p_load.add_argument("--rate", type=float, default=2.0)
    p_load.add_argument(
        "--speed", type=float, default=0.0,
        help="trace-time units per wall-clock second (0 = closed loop)",
    )
    p_load.add_argument(
        "--shutdown", action="store_true",
        help="send a shutdown op after draining (stops the service)",
    )
    p_load.add_argument(
        "--retries", type=int, default=0,
        help="retry lost requests up to N times (exponential backoff + "
        "jitter; submits carry request ids, so retries are exactly-once)",
    )
    p_load.add_argument(
        "--retry-seed", type=int, default=0,
        help="seed for the retry jitter and the request-id namespace",
    )
    p_load.add_argument(
        "--protocol", choices=["json", "binary"], default="json",
        help="wire protocol: json lines (debug/compat) or the "
        "length-prefixed binary fast path",
    )
    p_load.add_argument(
        "--pipeline", type=_positive_int, default=1,
        help="frames kept in flight (>1 requires --protocol binary)",
    )
    p_load.add_argument(
        "--batch", type=_positive_int, default=1,
        help="submits per frame (>1 requires --protocol binary)",
    )
    p_load.add_argument(
        "--tenants", type=int, default=0,
        help="rewrite job ids into N stable per-tenant key streams and "
        "report the fleet router's per-shard request counts (0 = off)",
    )
    p_load.add_argument(
        "--deadline-ms", type=float, default=0.0,
        help="attach an end-to-end deadline budget (milliseconds) to "
        "every request; each hop spends from it and an exhausted budget "
        "answers deadline_exceeded (0 = no deadline, the default)",
    )
    p_load.add_argument(
        "--json", default=None, help="write the client-side report here"
    )

    p_trace = sub.add_parser(
        "trace", help="cluster-trace ingestion (Azure / Google schemas)"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    t_gen = trace_sub.add_parser(
        "generate", help="write a seeded synthetic trace file in an external schema"
    )
    t_gen.add_argument("--schema", choices=["azure", "google"], required=True)
    t_gen.add_argument("--out", required=True, help="output path (.gz compresses)")
    t_gen.add_argument("--n", type=_positive_int, default=1000)
    t_gen.add_argument("--seed", type=int, default=0)
    t_gen.add_argument("--mu", type=float, default=50.0,
                       help="duration spread (max/min ratio)")
    t_gen.add_argument("--rate", type=float, default=None,
                       help="arrival rate (azure: VMs/day, google: tasks/sec)")
    t_gen.add_argument("--censored", type=float, default=0.0,
                       help="azure: fraction of VMs with no endtime")
    t_gen.add_argument("--malformed", type=float, default=0.0,
                       help="fraction of unparsable records")
    t_gen.add_argument("--orphaned", type=float, default=0.0,
                       help="google: fraction of FINISHes with no SUBMIT")
    t_gen.add_argument("--unfinished", type=float, default=0.0,
                       help="google: fraction of SUBMITs never FINISHed")

    t_info = trace_sub.add_parser(
        "info", help="detect the schema and stream summary statistics"
    )
    t_info.add_argument("trace", help="trace file (.gz ok)")
    t_info.add_argument("--schema", choices=["azure", "google"], default=None,
                        help="skip detection and force a schema")
    t_info.add_argument("--strict", action="store_true",
                        help="raise on the first malformed record")

    t_conv = trace_sub.add_parser(
        "convert", help="convert an external trace into the internal format"
    )
    t_conv.add_argument("trace", help="trace file (.gz ok)")
    t_conv.add_argument("--out", required=True,
                        help="internal trace path (.json/.csv, .gz ok)")
    t_conv.add_argument("--schema", choices=["azure", "google"], default=None)
    t_conv.add_argument("--vector", action="store_true",
                        help="emit vector (cpu, memory) items (JSON only)")
    t_conv.add_argument("--window", type=float, nargs=2, default=None,
                        metavar=("START", "END"),
                        help="keep items arriving in [START, END)")
    t_conv.add_argument("--sample", type=float, default=None,
                        help="keep a deterministic fraction of items (0, 1]")
    t_conv.add_argument("--seed", type=int, default=0,
                        help="sampling seed")
    t_conv.add_argument("--scale", type=float, default=1.0,
                        help="divide sizes by this capacity factor")
    t_conv.add_argument("--no-clamp", action="store_true",
                        help="do not cap sizes at bin capacity")
    t_conv.add_argument("--strict", action="store_true",
                        help="raise on the first malformed record")

    t_sample = trace_sub.add_parser(
        "sample", help="thin a raw trace file, keeping whole entities"
    )
    t_sample.add_argument("trace", help="trace file (.gz ok)")
    t_sample.add_argument("--out", required=True, help="thinned trace path")
    t_sample.add_argument("--fraction", type=float, required=True,
                          help="fraction of entities to keep (0, 1]")
    t_sample.add_argument("--seed", type=int, default=0)
    t_sample.add_argument("--schema", choices=["azure", "google"], default=None)

    p_report = sub.add_parser(
        "report", help="run all experiments and write a consolidated report"
    )
    p_report.add_argument("--out", default="REPORT.md")
    p_report.add_argument(
        "--only", nargs="*", default=None,
        help="experiment ids to include (default: all)",
    )
    p_report.add_argument(
        "--workers", type=_workers_int, default=None,
        help="fan experiment shards across worker processes "
        "(default: serial; -1 = one per CPU)",
    )
    p_report.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="store each experiment's JSON artifact here as it completes",
    )
    p_report.add_argument(
        "--resume", action="store_true",
        help="serve results from the cache instead of recomputing "
        "(defaults --cache-dir to .repro-cache)",
    )
    p_report.add_argument(
        "--profile", metavar="PROFILE", choices=_PROFILES, default=None,
        help="parameter profile (default: full; smoke = small CI config)",
    )
    p_report.add_argument(
        "--stamp", default=None,
        help="fixed timestamp for the report header (byte-reproducible "
        "output; SOURCE_DATE_EPOCH is honoured too)",
    )

    return parser


def _make_any(name: str):
    from .algorithms import ALGORITHM_REGISTRY, CLAIRVOYANT_REGISTRY, make_algorithm

    if name in ALGORITHM_REGISTRY:
        return make_algorithm(name)
    return CLAIRVOYANT_REGISTRY[name]()


def cmd_list_algorithms() -> int:
    from .algorithms import ALGORITHM_REGISTRY, CLAIRVOYANT_REGISTRY
    from .analysis.bounds import KNOWN_BOUNDS

    bound_by_name = {b.algorithm: b for b in KNOWN_BOUNDS}
    print(f"{'name':24s} {'model':14s} known bounds (at µ)")
    print("-" * 64)
    for name in sorted(ALGORITHM_REGISTRY):
        e = bound_by_name.get(name)
        if e is None:
            desc = "—"
        else:
            lo = "µ-dep" if e.lower else "—"
            parts = []
            if e.lower:
                v = e.lower_at(8.0)
                parts.append("lower unbounded" if v == float("inf") else f"lower {v:g}@µ=8")
            if e.upper:
                parts.append(f"upper {e.upper_at(8.0):g}@µ=8")
            desc = ", ".join(parts) or "—"
        print(f"{name:24s} {'online':14s} {desc}")
    for name in sorted(CLAIRVOYANT_REGISTRY):
        print(f"{name:24s} {'clairvoyant':14s} knows departures (reference model)")
    return 0


def cmd_list_experiments() -> int:
    from .experiments import EXPERIMENT_ORDER, SPEC_REGISTRY

    print(f"{'id':6s} target")
    print("-" * 60)
    for eid in EXPERIMENT_ORDER:
        print(f"{eid:6s} {SPEC_REGISTRY[eid].doc}")
    return 0


def _seed_override(spec, seed: Optional[int]) -> dict:
    """Map ``--seed`` onto whichever seed parameter the spec declares."""
    if seed is None:
        return {}
    for name in ("seed", "seeds", "random_seeds"):
        if spec.has_param(name):
            return {name: seed if name == "seed" else (seed,)}
    raise ValueError(
        f"{spec.id}: no seed parameter "
        f"(declared: {', '.join(spec.param_names()) or 'none'})"
    )


def cmd_run(args) -> int:
    import json

    from .experiments import SPEC_REGISTRY
    from .experiments.figures import FigureOutput
    from .experiments.runner import artifact_document, run_spec

    spec = SPEC_REGISTRY[args.experiment]
    try:
        overrides = {"node_budget": args.node_budget}
        overrides.update(_seed_override(spec, args.seed))
        # resolve up front: a typo'd flag must fail before any compute,
        # and --json needs the resolved params for the artifact
        params = spec.resolve(overrides, profile=args.profile)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_spec(spec, overrides, workers=args.workers, profile=args.profile)
    if isinstance(result, FigureOutput):
        print(result.rendering)
    else:
        print(result.render())
    if args.json:
        with open(args.json, "w") as f:
            # no sort_keys: row dicts are insertion-ordered (column order)
            json.dump(artifact_document(spec, params, result), f, indent=1)
            f.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def cmd_generate(kind: str, out: str, n: int, seed: int, mu: float, rate: float) -> int:
    from .workloads import (
        best_fit_staircase,
        gaming_workload,
        next_fit_lower_bound,
        poisson_workload,
        save_trace,
        universal_lower_bound,
    )

    if kind == "poisson":
        items = poisson_workload(n, seed=seed, mu_target=mu, arrival_rate=rate)
    elif kind == "gaming":
        items = gaming_workload(n, seed=seed, request_rate=rate)
    elif kind == "mmpp":
        from .workloads.mmpp import mmpp_workload

        # interpret --n as the horizon for the phase process
        items = mmpp_workload(float(max(n, 1)), seed=seed, mu_target=mu)
    elif kind == "nextfit-lb":
        items = next_fit_lower_bound(max(n, 3), mu)
    elif kind == "universal-lb":
        items = universal_lower_bound(n, mu)
    else:  # staircase
        items = best_fit_staircase(max(n, 3), mu)
    save_trace(items, out)
    print(f"wrote {len(items)} items (µ = {items.mu:.2f}) to {out}")
    return 0


def cmd_pack(trace: str, algorithm: str, want_opt: bool, render: bool) -> int:
    from .core.packing import run_packing
    from .workloads import load_trace

    items = load_trace(trace)
    result = run_packing(items, _make_any(algorithm), capacity=items.capacity)
    print(result.summary())
    if want_opt:
        from .opt.opt_total import opt_total

        opt = opt_total(items)
        kind = "exact" if opt.exact else "bracket"
        print(f"OPT_total in [{opt.lower:.4f}, {opt.upper:.4f}] ({kind})")
        print(f"conservative ratio: {result.total_usage_time / opt.lower:.4f} "
              f"(µ+4 bound: {items.mu + 4:.2f})")
    if render:
        from .viz.timeline import render_bins

        print(render_bins(result))
    return 0


def cmd_verify(trace: str) -> int:
    from .algorithms import make_algorithm
    from .analysis.verification import verify_analysis
    from .core.packing import run_packing
    from .workloads import load_trace

    items = load_trace(trace)
    result = run_packing(items, make_algorithm("first-fit"), capacity=items.capacity)
    report = verify_analysis(result)
    print(f"µ = {report.mu:.3f}; {report.num_l_subperiods} l-subperiods, "
          f"{report.num_h_subperiods} h-subperiods, {report.num_groups} supplier groups")
    print(f"closed-form Theorem-1 slack: {report.closed_form_slack:.4f}")
    if report.ok:
        print("all propositions and lemmas hold")
        return 0
    for v in report.violations:
        print(f"VIOLATION {v.check} [{v.context}]: {v.detail}")
    return 1


def _builtin_digests() -> bool:
    """Whether hashlib can build all of its digests without OpenSSL.

    The modules are hashlib's own fallbacks (3.12 merged ``_sha256``
    and ``_sha512`` into ``_sha2``); an OpenSSL-only or FIPS build
    lacks them.
    """

    def have(name: str) -> bool:
        try:
            __import__(name)
        except ImportError:
            return False
        return True

    return (have("_sha2") or (have("_sha256") and have("_sha512"))) and all(
        have(name) for name in ("_md5", "_sha1", "_blake2", "_sha3")
    )


def _import_without_openssl(*modules: str) -> None:
    """Import ``modules`` (asyncio, hashlib) with OpenSSL's bindings hidden.

    The service speaks plain TCP and takes one digest, the MANIFEST's
    sha256 fingerprint, yet asyncio tries ``import ssl`` and hashlib
    ``import _hashlib``, and either maps libssl/libcrypto into the
    process for good (~4.7 MB of VmHWM).  A ``None`` entry in
    ``sys.modules`` makes an import fail, so asyncio keeps its
    ``ssl = None`` plain-TCP fallback and hashlib its builtin digests,
    which give the same bytes.  Only the entries added here are
    removed afterwards, so a later ``import ssl`` still works.  On an
    interpreter without builtin digests hashlib loads OpenSSL as usual.
    """
    hidden = [name for name in ("ssl", "_ssl") if name not in sys.modules]
    if "_hashlib" not in sys.modules and (
        "hashlib" not in modules or _builtin_digests()
    ):
        hidden.append("_hashlib")
    for name in hidden:
        sys.modules[name] = None
    try:
        for name in modules:
            __import__(name)
    finally:
        for name in hidden:
            del sys.modules[name]


def cmd_serve(args) -> int:
    _import_without_openssl("asyncio", "hashlib")
    import asyncio

    from .service import (
        DecisionLog,
        FaultInjector,
        FaultPlan,
        KillPoint,
        ShardContext,
        ShardSpec,
        make_admission_policy,
        serve,
    )

    try:
        admission = make_admission_policy(
            args.admission, max_open=args.max_open, max_load=args.max_load
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    injector = None
    if args.fault_plan:
        try:
            injector = FaultInjector(FaultPlan.from_file(args.fault_plan))
        except (OSError, ValueError) as exc:
            print(f"error: bad fault plan: {exc}", file=sys.stderr)
            return 2
    sink = open(args.log, "a") if args.log else None
    try:
        decision_log = DecisionLog(sink) if sink is not None else None
        # one boot path whether this process is a standalone service or
        # one worker of a fleet: the default spec (0 of 1) is the
        # degenerate single-shard case
        spec = ShardSpec(shard_id=args.shard_id, num_shards=args.num_shards)
        context = ShardContext.create(
            spec,
            algorithm=args.algorithm,
            capacity=args.capacity,
            indexed=not args.reference,
            admission=admission,
            decision_log=decision_log,
            wal_dir=args.wal_dir or None,
            fsync=args.fsync,
            fsync_every=args.fsync_interval,
            segment_bytes=args.segment_bytes,
            checkpoint_every=args.checkpoint_interval,
            checkpoint_bytes=args.checkpoint_bytes,
            injector=injector,
        )
        if context.recovery_report is not None and not args.quiet:
            print(context.recovery_report.render())
        service_kwargs = {}
        if args.max_line_bytes is not None:
            service_kwargs["max_line_bytes"] = args.max_line_bytes
        if args.idle_timeout is not None:
            service_kwargs["idle_timeout"] = args.idle_timeout
        if args.defrag > 0:
            service_kwargs["defrag_budget"] = args.defrag
            service_kwargs["defrag_interval"] = args.defrag_interval
        if args.num_shards > 1:
            service_kwargs["shard"] = spec
        try:
            return asyncio.run(
                serve(
                    context.engine,
                    host=args.host,
                    port=args.port,
                    quiet=args.quiet,
                    port_file=args.port_file,
                    injector=injector,
                    **service_kwargs,
                )
            )
        except KillPoint as exc:
            # a fault-plan kill simulates an abrupt crash: die here,
            # skipping every cleanup path (no WAL close, no checkpoint)
            # so recovery faces exactly what kill -9 would leave behind
            import os

            print(f"fault injection: {exc}", file=sys.stderr)
            sys.stderr.flush()
            os._exit(70)
        finally:
            context.close()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if sink is not None:
            sink.close()


def cmd_fleet(args) -> int:
    # the router routes frames and takes no digest: no hashlib
    _import_without_openssl("asyncio")
    import asyncio

    from .service import FleetSupervisor

    fault_plans: dict[int, str] = {}
    for entry in args.fault_plan or ():
        shard_text, sep, path = entry.partition("=")
        if not sep or not shard_text.isdigit() or not path:
            print(
                f"error: --fault-plan wants SHARD=PATH, got {entry!r}",
                file=sys.stderr,
            )
            return 2
        fault_plans[int(shard_text)] = path
    bad = [i for i in fault_plans if i >= args.shards]
    if bad:
        print(
            f"error: --fault-plan shard(s) {bad} out of range "
            f"for --shards {args.shards}",
            file=sys.stderr,
        )
        return 2
    serve_args = [
        "--algorithm", args.algorithm,
        "--capacity", str(args.capacity),
        "--fsync", args.fsync,
        "--fsync-interval", str(args.fsync_interval),
        "--checkpoint-interval", str(args.checkpoint_interval),
    ]
    if args.reference:
        serve_args.append("--reference")
    if args.defrag > 0:
        serve_args += [
            "--defrag", str(args.defrag),
            "--defrag-interval", str(args.defrag_interval),
        ]
    router_kwargs = {
        "degraded": args.degraded,
        "breaker_window": args.breaker_window,
        "breaker_threshold": args.breaker_threshold,
        "breaker_cooldown": args.breaker_cooldown,
    }
    if args.router_fault_plan:
        from .service import FaultInjector, FaultPlan

        try:
            router_kwargs["fault_injector"] = FaultInjector(
                FaultPlan.from_file(args.router_fault_plan)
            )
        except (OSError, ValueError) as exc:
            print(f"error: bad router fault plan: {exc}", file=sys.stderr)
            return 2
    supervisor = FleetSupervisor(
        args.shards,
        args.wal_dir,
        host=args.host,
        tenants=args.tenants,
        serve_args=serve_args,
        fault_plans=fault_plans,
        quiet=args.quiet,
        probe_interval=args.probe_interval,
        probe_timeout=args.probe_timeout,
        probe_misses=args.probe_misses,
        router_kwargs=router_kwargs,
    )
    try:
        return asyncio.run(
            supervisor.run(
                front_host=args.host,
                front_port=args.port,
                port_file=args.port_file,
            )
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_wal(args) -> int:
    import json

    from .service.wal import verify_wal_dir

    if args.wal_command != "verify":  # pragma: no cover - argparse enforces
        raise AssertionError(f"unhandled wal command {args.wal_command}")
    report = verify_wal_dir(args.wal_dir)
    if args.json:
        blob = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            sys.stdout.write(blob)
        else:
            with open(args.json, "w") as f:
                f.write(blob)
    if args.json != "-":
        seg_count = len(report["segments"])
        ckpt_ok = sum(1 for c in report["checkpoints"] if c["ok"])
        print(
            f"wal verify {report['directory']}: {report['records']} records "
            f"in {seg_count} segment(s), seq "
            f"{report['first_seq'] or 0}..{report['last_seq'] or 0}, "
            f"resumes at {report['resume_seq']}"
        )
        print(
            f"checkpoints: {ckpt_ok}/{len(report['checkpoints'])} loadable; "
            f"manifest: "
            + (
                "absent"
                if not report["manifest"]["present"]
                else "fingerprint "
                + {
                    True: "ok",
                    False: "MISMATCH",
                    None: "not recorded",
                }[report["manifest"]["fingerprint_ok"]]
            )
        )
        if report["torn_tail_bytes"]:
            print(
                f"torn tail: {report['torn_tail_bytes']} bytes "
                f"(recovery truncates these)"
            )
        for line in report["errors"]:
            print(f"problem: {line}")
        print("clean" if report["ok"] else f"{len(report['errors'])} problem(s)")
    return 0 if report["ok"] else 1


def cmd_recover(args) -> int:
    import json

    from .algorithms import make_algorithm
    from .service import MetricsRegistry, StreamingEngine, recover

    try:
        engine, report = recover(
            args.wal_dir,
            engine_builder=lambda: StreamingEngine.scalar(
                make_algorithm(args.algorithm),
                capacity=args.capacity,
                metrics=MetricsRegistry(),
            ),
            metrics=MetricsRegistry(),
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    stats = engine.stats()
    print(
        f"recovered state: clock {stats['clock']:g}, "
        f"{stats['open_bins']} open / {stats['bins_used']} used servers, "
        f"{stats['placed']} placed, {stats['active']} active, "
        f"queue depth {stats['queue_depth']}, policy {stats['algorithm']}"
    )
    if args.checkpoint:
        path = engine.checkpoint_now()
        print(f"checkpointed recovered state to {path}")
    engine.close()
    if args.json:
        payload = report.to_json()
        payload["stats"] = {
            k: v for k, v in stats.items() if k != "admission"
        }
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True, default=str)
            f.write("\n")
    return 0


def cmd_loadgen(args) -> int:
    import json

    from .service import RetryPolicy, loadgen

    if args.trace and args.trace_schema:
        from .traces import load_items, normalize_items

        schema = None if args.trace_schema == "auto" else args.trace_schema
        items, stats = load_items(args.trace, schema=schema)
        # rebase to t=0 and clamp dirty sizes so the replay starts
        # immediately and every job is admissible
        items, _ = normalize_items(items)
        print(
            f"trace: {stats.items} jobs from {args.trace} "
            f"(skipped {stats.malformed} malformed, {stats.orphaned} orphaned, "
            f"{stats.censored} censored; {stats.unfinished} unfinished)"
        )
    elif args.trace:
        from .workloads import load_trace

        items = load_trace(args.trace)
    elif args.kind == "gaming":
        from .workloads import gaming_workload

        items = gaming_workload(args.n, seed=args.seed, request_rate=args.rate)
    else:
        from .workloads import poisson_workload

        items = poisson_workload(
            args.n, seed=args.seed, mu_target=args.mu, arrival_rate=args.rate
        )
    try:
        report = loadgen(
            items,
            host=args.host,
            port=args.port,
            speed=args.speed,
            shutdown=args.shutdown,
            retry=RetryPolicy(retries=args.retries, seed=args.retry_seed),
            protocol=args.protocol,
            pipeline=args.pipeline,
            batch=args.batch,
            tenants=args.tenants,
            departs=args.departs,
            deadline_ms=args.deadline_ms,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as exc:
        print(
            f"error: cannot reach the service at {args.host}:{args.port} ({exc})",
            file=sys.stderr,
        )
        return 1
    print(report.render())
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report.to_json(), f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


def cmd_trace(args) -> int:
    from .traces import (
        TraceFormatError,
        detect_schema,
        generate_trace,
        get_adapter,
        load_items,
        normalize_items,
        sample_trace_file,
    )
    from .workloads import save_trace

    try:
        if args.trace_command == "generate":
            knobs = {"mu": args.mu}
            if args.rate is not None:
                key = "rate_per_day" if args.schema == "azure" else "rate_per_sec"
                knobs[key] = args.rate
            if args.schema == "azure":
                knobs.update(censored=args.censored, malformed=args.malformed)
            else:
                knobs.update(
                    orphaned=args.orphaned,
                    unfinished=args.unfinished,
                    malformed=args.malformed,
                )
            lines = generate_trace(args.schema, args.out, args.n, seed=args.seed, **knobs)
            print(f"wrote {lines} lines ({args.schema} schema) to {args.out}")
            return 0

        if args.trace_command == "info":
            adapter = (
                get_adapter(args.schema) if args.schema else detect_schema(args.trace)
            )
            instance, stats = load_items(
                args.trace, schema=adapter.name, strict=args.strict
            )
            print(f"schema: {adapter.name} — {adapter.description}")
            for key, value in stats.as_dict().items():
                print(f"{key}: {value}")
            if len(instance):
                period = instance.packing_period
                print(f"span: {instance.span:.6f}")
                print(f"mu: {instance.mu:.3f}")
                print(f"packing period: [{period.left:.6f}, {period.right:.6f}]")
                print(f"time-space demand: {instance.time_space_demand:.6f}")
            return 0

        if args.trace_command == "convert":
            instance, stats = load_items(
                args.trace, schema=args.schema, vector=args.vector,
                strict=args.strict,
            )
            window = tuple(args.window) if args.window else None
            instance, norm = normalize_items(
                instance,
                window=window,
                sample=args.sample,
                seed=args.seed,
                scale=args.scale,
                clamp=None if args.no_clamp else 1.0,
            )
            save_trace(instance, args.out)
            print(
                f"converted {stats.items} -> kept {norm.kept} items "
                f"({norm.dropped_window} outside window, "
                f"{norm.dropped_sample} sampled out, {norm.clamped} clamped); "
                f"wrote {args.out}"
            )
            return 0

        if args.trace_command == "sample":
            schema = args.schema or detect_schema(args.trace).name
            kept, total = sample_trace_file(
                args.trace, args.out, schema, args.fraction, seed=args.seed
            )
            print(f"kept {kept}/{total} data lines ({schema}); wrote {args.out}")
            return 0
    except BrokenPipeError:
        raise  # stdout consumer closed the pipe; main() handles this
    except (TraceFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled trace command {args.trace_command}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) closed the pipe — not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


def _dispatch(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-algorithms":
        return cmd_list_algorithms()
    if args.command == "list-experiments":
        return cmd_list_experiments()
    if args.command == "run":
        return cmd_run(args)
    if args.command == "bounds":
        from .analysis.bounds import bounds_table

        print(bounds_table(args.mu))
        return 0
    if args.command == "generate":
        return cmd_generate(args.kind, args.out, args.n, args.seed, args.mu, args.rate)
    if args.command == "pack":
        return cmd_pack(args.trace, args.algorithm, args.opt, args.render)
    if args.command == "verify":
        return cmd_verify(args.trace)
    if args.command == "bench":
        from .bench import run_bench

        report = run_bench(
            quick=args.quick, repeats=args.repeats, json_path=args.json,
            only=args.only,
        )
        print(report.render())
        return 0
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "fleet":
        return cmd_fleet(args)
    if args.command == "wal":
        return cmd_wal(args)
    if args.command == "recover":
        return cmd_recover(args)
    if args.command == "loadgen":
        return cmd_loadgen(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "inspect":
        from .workloads import load_trace, profile_instance

        print(profile_instance(load_trace(args.trace)).render())
        return 0
    if args.command == "report":
        from .experiments.report import generate_report

        cache_dir = args.cache_dir
        if cache_dir is None and args.resume:
            cache_dir = ".repro-cache"
        try:
            path, summary = generate_report(
                args.out,
                only=tuple(args.only) if args.only else None,
                progress=lambda eid: print(f"running {eid} ..."),
                workers=args.workers,
                cache_dir=cache_dir,
                resume=args.resume,
                profile=args.profile,
                stamp=args.stamp,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {path}")
        print(summary.render())
        return 0
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
