"""Run the benchmark: one workload, or the whole suite.

One run (what ``BENCHMARK.json``'s command runs)::

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 10 --trace 0

prints one line per metric, the run manifest, and as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones, from a traced run of
the same inputs (see ``perfbench/README.md``).  A run whose output
fails its oracle check prints ``"correct": false`` and no numbers, and
exits 1.

The suite (the four workloads, one row each)::

    python3 perfbench/run.py --suite [--seed 1] [--seconds 10] [--trace 1]

prints every end-to-end metric by name and unit, writes all results to
``.perfbench/results.json`` and ``BENCHMARK.json`` from
``perfbench/spec.py``, and exits non-zero when any check fails.  Its
traced pass reuses each workload's untraced run as the overhead
baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import time
import traceback

import common
import ledger
import spec

#: a run that has not finished by then is stopped (the limit is 180 s)
WATCHDOG_S = 170


def _workload(workload: str):
    """The module that prepares and measures ``workload``."""
    import batch
    import service

    return batch if workload in spec.BATCH else service


def _alarm(signum, frame):
    raise common.BenchError(f"run exceeded {WATCHDOG_S}s")


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            baseline: dict | None = None) -> dict:
    """One run of one workload; returns the full record (result, manifest, ledger).

    A traced run measures the same inputs once more with the span hook
    on.  Its overhead baseline is ``baseline``, an untraced record of
    the same workload and seed, or else an untraced measurement made
    here by the same code as ``trace=False``.
    """
    common.ensure_program()
    common.become_subreaper()
    work = common.make_work_dir(workload)
    started = time.perf_counter()
    impl = _workload(workload)
    try:
        inp = impl.prepare(workload, seed, seconds, work)
        if trace:
            base = baseline if baseline is not None else impl.measure(inp, seconds, work)
            record = impl.measure(inp, seconds, work, os.path.join(work, "spans"))
            if record.get("item_bin_digest") != base.get("item_bin_digest"):
                record["failures"].append("the traced run packed differently from the untraced run")
            if baseline is None:
                record["failures"] = base["failures"] + record["failures"]
                record["attempted"] += base["attempted"]
                record["failed"] += base["failed"]
            record["untraced_cpu_us_per_event"] = base["metrics"]["cpu_us_per_event"]
        else:
            record = impl.measure(inp, seconds, work)
        record["manifest"].update(
            workload=workload, seed=seed, seconds=seconds, trace=bool(trace),
            nproc=os.cpu_count(), python=platform.python_version(),
            work_fs=common.fs_type(work),
        )
        if trace:
            record["metrics"], record["ledger"] = ledger.per_layer(record)
        record["correct"] = not record["failures"]
        record["wall_s"] = time.perf_counter() - started
        return record
    finally:
        for pid in common.descendants(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        common.reap_orphans()
        common.remove_tree(work)


def result_line(record: dict, trace: bool) -> dict:
    """A run's last output line: exactly correct/attempted/failed/metrics."""
    units = spec.units()
    names = spec.per_layer_names() if trace else [m[0] for m in spec.END_TO_END]
    metrics = {}
    if record["correct"]:
        metrics = {n: {"value": float(record["metrics"][n]), "unit": units[n]} for n in names}
    return {
        "correct": record["correct"],
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }


def _print_record(record: dict) -> None:
    units = spec.units()
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")
    if record["correct"]:
        for name, value in record["metrics"].items():
            print(f"{name:32s} {value:>16.6g} {units[name]}")
    print("manifest " + json.dumps(record["manifest"], sort_keys=True))


def cmd_run(args) -> int:
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(WATCHDOG_S)
    try:
        record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    _print_record(record)
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0 if record["correct"] else 1


def _cell(record: dict, name: str) -> str:
    value = record["metrics"].get(name)
    return "-" if value is None else f"{value:.4g}"


def cmd_suite(args) -> int:
    workloads = [w for w, _ in spec.WORKLOADS]
    records = {}
    ok = True
    for workload in workloads:
        try:
            record = run_one(workload, args.seed, args.seconds, False)
            if args.trace:
                traced = run_one(workload, args.seed, args.seconds, True, baseline=record)
                record["per_layer"] = traced["metrics"]
                record["ledger"] = traced["ledger"]
                record["failures"] += traced["failures"]
                record["correct"] = record["correct"] and traced["correct"]
        except common.BenchError as exc:
            record = {"correct": False, "failures": [str(exc)], "metrics": {},
                      "attempted": 0, "failed": 0, "manifest": {}}
        records[workload] = record
        ok = ok and record["correct"]
        for failure in record["failures"]:
            print(f"{workload}: CHECK FAILED: {failure}", flush=True)
    units = spec.units()
    columns = [m[0] for m in spec.END_TO_END] + [m[0] for m in spec.SUITE_ONLY]
    print()
    print(f"{'workload':15s} " + " ".join(f"{c:>18s}" for c in columns))
    print(f"{'':15s} " + " ".join(f"{'[' + units[c] + ']':>18s}" for c in columns))
    for workload, record in records.items():
        print(f"{workload:15s} " + " ".join(f"{_cell(record, c):>18s}" for c in columns))
    if args.trace:
        print()
        names = spec.per_layer_names()
        print(f"{'per-layer metric':32s} " + " ".join(f"{w:>14s}" for w in workloads))
        for name in names:
            row = []
            for w in workloads:
                value = records[w].get("per_layer", {}).get(name)
                row.append("-" if value is None else f"{value:.4g}")
            print(f"{name:32s} " + " ".join(f"{c:>14s}" for c in row))
    out = args.out or os.path.join(common.WORK_ROOT, "results.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(records, f, indent=1, default=str)
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), "w") as f:
        f.write(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    print(f"\nresults: {out}; checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true",
                        help="run all four workloads and print one row each")
    parser.add_argument("--out", default=None, help="suite results file")
    args = parser.parse_args(argv)
    try:
        common.ensure_program()
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.suite:
        return cmd_suite(args)
    if args.workload is None:
        parser.error("--workload is required (or --suite)")
    return cmd_run(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - never print a result line after a crash
        traceback.print_exc()
        sys.exit(2)
