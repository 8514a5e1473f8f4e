"""The batch workloads: ``run_packing`` in a fresh child process.

:func:`prepare` writes the seeded input to a file; :func:`measure` starts
children (``python3 perfbench/batch_child.py SPEC``).  A child ingests
the input — the set-up the parent times from launch to the child's
``ready`` line — and waits for ``go`` or ``stop`` on stdin.
After ``go`` it packs the instance again and again for the requested
seconds, then checks the packing against the ``indexed=False``
reference path outside the timed region and prints one result line.

- ``pack-highload``: First Fit on a Poisson instance (rate 200, µ=8,
  ~165 open bins), so the first-fit tree answers most placements.
- ``pack-repack``: ``repack-ff`` with a move budget of 4 on a generated
  Azure-schema trace (7 sizes, ~5 open bins), so the migration planner
  does most of the work and the tree never activates.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import batch_child
import common

HIGHLOAD_ITEMS = 20_000
HIGHLOAD_RATE = 200.0
HIGHLOAD_MU = 8.0
REPACK_ROWS = 5_000
REPACK_BUDGET = batch_child.REPACK_BUDGET
#: children timed from launch to ready in an untraced run (median reported)
SETUP_REPEATS = 5


def prepare(workload: str, seed: int, seconds: float, work: str) -> dict:
    """Write the seeded input file; returns its description for the manifest."""
    if workload == "pack-repack":
        from repro.traces import generate_azure_trace

        path = os.path.join(work, "trace.csv")
        generate_azure_trace(path, REPACK_ROWS, seed=seed)
        desc = {"kind": "azure-trace", "rows": REPACK_ROWS, "budget": REPACK_BUDGET,
                "policy": "repack-ff"}
    else:
        from repro.workloads.random_workloads import poisson_workload
        from repro.workloads.traces import save_trace

        path = os.path.join(work, "instance.json")
        items = poisson_workload(HIGHLOAD_ITEMS, seed, arrival_rate=HIGHLOAD_RATE,
                                 mu_target=HIGHLOAD_MU)
        save_trace(items, path)
        desc = {"kind": "poisson", "items": HIGHLOAD_ITEMS, "rate": HIGHLOAD_RATE,
                "mu": HIGHLOAD_MU, "policy": "first-fit"}
    desc["digest"] = common.digest_file(path)
    return {"workload": workload, "path": path, "desc": desc}


class _Child:
    """One batch child: started, timed to ready, then told go or stop."""

    def __init__(self, spec_path: str, env: dict, log_path: str):
        log = open(log_path, "ab")
        try:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, os.path.abspath(batch_child.__file__), spec_path],
                env=env, cwd=common.ROOT, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=log, start_new_session=True,
            )
        finally:
            log.close()
        self.ready = self._line("ready")
        self.setup_s = time.perf_counter() - self.started

    def _line(self, key: str) -> dict:
        for raw in self.proc.stdout:
            line = raw.strip()
            if line.startswith(b"{"):
                doc = json.loads(line)
                if key in doc:
                    return doc
        self.proc.wait()
        raise common.BenchError(f"batch child exited (rc {self.proc.returncode}) "
                                f"without a {key!r} line")

    def finish(self, go: bool) -> dict | None:
        self.proc.stdin.write(b"go\n" if go else b"stop\n")
        self.proc.stdin.close()
        doc = self._line("result")["result"] if go else None
        self.proc.stdout.close()
        common.stop(self.proc, timeout=60.0)
        if self.proc.returncode != 0:
            raise common.BenchError(f"batch child exited with rc {self.proc.returncode}")
        return doc


def measure(inp: dict, seconds: float, work: str, trace_dir: str | None = None) -> dict:
    """Pack the input in fresh children for ``seconds``; returns the run record.

    Untraced, :data:`SETUP_REPEATS` children are timed to ready and the
    last one packs.  With ``trace_dir`` one child packs under the span
    hook and skips the reference check; :func:`run.run_one` compares
    its packing with the untraced run's instead.
    """
    traced = trace_dir is not None
    spec = os.path.join(work, "traced.json" if traced else "run.json")
    with open(spec, "w") as f:
        json.dump({"workload": inp["workload"], "input": inp["path"], "seconds": seconds,
                   "check": not traced}, f)
    log = os.path.join(work, "batch.log")
    env = common.program_env(trace_dir)
    children = [_Child(spec, env, log) for _ in range(1 if traced else SETUP_REPEATS)]
    for extra in children[:-1]:
        extra.finish(go=False)
    main = children[-1]
    res = main.finish(go=True)
    failures = []
    if not res["stable_usage"]:
        failures.append("repeated passes gave different usage times")
    if not traced and not res["matches_reference"]:
        failures.append("item_bin differs from the indexed=False reference")
    events = res["events"]
    record = {
        "failures": failures,
        "attempted": res["passes"],
        "failed": 0 if not failures else res["passes"],
        "manifest": {"input": inp["desc"], "passes": res["passes"], "events_per_pass": events,
                     "moves": res["moves"], "items": main.ready["items"]},
        "item_bin_digest": res["item_bin_digest"],
        "metrics": {
            "cpu_us_per_event": 1e6 * common.median(res["pass_cpu_s"]) / events,
            "setup_s": common.median([c.setup_s for c in children]),
            "peak_rss_mb": res["peak_rss_mb"],
            "events_per_s": events / common.median(res["pass_s"]),
            "error_frac": 0.0 if not failures else 1.0,
        },
    }
    if traced:
        ready = main.ready
        record.update(trace_dir=trace_dir, expect_dumps={"batch": 1})
        if "records" in ready:
            record["traces"] = {"records": ready["records"], "skipped": ready["skipped"]}
    else:
        record["metrics"]["usage_ratio"] = res["usage_ratio"]
    return record
