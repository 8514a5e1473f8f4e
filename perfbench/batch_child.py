"""One batch child: ingest the input, wait for go, pack, check, report.

Started by :mod:`batch` as ``python3 perfbench/batch_child.py SPEC``.
It imports nothing of the benchmark's own, so its launch-to-ready time
is the program's set-up alone.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

REPACK_BUDGET = 4


def _policy(workload: str):
    from repro.algorithms import FirstFit
    from repro.algorithms.migration import BudgetedRepack

    if workload == "pack-repack":
        return BudgetedRepack(budget=REPACK_BUDGET)
    return FirstFit()


def _item_bin_digest(item_bin: dict) -> str:
    return hashlib.sha256(repr(sorted(item_bin.items())).encode()).hexdigest()[:16]


def _vm_hwm_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def main(spec_path: str) -> int:
    """One fresh process: ingest, wait for go, pack, check, report."""
    with open(spec_path) as f:
        spec = json.load(f)
    workload = spec["workload"]
    ingest = {}
    if workload == "pack-repack":
        from repro.traces import load_items, normalize_items

        raw, astats = load_items(spec["input"])
        items, nstats = normalize_items(raw)
        ingest = {"records": astats.records, "skipped": astats.records - nstats.kept}
    else:
        from repro.workloads.traces import load_trace

        items = load_trace(spec["input"])
    from repro.core.packing import run_packing

    print(json.dumps({"ready": True, "items": len(items), **ingest}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    seconds = float(spec["seconds"])
    run_packing(items, _policy(workload))  # warm-up: lazy imports, allocator
    pass_s: list[float] = []
    pass_cpu_s: list[float] = []
    usages: set[float] = set()
    began = time.perf_counter()
    while True:
        policy = _policy(workload)
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = run_packing(items, policy)
        pass_s.append(time.perf_counter() - t0)
        pass_cpu_s.append(time.process_time() - c0)
        usages.add(result.total_usage_time)
        if time.perf_counter() - began >= seconds:
            break

    out = {
        "passes": len(pass_s),
        "pass_s": pass_s,
        "pass_cpu_s": pass_cpu_s,
        "events": 2 * len(items),
        "item_bin_digest": _item_bin_digest(result.item_bin),
        "stable_usage": len(usages) == 1,
        "moves": getattr(policy, "moves", 0),
        "peak_rss_mb": _vm_hwm_mb(),
    }
    if spec.get("check", True):
        from repro.opt.lower_bounds import combined_lower_bound

        reference = run_packing(items, _policy(workload), indexed=False)
        out["matches_reference"] = reference.item_bin == result.item_bin
        out["usage_ratio"] = result.total_usage_time / combined_lower_bound(items)
    print(json.dumps({"result": out}), flush=True)
    return 0



if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
