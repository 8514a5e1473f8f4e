"""Alternating paired runs of one benchmark workload: a base revision against this tree.

    python3 benchmarks/pairs.py --base HEAD~1 --workload serve-steady \
        --seed 101 --pairs 10 --seconds 10

materialises ``git archive <base>`` in a temporary directory, then for
each seed ``S .. S+N-1`` runs ``perfbench/run.py --workload W --seed s
--seconds T --trace 0`` once in the base tree and once in the working
tree that holds this script.  Which side goes first alternates from
pair to pair, so a drift in machine speed over the runs falls on
both sides alike.  Each tree runs its own ``perfbench/`` on its own
``src/``.

For every end-to-end metric (``perfbench/spec.py``: the gated ones and
the suite-only ones, with their directions) it prints each side's
median [Q1, Q3], in how many of the N pairs the change was better
(a tie counts for neither side), and whether the gap between the
medians is wider than the base's interquartile range, the acceptance
rule the benchmark gate applies.  A run that fails or reports
``"correct": false`` is listed and stays in the count of pairs: it can
never be the better side.

No bytecode is written by either side (``PYTHONDONTWRITEBYTECODE=1``):
every process then compiles what it imports, and the compiler's peak
is part of its ``peak_rss_mb``; a ``__pycache__`` already under the
working tree's ``src/`` would hide it on one side only, so the script
refuses to start while one exists.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: a run's wall time is about ``--seconds`` plus its setup; perfbench
#: stops its own runs at 170 s
RUN_TIMEOUT_S = 240


def end_to_end_metrics() -> tuple[dict[str, str], list[str]]:
    """From ``perfbench/spec.py``: ``{metric: "lower" | "higher"}`` for
    every end-to-end metric in print order, and the gated ones' names."""
    spec_path = os.path.join(ROOT, "perfbench", "spec.py")
    loader = importlib.util.spec_from_file_location("perfbench_spec", spec_path)
    spec = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spec)
    gated = {name: better for name, _, better, _ in spec.END_TO_END}
    suite_only = {name: better for name, _, better in spec.SUITE_ONLY}
    return {**gated, **suite_only}, list(gated)


# -- the summary rule -----------------------------------------------------------
@dataclass(frozen=True)
class Summary:
    """One metric over N pairs."""

    base: tuple[float, float, float]  # median, Q1, Q3
    change: tuple[float, float, float]
    better_in: int  # pairs where the change beat the base
    pairs: int
    verdict: str  # "better", "worse" or "within spread"


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(median, Q1, Q3)``, interpolating between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarize(
    base: Sequence[Optional[float]],
    change: Sequence[Optional[float]],
    better: str,
) -> Optional[Summary]:
    """The paired comparison of one metric; ``None`` when a side has no value.

    ``base[i]`` and ``change[i]`` are pair ``i``.  The change is better
    in a pair when both runs have a value and the change's is strictly
    better in the metric's direction.  The verdict compares the gap
    between the medians with the base's interquartile range: wider in
    the metric's direction is ``"better"``, wider against it
    ``"worse"``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"direction must be 'lower' or 'higher', got {better!r}")
    if len(base) != len(change):
        raise ValueError("base and change must have one value per pair")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(
        1
        for b, c in zip(base, change)
        if b is not None and c is not None and sign * (c - b) > 0
    )
    base_values = [v for v in base if v is not None]
    change_values = [v for v in change if v is not None]
    if not base_values or not change_values:
        return None
    b, c = quartiles(base_values), quartiles(change_values)
    gain = sign * (c[0] - b[0])
    spread = b[2] - b[1]
    verdict = "better" if gain > spread else "worse" if -gain > spread else "within spread"
    return Summary(b, c, wins, len(base), verdict)


# -- running ----------------------------------------------------------------------
@dataclass
class Run:
    side: str  # "base" or "change"
    seed: int
    correct: bool
    failed_ops: int
    metrics: dict[str, float]  # empty unless correct
    error: str = ""


def parse_run(side: str, seed: int, returncode: int, stdout: str, stderr: str) -> Run:
    """A ``perfbench/run.py`` run from its output.

    The last line is ``{"correct", "attempted", "failed", "metrics"}``
    with the gated metrics; the lines before it print every end-to-end
    metric as ``name value unit``.
    """
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (stderr or stdout).strip().splitlines()[-1:] or ["no output"]
        return Run(side, seed, False, 0, {}, tail[0])
    metrics = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                metrics[parts[0]] = float(parts[1])
            except ValueError:
                pass
    for name, value in result.get("metrics", {}).items():
        metrics[name] = float(value["value"])
    correct = bool(result.get("correct")) and returncode == 0
    error = "" if correct else "; ".join(
        line for line in lines if line.startswith("CHECK FAILED")
    ) or f"exit {returncode}"
    return Run(side, seed, correct, int(result.get("failed", 0)),
               metrics if correct else {}, error)


def run_workload(tree: str, side: str, workload: str, seed: int, seconds: float) -> Run:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # each tree's perfbench finds its own src/
    cmd = [
        sys.executable, os.path.join(tree, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=tree, env=env, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Run(side, seed, False, 0, {}, f"no result in {RUN_TIMEOUT_S}s")
    return parse_run(side, seed, proc.returncode, proc.stdout, proc.stderr)


def archive(base: str, dest: str) -> None:
    """``git archive <base> | tar -x -C <dest>`` of this repository."""
    git = subprocess.Popen(["git", "archive", base], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=git.stdout, check=True)
    git.stdout.close()
    if git.wait() != 0:
        raise SystemExit(f"git archive {base} failed")


def _pycache_under(path: str) -> list[str]:
    return [d for d, _, _ in os.walk(path) if os.path.basename(d) == "__pycache__"]


# -- the report ---------------------------------------------------------------------
def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[0]:.4g} [{q[1]:.4g}, {q[2]:.4g}]"


def report(runs: list[tuple[Run, Run]], directions: dict[str, str]) -> str:
    """The per-pair failures and one row per metric."""
    out = []
    for base, change in runs:
        for run in (base, change):
            if not run.correct or run.failed_ops:
                out.append(
                    f"seed {run.seed} {run.side}: correct={run.correct} "
                    f"failed_ops={run.failed_ops} {run.error}".rstrip()
                )
    out.append(
        f"{'metric':20s} {'base median [Q1, Q3]':>30s} {'change median [Q1, Q3]':>30s}"
        f" {'better':>9s}  median gap vs base IQR"
    )
    for name, better in directions.items():
        summary = summarize(
            [b.metrics.get(name) for b, _ in runs],
            [c.metrics.get(name) for _, c in runs],
            better,
        )
        if summary is None:
            out.append(f"{name:20s} {'no values':>30s}")
            continue
        out.append(
            f"{name:20s} {_fmt(summary.base):>30s} {_fmt(summary.change):>30s}"
            f" {summary.better_in:>3d} of {summary.pairs:<3d}  {summary.verdict}"
            f" ({better} is better)"
        )
    return "\n".join(out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    stale = _pycache_under(os.path.join(ROOT, "src"))
    if stale:
        print(f"error: remove the bytecode caches first: {stale[:3]}", file=sys.stderr)
        return 2
    directions, gated = end_to_end_metrics()
    runs: list[tuple[Run, Run]] = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        archive(args.base, tmp)
        trees = {"base": tmp, "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            done = {
                side: run_workload(trees[side], side, args.workload, seed, args.seconds)
                for side in order
            }
            runs.append((done["base"], done["change"]))
            print(f"pair {i + 1}/{args.pairs} seed {seed}:", "  ".join(
                f"{side} " + (
                    " ".join(f"{n}={done[side].metrics[n]:.4g}" for n in gated)
                    if done[side].correct else "FAILED"
                )
                for side in ("base", "change")
            ), flush=True)
    print(f"\n{args.workload}: {args.base} (base) against the working tree, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}, {args.seconds:g} s runs")
    print(report(runs, directions))
    return 0 if all(b.correct and c.correct for b, c in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
