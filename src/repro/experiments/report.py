"""Full reproduction report: run every experiment, write one document.

Used by ``repro report`` and by the release process: a single command
regenerates every figure and table and writes a markdown document whose
sections follow the natural DESIGN.md experiment index (F1…F5-F6,
T1…T8, X1…X13 — not lexicographic order).

Built on the experiment framework (:mod:`repro.experiments.runner`):

- ``workers`` fans the shards of every experiment across processes,
- ``cache_dir`` stores each result as a content-addressed JSON
  artifact as it completes,
- ``resume`` serves cached artifacts instead of recomputing, so a
  crashed or repeated report only pays for what is missing, and
- the timestamp is injectable (``stamp=`` / ``SOURCE_DATE_EPOCH``) so
  two runs with the same seeds produce byte-identical documents.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Optional

from .figures import FigureOutput
from .harness import ExperimentResult
from .runner import ExperimentRunner, RunSummary

__all__ = ["generate_report", "resolve_stamp", "run_all_experiments"]


def _select(only: Optional[tuple[str, ...]]) -> list[str]:
    """Requested experiment ids, in natural index order."""
    from . import EXPERIMENT_ORDER

    if only is None:
        return list(EXPERIMENT_ORDER)
    unknown = sorted(set(only) - set(EXPERIMENT_ORDER))
    if unknown:
        raise ValueError(f"unknown experiment ids: {', '.join(unknown)}")
    return [eid for eid in EXPERIMENT_ORDER if eid in only]


def run_all_experiments(
    only: Optional[tuple[str, ...]] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[str | Path] = None,
    resume: bool = False,
    profile: Optional[str] = None,
) -> RunSummary:
    """Run every registered experiment (or a subset) as one runner batch.

    The summary's records, and ``.results()``, follow natural index
    order; ``cache_hits`` counts what was served from ``cache_dir``.
    """
    # imported here to avoid a cycle with the package __init__, which
    # defines the registry after importing the experiment modules
    from . import SPEC_REGISTRY

    runner = ExperimentRunner(
        workers=workers, cache_dir=cache_dir, resume=resume, progress=progress
    )
    requests = [(SPEC_REGISTRY[eid], None) for eid in _select(only)]
    return runner.run_many(requests, profile=profile)


def resolve_stamp(stamp: Optional[str] = None) -> str:
    """The report timestamp: explicit ``stamp``, else ``SOURCE_DATE_EPOCH``
    (reproducible-builds convention, rendered as UTC), else wall clock."""
    if stamp is not None:
        return stamp
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch:
        return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(int(epoch)))
    return time.strftime("%Y-%m-%d %H:%M:%S")


def _render_one(eid: str, result: object) -> str:
    if isinstance(result, FigureOutput):
        return f"## {eid}\n\n```\n{result.rendering}\n```\n"
    if isinstance(result, ExperimentResult):
        return f"## {eid} — {result.title}\n\n```\n{result.render()}\n```\n"
    return f"## {eid}\n\n```\n{result}\n```\n"


def generate_report(
    path: str | Path,
    only: Optional[tuple[str, ...]] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[str | Path] = None,
    resume: bool = False,
    profile: Optional[str] = None,
    stamp: Optional[str] = None,
) -> tuple[Path, RunSummary]:
    """Run experiments and write the consolidated markdown report.

    Returns the written path and the runner summary.
    """
    summary = run_all_experiments(
        only=only,
        progress=progress,
        workers=workers,
        cache_dir=cache_dir,
        resume=resume,
        profile=profile,
    )
    parts = [
        "# Reproduction report",
        "",
        f"Generated {resolve_stamp(stamp)} by `repro report`.",
        "",
        "Paper: Tang, Li, Ren, Cai — *On First Fit Bin Packing for Online "
        "Cloud Server Allocation*, IPDPS 2016.",
        "See DESIGN.md for the experiment index and EXPERIMENTS.md for the "
        "paper-vs-measured discussion.",
        "",
    ]
    for eid, result in summary.results().items():
        parts.append(_render_one(eid, result))
    path = Path(path)
    path.write_text("\n".join(parts))
    return path, summary
