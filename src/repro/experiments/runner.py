"""The experiment runner: sharded execution, artifact cache, resume.

:class:`ExperimentRunner` drives any :class:`~repro.experiments.spec.ExperimentSpec`
through :func:`repro.parallel.parallel_map`:

- **Sharding** — the tasks of *every requested experiment* are
  flattened into one list and fanned across worker processes together,
  so 28 mostly-single-task experiments still saturate a multi-core box;
  shard results are merged back per experiment in task order, making
  every output worker-count independent.
- **Caching** — a merged result is serialized to a JSON artifact whose
  name is content-addressed by ``(experiment id, canonical params, code
  fingerprint)``.  Any parameter or source change misses the cache; the
  fingerprint covers every ``.py`` file of the :mod:`repro` package.
- **Resume** — with ``resume=True`` the runner serves cache hits
  instead of recomputing, so a crashed or repeated ``repro report``
  only pays for what is missing.  Artifacts are written as each
  experiment merges, not at the end of the batch.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from ..parallel import parallel_map, resolve_workers
from .harness import ExperimentResult, encode_value
from .spec import ExperimentSpec

__all__ = [
    "ARTIFACT_SCHEMA",
    "ExperimentRunner",
    "ResultCache",
    "RunRecord",
    "RunSummary",
    "artifact_document",
    "code_fingerprint",
    "result_from_json",
    "result_to_json",
    "run_spec",
]

#: bump when the artifact document layout changes
ARTIFACT_SCHEMA = 1

_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Part of every cache key: an artifact computed by different code is
    never served, however equal its parameters.  Computed once per
    process (the tree is ~60 small files).
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def result_to_json(result: Any) -> dict[str, Any]:
    """Serialize a merged experiment result to its artifact document."""
    # deferred import: figures.py builds specs, so it imports this module
    from .figures import FigureOutput

    if isinstance(result, (ExperimentResult, FigureOutput)):
        return result.to_json()
    raise TypeError(
        f"cannot serialize experiment result of type {type(result).__name__}"
    )


def result_from_json(doc: Mapping[str, Any]) -> Any:
    """Inverse of :func:`result_to_json`."""
    from .figures import FigureOutput

    kind = doc.get("kind")
    if kind == "table":
        return ExperimentResult.from_json(doc)
    if kind == "figure":
        return FigureOutput.from_json(doc)
    raise ValueError(f"unknown artifact kind {kind!r}")


def canonical_params(params: Mapping[str, Any]) -> str:
    """Key-stable JSON encoding of a resolved parameter dict."""
    return json.dumps(encode_value(dict(params)), sort_keys=True)


def artifact_document(
    spec: ExperimentSpec, params: Mapping[str, Any], result: Any
) -> dict[str, Any]:
    """The JSON artifact for one merged result.

    The same document the cache stores and ``repro run --json`` writes:
    schema, provenance (id/title/module/params/fingerprint), result.
    """
    return {
        "schema": ARTIFACT_SCHEMA,
        "experiment": spec.id,
        "title": spec.title,
        "module": spec.module,
        "params": json.loads(canonical_params(params)),
        "fingerprint": code_fingerprint(),
        "result": result_to_json(result),
    }


class ResultCache:
    """Content-addressed on-disk store of experiment artifacts."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def key(self, spec: ExperimentSpec, params: Mapping[str, Any]) -> str:
        payload = json.dumps(
            {
                "schema": ARTIFACT_SCHEMA,
                "experiment": spec.id,
                "params": json.loads(canonical_params(params)),
                "fingerprint": code_fingerprint(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def path(self, spec: ExperimentSpec, params: Mapping[str, Any]) -> Path:
        # the id prefix is for humans browsing the cache dir; the hash
        # alone addresses the content
        return self.root / f"{spec.id}-{self.key(spec, params)[:20]}.json"

    def load(self, spec: ExperimentSpec, params: Mapping[str, Any]) -> Any:
        """The cached result, or ``None`` on a miss / unreadable artifact."""
        path = self.path(spec, params)
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if doc.get("schema") != ARTIFACT_SCHEMA:
            return None
        try:
            return result_from_json(doc["result"])
        except (KeyError, ValueError):
            return None

    def store(self, spec: ExperimentSpec, params: Mapping[str, Any], result: Any) -> Path:
        path = self.path(spec, params)
        self.root.mkdir(parents=True, exist_ok=True)
        doc = artifact_document(spec, params, result)
        tmp = path.with_suffix(".tmp")
        # no sort_keys: row dicts are insertion-ordered (column order)
        tmp.write_text(json.dumps(doc, indent=1) + "\n")
        tmp.replace(path)
        return path


@dataclass
class RunRecord:
    """One experiment's outcome within a runner batch."""

    experiment_id: str
    params: dict[str, Any]
    result: Any
    cached: bool
    tasks: int
    seconds: float
    artifact: Optional[Path] = None


@dataclass
class RunSummary:
    """Outcome of a runner batch, in request order."""

    records: list[RunRecord]
    seconds: float = 0.0

    @property
    def computed(self) -> int:
        return sum(1 for r in self.records if not r.cached)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cached)

    def results(self) -> dict[str, Any]:
        return {r.experiment_id: r.result for r in self.records}

    def render(self) -> str:
        n = len(self.records)
        shards = sum(r.tasks for r in self.records if not r.cached)
        return (
            f"{n} experiment{'s' if n != 1 else ''}: "
            f"{self.computed} computed ({shards} shards), "
            f"cache hits: {self.cache_hits}/{n} "
            f"in {self.seconds:.1f}s"
        )


def _execute_spec_task(payload: tuple[str, Any]) -> Any:
    """Run one shard of one spec (top-level: pickles into workers).

    Only the experiment id and the task payload travel to the worker;
    the spec's functions are re-resolved from the worker's own import
    of the registry.
    """
    spec_id, task = payload
    from . import SPEC_REGISTRY  # deferred: the package imports us

    return SPEC_REGISTRY[spec_id].run_task(task)


class ExperimentRunner:
    """Drive specs through ``parallel_map`` with caching and resume.

    ``progress`` is called with each experiment id as its record is
    opened (cache hits included).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[str | Path] = None,
        resume: bool = False,
        progress: Optional[Callable[[str], None]] = None,
    ):
        self.workers = workers
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.resume = resume
        self.progress = progress

    def run_many(
        self,
        requests: Sequence[tuple[ExperimentSpec, Optional[Mapping[str, Any]]]],
        profile: Optional[str] = None,
    ) -> RunSummary:
        """Run a batch of specs, fanning all their shards together.

        Cache hits (under ``resume``) are served first; the remaining
        experiments' tasks are flattened into one ``parallel_map`` call,
        then merged and stored per experiment in request order.
        """
        started = time.perf_counter()
        serial = resolve_workers(self.workers) <= 1
        resolved: list[tuple[ExperimentSpec, dict[str, Any]]] = [
            (spec, spec.resolve(overrides, profile=profile))
            for spec, overrides in requests
        ]

        records: dict[str, RunRecord] = {}
        pending: list[tuple[ExperimentSpec, dict[str, Any], list[Any]]] = []
        flat: list[tuple[str, Any]] = []
        for spec, params in resolved:
            if self.progress is not None:
                self.progress(spec.id)
            if self.resume and self.cache is not None:
                hit = self.cache.load(spec, params)
                if hit is not None:
                    records[spec.id] = RunRecord(
                        experiment_id=spec.id,
                        params=params,
                        result=hit,
                        cached=True,
                        tasks=0,
                        seconds=0.0,
                        artifact=self.cache.path(spec, params),
                    )
                    continue
            tasks = spec.tasks(params)
            if serial:
                # compute right here (experiment by experiment, artifact
                # written as each completes — a crash resumes from them)
                records[spec.id] = self._merge_and_store(
                    spec, params, tasks, [spec.run_task(t) for t in tasks]
                )
            else:
                pending.append((spec, params, tasks))
                flat.extend((spec.id, task) for task in tasks)

        if pending:
            # one flat wave: the shards of every pending experiment fan
            # across the pool together, merged back per experiment in
            # task order afterwards
            shard_results = parallel_map(
                _execute_spec_task, flat, workers=self.workers
            )
            cursor = 0
            for spec, params, tasks in pending:
                shard = shard_results[cursor : cursor + len(tasks)]
                cursor += len(tasks)
                records[spec.id] = self._merge_and_store(spec, params, tasks, shard)

        ordered = [records[spec.id] for spec, _params in resolved]
        return RunSummary(records=ordered, seconds=time.perf_counter() - started)

    def _merge_and_store(
        self,
        spec: ExperimentSpec,
        params: dict[str, Any],
        tasks: list[Any],
        shard: list[Any],
    ) -> RunRecord:
        t0 = time.perf_counter()
        result = spec.merge(params, shard)
        artifact = self.cache.store(spec, params, result) if self.cache else None
        return RunRecord(
            experiment_id=spec.id,
            params=params,
            result=result,
            cached=False,
            tasks=len(tasks),
            seconds=time.perf_counter() - t0,
            artifact=artifact,
        )


def run_spec(
    spec: ExperimentSpec,
    overrides: Optional[Mapping[str, Any]] = None,
    workers: Optional[int] = None,
    profile: Optional[str] = None,
) -> Any:
    """One experiment, uncached: the merged result of ``spec``.

    ``overrides`` replace the (``profile``) defaults by name.  Serial by
    default; ``workers`` fans a multi-task spec's shards across
    processes, with the same output.
    """
    runner = ExperimentRunner(workers=workers)
    return runner.run_many([(spec, overrides)], profile=profile).records[0].result
