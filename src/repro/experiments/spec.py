"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the unit the experiment framework operates
on: it names an experiment, declares its typed parameters (with defaults
and per-profile overrides), and splits the computation into

- ``tasks(params)`` — an ordered decomposition into independent,
  picklable shard payloads,
- ``run_task(task)`` — the pure per-shard computation (executed
  in-process or in a worker process), and
- ``merge(params, results)`` — the ordered reduction of shard results
  into one :class:`~repro.experiments.harness.ExperimentResult` or
  :class:`~repro.experiments.figures.FigureOutput`.

The split is what buys sharding, caching, and resumability for free:
the runner (:mod:`repro.experiments.runner`) fans ``tasks`` through
:func:`repro.parallel.parallel_map`, merges in task order (so outputs
are worker-count independent), and content-addresses the merged result
by ``(experiment id, canonical params, code fingerprint)``.

Most experiments are a single sequential computation; for those,
:func:`simple_spec` derives the parameter table from the implementation
function's signature and wraps it as a one-task spec.  Grid experiments
(T5, X1, X7) declare real multi-task decompositions.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

__all__ = [
    "PROFILES",
    "ExperimentSpec",
    "ParamSpec",
    "params_from_signature",
    "simple_spec",
]

#: Recognised parameter profiles.  ``full`` uses every default as
#: declared; ``smoke`` applies each parameter's ``smoke`` override —
#: a configuration small enough for test suites and CI.
PROFILES = ("full", "smoke")

_UNSET = object()


@dataclass(frozen=True)
class ParamSpec:
    """One typed experiment parameter.

    ``smoke`` is the value used under ``profile="smoke"``; when left
    unset the default applies in every profile.
    """

    name: str
    type: type
    default: Any
    smoke: Any = _UNSET
    help: str = ""

    def value_for(self, profile: str) -> Any:
        if profile == "smoke" and self.smoke is not _UNSET:
            return self.smoke
        return self.default


def _tuplify(value: Any) -> Any:
    """Deep list→tuple coercion (JSON artifacts store tuples as lists)."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuplify(v) for v in value)
    return value


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative experiment: typed params + tasks/run_task/merge."""

    id: str
    title: str
    doc: str
    params: tuple[ParamSpec, ...]
    tasks: Callable[[dict[str, Any]], list[Any]]
    run_task: Callable[[Any], Any]
    merge: Callable[[dict[str, Any], list[Any]], Any]
    #: module that defines the spec (humans + provenance in artifacts)
    module: str = ""

    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def has_param(self, name: str) -> bool:
        return any(p.name == name for p in self.params)

    def resolve(
        self,
        overrides: Optional[Mapping[str, Any]] = None,
        profile: Optional[str] = None,
    ) -> dict[str, Any]:
        """Defaults (per profile) layered under explicit overrides.

        Unknown override names and unknown profiles are rejected —
        a typo'd parameter must never silently run the defaults.
        """
        profile = profile or "full"
        if profile not in PROFILES:
            raise ValueError(
                f"{self.id}: unknown profile {profile!r} (choose from {PROFILES})"
            )
        resolved = {p.name: p.value_for(profile) for p in self.params}
        for name, value in dict(overrides or {}).items():
            if value is None:
                continue  # "flag not given" from the CLI
            if name not in resolved:
                raise ValueError(
                    f"{self.id}: unknown parameter {name!r} "
                    f"(declared: {', '.join(self.param_names()) or 'none'})"
                )
            spec = next(p for p in self.params if p.name == name)
            if spec.type is tuple:
                value = _tuplify(value)
            resolved[name] = value
        return resolved


def params_from_signature(
    fn: Callable[..., Any],
    smoke: Optional[Mapping[str, Any]] = None,
) -> tuple[ParamSpec, ...]:
    """Derive the parameter table from a keyword-only-style signature.

    Every parameter must carry a default (the spec's defaults); the
    optional ``smoke`` mapping attaches per-parameter smoke-profile
    overrides and must only name real parameters.
    """
    smoke = dict(smoke or {})
    out: list[ParamSpec] = []
    for name, p in inspect.signature(fn).parameters.items():
        if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            continue
        if p.default is inspect.Parameter.empty:
            raise ValueError(
                f"{fn.__name__}: spec parameter {name!r} has no default"
            )
        out.append(
            ParamSpec(
                name=name,
                type=type(p.default),
                default=p.default,
                smoke=smoke.pop(name, _UNSET),
            )
        )
    if smoke:
        raise ValueError(
            f"{fn.__name__}: smoke overrides for unknown parameters "
            f"{sorted(smoke)}"
        )
    return tuple(out)


def simple_spec(
    experiment_id: str,
    title: str,
    fn: Callable[..., Any],
    smoke: Optional[Mapping[str, Any]] = None,
    doc: str = "",
) -> ExperimentSpec:
    """Wrap a sequential experiment function as a one-task spec.

    The whole computation is a single shard (``fn(**params)``); the
    runner still provides caching, artifacts, profiles, and uniform CLI
    flags.  Experiments with a natural grid decomposition should declare
    a real multi-task spec instead.
    """
    return ExperimentSpec(
        id=experiment_id,
        title=title,
        doc=doc or (fn.__doc__ or "").strip().splitlines()[0],
        params=params_from_signature(fn, smoke=smoke),
        tasks=lambda params: [dict(params)],
        run_task=lambda task: fn(**task),
        merge=lambda params, results: results[0],
        module=fn.__module__,
    )
