"""The trace-adapter core: schema registry, stats, streaming protocol.

A *trace adapter* turns one public cluster-trace schema into the
internal item format.  The contract is deliberately small:

- ``iter_items(path, stats, vector=...)`` is a **generator** yielding
  :class:`~repro.core.items.Item` (or
  :class:`~repro.multidim.items.VectorItem` when ``vector=True``) in
  the order the trace defines, without materialising the file.  A
  multi-GB trace therefore streams in memory bounded by the adapter's
  own working set (for the Azure schema that is O(1); for the Google
  schema it is O(open tasks) — SUBMITs awaiting their FINISH).
- malformed or unpairable records are **counted and skipped** when
  ``stats.strict`` is false (the default for real traces, which always
  contain garbage), and raised as
  :class:`~repro.traces.reader.TraceFormatError` when strict.
- ``sniff(lines)`` lets :func:`detect_schema` pick an adapter from the
  first few lines of an unknown file.

Adapters register themselves in :data:`SCHEMA_REGISTRY`; the CLI, the
experiment specs, and loadgen's replay mode all resolve schemas through
:func:`get_adapter` / :func:`detect_schema`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from ..core.items import Item, ItemList
from ..multidim.items import VectorItem, VectorItemList
from .reader import TraceFormatError, sniff_lines

__all__ = [
    "AdapterStats",
    "TraceAdapter",
    "SCHEMA_REGISTRY",
    "register_adapter",
    "get_adapter",
    "detect_schema",
    "load_items",
]

PathLike = Union[str, Path]
AnyItem = Union[Item, VectorItem]


@dataclass
class AdapterStats:
    """Counters an adapter fills in while streaming one file.

    ``strict=True`` turns every skip into a raised
    :class:`TraceFormatError`; the default tolerates dirty records the
    way any real trace run must, but still accounts for every one of
    them so a conversion can report exactly what it dropped.
    """

    strict: bool = False
    records: int = 0          # non-empty data lines seen
    items: int = 0            # items emitted
    malformed: int = 0        # unparsable records skipped
    orphaned: int = 0        # departure-side events with no matching arrival
    unfinished: int = 0      # arrival-side events that never saw a departure
    censored: int = 0        # open-ended intervals (no recorded end time)
    skip_reasons: Dict[str, int] = field(default_factory=dict)

    def skip(self, reason: str, error: Optional[TraceFormatError] = None) -> None:
        """Record one skipped record; re-raise instead when strict."""
        if self.strict and error is not None:
            raise error
        if self.strict:
            raise TraceFormatError(reason)
        self.malformed += 1
        self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + 1

    def as_dict(self) -> dict:
        return {
            "records": self.records,
            "items": self.items,
            "malformed": self.malformed,
            "orphaned": self.orphaned,
            "unfinished": self.unfinished,
            "censored": self.censored,
            "skip_reasons": dict(sorted(self.skip_reasons.items())),
        }


class TraceAdapter:
    """Base class for cluster-trace schema adapters."""

    #: registry key, e.g. ``"azure"``
    name: str = ""
    #: one-line human description for ``repro trace info`` / CLI help
    description: str = ""
    #: vector dimensions this schema can supply (e.g. core+memory → 2)
    vector_dimensions: int = 2

    def iter_items(
        self,
        path: PathLike,
        stats: AdapterStats,
        vector: bool = False,
    ) -> Iterator[AnyItem]:
        """Stream normalized items from ``path`` (generator)."""
        raise NotImplementedError

    def sniff(self, lines: list[str]) -> bool:
        """Whether the first few lines of a file look like this schema."""
        raise NotImplementedError


SCHEMA_REGISTRY: Dict[str, TraceAdapter] = {}


def register_adapter(adapter: TraceAdapter) -> TraceAdapter:
    if not adapter.name:
        raise ValueError("adapter needs a name")
    SCHEMA_REGISTRY[adapter.name] = adapter
    return adapter


def get_adapter(name: str) -> TraceAdapter:
    try:
        return SCHEMA_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(SCHEMA_REGISTRY))
        raise ValueError(f"unknown trace schema {name!r} (known: {known})") from None


def detect_schema(path: PathLike) -> TraceAdapter:
    """Pick an adapter by sniffing the first lines of ``path``."""
    lines = sniff_lines(path)
    if not lines:
        raise TraceFormatError("empty trace file", str(path))
    for adapter in SCHEMA_REGISTRY.values():
        if adapter.sniff(lines):
            return adapter
    raise TraceFormatError(
        "could not detect trace schema from the first lines; "
        "pass --schema explicitly (known: %s)" % ", ".join(sorted(SCHEMA_REGISTRY)),
        str(path),
    )


def load_items(
    path: PathLike,
    schema: Optional[str] = None,
    vector: bool = False,
    strict: bool = False,
) -> tuple[Union[ItemList, VectorItemList], AdapterStats]:
    """Convert a whole trace file into an in-memory instance.

    The convenience (materialising) entry point: the CLI's ``trace
    convert``, the experiment specs, and tests use this; callers that
    must stay streaming use ``adapter.iter_items`` directly.
    """
    adapter = get_adapter(schema) if schema else detect_schema(path)
    stats = AdapterStats(strict=strict)
    items = list(adapter.iter_items(path, stats, vector=vector))
    if vector:
        dims = adapter.vector_dimensions
        return VectorItemList(items, capacity=(1.0,) * dims), stats
    return ItemList(items), stats


# The built-in adapters register themselves when imported; importing them
# here, after every name they take from this module exists, fills the
# registry for any caller of this module however the package was loaded.
from . import azure, google  # noqa: E402,F401
