"""Shared streaming reader for cluster-trace files.

Every trace adapter (:mod:`repro.traces.azure`,
:mod:`repro.traces.google`) and the internal trace loader
(:mod:`repro.workloads.traces`) parses files through this module, so
the three framing concerns are handled exactly once:

- **compression** — a ``.gz`` suffix selects transparent gzip
  decompression (real cluster traces ship gzipped);
- **CSV framing** — header-keyed or positional (the Google cluster
  trace has no header row), streamed row by row;
- **JSONL framing** — one JSON object per line, streamed.

Nothing here materialises the file: every iterator yields one record at
a time, so a multi-GB trace streams in bounded memory.  Parse errors
raise :class:`TraceFormatError`, which names the file, the 1-based line
number, and (when known) the offending field — a bare ``KeyError`` from
three layers down is useless against a 40-million-line trace.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
from math import isfinite
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

__all__ = [
    "TraceFormatError",
    "open_trace",
    "iter_csv_records",
    "iter_jsonl_records",
    "record_float",
    "record_int",
    "record_str",
]

PathLike = Union[str, Path]


class TraceFormatError(ValueError):
    """A malformed trace file, with enough context to find the defect.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    call sites keep working.  ``source``/``line``/``field`` are exposed
    as attributes for programmatic handling (e.g. the adapters' count-
    and-skip mode).
    """

    def __init__(
        self,
        message: str,
        source: Optional[str] = None,
        line: Optional[int] = None,
        field: Optional[str] = None,
    ):
        self.source = source
        self.line = line
        self.field = field
        self.message = message
        where = []
        if source:
            where.append(str(source))
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        prefix = ": ".join((", ".join(where),)) if where else ""
        super().__init__(f"{prefix}: {message}" if prefix else message)


def open_trace(path: PathLike, mode: str = "rt"):
    """Open a trace file for streaming, gunzipping ``.gz`` transparently.

    Text mode by default; ``newline=""`` so the csv module owns line
    splitting (embedded CRLFs survive).
    """
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode, newline="" if "t" in mode else None)
    if "t" in mode:
        return open(path, mode, newline="")
    return open(path, mode)


def _strip_gz(path: Path) -> Path:
    return path.with_suffix("") if path.suffix == ".gz" else path


def trace_suffix(path: PathLike) -> str:
    """The framing suffix with any ``.gz`` stripped (``.csv``, ``.jsonl``...)."""
    return _strip_gz(Path(path)).suffix


def iter_csv_records(
    source: Union[PathLike, Iterable[str]],
    fieldnames: Optional[Sequence[str]] = None,
    required: Sequence[str] = (),
) -> Iterator[tuple[int, dict[str, str]]]:
    """Stream ``(line_number, record_dict)`` pairs from CSV.

    ``source`` is a path (``.gz`` ok) or an iterable of lines.  With
    ``fieldnames`` the file is read positionally (headerless, like the
    Google cluster trace); otherwise the first non-comment line is the
    header.  Leading ``#`` comment lines are skipped either way.  Rows
    with more values than columns raise; rows with fewer leave the
    missing fields absent (the per-field accessors below report them).
    ``required`` names header columns that must exist (header mode only).
    """
    own = not isinstance(source, (str, Path))
    handle = source if own else open_trace(source)
    name = "<stream>" if own else str(source)
    try:
        lineno = 0
        header: Optional[list[str]] = list(fieldnames) if fieldnames else None
        for line in handle:
            lineno += 1
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            try:
                row = next(csv.reader([line]))
            except csv.Error as exc:
                raise TraceFormatError(str(exc), name, lineno) from None
            if header is None:
                header = [h.strip() for h in row]
                missing = [c for c in required if c not in header]
                if missing:
                    raise TraceFormatError(
                        f"header is missing required column(s) {missing} "
                        f"(got {header})",
                        name,
                        lineno,
                    )
                continue
            if len(row) > len(header):
                raise TraceFormatError(
                    f"row has {len(row)} values for {len(header)} columns",
                    name,
                    lineno,
                )
            yield lineno, dict(zip(header, row))
        if header is None and required:
            raise TraceFormatError("empty file (no header line)", name, lineno)
    finally:
        if not own:
            handle.close()


def iter_jsonl_records(
    source: Union[PathLike, Iterable[str]],
) -> Iterator[tuple[int, dict[str, Any]]]:
    """Stream ``(line_number, object)`` pairs from a JSON-lines file."""
    own = not isinstance(source, (str, Path))
    handle = source if own else open_trace(source)
    name = "<stream>" if own else str(source)
    try:
        lineno = 0
        for line in handle:
            lineno += 1
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            try:
                doc = json.loads(line)
            except ValueError as exc:
                raise TraceFormatError(f"malformed JSON: {exc}", name, lineno) from None
            if not isinstance(doc, dict):
                raise TraceFormatError(
                    f"record must be a JSON object, got {type(doc).__name__}",
                    name,
                    lineno,
                )
            yield lineno, doc
    finally:
        if not own:
            handle.close()


def _context(source: Optional[str], line: Optional[int]):
    return source, line


def record_str(
    rec: dict, field: str, source: Optional[str] = None, line: Optional[int] = None
) -> str:
    """Fetch a required non-empty string field."""
    value = rec.get(field)
    if value is None or (isinstance(value, str) and not value.strip()):
        raise TraceFormatError("missing value", source, line, field)
    return str(value)


def record_float(
    rec: dict, field: str, source: Optional[str] = None, line: Optional[int] = None
) -> float:
    """Fetch a required finite float field."""
    value = rec.get(field)
    if type(value) is float and isfinite(value):
        return value  # a JSON-native number: the string round trip is a no-op
    raw = record_str(rec, field, source, line)
    try:
        value = float(raw)
    except ValueError:
        raise TraceFormatError(
            f"expected a number, got {raw!r}", source, line, field
        ) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise TraceFormatError(
            f"expected a finite number, got {raw!r}", source, line, field
        )
    return value


def record_int(
    rec: dict, field: str, source: Optional[str] = None, line: Optional[int] = None
) -> int:
    """Fetch a required integer field."""
    value = rec.get(field)
    if type(value) is int:
        return value  # a JSON-native integer; a bool takes the checked path
    raw = record_str(rec, field, source, line)
    try:
        return int(raw)
    except ValueError:
        raise TraceFormatError(
            f"expected an integer, got {raw!r}", source, line, field
        ) from None


def read_text_lines(source: Union[PathLike, str]) -> Iterator[str]:
    """Lines of a possibly-gzipped file (used by schema sniffing)."""
    with open_trace(source) as handle:
        yield from handle


def sniff_lines(path: PathLike, limit: int = 5) -> list[str]:
    """The first ``limit`` non-empty lines of a trace file."""
    out: list[str] = []
    with open_trace(path) as handle:
        for line in handle:
            if line.strip():
                out.append(line.rstrip("\r\n"))
                if len(out) >= limit:
                    break
    return out


def write_trace(path: PathLike, lines: Iterable[str]) -> int:
    """Write lines to ``path`` (gzipped when it ends ``.gz``); returns count.

    The generator-facing twin of :func:`open_trace`: fixture generators
    and the schema-preserving sampler stream through it so neither ever
    materialises the file.
    """
    n = 0
    with open_trace(path, "wt") as handle:
        for line in lines:
            handle.write(line)
            if not line.endswith("\n"):
                handle.write("\n")
            n += 1
    return n


# kept out of __all__ on purpose: internal helpers some modules want
__all__ += ["trace_suffix", "read_text_lines", "sniff_lines", "write_trace"]
