"""Internal trace (de)serialisation: item lists as JSON or CSV.

Lets experiments pin exact instances to disk (for regression baselines)
and lets users bring their own traces into the dispatcher.  This is the
*internal* format — converted cluster traces land here via
``repro trace convert``; the external schemas live in
:mod:`repro.traces`.

Parsing rides the shared streaming reader (:mod:`repro.traces.reader`),
so malformed input raises :class:`~repro.traces.reader.TraceFormatError`
naming the offending line and field instead of a bare ``KeyError`` from
three layers down, and ``.gz`` files load/save transparently.

JSON documents carry either scalar records (``size``) or vector records
(``sizes`` plus a ``capacity`` list) — :func:`from_json` returns the
matching instance type.  CSV stays scalar-only (the pinned baseline
format predates the vector engine).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Union

from ..core.items import Item, ItemList
from ..multidim.items import VectorItem, VectorItemList
from ..traces.reader import (
    TraceFormatError,
    iter_csv_records,
    open_trace,
    record_float,
    record_int,
    trace_suffix,
)

__all__ = [
    "TraceFormatError",
    "to_json",
    "from_json",
    "to_csv",
    "from_csv",
    "save_trace",
    "load_trace",
]

PathLike = Union[str, Path]
AnyItemList = Union[ItemList, VectorItemList]


def to_json(items: AnyItemList) -> str:
    """Serialise to a JSON document (capacity + item records).

    Scalar instances write ``size`` per record and a float capacity;
    vector instances write ``sizes`` lists and a capacity list.
    """
    vector = isinstance(items, VectorItemList)
    doc = {
        "capacity": list(items.capacity) if vector else items.capacity,
        "items": [
            {
                "id": it.item_id,
                **(
                    {"sizes": list(it.sizes)}
                    if vector
                    else {"size": it.size}
                ),
                "arrival": it.arrival,
                "departure": it.departure,
            }
            for it in items
        ],
    }
    return json.dumps(doc, indent=2)


def _item_from_record(rec: dict, index: int, vector: bool):
    where = f"items[{index}]"
    if not isinstance(rec, dict):
        raise TraceFormatError(
            f"item record must be an object, got {type(rec).__name__}",
            None,
            None,
            where,
        )
    item_id = record_int(rec, "id", where)
    arrival = record_float(rec, "arrival", where)
    departure = record_float(rec, "departure", where)
    try:
        if vector:
            sizes = rec.get("sizes")
            if not isinstance(sizes, (list, tuple)) or not sizes:
                raise TraceFormatError(
                    "vector record needs a non-empty 'sizes' list",
                    where,
                    None,
                    "sizes",
                )
            return VectorItem(
                item_id, tuple(float(s) for s in sizes), arrival, departure
            )
        return Item(item_id, record_float(rec, "size", where), arrival, departure)
    except ValueError as exc:
        if isinstance(exc, TraceFormatError):
            raise
        raise TraceFormatError(str(exc), None, None, where) from None


def from_json(text: str) -> AnyItemList:
    """Parse an instance from :func:`to_json` output (scalar or vector)."""
    return _from_document(_parse_json(text))


def _parse_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise TraceFormatError(f"malformed JSON: {exc}") from None


def _from_document(doc) -> AnyItemList:
    """Build the instance from a parsed :func:`to_json` document."""
    if not isinstance(doc, dict) or not isinstance(doc.get("items"), list):
        raise TraceFormatError(
            "document must be an object with an 'items' list", field="items"
        )
    capacity = doc.get("capacity", 1.0)
    records = doc["items"]
    vector = isinstance(capacity, (list, tuple)) or any(
        isinstance(rec, dict) and "sizes" in rec for rec in records
    )
    # each parsed record is dropped as soon as its item exists, so the
    # parsed document and the items are never both resident in full
    items = []
    for i in range(len(records)):
        rec, records[i] = records[i], None
        items.append(_item_from_record(rec, i, vector))
    try:
        if vector:
            if not isinstance(capacity, (list, tuple)):
                capacity = [float(capacity)]
            return VectorItemList(items, capacity=tuple(capacity))
        return ItemList(items, capacity=float(capacity))
    except ValueError as exc:
        raise TraceFormatError(str(exc)) from None


def to_csv(items: ItemList) -> str:
    """Serialise to CSV with header ``id,size,arrival,departure``.

    Capacity is recorded in a leading comment line.  Scalar only — the
    vector instances serialise via :func:`to_json`.
    """
    if isinstance(items, VectorItemList):
        raise TraceFormatError(
            "vector instances cannot be written as CSV; use the JSON format"
        )
    buf = io.StringIO()
    buf.write(f"# capacity={items.capacity}\n")
    writer = csv.writer(buf)
    writer.writerow(["id", "size", "arrival", "departure"])
    for it in items:
        writer.writerow([it.item_id, repr(it.size), repr(it.arrival), repr(it.departure)])
    return buf.getvalue()


def from_csv(text: str) -> ItemList:
    """Parse an instance from :func:`to_csv` output."""
    capacity = 1.0
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if "capacity=" in stripped:
                raw = stripped.split("capacity=", 1)[1].strip()
                try:
                    capacity = float(raw)
                except ValueError:
                    raise TraceFormatError(
                        f"expected a number, got {raw!r}", None, None, "capacity"
                    ) from None
            continue
        break
    items = []
    for lineno, rec in iter_csv_records(
        iter(text.splitlines(keepends=True)),
        required=("id", "size", "arrival", "departure"),
    ):
        try:
            items.append(
                Item(
                    record_int(rec, "id", None, lineno),
                    record_float(rec, "size", None, lineno),
                    record_float(rec, "arrival", None, lineno),
                    record_float(rec, "departure", None, lineno),
                )
            )
        except ValueError as exc:
            if isinstance(exc, TraceFormatError):
                raise
            raise TraceFormatError(str(exc), None, lineno) from None
    try:
        return ItemList(items, capacity=capacity)
    except ValueError as exc:
        raise TraceFormatError(str(exc)) from None


def save_trace(items: AnyItemList, path: PathLike) -> None:
    """Write an instance to ``path`` (.json or .csv by extension; .gz ok)."""
    path = Path(path)
    suffix = trace_suffix(path)
    if suffix == ".json":
        text = to_json(items)
    elif suffix == ".csv":
        text = to_csv(items)
    else:
        raise ValueError(f"unsupported trace extension: {suffix!r}")
    with open_trace(path, "wt") as handle:
        handle.write(text)


def load_trace(path: PathLike) -> AnyItemList:
    """Read an instance written by :func:`save_trace`."""
    path = Path(path)
    suffix = trace_suffix(path)
    if suffix not in (".json", ".csv"):
        raise ValueError(f"unsupported trace extension: {suffix!r}")
    with open_trace(path) as handle:
        text = handle.read()
    try:
        if suffix == ".json":
            doc = _parse_json(text)
            # the file text is dead once parsed: drop it before the items
            # are built, or it stays resident through the whole build
            del text
            return _from_document(doc)
        if suffix == ".csv":
            return from_csv(text)
    except TraceFormatError as exc:
        # attach the file name when the text-level parser had none
        raise TraceFormatError(
            exc.message, exc.source or str(path), exc.line, exc.field
        ) from None
    raise ValueError(f"unsupported trace extension: {suffix!r}")
