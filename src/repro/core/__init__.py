"""Core substrate: intervals, items, events, bins, and the packing driver."""

from .bins import Bin, CAPACITY_EPS
from .driver import EventStepper, run_events
from .events import Event, EventKind
from .intervals import (
    EMPTY_INTERVAL,
    Interval,
    coverage_at,
    intervals_intersect,
    merge_intervals,
    span,
    total_length,
    union_length,
)
from .items import Item, ItemList, validate_items
from .packing import run_packing
from .result import PackingResult
from .state import BasePackingState, PackingState

__all__ = [
    "BasePackingState",
    "Bin",
    "CAPACITY_EPS",
    "EMPTY_INTERVAL",
    "Event",
    "EventKind",
    "Interval",
    "Item",
    "ItemList",
    "PackingResult",
    "PackingState",
    "coverage_at",
    "intervals_intersect",
    "merge_intervals",
    "run_events",
    "EventStepper",
    "run_packing",
    "span",
    "total_length",
    "union_length",
    "validate_items",
]
