"""Event model for the online packing simulation.

The simulation is event-driven: the only times at which the system state
changes are item arrivals and departures.  This module turns an item list
into a deterministic, totally ordered event sequence.  It is resource
agnostic: any item with ``arrival``/``departure`` attributes streams
through it, so the scalar :class:`~repro.core.items.ItemList` and the
vector :class:`~repro.multidim.items.VectorItemList` share the exact
same ordering (and the same C-speed tuple sort).

Ordering rules (these are load-bearing and pinned by tests):

1. Events are ordered by time.
2. At equal times, **departures precede arrivals**.  Intervals are
   half-open, so an item with ``I = [a, b)`` is *not* active at ``b``;
   space it occupied is available to an item arriving at exactly ``b``.
3. Ties within a kind are broken by the instance order of the items
   (arrival order is the order in which the online algorithm sees
   simultaneous arrivals — the adversary controls it via list order).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .items import Item, ItemList

__all__ = ["EventKind", "Event", "event_sequence", "event_tuples"]


class EventKind(enum.IntEnum):
    """Kind of a simulation event.

    ``DEPART < ARRIVE`` so that tuple comparison implements the
    departures-first rule at equal timestamps.
    """

    DEPART = 0
    ARRIVE = 1


@dataclass(frozen=True, order=True)
class Event:
    """A single arrival or departure.

    Sort key is ``(time, kind, seq)``: time-ordered, departures first at
    ties, then instance order.
    """

    time: float
    kind: EventKind
    seq: int
    item: Item = field(compare=False)


def _sort_key(event: Event) -> tuple[float, int, int]:
    return (event.time, event.kind, event.seq)


def event_sequence(items: ItemList | Sequence[Item]) -> list[Event]:
    """The full, sorted event sequence for an instance."""
    events: list[Event] = []
    append = events.append
    for seq, it in enumerate(items):
        append(Event(it.arrival, EventKind.ARRIVE, seq, it))
        append(Event(it.departure, EventKind.DEPART, seq, it))
    # sorting by an extracted key tuple avoids one generated-__lt__
    # Python call per comparison; the order is identical to Event's
    # (time, kind, seq) dataclass ordering
    events.sort(key=_sort_key)
    return events


def event_tuples(
    items: ItemList | Sequence[Item] | Iterable,
) -> list[tuple[float, int, int, Item]]:
    """The event sequence as plain ``(time, kind, seq, item)`` tuples.

    Same events in the same total order as :func:`event_sequence`
    (``kind`` is the :class:`EventKind` integer value, so the tuple sort
    applies rules 1–3 directly; ``seq`` is unique, so ``item`` is never
    compared).  This is the unified packing driver's hot path — scalar
    and vector items alike: it skips one object construction per event
    and sorts with C-speed tuple comparisons.
    """
    events: list[tuple[float, int, int, Item]] = []
    append = events.append
    for seq, it in enumerate(items):
        append((it.arrival, 1, seq, it))
        append((it.departure, 0, seq, it))
    events.sort()
    return events
