"""Event model for the online packing simulation.

The simulation is event-driven: the only times at which the system state
changes are item arrivals and departures.  :func:`event_tuples` turns an
item list into the deterministic, totally ordered event stream that
:func:`repro.core.driver.run_events` replays; an :class:`Event` is what
observers receive.  It is resource agnostic: any item with
``arrival``/``departure`` attributes streams through it, so the scalar
:class:`~repro.core.items.ItemList` and the vector
:class:`~repro.multidim.items.VectorItemList` share the exact same
ordering.

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
from typing import Iterable, Iterator, Sequence

from .items import Item, ItemList

__all__ = ["EventKind", "Event", "event_tuples"]


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


def event_tuples(
    items: ItemList | Sequence[Item] | Iterable,
) -> Iterator[tuple[float, int, int, Item]]:
    """The event sequence as plain ``(time, kind, seq, item)`` tuples.

    ``kind`` is the :class:`EventKind` integer value and ``seq`` the
    item's position in ``items``, so the stream is exactly the sorted
    list of ``(arrival, 1, seq, item)`` and ``(departure, 0, seq, item)``
    tuples (rules 1–3; ``seq`` is unique).  It is produced lazily rather
    than by building and tuple-sorting those 2n tuples: two stable sorts
    of the item positions, by arrival and by departure (float keys, so
    ties keep instance order), merged with departures first at equal
    times.  This is the unified packing driver's hot path, scalar and
    vector items alike.  While it streams it holds five pointer lists and
    one position ``int`` per item (73 bytes per item on a 20k-job
    instance, CPython 3.11), where the sorted tuple list held two
    4-tuples per item (189 bytes).
    """
    items = tuple(items)
    if not items:
        return
    arrivals = [it.arrival for it in items]
    departures = [it.departure for it in items]
    by_departure = list(range(len(items)))
    by_arrival = sorted(by_departure, key=arrivals.__getitem__)
    by_departure.sort(key=departures.__getitem__)
    # every item departs after it arrives, so the departures cannot run
    # out while arrivals remain
    j = 0
    d = by_departure[0]
    dt = departures[d]
    for a in by_arrival:
        at = arrivals[a]
        while dt <= at:
            yield (dt, 0, d, items[d])
            j += 1
            d = by_departure[j]
            dt = departures[d]
        yield (at, 1, a, items[a])
    for d in by_departure[j:]:
        yield (departures[d], 0, d, items[d])
