"""Tests for repro.core.events: deterministic event ordering."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import EventKind, event_tuples
from repro.core.items import Item, ItemList
from repro.multidim.items import VectorItem, VectorItemList

from ..conftest import item_lists


def sorted_event_tuples(items):
    """The declared reference order: all 2n event tuples built eagerly
    and tuple-sorted — time, then departures (kind 0) before arrivals
    (kind 1), then instance order.  :func:`event_tuples`' lazy merge
    must reproduce it exactly.
    """
    events = []
    for seq, it in enumerate(items):
        events.append((it.arrival, 1, seq, it))
        events.append((it.departure, 0, seq, it))
    events.sort()
    return events


@st.composite
def integer_time_items(draw, vector=False):
    """Instances on a coarse integer clock: arrivals tie with arrivals,
    departures with departures, and arrivals with departures."""
    n = draw(st.integers(1, 30))
    items = []
    for i in range(n):
        arrival = draw(st.integers(0, 8))
        departure = arrival + draw(st.integers(1, 4))
        if vector:
            sizes = (
                draw(st.sampled_from([0.25, 0.5])),
                draw(st.sampled_from([0.1, 0.6])),
            )
            items.append(VectorItem(i, sizes, arrival, departure))
        else:
            size = draw(st.sampled_from([0.2, 0.5, 0.9]))
            items.append(Item(i, size, arrival, departure))
    return VectorItemList(items, capacity=(1.0, 1.0)) if vector else ItemList(items)


class TestEventOrdering:
    def test_time_ordering(self):
        items = ItemList([Item(0, 0.5, 1.0, 3.0), Item(1, 0.5, 0.0, 2.0)])
        times = [time for time, _, _, _ in event_tuples(items)]
        assert times == sorted(times)

    def test_departure_before_arrival_at_same_time(self):
        # item 0 departs at t=1 exactly when item 1 arrives: the departure
        # must be processed first (half-open intervals free the space)
        items = ItemList([Item(0, 1.0, 0.0, 1.0), Item(1, 1.0, 1.0, 2.0)])
        at_one = [kind for time, kind, _, _ in event_tuples(items) if time == 1.0]
        assert at_one == [EventKind.DEPART, EventKind.ARRIVE]

    def test_simultaneous_arrivals_follow_instance_order(self):
        items = ItemList(
            [Item(5, 0.1, 0.0, 1.0), Item(3, 0.1, 0.0, 1.0), Item(9, 0.1, 0.0, 1.0)]
        )
        arrivals = [
            item.item_id
            for _, kind, _, item in event_tuples(items)
            if kind == EventKind.ARRIVE
        ]
        assert arrivals == [5, 3, 9]

    def test_two_events_per_item(self):
        items = ItemList([Item(i, 0.2, i * 0.5, i * 0.5 + 1) for i in range(7)])
        assert len(list(event_tuples(items))) == 14

    @given(item_lists(max_items=25))
    def test_event_sequence_is_sorted_and_complete(self, items):
        events = list(event_tuples(items))
        assert len(events) == 2 * len(items)
        for a, b in zip(events, events[1:]):
            assert a[:2] <= b[:2]
        arrivals = sum(1 for _, kind, _, _ in events if kind == EventKind.ARRIVE)
        assert arrivals == len(items)

    @given(item_lists(max_items=25))
    def test_departure_never_precedes_arrival_of_same_item(self, items):
        seen_arrival = set()
        for _, kind, _, item in event_tuples(items):
            if kind == EventKind.ARRIVE:
                seen_arrival.add(item.item_id)
            else:
                assert item.item_id in seen_arrival


class TestLazyMergeEqualsTupleSort:
    """``event_tuples`` merges two index sorts lazily; the stream must be
    the tuple-sorted list, tuple for tuple (same float objects, same
    items)."""

    @given(item_lists(max_items=40))
    def test_random_instances(self, items):
        assert list(event_tuples(items)) == sorted_event_tuples(items)

    @given(integer_time_items())
    def test_integer_times_with_ties(self, items):
        assert list(event_tuples(items)) == sorted_event_tuples(items)

    @given(integer_time_items(vector=True))
    def test_vector_items_with_ties(self, items):
        assert list(event_tuples(items)) == sorted_event_tuples(items)

    def test_stream_carries_the_instance_objects(self):
        items = ItemList([Item(0, 0.5, 0.0, 1.0), Item(1, 0.5, 1.0, 2.0)])
        for (t, _, _, it), (rt, _, _, rit) in zip(
            event_tuples(items), sorted_event_tuples(items)
        ):
            assert t is rt and it is rit

    def test_empty_instance(self):
        assert list(event_tuples([])) == []
