"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.core.items import Item, ItemList
from repro.multidim.items import VectorItem, VectorItemList


@pytest.fixture
def simple_items() -> ItemList:
    """Three overlapping items that First Fit packs into two bins."""
    return ItemList(
        [
            Item(0, size=0.6, arrival=0.0, departure=2.0),
            Item(1, size=0.5, arrival=0.5, departure=1.5),
            Item(2, size=0.4, arrival=1.0, departure=3.0),
        ]
    )


@pytest.fixture
def disjoint_items() -> ItemList:
    """Items that never overlap: any algorithm may reuse nothing."""
    return ItemList(
        [
            Item(0, size=0.9, arrival=0.0, departure=1.0),
            Item(1, size=0.9, arrival=2.0, departure=3.5),
            Item(2, size=0.9, arrival=5.0, departure=6.0),
        ]
    )


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

def item_lists(
    min_items: int = 1,
    max_items: int = 40,
    max_mu: float = 16.0,
    min_size: float = 0.02,
    max_size: float = 1.0,
) -> st.SearchStrategy[ItemList]:
    """Strategy for valid random instances with bounded µ.

    Durations are drawn in ``[1, max_mu]`` so the realised µ is at most
    ``max_mu``; arrivals in ``[0, 50]``; sizes in
    ``[min_size, max_size]``.  Values are rounded to limit degenerate
    float pathologies while keeping ties (equal arrival times etc.)
    reasonably likely, which exercises the event ordering rules.
    """

    @st.composite
    def build(draw):
        n = draw(st.integers(min_items, max_items))
        items = []
        for i in range(n):
            arrival = round(draw(st.floats(0.0, 50.0, allow_nan=False)), 2)
            duration = round(draw(st.floats(1.0, max_mu, allow_nan=False)), 2)
            size = round(draw(st.floats(min_size, max_size, allow_nan=False)), 3)
            size = min(max(size, min_size), max_size)
            items.append(Item(i, size, arrival, arrival + duration))
        return ItemList(items)

    return build()


@st.composite
def vector_instances(draw, max_items=25, max_dims=3):
    """Strategy for valid random vector instances of 1 to ``max_dims``
    resources, unit capacity in each."""
    dims = draw(st.integers(1, max_dims))
    n = draw(st.integers(1, max_items))
    items = []
    for i in range(n):
        arrival = round(draw(st.floats(0.0, 30.0, allow_nan=False)), 2)
        duration = round(draw(st.floats(1.0, 8.0, allow_nan=False)), 2)
        sizes = tuple(
            round(draw(st.floats(0.01, 1.0, allow_nan=False)), 3) for _ in range(dims)
        )
        items.append(VectorItem(i, sizes, arrival, arrival + duration))
    return VectorItemList(items, capacity=tuple(1.0 for _ in range(dims)))
