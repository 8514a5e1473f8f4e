"""Deferred dispatch: trade waiting time for packing quality.

The paper's model places every job the instant it arrives.  Real
dispatchers often may hold a request briefly (matchmaking queues,
batch admission): if a server frees up within the patience window, the
job reuses it instead of forcing a new rental.

Model: a job arriving at ``a`` with duration ``d`` may start at any
``s ∈ [a, a + max_delay]``; once started it runs to ``s + d`` (the
session is served in full, the user just waited).  The dispatcher here
is *lazy first fit*:

- place immediately if any open bin fits;
- otherwise queue the job (FIFO) and retry after every departure;
- at the patience deadline, place unconditionally (new bin if needed).

``max_delay = 0`` reproduces plain First Fit exactly (asserted in
tests).  Experiment X9 sweeps the patience window and reports the
cost/waiting frontier.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property

from ..algorithms.first_fit import FirstFit
from ..core.driver import EventStepper
from ..core.items import Item, ItemList
from ..core.result import PackingResult
from ..core.state import PackingState

__all__ = ["DeferralResult", "run_deferred_first_fit"]

#: a wait shorter than this (a time, not a capacity) counts as no delay
_EPS = 1e-9

# event kinds, ordered: departures free capacity first, then deadlines
# force placements, then fresh arrivals join the queue
_DEPART, _DEADLINE, _ARRIVE = 0, 1, 2


@dataclass(frozen=True)
class DeferralResult:
    """Packing plus queueing statistics of a deferred dispatch run."""

    packing: PackingResult
    max_delay: float
    waits: dict[int, float]  # item id -> time spent queued

    @property
    def total_usage_time(self) -> float:
        return self.packing.total_usage_time

    @cached_property
    def mean_wait(self) -> float:
        if not self.waits:
            return 0.0
        return sum(self.waits.values()) / len(self.waits)

    @cached_property
    def max_wait(self) -> float:
        return max(self.waits.values(), default=0.0)

    @cached_property
    def delayed_jobs(self) -> int:
        return sum(1 for w in self.waits.values() if w > _EPS)


def run_deferred_first_fit(
    jobs: ItemList, max_delay: float, capacity: float = 1.0
) -> DeferralResult:
    """Lazy First Fit with a patience window of ``max_delay``.

    Durations are taken from the instance (departure − arrival); actual
    departures shift with the start time.
    """
    if max_delay < 0:
        raise ValueError("max_delay must be non-negative")
    if not isinstance(jobs, ItemList):
        jobs = ItemList(jobs, capacity=capacity)

    state = PackingState(capacity=capacity)
    stepper = EventStepper(FirstFit(), state)
    counter = itertools.count()
    heap: list[tuple[float, int, int, object]] = []
    for it in jobs:
        heapq.heappush(heap, (it.arrival, _ARRIVE, next(counter), it))

    queue: list[Item] = []  # FIFO of waiting jobs (original items)
    placed_items: dict[int, Item] = {}  # id -> shifted item actually placed
    waits: dict[int, float] = {}

    def try_place(original: Item, now: float, force: bool) -> bool:
        if not force and state.first_fit_bin(original.size) is None:
            return False
        shifted = Item(original.item_id, original.size, now, now + original.duration)
        stepper.arrive(now, original.item_id, shifted)
        placed_items[original.item_id] = shifted
        waits[original.item_id] = now - original.arrival
        heapq.heappush(
            heap, (shifted.departure, _DEPART, next(counter), shifted)
        )
        return True

    def drain_queue(now: float) -> None:
        # FIFO retry: stop at the first job that still doesn't fit (later
        # jobs must not jump the queue — fairness).  When no bin is open
        # at all, waiting cannot help (capacity only frees from open
        # bins), so the head is placed into a fresh bin unconditionally.
        while queue:
            head = queue[0]
            if state.num_open == 0:
                queue.pop(0)
                try_place(head, now, force=True)
                continue
            if try_place(head, now, force=False):
                queue.pop(0)
                continue
            break

    while heap:
        time, kind, _seq, payload = heapq.heappop(heap)
        if kind == _DEPART:
            stepper.depart(time, payload.item_id, payload)
            drain_queue(time)
        elif kind == _ARRIVE:
            item = payload
            if max_delay == 0.0:
                try_place(item, time, force=True)
            elif not queue and try_place(item, time, force=False):
                pass  # placed immediately
            elif not queue and state.num_open == 0:
                # nothing is open: waiting cannot free capacity
                try_place(item, time, force=True)
            else:
                queue.append(item)
                heapq.heappush(
                    heap, (time + max_delay, _DEADLINE, next(counter), item)
                )
        else:  # deadline
            item = payload
            if item.item_id not in placed_items:
                queue.remove(item)
                try_place(item, time, force=True)
                drain_queue(time)

    stepper.finish()
    shifted_list = ItemList(
        (placed_items[it.item_id] for it in jobs), capacity=capacity
    )
    packing = PackingResult(
        items=shifted_list,
        bins=tuple(state.bins),
        algorithm_name=f"deferred-first-fit(delay={max_delay:g})",
        item_bin=dict(state.item_bin),
    )
    return DeferralResult(packing=packing, max_delay=max_delay, waits=waits)
