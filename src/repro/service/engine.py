"""The streaming allocation engine — the push-based core of the service.

Every batch engine in the repository consumes a fully materialised
instance; the paper's setting is a *stream*: jobs arrive one at a time
with unknown departures and must be placed immediately (Section I).
:class:`StreamingEngine` is that missing layer.  It exposes a push API —

- :meth:`submit` — place one arriving job *now*, through admission
  control, and (by default) schedule its departure;
- :meth:`depart` — process an explicit departure (the live-operation
  path, where departures are only known when they happen);
- :meth:`advance` — move the service clock forward, applying every
  scheduled departure on the way and retrying queued jobs as capacity
  frees up;
- :meth:`finish` — drain the stream and return its
  :class:`StreamResult`: the item→bin map, the bin count and the
  objective, equal to what the batch engines report.

It is layered on the unified driver's incremental stepper
(:class:`~repro.core.driver.EventStepper`) over the same packing states
the batch engines use, so replaying any trace through the stream path
is **bit-identical** to :func:`~repro.core.packing.run_packing` /
:func:`~repro.multidim.packing.run_vector_packing` — same placements,
same usage time, on the indexed and reference paths alike (pinned by
``tests/service/test_stream_differential.py`` on the frozen corpora).

Ordering semantics match the batch driver exactly: events apply in time
order, departures before arrivals at equal times (half-open intervals),
ties within a kind in submission order.

The engine keeps only live state.  A bin that closes is handed to
:attr:`StreamingEngine.bin_closed_callbacks` (the one way a caller sees
closed bins), then leaves the state: its usage time joins a running
total and its slot in ``state.bins`` becomes ``None``.  What stays per
job is one ``item_bin`` entry — the placement record the duplicate-id
refusal and the recovery oracles read.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..core.driver import EventStepper, Observer
from ..core.state import PackingState
from .admission import ADMIT, QUEUE, AdmissionPolicy, AdmitAll
from .metrics import (
    DEFAULT_LEVEL_BUCKETS,
    DEFAULT_WAIT_BUCKETS,
    DecisionLog,
    MetricsRegistry,
)

__all__ = ["Placement", "StreamResult", "StreamingEngine"]

#: Placement actions, as they appear in responses and the decision log.
PLACED = "placed"
REJECTED = "rejected"
QUEUED = "queued"
SHED = "shed"
EXPIRED = "expired"


@dataclass(frozen=True)
class Placement:
    """The service's answer to one submitted job."""

    item_id: int
    action: str  # placed | rejected | queued | shed
    bin_index: Optional[int]  # set iff action == "placed"
    new_bin: bool
    time: float

    @property
    def accepted(self) -> bool:
        return self.action in (PLACED, QUEUED)

    def to_dict(self) -> dict:
        return {
            "item_id": self.item_id,
            "action": self.action,
            "bin": self.bin_index,
            "new_bin": self.new_bin,
            "time": self.time,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Placement":
        """Inverse of :meth:`to_dict` (used by the idempotency cache)."""
        return cls(
            item_id=doc["item_id"],
            action=doc["action"],
            bin_index=doc["bin"],
            new_bin=doc["new_bin"],
            time=doc["time"],
        )


@dataclass(frozen=True)
class StreamResult:
    """What a drained stream produced, as the batch results report it.

    ``total_usage_time`` is bit-identical to the batch engines'
    ``sum(b.usage_time for b in bins)``; the bins themselves went to
    :attr:`StreamingEngine.bin_closed_callbacks` as they closed.
    ``item_bin`` is the engine's own map, not a copy: it is the largest
    thing a drained engine holds, and a submit after the drain adds to
    it.
    """

    item_bin: dict[int, int]
    num_bins: int
    total_usage_time: float
    algorithm_name: str


class StreamingEngine:
    """Push-based online packing over the unified driver state machinery.

    Use the :meth:`scalar` / :meth:`vector` factories unless you are
    wiring a custom state.  The engine owns the event ordering that the
    batch driver gets from sorting: the service clock never moves
    backwards, and scheduled departures are applied before any arrival
    at the same instant.

    >>> from repro.algorithms import FirstFit
    >>> from repro.core.items import Item
    >>> eng = StreamingEngine.scalar(FirstFit())
    >>> eng.submit(Item(1, 0.4, 0.0, 2.0)).action
    'placed'
    >>> eng.submit(Item(2, 0.5, 1.0, 3.0)).bin_index
    0
    >>> eng.finish().num_bins
    1
    """

    def __init__(
        self,
        algorithm,
        state,
        *,
        hook_base: type | None = None,
        admission: Optional[AdmissionPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        decision_log: Optional[DecisionLog] = None,
        observers: Sequence[Observer] = (),
    ):
        self.algorithm = algorithm
        self.state = state
        self.admission = admission if admission is not None else AdmitAll()
        self.metrics = metrics
        self.decision_log = decision_log
        self._stepper = EventStepper(algorithm, state, observers, hook_base)
        self._stepper.migration_hook = self._on_migration
        #: callbacks invoked with each bin the moment it closes, before
        #: the engine drops it (the cloud layer bills servers on this
        #: hook); the only way a caller sees a closed bin
        self.bin_closed_callbacks: list[Callable] = []
        #: the objective over closed bins, folded left to right in bin
        #: index order: ``_usage_total`` sums bins ``0 .. _usage_next - 1``;
        #: a bin that closes while an older one is open waits in
        #: ``_usage_waiting`` (index -> usage time) until it is its turn
        self._usage_total = 0.0
        self._usage_next = 0
        self._usage_waiting: dict[int, float] = {}
        #: migration accounting (live regardless of the metrics registry;
        #: checkpointed and restored by repro.service.snapshot)
        self.migrations = 0
        self.defrag_runs = 0
        self.bins_evacuated = 0

        #: service clock: the time of the last applied event
        self.clock: float = 0.0
        self._started = False  # clock is meaningless until the first event
        #: scheduled departures: heap of (time, seq, item); an entry
        #: whose item is no longer active is skipped lazily
        self._pending: list[tuple[float, int, object]] = []
        #: admission queue (FIFO): (submit_time, seq, item)
        self._queue: list[tuple[float, int, object]] = []
        self._seq = 0
        #: item_id -> item, placed & not departed; a job has departed iff
        #: it is in ``state.item_bin`` and not here
        self._active: dict[int, object] = {}

        # metric objects resolved once at declaration: the submit path
        # touches half a dozen of them per job, and two dict lookups
        # through the registry each time is measurable at stream rates
        self._metric_cache: dict[str, object] = {}
        self._h_bin_level = None
        self._h_job_load = None
        self._h_queue_wait = None
        self._m_submitted = None
        self._m_placed = None
        self._m_departures = None
        self._m_bins_opened = None
        self._m_bins_closed = None
        self._m_open_bins = None
        self._m_load = None
        self._m_clock = None
        self._m_migrations = None
        self._m_defrag_runs = None
        self._m_bins_evacuated = None
        if metrics is not None:
            self._declare_metrics(metrics)

    # -- construction ---------------------------------------------------------
    @classmethod
    def scalar(
        cls,
        algorithm,
        capacity: float = 1.0,
        indexed: bool = True,
        state: Optional[PackingState] = None,
        **kwargs,
    ) -> "StreamingEngine":
        """A streaming engine over the scalar (1-D) packing state.

        ``state`` is for checkpoint restoration: a pre-populated state
        takes precedence over ``capacity``/``indexed``.
        """
        from ..algorithms.base import PackingAlgorithm

        if state is None:
            state = PackingState(capacity=capacity, indexed=indexed)
        return cls(algorithm, state, hook_base=PackingAlgorithm, **kwargs)

    @classmethod
    def vector(
        cls,
        algorithm,
        capacity: Sequence[float] = (1.0,),
        indexed: bool = True,
        state=None,
        **kwargs,
    ) -> "StreamingEngine":
        """A streaming engine over the multi-dimensional packing state."""
        from ..multidim.algorithms import VectorAlgorithm
        from ..multidim.state import VectorPackingState

        if state is None:
            state = VectorPackingState(capacity=capacity, indexed=indexed)
        return cls(algorithm, state, hook_base=VectorAlgorithm, **kwargs)

    # -- views ----------------------------------------------------------------
    def can_fit(self, item) -> bool:
        """Whether any currently open bin can accommodate ``item``."""
        return self.state.first_fit_bin(item.size) is not None

    def load(self) -> float:
        """Fleet-wide load in bins' worth of work (binding resource)."""
        total = self.state.total_level
        if isinstance(total, tuple):
            return max(t / c for t, c in zip(total, self.state.capacity))
        return total / self.state.capacity

    def item_load(self, item) -> float:
        """``item``'s contribution to :meth:`load`."""
        size = item.size
        if isinstance(size, tuple):
            return max(s / c for s, c in zip(size, self.state.capacity))
        return size / self.state.capacity

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def pending_departures(self) -> int:
        active = self._active
        return sum(1 for _, _, it in self._pending if it.item_id in active)

    def stats(self) -> dict:
        """A light status snapshot for the service's ``stats`` op."""
        return {
            "clock": self.clock,
            "open_bins": self.state.num_open,
            "bins_used": self.state.num_bins_used,
            "placed": len(self.state.item_bin),
            "active": len(self._active),
            "queue_depth": self.queue_depth,
            "pending_departures": self.pending_departures,
            "load": self.load(),
            "migrations": self.migrations,
            "defrag_runs": self.defrag_runs,
            "bins_evacuated": self.bins_evacuated,
            "admission": dict(self.admission.counts),
            "policy": self.admission.name,
            "algorithm": self.algorithm.name,
        }

    def config(self) -> dict:
        """The engine's static configuration, as a canonical dict.

        This is the identity a WAL directory is bound to (the shard
        MANIFEST fingerprints it): two engines with equal configs replay
        the same log to the same state, two with different configs must
        never share a log.  Only construction-time knobs belong here —
        nothing that changes as the stream runs.
        """
        capacity = self.state.capacity
        return {
            "kind": "scalar" if isinstance(self.state, PackingState) else "vector",
            "algorithm": self.algorithm.name,
            "capacity": list(capacity) if isinstance(capacity, tuple) else capacity,
            "indexed": self.state.indexed,
            "admission": self.admission.name,
        }

    # -- the push API ---------------------------------------------------------
    def submit(self, item, *, schedule_departure: bool = True) -> Placement:
        """Handle one arriving job at its arrival time.

        Moves the clock to ``item.arrival`` (applying any scheduled
        departure due on the way — departures precede arrivals at equal
        times), runs admission control, and places / queues / turns the
        job away.  With ``schedule_departure`` (default) the item's
        departure time is queued for :meth:`advance`; pass ``False``
        when departures are only known live (then call :meth:`depart`).
        """
        arrival = item.arrival
        if self._started and arrival < self.clock:
            raise ValueError(
                f"item {item.item_id} arrives at {arrival}, before the service "
                f"clock {self.clock} — the stream must be time-ordered"
            )
        # ids are forever: reusing one would corrupt the item→bin map and
        # the scheduled-departure bookkeeping, so it is refused *before*
        # any state is touched (the reply is a clean protocol error)
        if item.item_id in self.state.item_bin or (
            self._queue
            and any(it.item_id == item.item_id for _, _, it in self._queue)
        ):
            raise ValueError(
                f"item {item.item_id} was already submitted — job ids must be "
                f"unique for the life of the service"
            )
        self._drain_until(arrival)
        self._set_clock(arrival)

        decision = self.admission.decide(self, item)
        self.admission.account(decision)
        if decision == ADMIT:
            placement = self._place(item, arrival, self._next_seq(), schedule_departure)
        elif decision == QUEUE:
            self._queue.append((arrival, self._next_seq(), item))
            placement = Placement(item.item_id, QUEUED, None, False, arrival)
            self._count("repro_service_jobs_queued_total")
            self._gauge("repro_service_queue_depth", len(self._queue))
        else:  # reject | shed
            action = REJECTED if decision == "reject" else SHED
            placement = Placement(item.item_id, action, None, False, arrival)
            self._count(f"repro_service_jobs_{action}_total")
        if self._m_submitted is not None:
            self._m_submitted.value += 1.0
        if self.decision_log is not None:
            self._log(
                t=arrival,
                op="submit",
                item=item.item_id,
                action=placement.action,
                bin=placement.bin_index,
                new_bin=placement.new_bin,
                open=self.state.num_open,
                queue_depth=len(self._queue),
            )
        return placement

    def depart(self, item_id: int, now: Optional[float] = None) -> None:
        """Process an explicit departure of a placed item at time ``now``.

        ``now`` defaults to the item's recorded departure time.  The
        live-operation path: a client that submitted with
        ``schedule_departure=False`` announces departures itself.

        Idempotent against the scheduler: if the item has already
        departed (its *scheduled* departure fired, or it fires during
        the drain below — which is guaranteed when ``now`` defaults to
        the recorded departure time and the submit scheduled it), the
        explicit depart is a no-op rather than a double-apply.  Trace
        replay leans on this: the load generator announces every
        departure to a server that also schedules them.  An id that was
        never placed raises :class:`KeyError`.
        """
        item = self._active.get(item_id)
        if item is None:
            if item_id in self.state.item_bin:
                return  # placed, and no longer active: already departed
            raise KeyError(f"item {item_id} is not active in the service")
        when = item.departure if now is None else now
        if self._started and when < self.clock:
            raise ValueError(
                f"departure of item {item_id} at {when} is before the "
                f"service clock {self.clock}"
            )
        self._drain_until(when)
        if item.item_id not in self._active:
            return  # the drain applied this item's scheduled departure
        self._apply_departure(when, self._next_seq(), item)
        self._retry_queue(when)

    def advance(self, now: float) -> int:
        """Move the clock to ``now``; apply all scheduled departures due.

        Returns the number of departures applied.  Queued jobs are
        retried as departures free capacity.
        """
        if self._started and now < self.clock:
            raise ValueError(f"cannot advance to {now}: clock is at {self.clock}")
        applied = self._drain_until(now, inclusive=True)
        self._set_clock(now)
        self._retry_queue(self.clock)
        return applied

    def finish(self) -> StreamResult:
        """Drain the stream completely and return its :class:`StreamResult`.

        Applies every scheduled departure, gives queued jobs their last
        chance (a job the policy still refuses on an empty fleet can
        never be placed and is dropped as shed), asserts the terminal
        invariant, and reports what the corresponding batch engine
        reports: the item→bin map, the bin count and the objective.
        """
        while True:
            nxt = self._next_pending()
            if nxt is None:
                break
            self.advance(nxt)
        # queued leftovers: nothing else will ever depart, so a refusal
        # now is a refusal forever
        while self._queue:
            when, seq, item = self._queue[0]
            if item.departure > self.clock and self.admission.admit_queued(self, item):
                self._queue.pop(0)
                self._place(item, max(self.clock, item.arrival), seq, True, queued_at=when)
                while True:
                    nxt = self._next_pending()
                    if nxt is None:
                        break
                    self.advance(nxt)
            else:
                self._queue.pop(0)
                self._drop_queued(item, EXPIRED if item.departure <= self.clock else SHED)
        self._gauge("repro_service_queue_depth", 0)
        self._stepper.finish()
        return self.result()

    def result(self) -> StreamResult:
        """The result for everything placed so far.

        ``total_usage_time`` covers only the bins folded so far, so it
        is the run's objective once every placed item has departed;
        :meth:`finish` guarantees that.
        """
        return StreamResult(
            item_bin=self.state.item_bin,
            num_bins=self.state.num_bins_used,
            total_usage_time=self._usage_total,
            algorithm_name=self.algorithm.name,
        )

    # -- the background defragmenter ------------------------------------------
    def plan_defrag(self, budget: int) -> list:
        """Plan (without applying) one defragmenter pass at the current clock.

        The same resource-generic evacuation planner the budgeted-repack
        policies use per event
        (:func:`repro.algorithms.migration.plan_evacuation_moves`):
        evacuate the highest-waste open bin completely, or do nothing.
        """
        from ..algorithms.migration import plan_evacuation_moves

        return plan_evacuation_moves(self.state, int(budget))

    def defrag(self, budget: int) -> int:
        """Run one defragmenter pass: up to ``budget`` migrations, now.

        Moves are applied through the stepper (validation, kill-points,
        and the migration accounting hook included), at the current
        service clock — a migration is an operator action, not a trace
        event, so the clock does not move.  Returns the number of items
        moved (0 when no complete evacuation fits the budget).

        ``defrag_runs`` counts *effective* passes only (ones that moved
        something): a planned no-op leaves every counter untouched, so
        the durable layer can skip logging it entirely and recovery
        still reproduces the uninterrupted run bit for bit.
        """
        moves = self.plan_defrag(budget)
        if not moves:
            return 0
        moved = self._stepper.apply_migrations(moves)
        self.defrag_runs += 1
        if self._m_defrag_runs is not None:
            self._m_defrag_runs.value += 1.0
        if self.decision_log is not None:
            self._log(
                t=self.clock,
                op="defrag",
                budget=int(budget),
                moved=moved,
                open=self.state.num_open,
            )
        return moved

    def _on_migration(self, item, src, target) -> None:
        """Stepper hook: account one applied migration (any origin)."""
        self.migrations += 1
        if self._m_migrations is not None:
            self._m_migrations.value += 1.0
        if src.is_closed:
            self.bins_evacuated += 1
            if self._m_bins_evacuated is not None:
                self._m_bins_evacuated.value += 1.0
            if self._m_bins_closed is not None:
                self._m_bins_closed.inc()
                self._m_open_bins.value = self.state.num_open
            for cb in self.bin_closed_callbacks:
                cb(src)
            self._fold_closed(src)

    # -- internals ------------------------------------------------------------
    def _fold_closed(self, b) -> None:
        """Fold a closed bin's usage time into the total; drop the bin.

        The total must equal the batch ``sum(b.usage_time for b in
        bins)`` bit for bit, so terms are added left to right in bin
        index order: a bin whose elders are all folded goes in now,
        followed by any younger bins that closed while it was open.
        """
        waiting = self._usage_waiting
        waiting[b.index] = b.usage_time
        k = self._usage_next
        while k in waiting:
            self._usage_total += waiting.pop(k)
            k += 1
        self._usage_next = k
        self.state.bins[b.index] = None

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _set_clock(self, now: float) -> None:
        if not self._started or now > self.clock:
            self.clock = now
        self._started = True
        if self._m_clock is not None:
            self._m_clock.value = self.clock

    def _next_pending(self) -> Optional[float]:
        """Time of the next live scheduled departure, skipping cancelled."""
        pending, active = self._pending, self._active
        while pending and pending[0][2].item_id not in active:
            heapq.heappop(pending)
        return self._pending[0][0] if self._pending else None

    def _drain_until(self, bound: float, inclusive: bool = True) -> int:
        """Apply scheduled departures with time <= ``bound``; returns how many.

        Departures at one instant are applied together (in schedule
        order) before the queue is retried at that instant, preserving
        the batch driver's departures-before-arrivals tie rule.
        """
        applied = 0
        while True:
            nxt = self._next_pending()
            if nxt is None or (nxt > bound if inclusive else nxt >= bound):
                return applied
            t = nxt
            while True:
                nxt = self._next_pending()
                if nxt is None or nxt != t:
                    break
                _, seq, item = heapq.heappop(self._pending)
                self._apply_departure(t, seq, item)
                applied += 1
            self._retry_queue(t)

    def _apply_departure(self, time: float, seq: int, item) -> None:
        self._set_clock(time)
        source = self._stepper.depart(time, seq, item)
        del self._active[item.item_id]
        if self._m_departures is not None:
            # direct .value stores: same values as inc()/set(), minus
            # one method call each — this runs once per departure
            self._m_departures.value += 1.0
            self._m_open_bins.value = self.state.num_open
            self._m_load.value = self.load()
        # a repacking policy's moves after this departure may already
        # have emptied the bin, reported it and dropped it (_on_migration)
        if source.is_closed and self.state.bins[source.index] is source:
            if self._m_bins_closed is not None:
                self._m_bins_closed.inc()
            for cb in self.bin_closed_callbacks:
                cb(source)
            self._fold_closed(source)
        if self.decision_log is not None:
            self._log(
                t=time,
                op="depart",
                item=item.item_id,
                action="departed",
                bin=source.index,
                closed=source.is_closed,
                open=self.state.num_open,
            )

    def _place(
        self, item, time: float, seq: int, schedule_departure: bool, queued_at=None
    ) -> Placement:
        bins_before = self.state.num_bins_used
        target = self._stepper.arrive(time, seq, item)
        new_bin = self.state.num_bins_used > bins_before
        self._active[item.item_id] = item
        if schedule_departure:
            heapq.heappush(self._pending, (item.departure, seq, item))
        if self._m_placed is not None:
            # direct .value stores (see _apply_departure)
            self._m_placed.value += 1.0
            if new_bin:
                self._m_bins_opened.value += 1.0
            self._m_open_bins.value = self.state.num_open
            self._m_load.value = self.load()
        if self._h_bin_level is not None:
            level = target.level
            fullness = (
                max(l / c for l, c in zip(level, self.state.capacity))
                if isinstance(level, tuple)
                else level / self.state.capacity
            )
            self._h_bin_level.observe(fullness)
            self._h_job_load.observe(self.item_load(item))
            if queued_at is not None:
                self._h_queue_wait.observe(time - queued_at)
        if queued_at is not None:
            self.admission.account(ADMIT)
            self._gauge("repro_service_queue_depth", len(self._queue))
            self._log(
                t=time,
                op="dequeue",
                item=item.item_id,
                action=PLACED,
                bin=target.index,
                new_bin=new_bin,
                waited=time - queued_at,
                open=self.state.num_open,
            )
        return Placement(item.item_id, PLACED, target.index, new_bin, time)

    def _retry_queue(self, time: float) -> None:
        """Give the queue head its chance after capacity may have freed."""
        while self._queue:
            queued_at, seq, item = self._queue[0]
            if item.departure <= time:
                self._queue.pop(0)
                self._drop_queued(item, EXPIRED)
                continue
            if not self.admission.admit_queued(self, item):
                return  # FIFO: head-of-line blocks, preserving order
            self._queue.pop(0)
            self._place(item, time, seq, True, queued_at=queued_at)

    def _drop_queued(self, item, why: str) -> None:
        self.admission.account("shed")
        self._count("repro_service_jobs_shed_total")
        self._gauge("repro_service_queue_depth", len(self._queue))
        self._log(
            t=self.clock, op="dequeue", item=item.item_id, action=why,
            bin=None, open=self.state.num_open,
        )

    # -- metrics plumbing (no-ops when no registry is attached) ---------------
    def _declare_metrics(self, reg: MetricsRegistry) -> None:
        cache = self._metric_cache
        for name, help_text in (
            ("repro_service_jobs_submitted_total", "jobs submitted"),
            ("repro_service_jobs_placed_total", "jobs placed into a bin"),
            ("repro_service_jobs_rejected_total", "jobs rejected by admission"),
            ("repro_service_jobs_queued_total", "jobs parked in the admission queue"),
            ("repro_service_jobs_shed_total", "jobs shed (dropped under load)"),
            ("repro_service_departures_total", "departures processed"),
            ("repro_service_bins_opened_total", "servers opened"),
            ("repro_service_bins_closed_total", "servers closed"),
            ("repro_service_migrations_total", "items moved between bins"),
            ("repro_service_defrag_runs_total",
             "defragmenter passes that moved at least one item"),
            ("repro_service_bins_evacuated_total",
             "servers closed by migrating their last items away"),
        ):
            cache[name] = reg.counter(name, help_text)
        for name, help_text in (
            ("repro_service_open_bins", "currently open servers"),
            ("repro_service_queue_depth", "jobs waiting in the admission queue"),
            ("repro_service_load", "total open-bin load, in bins' worth of work"),
            ("repro_service_clock", "service clock (trace time)"),
        ):
            cache[name] = reg.gauge(name, help_text)
        self._h_bin_level = reg.histogram(
            "repro_service_bin_level",
            "bin fullness after each placement",
            DEFAULT_LEVEL_BUCKETS,
        )
        self._h_job_load = reg.histogram(
            "repro_service_job_load",
            "normalised demand of each placed job",
            DEFAULT_LEVEL_BUCKETS,
        )
        self._h_queue_wait = reg.histogram(
            "repro_service_queue_wait",
            "trace-time wait of queued jobs until placement",
            DEFAULT_WAIT_BUCKETS,
        )
        # the per-submit path touches these on every job: bind the
        # metric objects as attributes so the hot methods skip even the
        # cache dict hop (all-or-nothing with the declarations above)
        self._m_submitted = cache["repro_service_jobs_submitted_total"]
        self._m_placed = cache["repro_service_jobs_placed_total"]
        self._m_departures = cache["repro_service_departures_total"]
        self._m_bins_opened = cache["repro_service_bins_opened_total"]
        self._m_bins_closed = cache["repro_service_bins_closed_total"]
        self._m_open_bins = cache["repro_service_open_bins"]
        self._m_load = cache["repro_service_load"]
        self._m_clock = cache["repro_service_clock"]
        self._m_migrations = cache["repro_service_migrations_total"]
        self._m_defrag_runs = cache["repro_service_defrag_runs_total"]
        self._m_bins_evacuated = cache["repro_service_bins_evacuated_total"]

    def _count(self, name: str, amount: float = 1.0) -> None:
        metric = self._metric_cache.get(name)
        if metric is not None:
            metric.inc(amount)

    def _gauge(self, name: str, value: float) -> None:
        metric = self._metric_cache.get(name)
        if metric is not None:
            metric.set(value)

    def _log(self, **record) -> None:
        if self.decision_log is not None:
            self.decision_log.log(**record)
