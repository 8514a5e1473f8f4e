"""The resource-agnostic event driver shared by every packing engine.

Every placement in the repository goes through :func:`run_events` or
its one-event-at-a-time form, :class:`EventStepper`.  The scalar 1-D
engine (:func:`repro.core.packing.run_packing`), the multi-dimensional
engine (:func:`repro.multidim.packing.run_vector_packing`) and the
heterogeneous fleet (:class:`repro.cloud.fleet.FleetDispatcher`) hand a
state to :func:`run_events`; the streaming service, deferred dispatch
(:func:`repro.deferral.engine.run_deferred_first_fit`) and warm-server
retention (:class:`repro.cloud.retention.RetentionDispatcher`), which
interleave their own work between events, drive the stepper.  The
driver — not the algorithm and not the wrapper — owns
correctness: it streams events in the canonical order (time-ordered,
departures before arrivals at ties, instance order within a kind,
merged lazily by :func:`~repro.core.events.event_tuples`), validates
every placement against the chosen bin's lifecycle and capacity,
reveals departures only when they occur, and dispatches observers
after each applied event.

The loop is generic over the *resource type* via a small structural
protocol (see ``docs/ARCHITECTURE.md``):

- ``item.size`` — the demand revealed to the policy (a ``float`` for the
  scalar engine, a tuple of floats for the vector engine).  Departure
  times are never revealed.
- ``bin.index`` / ``bin.is_open`` / ``bin.fits(item)`` / ``bin.level``
  — lifecycle and feasibility on the bin side.
- ``state.place`` / ``state.depart`` / ``state.num_open`` — the
  mutations, implemented once in
  :class:`~repro.core.state.BasePackingState`.

Because both engines raise from the same lines below, infeasible and
closed-bin placements produce *identical* error messages in the scalar
and vector engines — pinned by ``tests/multidim/test_guardrails.py``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .events import Event, EventKind, event_tuples

__all__ = ["run_events", "bind_policy", "check_move", "EventStepper", "Observer"]

#: Observer callback signature: ``(event, state)`` after each event is
#: applied.  The state is the engine-specific packing state (scalar or
#: vector); observers that only read the shared surface
#: (``num_open``, ``num_bins_used``, ``total_level``, ``now``) work
#: unchanged on both engines.
Observer = Callable[[Event, object], None]


def bind_policy(algorithm, hook_base: type | None):
    """Reset ``algorithm`` and resolve its per-event callables.

    Returns ``(clairvoyant, choose_bin, on_placed, on_departed,
    plan_migrations)`` where the two hooks are ``None`` when the
    concrete class inherits them unchanged from ``hook_base`` (so
    callers can skip the two no-op calls per event), and
    ``plan_migrations`` is ``None`` unless the policy is
    migration-capable (exposes a ``plan_migrations(state)`` returning
    ``(item, target)`` moves to apply after the event).  Shared by the
    batch loop (:func:`run_events`) and the incremental stepper
    (:class:`EventStepper`) so both paths make identical skip decisions.
    """
    algorithm.reset()
    clairvoyant = getattr(algorithm, "clairvoyant", False)
    choose_bin = (
        algorithm.choose_bin_clairvoyant if clairvoyant else algorithm.choose_bin
    )
    cls = type(algorithm)
    if hook_base is None:
        on_placed = algorithm.on_placed
        on_departed = algorithm.on_departed
    else:
        on_placed = None if cls.on_placed is hook_base.on_placed else algorithm.on_placed
        on_departed = (
            None if cls.on_departed is hook_base.on_departed else algorithm.on_departed
        )
    plan_migrations = getattr(algorithm, "plan_migrations", None)
    return clairvoyant, choose_bin, on_placed, on_departed, plan_migrations


def check_move(name: str, state, item, target):
    """Validate one planned migration; returns the item's source bin.

    The driver-owned counterpart of the arrival checks in the loop
    bodies below: a migration-capable policy proposes ``(item, target)``
    moves, and the driver — not the policy — verifies that the target is
    a *different*, still-open bin that fits the item before mutating.
    Shared verbatim by :func:`run_events`, :class:`EventStepper` and the
    service defragmenter so every path refuses a bad move with the same
    message (migrations are rare; a helper call per move is fine).
    """
    src = state.bins[state.item_bin[item.item_id]]
    if target is src:
        raise RuntimeError(
            f"{name} migration kept item {item.item_id} in bin {src.index}"
        )
    if not target.is_open:
        raise RuntimeError(f"{name} migration chose closed bin {target.index}")
    if not target.fits(item):
        raise RuntimeError(
            f"{name} migration chose bin {target.index} at level "
            f"{target.level} for item of size {item.size}"
        )
    return src


class EventStepper:
    """One-event-at-a-time interface to the unified driver.

    The streaming service (:mod:`repro.service`) cannot hand the driver
    a materialised item list — jobs are pushed one at a time — so this
    class exposes the loop *body* of :func:`run_events` as two methods,
    :meth:`arrive` and :meth:`depart`.  Feeding the stepper the canonical
    event sequence of an instance must reproduce a batch run bit for
    bit: same placements, same validation, identical error messages,
    same observer dispatch (pinned by
    ``tests/service/test_stream_differential.py``).

    :func:`run_events` keeps its own inlined copy of these bodies: a
    :func:`run_events` that called :meth:`arrive`/:meth:`depart` per
    event cost a median 1.085x the inlined loop's CPU on a rate-4
    Poisson First Fit instance, slower in 89 of 90 alternating
    in-process pairs (2-vCPU Intel Xeon VM, CPython 3.11.7; the table
    is in ``docs/ARCHITECTURE.md``).  Both are built on
    :func:`bind_policy` and :func:`check_move`; the stream differential
    pins them to each other.

    ``fault_hook`` is the chaos-testing seam: when set (by the fault
    injection harness, :mod:`repro.service.faults`), it is called with
    a point name at the named kill-points of the step —
    ``arrive.pre`` / ``arrive.post`` / ``depart.pre`` / ``depart.post``,
    plus ``migrate.pre`` / ``migrate.post`` around each applied move
    — so crash-recovery tests can kill the engine *inside* an event,
    between the WAL append and the state mutation, or between the
    mutation and the acknowledgement.  ``None`` (the default) costs one
    attribute test per step; the batch loop is untouched.
    """

    #: set to a callable(name) to arm the named kill-points
    fault_hook = None
    #: set to a callable(item, src, target) to observe each applied
    #: migration (the streaming engine counts moves and bills bins that
    #: close by evacuation through this seam)
    migration_hook = None

    def __init__(
        self,
        algorithm,
        state,
        observers: Sequence[Observer] = (),
        hook_base: type | None = None,
    ):
        self.algorithm = algorithm
        self.state = state
        self.observers = tuple(observers)
        (
            self.clairvoyant,
            self._choose_bin,
            self._on_placed,
            self._on_departed,
            self._plan_migrations,
        ) = bind_policy(algorithm, hook_base)

    def arrive(self, time: float, seq: int, item):
        """Apply one arrival; returns the bin the item was placed in."""
        if self.fault_hook is not None:
            self.fault_hook("arrive.pre")
        state = self.state
        state.now = time
        target = self._choose_bin(state, item if self.clairvoyant else item.size)
        if target is not None:
            if not target.is_open:
                raise RuntimeError(
                    f"{self.algorithm.name} chose closed bin {target.index}"
                )
            if not target.fits(item):
                raise RuntimeError(
                    f"{self.algorithm.name} chose bin {target.index} at level "
                    f"{target.level} for item of size {item.size}"
                )
        placed = state.place(item, target)
        if self._on_placed is not None:
            self._on_placed(state, placed, item.size)
        if self._plan_migrations is not None:
            self.apply_migrations(self._plan_migrations(state))
        if self.observers:
            event = Event(time, EventKind.ARRIVE, seq, item)
            for obs in self.observers:
                obs(event, state)
        if self.fault_hook is not None:
            self.fault_hook("arrive.post")
        return placed

    def depart(self, time: float, seq: int, item):
        """Apply one departure; returns the bin the item left (may be closed)."""
        if self.fault_hook is not None:
            self.fault_hook("depart.pre")
        state = self.state
        state.now = time
        source = state.depart(item)
        if self._on_departed is not None:
            self._on_departed(state, source)
        if self._plan_migrations is not None:
            self.apply_migrations(self._plan_migrations(state))
        if self.observers:
            event = Event(time, EventKind.DEPART, seq, item)
            for obs in self.observers:
                obs(event, state)
        if self.fault_hook is not None:
            self.fault_hook("depart.post")
        return source

    def apply_migrations(self, moves) -> int:
        """Apply planned ``(item, target)`` moves; returns how many.

        Every move is validated (:func:`check_move`) and wrapped in its
        own ``migrate.pre`` / ``migrate.post`` kill-points, so a crash
        between two moves of one plan is a recoverable position like any
        other.  Used both for event-coupled migrations (policies with a
        ``plan_migrations``) and by the service's background
        defragmenter, which plans out-of-band but applies through here.
        """
        applied = 0
        state = self.state
        name = self.algorithm.name
        for item, target in moves:
            if self.fault_hook is not None:
                self.fault_hook("migrate.pre")
            src = check_move(name, state, item, target)
            state.migrate(item, target)
            if self.migration_hook is not None:
                self.migration_hook(item, src, target)
            if self.fault_hook is not None:
                self.fault_hook("migrate.post")
            applied += 1
        return applied

    def finish(self) -> None:
        """Assert the terminal invariant of a complete run."""
        assert self.state.num_open == 0, "all bins must be closed after the last departure"


def run_events(
    items: Iterable,
    algorithm,
    state,
    observers: Sequence[Observer] = (),
    hook_base: type | None = None,
) -> None:
    """Replay ``items``'s arrival/departure stream through ``algorithm``.

    Parameters
    ----------
    items:
        Any iterable of items with ``arrival``/``departure`` attributes
        (:class:`~repro.core.items.ItemList`,
        :class:`~repro.multidim.items.VectorItemList`, ...).
    algorithm:
        The placement policy.  It is ``reset()`` before the run and its
        ``choose_bin(state, size)`` is called once per arrival — or
        ``choose_bin_clairvoyant(state, item)`` when the policy declares
        ``clairvoyant = True`` (known-departure reference model).
    state:
        A :class:`~repro.core.state.BasePackingState` subclass instance.
        Mutated in place; read the packing off it afterwards.
    observers:
        Callbacks invoked after every applied event.
    hook_base:
        The algorithm base class whose ``on_placed``/``on_departed`` are
        known no-ops.  Most policies keep no per-placement state, so the
        driver skips the two callback calls per event unless the
        concrete class actually overrides them.  ``None`` always calls.
    """
    clairvoyant, choose_bin, on_placed, on_departed, plan_migrations = bind_policy(
        algorithm, hook_base
    )
    place = state.place
    depart = state.depart

    for time, kind, seq, item in event_tuples(items):
        state.now = time
        if kind:  # EventKind.ARRIVE
            # clairvoyant policies (known-departure model) receive the
            # full item; everyone else sees only the demand
            target = choose_bin(state, item if clairvoyant else item.size)
            if target is not None:
                if not target.is_open:
                    raise RuntimeError(
                        f"{algorithm.name} chose closed bin {target.index}"
                    )
                if not target.fits(item):
                    raise RuntimeError(
                        f"{algorithm.name} chose bin {target.index} at level "
                        f"{target.level} for item of size {item.size}"
                    )
            placed = place(item, target)
            if on_placed is not None:
                on_placed(state, placed, item.size)
        else:
            source = depart(item)
            if on_departed is not None:
                on_departed(state, source)
        if plan_migrations is not None:
            for m_item, m_target in plan_migrations(state):
                check_move(algorithm.name, state, m_item, m_target)
                state.migrate(m_item, m_target)
        if observers:
            event = Event(time, EventKind(kind), seq, item)
            for obs in observers:
                obs(event, state)

    assert state.num_open == 0, "all bins must be closed after the last departure"
