"""Warm-server retention: keep an empty server rented for reuse.

In the paper's model a bin closes the instant its last item departs and
is never reused.  Under *continuous* billing that is optimal — idle time
is pure cost.  Under *hourly* billing it wastes money the other way:
the tail of the last billed hour is already paid for, so releasing an
empty server early buys nothing, while keeping it warm lets the next
job reuse it for free (the classic EC2 "hold until the hour boundary"
operations rule).

A caution the experiments make visible: the *hold itself* is free, but a
reuse changes every later placement — the reused server's rental can be
extended into hours that two separate rentals would not have touched, so
the system-wide bill under hour-boundary retention is *usually* lower
but not provably never higher.  T8 reports both directions honestly.

:class:`RetentionDispatcher` extends First-Fit dispatch with a
:class:`RetentionPolicy` deciding, each time a server empties, how long
to keep it rentable.  A warm server that receives a job resumes the same
rental (one contiguous billed period); a warm server whose hold expires
is released retroactively at its configured release time.

Experiment T8 measures the effect: under hourly billing the
hour-boundary policy typically saves a few percent; under continuous
billing any retention is a pure loss.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ..algorithms.first_fit import FirstFit
from ..core.bins import Bin
from ..core.driver import EventStepper
from ..core.events import event_tuples
from ..core.intervals import Interval
from ..core.items import Item, ItemList
from ..core.state import PackingState
from .billing import BillingPolicy, ContinuousBilling
from .server import InstanceType

__all__ = [
    "RetentionPolicy",
    "NoRetention",
    "FixedCooldown",
    "BilledHourBoundary",
    "RetainedServer",
    "RetentionReport",
    "RetentionDispatcher",
]

#: hold-expiry slack (a time): a hold ending this close before an
#: arrival still serves it
_EPS = 1e-9


class RetentionPolicy(abc.ABC):
    """Given an emptying server, decide how long it stays rentable."""

    name = "abstract"

    @abc.abstractmethod
    def hold_until(self, opened_at: float, emptied_at: float) -> float:
        """Latest time the empty server remains available (≥ emptied_at)."""


class NoRetention(RetentionPolicy):
    """Release immediately — the paper's bin-closing semantics."""

    name = "no-retention"

    def hold_until(self, opened_at: float, emptied_at: float) -> float:
        return emptied_at


@dataclass(frozen=True)
class FixedCooldown(RetentionPolicy):
    """Keep every emptied server warm for a fixed window."""

    cooldown: float
    name: str = "fixed-cooldown"

    def __post_init__(self) -> None:
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")

    def hold_until(self, opened_at: float, emptied_at: float) -> float:
        return emptied_at + self.cooldown


@dataclass(frozen=True)
class BilledHourBoundary(RetentionPolicy):
    """Hold until the end of the already-billed quantum.

    With quantum-q billing the rental is billed to
    ``opened_at + q·⌈(emptied_at − opened_at)/q⌉`` anyway; holding until
    that boundary never increases *this server's* bill (see the module
    docstring for the system-wide caveat).
    """

    quantum: float = 1.0
    name: str = "hour-boundary"

    def __post_init__(self) -> None:
        if self.quantum <= 0:
            raise ValueError("quantum must be positive")

    def hold_until(self, opened_at: float, emptied_at: float) -> float:
        used = emptied_at - opened_at
        quanta = used / self.quantum
        nearest = round(quanta)
        if abs(quanta - nearest) < 1e-9:
            quanta = nearest
        else:
            quanta = math.ceil(quanta)
        return opened_at + max(quanta, 1) * self.quantum


@dataclass
class RetainedServer(Bin):
    """A server whose rental may span several busy episodes.

    The bin stays open while warm (empty but still rented) and closes
    when its hold ends, so its usage period is the rental.
    """

    #: while warm, the time the hold ends; None while busy or released
    warm_until: Optional[float] = None

    @property
    def released_at(self) -> Optional[float]:
        return self.closed_at

    @property
    def jobs(self) -> list[int]:
        """Ids of the jobs served, in placement order."""
        return [it.item_id for it in self.all_items]

    @property
    def rental(self) -> Interval:
        return self.usage_period

    def remove(self, item: Item, now: float) -> None:
        """Remove a departing job; an emptied server stays open (warm)."""
        del self.active_items[item.item_id]
        self.level -= item.size
        if not self.active_items:
            self.level = 0.0  # snap float residue to exact zero
        self.level_times.append(now)
        self.level_values.append(self.level)


@dataclass(frozen=True)
class RetentionReport:
    """Costs of a retention-aware dispatch run."""

    servers: tuple[RetainedServer, ...]
    policy_name: str
    billing_name: str
    costs: tuple[float, ...]

    @cached_property
    def total_cost(self) -> float:
        return sum(self.costs)

    @cached_property
    def total_rented_time(self) -> float:
        return sum(s.rental.length for s in self.servers)

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @cached_property
    def num_reuses(self) -> int:
        """Jobs that landed on a previously-emptied (warm) server."""
        return self._reuses

    # populated by the dispatcher before freezing
    _reuses: int = 0


class RetentionDispatcher:
    """First Fit over busy + warm servers, with a retention policy."""

    def __init__(
        self,
        retention: RetentionPolicy | None = None,
        billing: BillingPolicy | None = None,
        instance_type: InstanceType = InstanceType("standard", 1.0, 1.0),
    ):
        self.retention = retention or NoRetention()
        self.billing = billing or ContinuousBilling()
        self.instance_type = instance_type

    def dispatch(self, jobs: ItemList) -> RetentionReport:
        state = _RetentionState(self.instance_type.capacity, self.retention)
        stepper = EventStepper(FirstFit(), state)
        for time, kind, seq, item in event_tuples(jobs):
            state.release_expired(time)
            if kind:  # EventKind.ARRIVE
                stepper.arrive(time, seq, item)
            else:
                stepper.depart(time, seq, item)
        # simulation over: every warm server is charged to its hold end
        state.release_expired(math.inf)
        stepper.finish()
        servers = state.bins
        costs = tuple(
            self.billing.billed_time(s.rental) * self.instance_type.hourly_price
            for s in servers
        )
        report = RetentionReport(
            servers=tuple(servers),
            policy_name=self.retention.name,
            billing_name=type(self.billing).__name__,
            costs=costs,
        )
        object.__setattr__(report, "_reuses", state.reuses)
        return report


class _RetentionState(PackingState):
    """The scalar state with warm holds.

    A bin that empties stays open until ``retention.hold_until`` and is
    then closed at that time; a hold that ends by the emptying time
    closes the bin at once, exactly as in the paper.  Runs on the
    reference scans (``indexed=False``): holds close bins out of band.
    """

    def __init__(self, capacity: float, retention: RetentionPolicy):
        super().__init__(capacity=capacity, indexed=False)
        self.retention = retention
        #: jobs placed on a warm server
        self.reuses = 0

    def _new_bin(self) -> RetainedServer:
        b = RetainedServer(index=len(self.bins), capacity=self.capacity)
        self.bins.append(b)
        self._open[b.index] = b
        return b

    def place(self, item: Item, target: RetainedServer | None) -> RetainedServer:
        if target is not None and target.warm_until is not None:
            self.reuses += 1
            target.warm_until = None
        return super().place(item, target)

    def depart(self, item: Item) -> RetainedServer:
        b = super().depart(item)
        if not b.active_items:
            hold = self.retention.hold_until(b.opened_at, self.now)
            if hold <= self.now:
                self._release(b, self.now)
            else:
                b.warm_until = hold
        return b

    def release_expired(self, now: float) -> None:
        """Close every warm bin whose hold ended before ``now``."""
        expired = [
            b
            for b in self._open.values()
            if b.warm_until is not None and b.warm_until < now - _EPS
        ]
        for b in expired:
            self._release(b, b.warm_until)

    def _release(self, b: RetainedServer, at: float) -> None:
        b.warm_until = None
        b.closed_at = at
        del self._open[b.index]
        if not self._open:
            self._reset_total()
