"""The online job dispatcher — the paper's application wrapper.

"Cloud-based systems often face the problem of dispatching a stream of
jobs to run on cloud servers in an online manner" (Section I).  The
dispatcher owns the translation: jobs = items, servers = bins, renting
cost = billed usage time.  Placement is delegated to any
:class:`~repro.algorithms.base.PackingAlgorithm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from ..algorithms.base import PackingAlgorithm
from ..core.driver import Observer
from ..core.items import ItemList
from ..core.packing import run_packing
from ..core.result import PackingResult
from .billing import BillingPolicy, ContinuousBilling
from .server import InstanceType, ServerRecord

__all__ = ["ConcurrencyMeter", "DispatchReport", "Dispatcher", "LiveDispatch"]


class ConcurrencyMeter:
    """Observer tracking how many servers run concurrently.

    Written against the unified engine's shared state surface
    (``event.time`` and ``state.num_open``), so the same instance meters
    a scalar :func:`~repro.core.packing.run_packing` run or a vector
    :func:`~repro.multidim.packing.run_vector_packing` run unchanged.
    Records the peak and the time-weighted mean number of open servers
    (each inter-event interval is attributed to the concurrency that
    held *during* it, i.e. before the event applied).
    """

    def __init__(self) -> None:
        self.peak_open: int = 0
        self._last_time: Optional[float] = None
        self._prev_open: int = 0
        self._weighted: float = 0.0
        self._span: float = 0.0

    def __call__(self, event, state) -> None:
        if self._last_time is not None:
            dt = event.time - self._last_time
            self._weighted += self._prev_open * dt
            self._span += dt
        self._last_time = event.time
        self._prev_open = state.num_open
        if state.num_open > self.peak_open:
            self.peak_open = state.num_open

    @property
    def mean_open(self) -> float:
        """Time-weighted mean concurrency over the observed span."""
        return self._weighted / self._span if self._span else 0.0

DEFAULT_INSTANCE = InstanceType("standard", capacity=1.0, hourly_price=1.0)


@dataclass(frozen=True)
class DispatchReport:
    """Cost accounting of one dispatch run."""

    packing: PackingResult
    servers: tuple[ServerRecord, ...]
    billing_name: str

    @cached_property
    def total_cost(self) -> float:
        return sum(s.cost for s in self.servers)

    @cached_property
    def total_billed_time(self) -> float:
        return sum(s.billed_time for s in self.servers)

    @property
    def total_usage_time(self) -> float:
        """The paper's objective (continuous time, before billing)."""
        return self.packing.total_usage_time

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @cached_property
    def billing_overhead(self) -> float:
        """Billed time / actual usage time — quantisation waste (≥ 1)."""
        if self.total_usage_time == 0:
            return 1.0
        return self.total_billed_time / self.total_usage_time

    def summary(self) -> str:
        return (
            f"{self.packing.algorithm_name} + {self.billing_name}: "
            f"{self.num_servers} servers, usage {self.total_usage_time:.2f} h, "
            f"billed {self.total_billed_time:.2f} h, cost {self.total_cost:.2f}"
        )


class Dispatcher:
    """Assign a stream of jobs to rented servers with an online policy.

    >>> from repro import FirstFit
    >>> from repro.workloads import gaming_workload
    >>> d = Dispatcher(FirstFit())
    >>> report = d.dispatch(gaming_workload(100, seed=7))
    >>> report.total_cost > 0
    True
    """

    def __init__(
        self,
        algorithm: PackingAlgorithm,
        billing: BillingPolicy | None = None,
        instance_type: InstanceType = DEFAULT_INSTANCE,
    ):
        self.algorithm = algorithm
        self.billing = billing if billing is not None else ContinuousBilling()
        self.instance_type = instance_type

    def dispatch(
        self,
        jobs: ItemList,
        observers: Sequence[Observer] = (),
    ) -> DispatchReport:
        """Run the full arrival/departure stream and bill the servers.

        ``observers`` are forwarded to the unified packing driver and
        invoked after every applied event — e.g. a
        :class:`ConcurrencyMeter` for fleet-size statistics.
        """
        packing = run_packing(
            jobs,
            self.algorithm,
            capacity=self.instance_type.capacity,
            observers=observers,
        )
        servers = tuple(
            ServerRecord.from_bin(b, self.instance_type, self.billing)
            for b in packing.bins
        )
        return DispatchReport(
            packing=packing,
            servers=servers,
            billing_name=type(self.billing).__name__,
        )

    def live(self, **engine_kwargs) -> "LiveDispatch":
        """The streaming counterpart of :meth:`dispatch`.

        Returns a :class:`LiveDispatch` whose engine places jobs as they
        are pushed and **bills each server the moment it shuts down** —
        the running cost is observable mid-stream, which the batch path
        cannot offer.  Keyword arguments are forwarded to
        :meth:`repro.service.engine.StreamingEngine.scalar` (admission
        policy, metrics registry, decision log, observers).
        """
        # deferred import: the cloud layer may be used without the
        # service layer, and service → core must stay cloud-free
        from ..service.engine import StreamingEngine

        engine = StreamingEngine.scalar(
            self.algorithm, capacity=self.instance_type.capacity, **engine_kwargs
        )
        return LiveDispatch(self, engine)


class LiveDispatch:
    """A dispatcher bound to a streaming engine, billing servers live.

    Delegates the push API (``submit`` / ``depart`` / ``advance``) to
    the underlying :class:`~repro.service.engine.StreamingEngine`; every
    bin-close event immediately produces a :class:`ServerRecord`, so
    :attr:`cost_so_far` tracks the bill in real time.  :meth:`settle`
    drains the stream and returns the same :class:`DispatchReport` the
    batch path produces.
    """

    def __init__(self, dispatcher: Dispatcher, engine):
        self.dispatcher = dispatcher
        self.engine = engine
        self.records: list[ServerRecord] = []
        self.cost_so_far: float = 0.0
        engine.bin_closed_callbacks.append(self._on_bin_closed)

    def _on_bin_closed(self, b) -> None:
        record = ServerRecord.from_bin(
            b, self.dispatcher.instance_type, self.dispatcher.billing
        )
        self.records.append(record)
        self.cost_so_far += record.cost

    # -- push API -------------------------------------------------------------
    def submit(self, job, **kwargs):
        return self.engine.submit(job, **kwargs)

    def depart(self, job_id: int, now=None) -> None:
        self.engine.depart(job_id, now)

    def advance(self, now: float) -> int:
        return self.engine.advance(now)

    def settle(self) -> DispatchReport:
        """Drain the stream and produce the final cost accounting."""
        packing = self.engine.finish()
        return DispatchReport(
            packing=packing,
            servers=tuple(sorted(self.records, key=lambda r: r.server_id)),
            billing_name=type(self.dispatcher.billing).__name__,
        )
