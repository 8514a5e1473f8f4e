"""Heterogeneous server fleets: multiple instance types.

The paper's model has one server type (unit capacity); real providers
offer a catalogue.  This module extends the dispatcher to mixed fleets:
placement is still First-Fit-style over *open* servers (of any type),
and a **launch policy** decides which type to rent when nothing open
fits.  The per-type price/capacity trade-off makes the launch decision
non-trivial: big servers amortise better under sustained load, small
ones waste less on stragglers.

This is an extension beyond the paper (single-capacity MinUsageTime DBP
is the µ+4 result's setting); experiment T7 measures how the launch
policy moves real cost on the motivating workload.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import cached_property

from ..algorithms.first_fit import FirstFit
from ..core.bins import CAPACITY_EPS, Bin
from ..core.driver import run_events
from ..core.intervals import Interval
from ..core.items import Item, ItemList
from ..core.state import PackingState
from .billing import BillingPolicy, ContinuousBilling
from .server import InstanceType

__all__ = [
    "DEFAULT_FLEET_CATALOGUE",
    "FleetServer",
    "FleetReport",
    "LaunchPolicy",
    "CheapestFitting",
    "SmallestFitting",
    "BestDensity",
    "FleetDispatcher",
]

#: A small realistic catalogue: price grows slightly sublinearly with
#: capacity (volume discount), so neither extreme trivially wins.
DEFAULT_FLEET_CATALOGUE: tuple[InstanceType, ...] = (
    InstanceType("small", capacity=0.5, hourly_price=0.6),
    InstanceType("medium", capacity=1.0, hourly_price=1.0),
    InstanceType("large", capacity=2.0, hourly_price=1.8),
)


@dataclass
class FleetServer(Bin):
    """One rented server of a concrete type: a bin of that type's capacity."""

    instance_type: InstanceType = field(kw_only=True)

    @property
    def server_id(self) -> int:
        return self.index

    @property
    def jobs(self) -> list[int]:
        """Ids of the jobs served, in placement order."""
        return [it.item_id for it in self.all_items]

    @property
    def usage(self) -> Interval:
        return self.usage_period


class LaunchPolicy(abc.ABC):
    """Chooses which instance type to rent for an unplaceable job."""

    name = "abstract"

    @abc.abstractmethod
    def choose_type(
        self, catalogue: tuple[InstanceType, ...], item: Item
    ) -> InstanceType:
        """Pick a type with capacity ≥ the item's size."""

    @staticmethod
    def feasible(
        catalogue: tuple[InstanceType, ...], item: Item
    ) -> list[InstanceType]:
        out = [t for t in catalogue if t.capacity >= item.size - CAPACITY_EPS]
        if not out:
            raise ValueError(
                f"no instance type can host a job of size {item.size}"
            )
        return out


class CheapestFitting(LaunchPolicy):
    """Lowest hourly price among the types the job fits."""

    name = "cheapest-fitting"

    def choose_type(self, catalogue, item):
        return min(self.feasible(catalogue, item), key=lambda t: t.hourly_price)


class SmallestFitting(LaunchPolicy):
    """Smallest capacity that hosts the job (minimal stranding)."""

    name = "smallest-fitting"

    def choose_type(self, catalogue, item):
        return min(self.feasible(catalogue, item), key=lambda t: t.capacity)


class BestDensity(LaunchPolicy):
    """Lowest price per unit capacity (best amortisation if filled)."""

    name = "best-density"

    def choose_type(self, catalogue, item):
        return min(
            self.feasible(catalogue, item),
            key=lambda t: t.hourly_price / t.capacity,
        )


@dataclass(frozen=True)
class FleetReport:
    """Cost accounting of a heterogeneous dispatch run."""

    servers: tuple[FleetServer, ...]
    billing_name: str
    launch_policy: str
    costs: tuple[float, ...]  # aligned with servers

    @cached_property
    def total_cost(self) -> float:
        return sum(self.costs)

    @cached_property
    def total_usage_time(self) -> float:
        return sum(s.usage.length for s in self.servers)

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    def cost_by_type(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, c in zip(self.servers, self.costs):
            out[s.instance_type.name] = out.get(s.instance_type.name, 0.0) + c
        return out

    def servers_by_type(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.servers:
            out[s.instance_type.name] = out.get(s.instance_type.name, 0) + 1
        return out


class FleetDispatcher:
    """First-Fit placement over a mixed fleet with a launch policy.

    Placement scans open servers in launch order and uses the first that
    fits (the paper's rule, lifted to heterogeneous capacities).  When
    none fits, ``launch_policy`` picks the type of the new server.
    """

    def __init__(
        self,
        catalogue: tuple[InstanceType, ...] = DEFAULT_FLEET_CATALOGUE,
        launch_policy: LaunchPolicy | None = None,
        billing: BillingPolicy | None = None,
    ):
        if not catalogue:
            raise ValueError("catalogue must be non-empty")
        self.catalogue = catalogue
        self.launch_policy = launch_policy or SmallestFitting()
        self.billing = billing or ContinuousBilling()

    def dispatch(self, jobs: ItemList) -> FleetReport:
        max_cap = max(t.capacity for t in self.catalogue)
        for it in jobs:
            if it.size > max_cap + CAPACITY_EPS:
                raise ValueError(
                    f"job {it.item_id} (size {it.size}) exceeds the largest "
                    f"instance capacity {max_cap}"
                )
        state = _FleetState(self.catalogue, self.launch_policy)
        run_events(jobs, FirstFit(), state)
        servers = state.bins
        costs = tuple(
            self.billing.billed_time(s.usage) * s.instance_type.hourly_price
            for s in servers
        )
        return FleetReport(
            servers=tuple(servers),
            billing_name=type(self.billing).__name__,
            launch_policy=self.launch_policy.name,
            costs=costs,
        )


class _FleetState(PackingState):
    """The scalar state with a per-server capacity chosen at launch.

    Runs on the reference scans (``indexed=False``): the first-fit index
    compares every bin against one shared capacity bound.
    """

    def __init__(
        self, catalogue: tuple[InstanceType, ...], launch_policy: LaunchPolicy
    ):
        super().__init__(indexed=False)
        self.catalogue = catalogue
        self.launch_policy = launch_policy

    def place(self, item: Item, target: FleetServer | None) -> FleetServer:
        if target is None:
            # rent a server of the policy's type, then place as into any open bin
            itype = self.launch_policy.choose_type(self.catalogue, item)
            target = FleetServer(
                index=len(self.bins), capacity=itype.capacity, instance_type=itype
            )
            self.bins.append(target)
            self._open[target.index] = target
        return super().place(item, target)

    def first_fit_bin(self, size: float) -> FleetServer | None:
        for b in self._open.values():
            if b.level + size <= b.capacity + CAPACITY_EPS:
                return b
        return None
