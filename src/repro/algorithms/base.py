"""Online packing algorithm interface.

An online algorithm sees, for each arriving item, only its **size** and
the current :class:`~repro.core.state.PackingState` (open bins and their
levels).  It never sees departure times — that is the defining
information constraint of MinUsageTime DBP.  The interface enforces this
structurally: :meth:`PackingAlgorithm.choose_bin` receives the size, not
the item.

Lifecycle::

    algo.reset()                      # before each run
    target = algo.choose_bin(state, size)   # None => open a new bin
    ... driver places the item ...
    algo.on_placed(state, bin, size)  # bookkeeping hook (e.g. Next Fit)
    algo.on_departed(state, bin)      # called after each departure
    algo.on_restored(state)           # after a checkpoint restored it

Implementations must be deterministic given their constructor arguments
(randomised policies take an explicit seed).
"""

from __future__ import annotations

import abc
from typing import Optional

from ..core.bins import Bin
from ..core.state import PackingState

__all__ = ["PackingAlgorithm", "AnyFitAlgorithm"]


class PackingAlgorithm(abc.ABC):
    """Base class for online bin packing policies."""

    #: human-readable policy name; subclasses override.
    name: str = "abstract"

    def reset(self) -> None:
        """Clear any per-run internal state.  Default: stateless."""

    @abc.abstractmethod
    def choose_bin(self, state: PackingState, size: float) -> Optional[Bin]:
        """Pick an open bin for an arriving item of ``size``.

        Return ``None`` to open a new bin.  Returning a bin that cannot
        accommodate the item is a policy bug and the driver raises.
        """

    def on_placed(self, state: PackingState, target: Bin, size: float) -> None:
        """Hook after the driver placed the item into ``target``."""

    def on_departed(self, state: PackingState, source: Bin) -> None:
        """Hook after a departure was processed (``source`` may be closed)."""

    def on_restored(self, state: PackingState) -> None:
        """Hook after a checkpoint restore set this policy's attributes.

        ``state`` is the restored packing state.  Default: nothing to do.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class AnyFitAlgorithm(PackingAlgorithm):
    """Base for the *Any Fit* family (Section I).

    An Any Fit algorithm opens a new bin **only when no open bin can
    accommodate the incoming item**.  Subclasses implement
    :meth:`select`, choosing among the feasible open bins.  First Fit,
    Best Fit, Worst Fit, Last Fit and Random Fit are all Any Fit
    algorithms; Next Fit is *not* (it ignores feasible unavailable bins).
    """

    name = "any-fit"

    def choose_bin(self, state: PackingState, size: float) -> Optional[Bin]:
        candidates = state.open_bins_fitting(size)
        if not candidates:
            return None
        return self.select(candidates, size)

    @abc.abstractmethod
    def select(self, candidates: list[Bin], size: float) -> Bin:
        """Choose one bin among a non-empty feasible set (index order)."""
