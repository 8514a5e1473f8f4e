"""Size-classified (hybrid) packing algorithms.

The paper's related work (Section I–II) discusses two hybrid schemes that
*classify items by size* and pack each class into its own bin pool:

- **Hybrid First Fit** (Li, Tang, Cai [6][15]): classifies and packs
  items based on their sizes to achieve a competitive ratio of roughly
  ``(8/7)µ + O(1)``.
- **Classified Next Fit** (Kamali & López-Ortiz [12]): the semi-online
  variant that achieves ``O(µ)`` with a smaller constant than plain Next
  Fit, requiring µ to be known a priori.

The OCR source drops the exact thresholds; following the cited
literature we use the standard classification into large items
(size > 1/2), medium items (1/3 < size ≤ 1/2), and small items
(size ≤ 1/3) by default, and make the thresholds a constructor
parameter so the ablation benchmark (X2 in DESIGN.md) can sweep them.

Classification never mixes classes in one bin: each class owns a
disjoint pool of bins managed by its own sub-policy.
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence

from ..core.bins import CAPACITY_EPS, Bin
from ..core.state import PackingState
from .base import PackingAlgorithm

__all__ = ["ClassifiedAlgorithm", "HybridFirstFit", "ClassifiedNextFit"]

DEFAULT_THRESHOLDS = (1.0 / 3.0, 1.0 / 2.0)


class ClassifiedAlgorithm(PackingAlgorithm):
    """Partition sizes into classes; pack each class in its own bin pool.

    ``thresholds`` are strictly increasing class boundaries in (0, 1);
    an item of size ``s`` belongs to class ``bisect_left(thresholds, s)``
    (so with thresholds (1/3, 1/2): class 0 is ``s <= 1/3``, class 1 is
    ``1/3 < s <= 1/2``, class 2 is ``s > 1/2``).

    Subclasses define how a class's bin is chosen among that class's open
    bins via :meth:`select_in_class`.
    """

    name = "classified"

    def __init__(self, thresholds: Sequence[float] = DEFAULT_THRESHOLDS):
        ts = tuple(float(t) for t in thresholds)
        if list(ts) != sorted(set(ts)):
            raise ValueError("thresholds must be strictly increasing")
        if ts and (ts[0] <= 0.0 or ts[-1] >= 1.0):
            raise ValueError("thresholds must lie strictly inside (0, 1)")
        self.thresholds = ts
        self.num_classes = len(ts) + 1
        self._bin_class: dict[int, int] = {}

    def reset(self) -> None:
        self._bin_class = {}

    def class_of(self, size: float) -> int:
        """Class index of an item size."""
        return bisect.bisect_left(self.thresholds, size)

    def class_bins(self, state: PackingState, cls: int) -> list[Bin]:
        """Open bins belonging to ``cls``, in opening order."""
        return [b for b in state.open_bins() if self._bin_class.get(b.index) == cls]

    def choose_bin(self, state: PackingState, size: float) -> Optional[Bin]:
        cls = self.class_of(size)
        candidates = [
            b
            for b in self.class_bins(state, cls)
            if b.level + size <= b.capacity + CAPACITY_EPS
        ]
        return self.select_in_class(state, cls, candidates, size)

    def select_in_class(
        self, state: PackingState, cls: int, candidates: list[Bin], size: float
    ) -> Optional[Bin]:
        """Choose among the feasible bins of the item's class.

        Default: Any-Fit behaviour — first (earliest-opened) candidate,
        new bin when none fits.
        """
        return candidates[0] if candidates else None

    def on_placed(self, state: PackingState, target: Bin, size: float) -> None:
        # A freshly opened bin inherits the class of the item that opened it.
        self._bin_class.setdefault(target.index, self.class_of(size))
        if len(self._bin_class) > state.num_open:
            # the defragmenter emptied a bin: it closed with no departure
            self._forget_closed(state)

    def on_departed(self, state: PackingState, source: Bin) -> None:
        # a closed bin takes no more items: the map holds open bins only
        if source.is_closed:
            self._bin_class.pop(source.index, None)

    def on_restored(self, state: PackingState) -> None:
        # checkpoints written before departures pruned hold closed bins
        self._forget_closed(state)

    def _forget_closed(self, state: PackingState) -> None:
        open_bins = {b.index for b in state.open_bins()}
        self._bin_class = {
            index: cls for index, cls in self._bin_class.items() if index in open_bins
        }


class HybridFirstFit(ClassifiedAlgorithm):
    """First Fit within each size class (Li–Tang–Cai hybrid scheme)."""

    name = "hybrid-first-fit"


class ClassifiedNextFit(ClassifiedAlgorithm):
    """Next Fit within each size class (Kamali–López-Ortiz scheme).

    Each class keeps its own single *available* bin; when an item of the
    class misses it, that bin is retired and a new class bin is opened.
    """

    name = "classified-next-fit"

    @classmethod
    def harmonic(cls, k: int) -> "ClassifiedNextFit":
        """The Harmonic(k) classification: classes ``(1/(i+1), 1/i]``.

        The classical online bin packing partition (Lee–Lee), lifted to
        the dynamic setting: thresholds at ``1/k, 1/(k-1), …, 1/2``, so
        class boundaries align with how many items of a class fit one
        bin.  ``k = 1`` degenerates to plain Next Fit behaviour within a
        single class.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        thresholds = tuple(1.0 / i for i in range(k, 1, -1))
        return cls(thresholds)

    def __init__(self, thresholds: Sequence[float] = DEFAULT_THRESHOLDS):
        super().__init__(thresholds)
        self._available: dict[int, Optional[int]] = {}

    def reset(self) -> None:
        super().reset()
        self._available = {}

    def select_in_class(
        self, state: PackingState, cls: int, candidates: list[Bin], size: float
    ) -> Optional[Bin]:
        avail_idx = self._available.get(cls)
        if avail_idx is not None:
            # a closed bin the streaming engine has dropped reads as None
            b = state.bins[avail_idx]
            if (
                b is not None
                and b.is_open
                and b.level + size <= b.capacity + CAPACITY_EPS
            ):
                return b
        self._available[cls] = None
        return None

    def on_placed(self, state: PackingState, target: Bin, size: float) -> None:
        super().on_placed(state, target, size)
        cls = self.class_of(size)
        if self._available.get(cls) is None:
            self._available[cls] = target.index
