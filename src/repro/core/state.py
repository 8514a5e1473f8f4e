"""Mutable packing state shared by the driver and the algorithms.

Two classes live here:

- :class:`BasePackingState` — the resource-agnostic bin-lifecycle
  implementation: the open set (a dict keyed by bin index, so closing is
  O(1) and iteration order is opening order), the item→bin map, index
  activation, and the generic ``place``/``depart``/``migrate`` mutations
  written against the resource protocol (``bin.level`` / ``item.size`` may be a
  float or a tuple — see ``docs/ARCHITECTURE.md``).  Every state runs on
  these generic mutations.
- :class:`PackingState` — the scalar (1-D) state: float accounting, the
  scalar first-fit index and the Any-Fit selection queries.  It has no
  mutation bodies of its own; flattened float copies were measured
  against the generic ones and won nothing the measurement could
  resolve (``docs/ARCHITECTURE.md``).

:class:`PackingState` is the *only* view of the world an online algorithm
gets: the currently open bins (in opening order) and their levels.  It
deliberately exposes no departure times — the online model of the paper
is that an item's departure time is unknown until it happens.

Two execution paths coexist, selected by the ``indexed`` flag:

- **indexed** (default): a :class:`~repro.core.ffindex.FirstFitIndex`
  segment tree is maintained alongside the open set, so the Any-Fit
  selection queries (:meth:`first_fit_bin`, :meth:`best_fit_bin`,
  :meth:`worst_fit_bin`, :meth:`last_fit_bin`) cost O(log n) per
  arrival and closing a bin costs O(log n).  The tree is activated
  *adaptively*: below :data:`INDEX_THRESHOLD` simultaneously open bins
  a C-level linear scan is faster than Python tree updates, so the
  state runs on the scans until the open set first crosses the
  threshold, then builds the index in one O(n) pass and maintains it
  for the rest of the run.
- **reference** (``indexed=False``): the linear scans, always.  The
  indexed queries are constructed to reproduce the scans' float
  comparisons bit-for-bit; ``tests/core/test_differential.py`` pins the
  equivalence on random and adversarial instances.

Either way the state keeps a running :attr:`total_level` so streaming
consumers never re-sum all bins per event.
"""

from __future__ import annotations

from typing import Optional

from .bins import Bin, CAPACITY_EPS
from .ffindex import FirstFitIndex

__all__ = ["BasePackingState", "PackingState", "INDEX_THRESHOLD"]

#: Open-bin count at which an indexed state switches from linear scans
#: to the segment tree.  Below this the per-event tree maintenance costs
#: more than it saves; above it the O(log n) queries win (see
#: docs/PERFORMANCE.md for the crossover measurements).  Shared by the
#: scalar and vector engines.
INDEX_THRESHOLD = 128

#: Best Fit keeps scanning until far more bins are open: its tree query
#: explores a max/feasibility "skyline" whose node count blows up on
#: exactly the level distributions Best Fit creates (many bins clustered
#: near full), so the measured crossover is ~1e3 bins, not ~1e2.
_BEST_FIT_TREE_MIN = 1024


class BasePackingState:
    """Resource-agnostic open/closed-bin bookkeeping for one run.

    Bins are indexed ``0, 1, 2, ...`` in the temporal order of their
    opening, matching the paper's convention ``U_1^- <= U_2^- <= ...``.
    Subclasses bind the resource type by providing:

    - :meth:`_new_bin` — allocate the next bin (scalar or vector);
    - :meth:`_make_index` — a fresh first-fit index over that resource
      (or ``None`` to disable indexing entirely);
    - :meth:`_account` — fold a bin's level change into the running
      :attr:`total_level`;
    - :meth:`_reset_total` — snap the running total back to exact zero
      when the last bin closes (float residue hygiene).
    """

    def __init__(self, indexed: bool = True):
        self.now: float = 0.0
        #: all bins ever opened, by index (the streaming engine, which
        #: keeps only live state, leaves ``None`` where a bin closed)
        self.bins: list = []
        #: currently open bins keyed by index; insertion order == opening
        #: order == increasing index, and deletion preserves it, so the
        #: dict doubles as a sorted open set with O(1) removal.
        self._open: dict = {}
        #: item_id -> bin index
        self.item_bin: dict[int, int] = {}
        #: whether the O(log n) first-fit index may be used; the tree
        #: itself is built lazily once the open set reaches
        #: INDEX_THRESHOLD bins (see _activate_index)
        self.indexed = bool(indexed)
        self._index = None

    # -- resource bindings (subclass responsibility) --------------------------
    def _new_bin(self):
        """Allocate the next bin and register it in the open set."""
        raise NotImplementedError

    def _make_index(self):
        """A fresh (empty) first-fit index for this resource type."""
        raise NotImplementedError

    def _account(self, before, after) -> None:
        """Fold one bin's level change into the running total."""
        raise NotImplementedError

    def _reset_total(self) -> None:
        """Snap the running total to exact zero (no bins open)."""
        raise NotImplementedError

    # -- read-only views used by algorithms ----------------------------------
    def open_bins(self) -> list:
        """Currently open bins in opening (index) order.

        First Fit scans exactly this order: "the bin which was opened
        earliest" among these bins.
        """
        return list(self._open.values())

    @property
    def num_open(self) -> int:
        return len(self._open)

    @property
    def num_bins_used(self) -> int:
        """Total number of bins opened so far."""
        return len(self.bins)

    def bin_of(self, item_id: int):
        """The bin an item was placed in (open or closed)."""
        return self.bins[self.item_bin[item_id]]

    # -- mutations (driver only) ----------------------------------------------
    def _activate_index(self) -> None:
        """Build the first-fit index over the current open set, one O(n) pass.

        ``self._open`` iterates in increasing bin index (insertion order
        survives deletions), which is exactly the slot order the index
        requires.  Once activated the index is maintained for the rest
        of the run — the open set shrinking again cannot desync it.
        """
        index = self._make_index()
        for b in self._open.values():
            index.append(b.index, b.level)
        self._index = index

    def open_new_bin(self):
        """Open a fresh empty bin with the next index."""
        b = self._new_bin()
        if self._index is not None:
            self._index.append(b.index)
        elif self.indexed and len(self._open) >= INDEX_THRESHOLD:
            self._activate_index()
        return b

    def place(self, item, target):
        """Place an arriving item into ``target`` (or a new bin if None)."""
        fresh = target is None
        if fresh:
            target = self._new_bin()
        elif target.closed_at is not None:
            raise ValueError(f"cannot place into closed bin {target.index}")
        before = target.level
        target.place(item, self.now)
        after = target.level
        self._account(before, after)
        index = self._index
        if index is not None:
            if fresh:
                # register the bin at its post-placement level: one
                # O(log n) bubble instead of an append + set_level pair
                index.append(target.index, after)
            else:
                index.set_level(target.index, after)
        elif self.indexed and len(self._open) >= INDEX_THRESHOLD:
            self._activate_index()
        self.item_bin[item.item_id] = target.index
        return target

    def depart(self, item):
        """Process an item departure; closes the bin if it empties."""
        b = self.bins[self.item_bin[item.item_id]]
        before = b.level
        b.remove(item, self.now)
        after = b.level
        self._account(before, after)
        if b.is_closed:
            del self._open[b.index]
            if self._index is not None:
                self._index.close(b.index)
            if not self._open:
                self._reset_total()
        elif self._index is not None:
            self._index.set_level(b.index, after)
        return b

    def migrate(self, item, target):
        """Move a placed, still-active item into ``target``; returns its source.

        The third first-class mutation next to :meth:`place` and
        :meth:`depart`: remove from the source bin (closing it if the
        item was its last occupant) and re-place into an already-open
        ``target`` at the current time.  The running total, the item→bin
        map and the first-fit index all stay exact — the index sees only
        ``set_level``/``close`` lanes, never ``append``, because a
        migration can shrink the open set but never grow it (moving to a
        *new* bin is just :meth:`place`, which First Fit already does
        better).  Consequently no activation check is needed either.

        Validation of the *choice* (target open, feasible, distinct from
        the source) lives in the driver, mirroring arrivals; this method
        keeps the same cheap backstops as :meth:`place`.
        """
        if target.closed_at is not None:
            raise ValueError(f"cannot migrate into closed bin {target.index}")
        src = self.bins[self.item_bin[item.item_id]]
        if src is target:
            raise ValueError(
                f"cannot migrate item {item.item_id} into its own bin {src.index}"
            )
        before = src.level
        src.remove(item, self.now)
        self._account(before, src.level)
        before = target.level
        target.place(item, self.now)
        self._account(before, target.level)
        self.item_bin[item.item_id] = target.index
        if src.is_closed:
            del self._open[src.index]
            if self._index is not None:
                self._index.close(src.index)
        elif self._index is not None:
            self._index.set_level(src.index, src.level)
        if self._index is not None:
            self._index.set_level(target.index, target.level)
        return src


class PackingState(BasePackingState):
    """The scalar (1-D float resource) packing state.

    Binds the base class's generic mutations to a float level, a running
    float :attr:`total_level` and the scalar
    :class:`~repro.core.ffindex.FirstFitIndex`.
    """

    def __init__(self, capacity: float = 1.0, indexed: bool = True):
        super().__init__(indexed=indexed)
        self.capacity = float(capacity)
        #: running sum of open-bin levels (incremental accounting)
        self.total_level: float = 0.0
        self._index: Optional[FirstFitIndex] = None
        # the exact right-hand side every feasibility check compares
        # against; precomputed once so scan and index agree bit-for-bit
        self._cap_bound: float = self.capacity + CAPACITY_EPS

    # -- resource bindings ----------------------------------------------------
    def _new_bin(self) -> Bin:
        """Allocate the next bin without registering it in the index yet."""
        b = Bin(index=len(self.bins), capacity=self.capacity)
        self.bins.append(b)
        self._open[b.index] = b
        return b

    def _make_index(self) -> FirstFitIndex:
        return FirstFitIndex()

    def _account(self, before: float, after: float) -> None:
        self.total_level += after - before

    def _reset_total(self) -> None:
        self.total_level = 0.0  # snap float residue to exact zero

    # -- read-only views used by algorithms ----------------------------------
    def open_bins_fitting(self, size: float) -> list[Bin]:
        """Open bins that can accommodate an item of ``size``, index order."""
        bound = self._cap_bound
        return [b for b in self._open.values() if b.level + size <= bound]

    # -- O(log n) Any-Fit selection queries -----------------------------------
    def first_fit_bin(self, size: float) -> Optional[Bin]:
        """Earliest-opened open bin that fits ``size`` (First Fit)."""
        if self._index is not None:
            idx = self._index.first_fit(size, self._cap_bound)
            return None if idx is None else self.bins[idx]
        for b in self._open.values():
            if b.level + size <= self._cap_bound:
                return b
        return None

    def last_fit_bin(self, size: float) -> Optional[Bin]:
        """Latest-opened open bin that fits ``size`` (Last Fit)."""
        if self._index is not None:
            idx = self._index.last_fit(size, self._cap_bound)
            return None if idx is None else self.bins[idx]
        found = None
        for b in self._open.values():
            if b.level + size <= self._cap_bound:
                found = b
        return found

    def best_fit_bin(self, size: float) -> Optional[Bin]:
        """Fullest feasible open bin, ties to the earliest-opened."""
        if self._index is not None and len(self._open) >= _BEST_FIT_TREE_MIN:
            idx = self._index.max_feasible(size, self._cap_bound)
            return None if idx is None else self.bins[idx]
        best = None
        for b in self._open.values():
            if b.level + size <= self._cap_bound:
                if best is None or b.level > best.level:
                    best = b
        return best

    def worst_fit_bin(self, size: float) -> Optional[Bin]:
        """Emptiest feasible open bin, ties to the earliest-opened."""
        if self._index is not None:
            idx = self._index.min_level(size, self._cap_bound)
            return None if idx is None else self.bins[idx]
        worst = None
        for b in self._open.values():
            if b.level + size <= self._cap_bound:
                if worst is None or b.level < worst.level:
                    worst = b
        return worst
