"""Learning-augmented packing: noisy departure predictions.

The paper's model gives the algorithm *no* departure information; the
interval-scheduling contrast (Section II) gives it *exact* departures.
Real systems sit in between: a predictor estimates how long a session
will last (historical play-time models, job runtime predictors), and the
estimate is wrong by some factor.

:class:`PredictedDepartureFit` consumes a prediction per item —
generated by a seeded log-normal noise model around the true duration —
and runs the departure-aligned greedy on the *predicted* departures.
Experiment X8 sweeps the noise level: at zero noise it coincides with
the clairvoyant :class:`~repro.algorithms.clairvoyant.DepartureAlignedFit`;
as noise grows its advantage over First Fit decays.  This is the
standard "consistency vs robustness" trade-off of learning-augmented
algorithms, measured on MinUsageTime DBP.

The predictor is part of the *algorithm*, not the instance: predictions
are derived deterministically from (item id, true duration, seed) so
runs are reproducible, and the true departure is used only to generate
the prediction — placement decisions see the prediction alone.
"""

from __future__ import annotations

import math
from typing import Optional

from ..core.bins import Bin
from ..core.items import Item
from ..core.state import PackingState
from .clairvoyant import ClairvoyantAlgorithm

__all__ = ["LogNormalPredictor", "PredictedDepartureFit"]


class LogNormalPredictor:
    """Multiplicative log-normal noise around the true duration.

    ``predict(item) = duration · exp(σ·Z)`` with ``Z ~ N(0,1)`` drawn
    deterministically per item id.  ``sigma = 0`` is a perfect oracle.
    """

    def __init__(self, sigma: float, seed: int = 0):
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.sigma = sigma
        self.seed = seed

    def predict_duration(self, item: Item) -> float:
        if self.sigma == 0.0:
            return item.duration
        import numpy as np  # kept off the import path of the engine and service

        rng = np.random.default_rng((self.seed, item.item_id))
        return float(item.duration * math.exp(self.sigma * rng.standard_normal()))

    def predict_departure(self, item: Item) -> float:
        return item.arrival + self.predict_duration(item)


class PredictedDepartureFit(ClairvoyantAlgorithm):
    """Departure-aligned placement driven by *predicted* departures.

    Tracks each bin's predicted closing time (max predicted departure of
    its active items) and places each arriving item into the feasible
    bin whose predicted lifetime it extends least.  With a perfect
    predictor this is exactly ``DepartureAlignedFit``; the prediction
    error is the knob experiment X8 turns.
    """

    name = "predicted-departure-fit"

    def __init__(self, sigma: float = 0.5, seed: int = 0):
        self.predictor = LogNormalPredictor(sigma, seed)
        #: bin index -> predicted closing time (max over active items);
        #: we track our own view because true departures are invisible
        self._predicted_close: dict[int, float] = {}
        #: item id -> (bin index, predicted departure) for cleanup
        self._item_pred: dict[int, tuple[int, float]] = {}

    def reset(self) -> None:
        self._predicted_close = {}
        self._item_pred = {}

    def choose_bin_clairvoyant(
        self, state: PackingState, item: Item
    ) -> Optional[Bin]:
        predicted_dep = self.predictor.predict_departure(item)
        candidates = state.open_bins_fitting(item.size)
        if not candidates:
            return None
        best = None
        best_ext = float("inf")
        for b in candidates:
            close = self._predicted_close.get(b.index, b.opened_at or 0.0)
            ext = max(0.0, predicted_dep - close)
            if ext < best_ext - 1e-12:
                best_ext = ext
                best = b
        return best

    def on_placed(self, state: PackingState, target: Bin, size: float) -> None:
        # the newest item in the bin is the one just placed
        item = target.all_items[-1]
        predicted_dep = self.predictor.predict_departure(item)
        self._item_pred[item.item_id] = (target.index, predicted_dep)
        self._predicted_close[target.index] = max(
            self._predicted_close.get(target.index, float("-inf")), predicted_dep
        )

    def on_departed(self, state: PackingState, source: Bin) -> None:
        # refresh the predicted close from the items still active
        preds = [
            self._item_pred[iid][1]
            for iid in source.active_items
            if iid in self._item_pred
        ]
        if preds:
            self._predicted_close[source.index] = max(preds)
        else:
            self._predicted_close.pop(source.index, None)
