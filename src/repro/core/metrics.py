"""Derived metrics over packing results.

These are the observables the experiment harness reports: bin-level time
series, utilization profiles, and the number-of-open-bins process (the
standard-DBP objective, for cross-model comparison).
"""

from __future__ import annotations

from typing import Sequence

from .intervals import Interval
from .result import PackingResult

__all__ = [
    "open_bins_timeline",
    "aggregate_level_timeline",
    "utilization_timeline",
    "time_weighted_average",
]


def open_bins_timeline(result: PackingResult) -> list[tuple[float, int]]:
    """Piecewise-constant count of open bins: ``(time, count from time)``.

    The last entry has count 0 (after the final closing).
    """
    events: list[tuple[float, int]] = []
    for b in result.bins:
        u = b.usage_period
        events.append((u.left, 1))
        events.append((u.right, -1))
    events.sort(key=lambda e: (e[0], e[1]))
    timeline: list[tuple[float, int]] = []
    count = 0
    for t, delta in events:
        count += delta
        if timeline and timeline[-1][0] == t:
            timeline[-1] = (t, count)
        else:
            timeline.append((t, count))
    return timeline


def aggregate_level_timeline(result: PackingResult) -> list[tuple[float, float]]:
    """Piecewise-constant total active size across all bins.

    Equivalently the instantaneous total demand of active items; used by
    the fractional lower bound on OPT.
    """
    events: list[tuple[float, float]] = []
    for it in result.items:
        events.append((it.arrival, it.size))
        events.append((it.departure, -it.size))
    events.sort(key=lambda e: (e[0], e[1]))
    timeline: list[tuple[float, float]] = []
    level = 0.0
    for t, delta in events:
        level += delta
        if timeline and timeline[-1][0] == t:
            timeline[-1] = (t, level)
        else:
            timeline.append((t, level))
    if timeline:
        t_end, lvl_end = timeline[-1]
        if abs(lvl_end) < 1e-9:
            timeline[-1] = (t_end, 0.0)
    return timeline


def utilization_timeline(result: PackingResult) -> list[tuple[float, float]]:
    """Instantaneous utilization: total active size / open bins.

    Zero whenever no bin is open.
    """
    open_tl = open_bins_timeline(result)
    level_tl = aggregate_level_timeline(result)
    times = sorted({t for t, _ in open_tl} | {t for t, _ in level_tl})

    def value_at(tl: Sequence[tuple[float, float]], t: float) -> float:
        v = 0.0
        for time, val in tl:
            if time > t:
                break
            v = val
        return v

    out: list[tuple[float, float]] = []
    for t in times:
        n_open = value_at(open_tl, t)
        level = value_at(level_tl, t)
        out.append((t, (level / n_open) if n_open > 0 else 0.0))
    return out


def time_weighted_average(timeline: Sequence[tuple[float, float]]) -> float:
    """Time-weighted mean of a piecewise-constant timeline.

    The last segment has zero width (nothing is defined after the final
    event), so it contributes nothing.
    """
    if len(timeline) < 2:
        return 0.0
    import numpy as np  # kept off the import path of the engine and service

    ts = np.array([t for t, _ in timeline])
    vs = np.array([v for _, v in timeline])
    widths = np.diff(ts)
    total = widths.sum()
    if total <= 0:
        return 0.0
    return float(np.dot(vs[:-1], widths) / total)
