"""Checkpoint/restore: interrupted ≡ uninterrupted, bit for bit.

The randomized differential: replay a seeded trace, cut it at an
arbitrary submission index, :func:`dumps` the engine, :func:`loads` it
into a *fresh* engine (fresh algorithm instance, fresh metrics
registry), feed the remainder, and compare against the run that never
stopped — placements, float-exact usage time, **and every metric
value**.  Runs across the policy registry (Next Fit holds a live bin
reference, Random Fit a seeded RNG, the classified policies non-string
dict keys — each exercises one codec path) and in the high-load regime
where the adaptive first-fit index is active at the cut point.
"""

from __future__ import annotations

import json

import pytest

import repro.core.state as state_mod
from repro.algorithms import ALGORITHM_REGISTRY, make_algorithm
from repro.multidim import make_vector_algorithm, vector_workload
from repro.service import (
    MetricsRegistry,
    StreamingEngine,
    dumps,
    loads,
    make_admission_policy,
    snapshot_engine,
)
from repro.workloads import poisson_workload

ALL_SCALAR = sorted(ALGORITHM_REGISTRY)


def replay_with_cut(items, make_engine, make_restored, cut):
    """Stream ``items`` with a checkpoint at ``cut``; return the result."""
    ordered = sorted(items, key=lambda it: it.arrival)
    engine = make_engine()
    for it in ordered[:cut]:
        engine.submit(it)
    engine = make_restored(dumps(engine))
    for it in ordered[cut:]:
        engine.submit(it)
    return engine


def replay_straight(items, make_engine):
    engine = make_engine()
    for it in sorted(items, key=lambda it: it.arrival):
        engine.submit(it)
    return engine


def assert_same_outcome(resumed, straight):
    a, b = resumed.finish(), straight.finish()
    assert a.item_bin == b.item_bin
    assert a.total_usage_time == b.total_usage_time
    assert a.num_bins == b.num_bins
    if resumed.metrics is not None:
        assert resumed.metrics.as_dict() == straight.metrics.as_dict()
        assert resumed.metrics.expose_text() == straight.metrics.expose_text()


@pytest.mark.parametrize("algo_name", ALL_SCALAR)
@pytest.mark.parametrize("cut", [1, 40, 199])
def test_scalar_cut_equals_uninterrupted(algo_name, cut):
    items = poisson_workload(200, seed=11, mu_target=8.0, arrival_rate=4.0)

    def fresh():
        return StreamingEngine.scalar(
            make_algorithm(algo_name),
            capacity=items.capacity,
            metrics=MetricsRegistry(),
        )

    def restored(text):
        return loads(
            text, make_algorithm(algo_name), metrics=MetricsRegistry()
        )

    resumed = replay_with_cut(items, fresh, restored, cut)
    straight = replay_straight(items, fresh)
    assert_same_outcome(resumed, straight)


@pytest.mark.parametrize("algo_name", ["first-fit", "best-fit", "random-fit"])
def test_cut_with_index_active(algo_name):
    """The adaptive tree is active at the cut and must come back active."""
    items = poisson_workload(900, seed=13, mu_target=8.0, arrival_rate=300.0)
    cut = 600  # ~150 bins open here — past INDEX_THRESHOLD

    def fresh():
        return StreamingEngine.scalar(
            make_algorithm(algo_name), capacity=items.capacity
        )

    ordered = sorted(items, key=lambda it: it.arrival)
    engine = fresh()
    for it in ordered[:cut]:
        engine.submit(it)
    doc = snapshot_engine(engine)
    assert doc["index_active"], "the cut must land in the tree regime"
    restored = loads(
        json.dumps(doc), make_algorithm(algo_name)
    )
    assert restored.state._index is not None
    for it in ordered[cut:]:
        restored.submit(it)
    straight = replay_straight(items, fresh)
    a, b = restored.finish(), straight.finish()
    assert a.item_bin == b.item_bin
    assert a.total_usage_time == b.total_usage_time


def test_cut_with_forced_tree(monkeypatch):
    monkeypatch.setattr(state_mod, "INDEX_THRESHOLD", 1)
    items = poisson_workload(150, seed=3, mu_target=6.0, arrival_rate=3.0)

    def fresh():
        return StreamingEngine.scalar(
            make_algorithm("first-fit"), capacity=items.capacity
        )

    resumed = replay_with_cut(
        items, fresh, lambda t: loads(t, make_algorithm("first-fit")), 75
    )
    straight = replay_straight(items, fresh)
    assert resumed.finish().item_bin == straight.finish().item_bin


@pytest.mark.parametrize("algo_name", ["vector-first-fit", "vector-best-fit",
                                       "vector-worst-fit", "vector-next-fit"])
def test_vector_cut_equals_uninterrupted(algo_name):
    items = vector_workload(300, seed=19, dimensions=2, arrival_rate=100.0)

    def fresh():
        return StreamingEngine.vector(
            make_vector_algorithm(algo_name),
            capacity=items.capacity,
            metrics=MetricsRegistry(),
        )

    def restored(text):
        return loads(
            text, make_vector_algorithm(algo_name), metrics=MetricsRegistry()
        )

    resumed = replay_with_cut(items, fresh, restored, 150)
    straight = replay_straight(items, fresh)
    assert_same_outcome(resumed, straight)


def test_admission_state_survives_restore():
    """Queue contents and admission accounting resume exactly."""
    items = poisson_workload(300, seed=29, mu_target=8.0, arrival_rate=60.0)

    def fresh():
        return StreamingEngine.scalar(
            make_algorithm("first-fit"),
            capacity=items.capacity,
            admission=make_admission_policy("queue", max_open=10),
            metrics=MetricsRegistry(),
        )

    def restored(text):
        return loads(
            text,
            make_algorithm("first-fit"),
            admission=make_admission_policy("queue", max_open=10),
            metrics=MetricsRegistry(),
        )

    ordered = sorted(items, key=lambda it: it.arrival)
    cut = 180
    engine = fresh()
    for it in ordered[:cut]:
        engine.submit(it)
    assert engine.queue_depth > 0, "the cut must land with jobs queued"
    resumed = restored(dumps(engine))
    assert resumed.queue_depth == engine.queue_depth
    assert resumed.admission.counts == engine.admission.counts
    for it in ordered[cut:]:
        resumed.submit(it)
    straight = replay_straight(items, fresh)
    a, b = resumed.finish(), straight.finish()
    assert a.item_bin == b.item_bin
    assert a.total_usage_time == b.total_usage_time
    assert resumed.admission.counts == straight.admission.counts
    assert resumed.metrics.as_dict() == straight.metrics.as_dict()


def test_snapshot_is_json_stable():
    """The checkpoint is plain JSON and round-trips through text."""
    items = poisson_workload(80, seed=7, mu_target=6.0, arrival_rate=2.0)
    engine = StreamingEngine.scalar(
        make_algorithm("next-fit"), capacity=items.capacity
    )
    for it in sorted(items, key=lambda it: it.arrival)[:40]:
        engine.submit(it)
    text = dumps(engine)
    doc = json.loads(text)
    assert doc["version"] == 2
    assert doc["kind"] == "scalar"
    # a second dump of the restored engine is byte-identical
    assert dumps(loads(text, make_algorithm("next-fit"))) == text


def test_restore_rejects_wrong_policy():
    engine = StreamingEngine.scalar(make_algorithm("first-fit"))
    with pytest.raises(ValueError, match="policy"):
        loads(dumps(engine), make_algorithm("best-fit"))


def test_restore_rejects_unknown_version():
    engine = StreamingEngine.scalar(make_algorithm("first-fit"))
    doc = snapshot_engine(engine)
    doc["version"] = 99
    with pytest.raises(ValueError, match="version"):
        loads(json.dumps(doc), make_algorithm("first-fit"))
