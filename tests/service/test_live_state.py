"""The streaming engine keeps live state only.

A closed bin's term of the objective Σ|U_k| is final, so the engine
folds it into a running total and drops the bin.  On the ROADMAP
instance — rate-4 Poisson, µ 8, seed 3, never more than a handful of
bins open — that makes the engine and its checkpoint grow with what is
open, plus one ``item_bin`` entry per job:

- no ``Bin`` of a closed bin stays alive, on the scalar and the vector
  engine;
- the checkpoint without ``item_bin`` does not grow as submits go on;
- traced memory grows by a few dozen bytes per job;
- every closed bin still reaches ``bin_closed_callbacks``, exactly as
  the batch engine returns it, for every registered policy.
"""

from __future__ import annotations

import gc
import json
import tracemalloc

import pytest

from repro.algorithms import ALGORITHM_REGISTRY, make_algorithm
from repro.core.bins import Bin
from repro.core.packing import run_packing
from repro.multidim import (
    VECTOR_REGISTRY,
    make_vector_algorithm,
    run_vector_packing,
    vector_workload,
)
from repro.multidim.bins import VectorBin
from repro.multidim.items import VectorItem
from repro.service import (
    MetricsRegistry,
    StreamingEngine,
    restore_engine,
    snapshot_engine,
)
from repro.workloads import poisson_workload

SUBMITS = 20_000
EARLY = 2_000


@pytest.fixture(scope="module")
def jobs():
    items = poisson_workload(SUBMITS, seed=3, mu_target=8.0, arrival_rate=4.0)
    return sorted(items, key=lambda it: it.arrival)


def scalar_engine():
    return StreamingEngine.scalar(make_algorithm("first-fit"), metrics=MetricsRegistry())


def live_bins(cls) -> list:
    gc.collect()
    return [o for o in gc.get_objects() if type(o) is cls]


def new_live_bins(cls, before: list) -> list:
    """Live ``cls`` objects not in ``before`` (which keeps its own alive)."""
    old = {id(b) for b in before}
    return [b for b in live_bins(cls) if id(b) not in old]


@pytest.mark.parametrize("kind", ["scalar", "vector"])
def test_no_closed_bin_stays_alive(jobs, kind):
    if kind == "scalar":
        engine, cls, stream = scalar_engine(), Bin, jobs
    else:
        engine = StreamingEngine.vector(
            make_vector_algorithm("vector-first-fit"), metrics=MetricsRegistry()
        )
        cls = VectorBin
        stream = [
            VectorItem(it.item_id, (it.size,), it.arrival, it.departure) for it in jobs
        ]
    closed = []
    engine.bin_closed_callbacks.append(lambda b: closed.append(b.index))
    before = live_bins(cls)  # whatever other code in this process holds
    for it in stream:
        engine.submit(it)
    alive = new_live_bins(cls, before)
    assert len(closed) > 1000
    assert all(b.is_open for b in alive), sorted(b.index for b in alive if not b.is_open)
    assert len(alive) == engine.state.num_open
    assert engine.state.num_bins_used == len(closed) + engine.state.num_open


def checkpoint_size_without_item_bin(engine) -> int:
    doc = snapshot_engine(engine)
    del doc["item_bin"]
    return len(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def test_checkpoint_does_not_grow_with_history(jobs):
    """The checkpoint's size follows what is open, not how much has run.

    What is open includes the history of the open bins (every item they
    ever held, their level timelines), so a single cut measures mostly
    how long the oldest open bin has lived: on this instance the
    document without ``item_bin`` reads 9.3 KB at 2k submits, 26.7 KB
    at 20k and anywhere from 4.4 to 60 KB in between.  The largest
    checkpoint of the second 10k submits must not outgrow the largest
    of the first 10k; a document holding every closed bin grows about
    linearly instead.
    """
    engine = scalar_engine()
    sizes = []
    for n, it in enumerate(jobs, start=1):
        engine.submit(it)
        if n % 500 == 0:
            sizes.append(checkpoint_size_without_item_bin(engine))
    half = len(sizes) // 2
    assert max(sizes[half:]) <= 1.5 * max(sizes[:half]), sizes
    assert len(snapshot_engine(engine)["item_bin"]) == 2 * SUBMITS


def test_checkpoint_items_are_what_open_bins_pending_and_queue_reference(jobs):
    engine = scalar_engine()
    for it in jobs[:EARLY]:
        engine.submit(it)
    doc = snapshot_engine(engine)
    referenced = {iid for b in doc["bins"] for iid in b["all"]}
    referenced |= {iid for _, _, iid in doc["pending"] + doc["queue"]}
    assert sorted(rec[0] for rec in doc["items"]) == sorted(referenced)
    assert [b["index"] for b in doc["bins"]] == list(engine.state._open)
    assert doc["bins_used"] == engine.state.num_bins_used > len(doc["bins"])


def test_memory_grows_only_by_the_item_bin_map(jobs):
    engine = scalar_engine()
    gc.collect()
    tracemalloc.start()
    try:
        for it in jobs[:EARLY]:
            engine.submit(it)
        gc.collect()
        early = tracemalloc.get_traced_memory()[0]
        for it in jobs[EARLY:]:
            engine.submit(it)
        gc.collect()
        late = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_job = (late - early) / (SUBMITS - EARLY)
    assert per_job <= 80, f"{per_job:.1f} B/job"


def bin_shape(b) -> tuple:
    """Everything a closed bin records, timeline included when it has one."""
    return (
        b.index,
        b.opened_at,
        b.closed_at,
        [it.item_id for it in b.all_items],
        list(getattr(b, "level_times", ())),
        list(getattr(b, "level_values", ())),
    )


def stream_through_sink(engine, items):
    closed = []
    engine.bin_closed_callbacks.append(closed.append)
    for it in sorted(items, key=lambda it: it.arrival):
        engine.submit(it)
    result = engine.finish()
    assert engine.state.bins == [None] * result.num_bins
    return sorted(map(bin_shape, closed)), result


@pytest.mark.parametrize("algo_name", sorted(ALGORITHM_REGISTRY))
def test_closed_bins_reach_the_sink_as_batch_returns_them(algo_name):
    items = poisson_workload(400, seed=5, mu_target=8.0, arrival_rate=20.0)
    batch = run_packing(items, make_algorithm(algo_name), capacity=items.capacity)
    engine = StreamingEngine.scalar(make_algorithm(algo_name), capacity=items.capacity)
    closed, result = stream_through_sink(engine, items)
    assert closed == [bin_shape(b) for b in batch.bins]
    assert result.total_usage_time == batch.total_usage_time


@pytest.mark.parametrize("algo_name", sorted(VECTOR_REGISTRY))
def test_closed_vector_bins_reach_the_sink_as_batch_returns_them(algo_name):
    items = vector_workload(300, seed=19, dimensions=2, arrival_rate=100.0)
    batch = run_vector_packing(items, make_vector_algorithm(algo_name))
    engine = StreamingEngine.vector(
        make_vector_algorithm(algo_name), capacity=items.capacity
    )
    closed, result = stream_through_sink(engine, items)
    assert closed == [bin_shape(b) for b in batch.bins]
    assert result.total_usage_time == batch.total_usage_time


@pytest.mark.parametrize("algo_name", ["hybrid-first-fit", "classified-next-fit"])
def test_size_classes_are_kept_for_open_bins_only(jobs, algo_name):
    """A size-classified policy maps each *open* bin to its class, so
    its checkpointed state follows what is open: the map once kept
    every bin ever opened (6,692 entries at 20k submits, 6 open).  A
    bin the defragmenter empties is forgotten by the next placement,
    and a checkpoint that still holds closed bins' classes drops them
    on restore."""
    engine = StreamingEngine.scalar(make_algorithm(algo_name))
    for n, it in enumerate(jobs, start=1):
        engine.submit(it)
        if n % 500 == 0:
            classes = engine.algorithm._bin_class
            assert sorted(classes) == [b.index for b in engine.state.open_bins()], n
        elif n % 500 == 250:
            engine.defrag(4)
    assert engine.state.num_bins_used > 1000
    assert engine.bins_evacuated > 0
    classes = engine.algorithm._bin_class
    assert len(classes) == engine.state.num_open

    stale = {index: 0 for index in range(10)}  # as an older checkpoint has them
    classes.update(stale)
    restored = restore_engine(snapshot_engine(engine), make_algorithm(algo_name))
    assert restored.algorithm._bin_class == {
        index: cls for index, cls in classes.items() if index not in stale
    }
