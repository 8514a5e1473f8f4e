"""Differential tests pinning the engine unification.

Three independent nets, together guaranteeing the refactor changed *no*
packing anywhere:

1. **Frozen corpus**: ``tests/data/multidim/*.json`` stores instances
   and the exact packings (item→bin map, float-exact usage time, bin
   count) the pre-unification vector engine produced for every
   registered policy.  The unified engine must reproduce them bit for
   bit on the default path, the ``indexed=False`` reference path, and
   with the tree forced on from the first bin.
2. **Random differential**: on fresh seeded workloads the indexed and
   reference paths must agree exactly, in the low-load regime (tree
   never activates), the high-load regime (tree activates mid-run), and
   with forced activation.
3. **Scalar identity**: every 1-dimensional vector run must coincide
   exactly with the scalar engine under the corresponding policy —
   both engines are the same driver over the same comparisons, so a
   D=1 vector instance is literally a scalar instance.

Plus structural tests: :mod:`repro.multidim.packing` must contain no
event loop of its own, and the side engines (deferral, fleet,
retention) must place through the driver — it is the only one.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import pytest

import repro.core.state as state_mod
import repro.multidim.packing as vector_packing_mod
from repro.algorithms import make_algorithm
from repro.cloud.fleet import FleetDispatcher
from repro.cloud.retention import RetentionDispatcher
from repro.core.items import Item, ItemList
from repro.core.packing import run_packing
from repro.deferral import run_deferred_first_fit
from repro.multidim import (
    VECTOR_REGISTRY,
    VectorItem,
    VectorItemList,
    make_vector_algorithm,
    run_vector_packing,
    vector_workload,
)

DATA = Path(__file__).parent.parent / "data" / "multidim"
CORPUS = sorted(DATA.glob("*.json"))
ALL_VECTOR = sorted(VECTOR_REGISTRY)

#: vector policy → the scalar policy it must coincide with at D=1
SCALAR_TWIN = {
    "vector-first-fit": "first-fit",
    "vector-best-fit": "best-fit",
    "vector-worst-fit": "worst-fit",
    "vector-next-fit": "next-fit",
}


def load_corpus(path):
    with open(path) as f:
        data = json.load(f)
    items = VectorItemList(
        [
            VectorItem(d["item_id"], tuple(d["sizes"]), d["arrival"], d["departure"])
            for d in data["items"]
        ],
        capacity=tuple(data["capacity"]),
    )
    return items, data["expected"]


def assert_matches_expected(items, algo_name, expected, indexed):
    res = run_vector_packing(items, make_vector_algorithm(algo_name), indexed=indexed)
    got = {str(k): v for k, v in res.item_bin.items()}
    assert got == expected["item_bin"], f"{algo_name}: placements diverged"
    # identical placements make identical bins, so the cost matches to
    # the last bit — no approx
    assert res.total_usage_time == expected["total_usage_time"]
    assert res.num_bins == expected["num_bins"]


def assert_identical_paths(items, algo_name):
    fast = run_vector_packing(items, make_vector_algorithm(algo_name), indexed=True)
    ref = run_vector_packing(items, make_vector_algorithm(algo_name), indexed=False)
    assert fast.item_bin == ref.item_bin, f"{algo_name}: placements diverged"
    assert fast.total_usage_time == ref.total_usage_time
    assert fast.num_bins == ref.num_bins


@pytest.fixture
def forced_tree(monkeypatch):
    """Make the indexed path build and query the tree from bin one.

    The threshold is the *shared* module global in ``repro.core.state``;
    patching it steers the vector engine too — itself a regression test
    for the unification.
    """
    monkeypatch.setattr(state_mod, "INDEX_THRESHOLD", 1)


@pytest.mark.parametrize("trace", CORPUS, ids=lambda p: p.stem)
class TestFrozenCorpus:
    def test_default_path(self, trace):
        items, expected = load_corpus(trace)
        for algo_name, exp in expected.items():
            assert_matches_expected(items, algo_name, exp, indexed=True)

    def test_reference_path(self, trace):
        items, expected = load_corpus(trace)
        for algo_name, exp in expected.items():
            assert_matches_expected(items, algo_name, exp, indexed=False)

    def test_forced_tree(self, trace, forced_tree):
        items, expected = load_corpus(trace)
        for algo_name, exp in expected.items():
            assert_matches_expected(items, algo_name, exp, indexed=True)


class TestRandomDifferential:
    @pytest.mark.parametrize("algo_name", ALL_VECTOR)
    def test_low_load(self, algo_name):
        # a handful of open bins: the adaptive index stays on the scans
        items = vector_workload(500, seed=5, dimensions=2, arrival_rate=3.0)
        assert_identical_paths(items, algo_name)

    @pytest.mark.parametrize("algo_name", ALL_VECTOR)
    def test_high_load_activates_tree(self, algo_name):
        # a few hundred concurrently open bins: crosses INDEX_THRESHOLD
        # so the vector tree serves first-fit queries mid-run
        items = vector_workload(900, seed=17, dimensions=2, arrival_rate=300.0)
        assert_identical_paths(items, algo_name)

    @pytest.mark.parametrize("algo_name", ALL_VECTOR)
    def test_forced_tree(self, algo_name, forced_tree):
        items = vector_workload(300, seed=29, dimensions=3, arrival_rate=8.0)
        assert_identical_paths(items, algo_name)


class TestScalarIdentity:
    @pytest.mark.parametrize("vec_name", sorted(SCALAR_TWIN))
    def test_one_dimension_equals_scalar_engine(self, vec_name):
        vitems = vector_workload(400, seed=41, dimensions=1, arrival_rate=6.0)
        sitems = ItemList(
            Item(it.item_id, it.sizes[0], it.arrival, it.departure) for it in vitems
        )
        vec = run_vector_packing(vitems, make_vector_algorithm(vec_name))
        sca = run_packing(sitems, make_algorithm(SCALAR_TWIN[vec_name]))
        assert vec.item_bin == sca.item_bin
        assert vec.total_usage_time == sca.total_usage_time
        assert vec.num_bins == sca.num_bins


def test_vector_packing_module_has_no_event_loop():
    """The tentpole's structural guarantee: one driver, not two.

    ``repro.multidim.packing`` must delegate to the shared
    ``run_events`` and contain no event iteration of its own.
    """
    source = inspect.getsource(vector_packing_mod)
    assert "run_events(" in source
    assert "event_tuples" not in source
    assert "event_sequence" not in source
    assert "EventKind.ARRIVE" not in source
    assert "heapq" not in source


@pytest.mark.parametrize(
    "entry_point",
    [
        run_deferred_first_fit,
        FleetDispatcher.dispatch,
        RetentionDispatcher.dispatch,
    ],
    ids=["deferral", "fleet", "retention"],
)
def test_side_engines_place_through_the_driver(entry_point):
    """The side engines hand every placement to the driver's loop or stepper."""
    source = inspect.getsource(entry_point)
    assert "run_events(" in source or "EventStepper(" in source
    own_loop = ("state.place(", "state.depart(", "open_bins_fitting", "event_sequence(")
    for needle in own_loop:
        assert needle not in source


def test_open_set_is_ordered_dict_with_o1_close():
    """The open set must be the shared dict: O(1) close, opening order."""
    items = vector_workload(200, seed=3, dimensions=2, arrival_rate=50.0)
    seen_types = []

    def watch(event, state):
        seen_types.append(type(state._open))
        opened = [b.index for b in state.open_bins()]
        assert opened == sorted(opened)  # opening order survives closes

    run_vector_packing(items, make_vector_algorithm("vector-first-fit"), observers=[watch])
    assert set(seen_types) == {dict}
