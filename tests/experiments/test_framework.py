"""Tests for the declarative experiment framework (spec/runner/cache).

Covers the refactor's equivalence guarantees:

- golden tests pin the rendered output of representative experiments to
  their pre-refactor captures, byte for byte, through the spec runner,
- the registry smoke suite runs all 28 specs under ``profile="smoke"``
  and round-trips every result through the JSON artifact format,
- the cache serves a second run entirely from artifacts,
- the report order follows the natural DESIGN.md index, and
- two reports with the same stamp are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import (
    EXPERIMENT_ORDER,
    SPEC_REGISTRY,
    ExperimentRunner,
    FigureOutput,
    ResultCache,
    run_spec,
)
from repro.experiments.runner import (
    artifact_document,
    code_fingerprint,
    result_from_json,
    result_to_json,
)
from repro.experiments.report import (
    generate_report,
    resolve_stamp,
    run_all_experiments,
)

GOLDEN_DIR = Path(__file__).parent.parent / "data" / "experiments_golden"

#: the exact configurations the goldens were captured at (pre-refactor)
GOLDEN_CONFIGS = {
    "T1": dict(mus=(2.0, 4.0), adversarial_n=10, random_n=40,
               random_seeds=(1,), node_budget=30_000),
    "T5": dict(mu=4.0, algorithms=("first-fit", "next-fit", "best-fit"),
               node_budget=8_000),
    "X1": dict(n=50, seeds=(1, 2), dimensions=(1, 2), correlations=(1.0,)),
    "X7": dict(n=25, replications=3, loads=(2.0,), mus=(8.0,),
               algorithms=("first-fit", "next-fit"), node_budget=8_000),
    "F5-F6": dict(seeds=(0, 1, 2, 3), n=40),
    # the side engines' folds onto the driver (fleet, retention, deferral)
    "T7": dict(num_sessions=300, rates=(2.0, 8.0)),
    "T8": dict(num_sessions=300, rates=(2.0, 8.0)),
    "X9": dict(),
}


def _rendered(result) -> str:
    if isinstance(result, FigureOutput):
        return result.rendering
    return result.render()


class TestGoldenEquivalence:
    """The refactored runner reproduces pre-refactor outputs exactly."""

    @pytest.mark.parametrize("eid", sorted(GOLDEN_CONFIGS))
    def test_serial_run_matches_golden(self, eid):
        golden = (GOLDEN_DIR / f"{eid}.txt").read_text()
        result = run_spec(SPEC_REGISTRY[eid], GOLDEN_CONFIGS[eid])
        assert _rendered(result) + "\n" == golden

    @pytest.mark.parametrize("eid", ["T5", "X1"])
    def test_sharded_run_matches_golden(self, eid):
        golden = (GOLDEN_DIR / f"{eid}.txt").read_text()
        result = run_spec(SPEC_REGISTRY[eid], GOLDEN_CONFIGS[eid], workers=2)
        assert _rendered(result) + "\n" == golden


class TestRegistrySmoke:
    """Every spec completes under the smoke profile and round-trips."""

    @pytest.mark.parametrize("eid", list(EXPERIMENT_ORDER))
    def test_smoke_run_and_json_round_trip(self, eid):
        spec = SPEC_REGISTRY[eid]
        params = spec.resolve(profile="smoke")
        result = run_spec(spec, params)
        rendered = _rendered(result)
        assert rendered.strip()
        # serialize → through real JSON text → deserialize → re-render
        doc = json.loads(json.dumps(result_to_json(result)))
        restored = result_from_json(doc)
        assert _rendered(restored) == rendered

    def test_registries_agree(self):
        for eid, spec in SPEC_REGISTRY.items():
            assert spec.id == eid


class TestNaturalOrder:
    """Satellite: report order is the DESIGN.md index, not sorted()."""

    def test_experiment_order_is_natural(self):
        assert EXPERIMENT_ORDER == (
            "F1", "F2", "F3", "F4", "F5-F6",
            "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8",
            "X1", "X2a", "X2b", "X2c", "X3", "X4", "X5", "X6",
            "X7", "X8", "X9", "X10", "X11", "X12", "X13",
        )
        # the historical bug: lexicographic order interleaves the index
        assert list(EXPERIMENT_ORDER) != sorted(EXPERIMENT_ORDER)

    def test_run_all_experiments_orders_naturally(self):
        # pass ids out of order; results must come back in index order
        results = run_all_experiments(
            only=("X1", "T1", "F5-F6"), profile="smoke"
        ).results()
        assert list(results) == ["F5-F6", "T1", "X1"]

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment ids: T99"):
            run_all_experiments(only=("T99",))


class TestResultCache:
    def test_second_run_served_from_cache(self, tmp_path):
        ids = ("F1", "T1", "X1")
        requests = [(SPEC_REGISTRY[eid], None) for eid in ids]
        first = ExperimentRunner(
            workers=None, cache_dir=tmp_path, resume=True
        ).run_many(requests, profile="smoke")
        assert first.cache_hits == 0
        assert first.computed == len(ids)
        second = ExperimentRunner(
            workers=None, cache_dir=tmp_path, resume=True
        ).run_many(requests, profile="smoke")
        assert second.cache_hits == len(ids)  # ≥90% criterion: 100%
        assert second.computed == 0
        for eid in ids:
            assert _rendered(second.results()[eid]) == _rendered(
                first.results()[eid]
            )

    def test_param_change_misses_cache(self, tmp_path):
        spec = SPEC_REGISTRY["F5-F6"]
        runner = ExperimentRunner(cache_dir=tmp_path, resume=True)
        runner.run_many([(spec, {"seeds": (0,), "n": 30})])
        summary = runner.run_many(
            [(spec, {"seeds": (0, 1), "n": 30})]
        )
        assert summary.cache_hits == 0

    def test_unreadable_artifact_is_a_miss(self, tmp_path):
        spec = SPEC_REGISTRY["F1"]
        cache = ResultCache(tmp_path)
        params = spec.resolve(profile="smoke")
        path = cache.store(spec, params, run_spec(spec, params))
        path.write_text("{not json")
        assert cache.load(spec, params) is None

    def test_artifact_document_provenance(self, tmp_path):
        spec = SPEC_REGISTRY["F1"]
        params = spec.resolve()
        doc = artifact_document(spec, params, run_spec(spec, params))
        assert doc["experiment"] == "F1"
        assert doc["fingerprint"] == code_fingerprint()
        assert doc["module"] == spec.module
        # the document is valid JSON end to end
        json.dumps(doc)


class TestReportDeterminism:
    """Satellite: byte-reproducible `repro report`."""

    def test_same_stamp_same_bytes(self, tmp_path):
        kwargs = dict(
            only=("F1", "F5-F6"), profile="smoke", stamp="2026-01-01 00:00:00"
        )
        a, _ = generate_report(tmp_path / "a.md", **kwargs)
        b, _ = generate_report(tmp_path / "b.md", **kwargs)
        assert a.read_bytes() == b.read_bytes()
        assert "Generated 2026-01-01 00:00:00" in a.read_text()

    def test_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert resolve_stamp() == "1970-01-01 00:00:00"
        assert resolve_stamp("fixed") == "fixed"

    def test_report_resumes_from_cache(self, tmp_path):
        kwargs = dict(
            only=("F1", "T1"), profile="smoke", stamp="s",
            cache_dir=tmp_path / "cache", resume=True,
        )
        _, first = generate_report(tmp_path / "a.md", **kwargs)
        path_b, second = generate_report(tmp_path / "b.md", **kwargs)
        assert first.cache_hits == 0
        assert second.cache_hits == 2
        assert "cache hits: 2/2" in second.render()
        assert (tmp_path / "a.md").read_bytes() == path_b.read_bytes()
