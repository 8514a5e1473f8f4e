"""Failure injection: the proof checkers must *detect* violations.

A verification suite that never fires is worthless — these tests corrupt
packing results in targeted ways and assert the corresponding checker
reports the damage.
"""

from array import array

import pytest

from repro.algorithms import FirstFit
from repro.analysis.verification import verify_analysis
from repro.core.bins import Bin
from repro.core.items import Item, ItemList
from repro.core.packing import run_packing
from repro.core.result import PackingResult
from repro.workloads.random_workloads import poisson_workload


def base_result() -> PackingResult:
    inst = poisson_workload(60, seed=21, mu_target=5.0, arrival_rate=3.0)
    return run_packing(inst, FirstFit())


def clone_with_bins(result: PackingResult, bins) -> PackingResult:
    return PackingResult(
        items=result.items,
        bins=tuple(bins),
        algorithm_name=result.algorithm_name,
        item_bin=result.item_bin,
    )


class TestEquationOneCheckers:
    def test_detects_stretched_usage_period(self):
        """Inflating one bin's closing time breaks the ΣV+span identity."""
        result = base_result()
        bins = list(result.bins)
        b = bins[0]
        stretched = Bin(
            index=b.index,
            capacity=b.capacity,
            opened_at=b.opened_at,
            closed_at=b.closed_at + 5.0,
            level=b.level,
            active_items=dict(b.active_items),
            all_items=list(b.all_items),
            level_times=array("d", b.level_times),
            level_values=array("d", b.level_values),
        )
        bins[0] = stretched
        report = verify_analysis(clone_with_bins(result, bins), check_lemma2=False)
        assert not report.ok
        assert any(v.check.startswith("eq1") for v in report.violations)


class TestProp6Checker:
    def test_detects_low_level_in_h_subperiod(self):
        """Corrupting a bin's level history below 1/2 during an
        h-subperiod must trigger prop6."""
        # construct a run with a guaranteed h-subperiod: two large items,
        # the second bin nested inside the first bin's lifetime
        inst = ItemList(
            [Item(0, 0.7, 0.0, 10.0), Item(1, 0.7, 2.0, 6.0)]
        )
        result = run_packing(inst, FirstFit())
        clean = verify_analysis(result)
        assert clean.ok
        bins = list(result.bins)
        b = bins[1]
        corrupted = Bin(
            index=b.index,
            capacity=b.capacity,
            opened_at=b.opened_at,
            closed_at=b.closed_at,
            level=b.level,
            active_items=dict(b.active_items),
            all_items=list(b.all_items),
            # level drops to 0.1 in the middle of the h-subperiod
            level_times=array("d", [2.0, 3.0, 6.0]),
            level_values=array("d", [0.7, 0.1, 0.0]),
        )
        bins[1] = corrupted
        report = verify_analysis(clone_with_bins(result, bins), check_lemma2=False)
        assert report.failures("prop6")


class TestFFRejectionChecker:
    def test_detects_non_first_fit_packing(self):
        """A Worst Fit packing relabelled as 'first-fit' must trip the
        rejection checker whenever WF skipped a feasible earlier bin at
        an l-subperiod opener."""
        from repro.algorithms import WorstFit

        # craft an instance where WF demonstrably skips bin 0:
        #   bin0 at level 0.65 (two long items), bin1 at 0.60;
        #   a small 0.3 fits both; WF → bin1 (emptier), FF would → bin0
        inst = ItemList(
            [
                Item(0, 0.55, 0.0, 20.0),
                Item(1, 0.10, 0.0, 20.0),
                Item(2, 0.60, 0.5, 20.0),
                Item(3, 0.30, 3.0, 5.0),
            ]
        )
        wf = run_packing(inst, WorstFit())
        assert wf.item_bin[3] == 1  # the skip actually happened
        forged = PackingResult(
            items=wf.items,
            bins=wf.bins,
            algorithm_name="first-fit",  # the lie
            item_bin=wf.item_bin,
        )
        report = verify_analysis(forged, check_lemma2=False)
        assert report.failures("ff-rejection")


class TestTheoremChainChecker:
    def test_closed_form_slack_reported(self):
        report = verify_analysis(base_result(), check_lemma2=False)
        assert report.closed_form_slack > 0

    def test_detects_inflated_total(self):
        """Doubling every usage period blows the (µ+3)·TS + span chain."""
        result = base_result()
        bins = []
        for b in result.bins:
            scale_origin = result.items.packing_period.left
            length = b.closed_at - b.opened_at
            bins.append(
                Bin(
                    index=b.index,
                    capacity=b.capacity,
                    opened_at=b.opened_at,
                    closed_at=b.opened_at + 50.0 * max(length, 1.0),
                    level=b.level,
                    active_items=dict(b.active_items),
                    all_items=list(b.all_items),
                    level_times=array("d", b.level_times),
                    level_values=array("d", b.level_values),
                )
            )
        report = verify_analysis(clone_with_bins(result, bins), check_lemma2=False)
        assert not report.ok
