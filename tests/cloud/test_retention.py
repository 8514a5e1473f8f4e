"""Tests for warm-server retention."""

import pytest
from hypothesis import example, given, settings

from repro.algorithms import FirstFit
from repro.cloud.billing import ContinuousBilling, HourlyBilling
from repro.cloud.retention import (
    BilledHourBoundary,
    FixedCooldown,
    NoRetention,
    RetentionDispatcher,
)
from repro.core.items import Item, ItemList
from repro.core.packing import run_packing
from repro.workloads.gaming import gaming_workload

from ..conftest import item_lists


def jobs(*tuples):
    return ItemList([Item(i, s, a, d) for i, (s, a, d) in enumerate(tuples)])


class TestPolicies:
    def test_no_retention(self):
        assert NoRetention().hold_until(0.0, 2.5) == 2.5

    def test_fixed_cooldown(self):
        assert FixedCooldown(0.5).hold_until(0.0, 2.0) == 2.5
        with pytest.raises(ValueError):
            FixedCooldown(-1.0)

    def test_hour_boundary(self):
        p = BilledHourBoundary(quantum=1.0)
        assert p.hold_until(0.0, 2.3) == 3.0
        assert p.hold_until(0.0, 3.0) == 3.0  # exact boundary not extended
        assert p.hold_until(0.5, 2.3) == 2.5  # boundaries relative to open
        with pytest.raises(ValueError):
            BilledHourBoundary(quantum=0.0)

    def test_hour_boundary_minimum_one_quantum(self):
        # a server emptied moments after opening is still held one quantum
        assert BilledHourBoundary(1.0).hold_until(2.0, 2.01) == 3.0


class TestRetentionDispatcher:
    def test_no_retention_matches_paper_semantics(self):
        """With NoRetention, server count equals the plain FF bin count."""
        from repro.algorithms import FirstFit
        from repro.core.packing import run_packing

        stream = gaming_workload(150, seed=4)
        rep = RetentionDispatcher(NoRetention()).dispatch(stream)
        ff = run_packing(stream, FirstFit())
        assert rep.num_servers == ff.num_bins
        assert rep.total_rented_time == pytest.approx(ff.total_usage_time)
        assert rep.num_reuses == 0

    @settings(max_examples=60, deadline=None)
    @given(items=item_lists())
    # a server that empties just as a job arrives closes first (half-open
    # intervals), so the job rents a new one, as First Fit opens a new bin
    @example(items=jobs((0.5, 0.0, 1.0), (0.5, 1.0, 2.0)))
    def test_zero_hold_reproduces_first_fit(self, items):
        """A hold that ends when the server empties is the paper's closing."""
        ff = run_packing(items, FirstFit())
        for policy in (NoRetention(), FixedCooldown(0.0)):
            rep = RetentionDispatcher(policy).dispatch(items)
            assert rep.num_servers == ff.num_bins
            assert [s.rental for s in rep.servers] == [
                b.usage_period for b in ff.bins
            ]
            assert rep.num_reuses == 0

    def test_warm_server_reused(self):
        # job 0 ends at 1; job 1 arrives at 1.2, inside the cooldown
        rep = RetentionDispatcher(FixedCooldown(0.5)).dispatch(
            jobs((0.5, 0.0, 1.0), (0.5, 1.2, 2.0))
        )
        assert rep.num_servers == 1
        assert rep.num_reuses == 1

    def test_expired_hold_opens_new_server(self):
        rep = RetentionDispatcher(FixedCooldown(0.1)).dispatch(
            jobs((0.5, 0.0, 1.0), (0.5, 2.0, 3.0))
        )
        assert rep.num_servers == 2
        assert rep.num_reuses == 0
        # the first rental ends at its hold expiry, not at the next event
        assert rep.servers[0].rental.right == pytest.approx(1.1)

    def test_warm_capacity_respected(self):
        # warm server is empty, so even a big job can reuse it
        rep = RetentionDispatcher(FixedCooldown(1.0)).dispatch(
            jobs((0.3, 0.0, 1.0), (0.9, 1.5, 2.5))
        )
        assert rep.num_servers == 1

    def test_hour_boundary_never_costlier_under_hourly(self):
        for seed in (1, 2, 3):
            stream = gaming_workload(200, seed=seed, request_rate=4.0)
            billing = HourlyBilling(quantum=1.0)
            none = RetentionDispatcher(NoRetention(), billing=billing).dispatch(stream)
            hb = RetentionDispatcher(
                BilledHourBoundary(1.0), billing=billing
            ).dispatch(stream)
            # free retention: reuse can only merge rentals within paid time
            assert hb.total_cost <= none.total_cost * 1.02 + 1e-9

    def test_retention_costs_under_continuous(self):
        stream = gaming_workload(200, seed=5, request_rate=4.0)
        billing = ContinuousBilling()
        none = RetentionDispatcher(NoRetention(), billing=billing).dispatch(stream)
        cd = RetentionDispatcher(FixedCooldown(1.0), billing=billing).dispatch(stream)
        assert cd.total_cost >= none.total_cost - 1e-9

    def test_all_jobs_served(self):
        stream = gaming_workload(120, seed=7)
        rep = RetentionDispatcher(FixedCooldown(0.5)).dispatch(stream)
        served = sorted(j for s in rep.servers for j in s.jobs)
        assert served == sorted(it.item_id for it in stream)
        assert all(s.released_at is not None for s in rep.servers)

    def test_rentals_are_contiguous_supersets_of_busy_time(self):
        stream = gaming_workload(80, seed=9)
        rep = RetentionDispatcher(FixedCooldown(0.3)).dispatch(stream)
        for s in rep.servers:
            for jid in s.jobs:
                it = next(x for x in stream if x.item_id == jid)
                assert s.rental.left <= it.arrival + 1e-9
                assert it.departure <= s.rental.right + 1e-9
