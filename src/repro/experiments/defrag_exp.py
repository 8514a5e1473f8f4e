"""Experiment X13: usage-time ratio vs. online migration budget.

X10 measures what migration is worth to an *offline adversary* — it
reconstructs the repack-OPT trajectory and counts the moves the
adversary actually performs.  X13 asks the operational converse: what
does a bounded move budget buy an *online* algorithm?  For each instance
family it sweeps :class:`~repro.algorithms.migration.BudgetedRepack`
(First Fit + up to β migrations per event) over β and charts the
usage-time ratio against the paper's µ lower bound — which binds every
**non-migratory** algorithm (Theorem 2), so the β=0 column sits above it
by Theorem 2's logic while the β>0 columns show the bound's hidden
assumption being spent down.

The adversary's own trajectory from X10 is rendered on the same figure:
its ratio is 1.0 by construction (it *is* the repack optimum), and its
move count is the price it paid — the asymptote the online sweep is
reaching toward.
"""

from __future__ import annotations

from ..algorithms.migration import BudgetedRepack
from ..opt.opt_total import opt_total
from ..opt.schedule import build_repacking_schedule
from ..workloads.adversarial import next_fit_lower_bound, universal_lower_bound
from ..workloads.gaming import gaming_workload
from ..workloads.random_workloads import poisson_workload
from .harness import ExperimentResult, measure_ratio
from .spec import simple_spec

__all__ = ["DEFRAG_SPEC"]

#: chart width in characters for the ratio bars
_BAR_WIDTH = 36


def _families() -> dict:
    """The same four instance families X10 measures, for comparability."""
    return {
        "poisson(n=50)": poisson_workload(50, seed=3, mu_target=6.0, arrival_rate=3.0),
        "gaming(n=60)": gaming_workload(60, seed=5, request_rate=4.0),
        "universal-lb(12,4)": universal_lower_bound(12, 4.0),
        "nextfit-lb(12,4)": next_fit_lower_bound(12, 4.0),
    }


def _bar(ratio: float, mu: float, scale: float) -> str:
    """One chart line: ratio as a bar, 'M' marking the µ lower bound.

    Everything is scaled against ``scale`` (the family's max of µ and
    the worst swept ratio), so within a family the bars and the µ marker
    are directly comparable; ratio 0 is the left edge.
    """
    width = max(1, round(_BAR_WIDTH * ratio / scale))
    mu_pos = max(1, round(_BAR_WIDTH * mu / scale))
    cells = ["#" if i < width else "-" for i in range(max(width, mu_pos))]
    cells[mu_pos - 1] = "M"
    return "|" + "".join(cells)


def _defrag_budget(
    node_budget: int = 100_000,
    budgets: tuple = (0, 1, 2, 4, 8),
) -> ExperimentResult:
    """Sweep the per-event move budget β and bracket the ratio per family."""
    chart: list[str] = []
    exp = ExperimentResult(
        "X13",
        "Online bounded-migration repacking (usage ratio vs. move budget)",
    )
    for name, inst in _families().items():
        opt = opt_total(inst, node_budget=node_budget)
        sched = build_repacking_schedule(inst, node_budget=node_budget)
        mu = inst.mu
        adv_ratio = sched.total_usage_time / opt.lower
        scale = mu
        measurements = []
        for beta in budgets:
            policy = BudgetedRepack(budget=beta)
            m = measure_ratio(inst, policy, opt=opt)
            measurements.append((beta, m, policy.moves))
            scale = max(scale, m.ratio_upper)
            exp.rows.append(
                {
                    "family": name,
                    "budget": beta,
                    "usage_time": m.total_usage_time,
                    "ratio": m.ratio_upper,
                    "moves": policy.moves,
                    "mu": mu,
                    "adversary_moves": sched.migrations,
                    "adversary_ratio": adv_ratio,
                }
            )
        chart.append(f"{name}  (mu={mu:.2f})")
        for beta, m, moves in measurements:
            chart.append(
                f"  b={beta:<2d} {_bar(m.ratio_upper, mu, scale)}"
                f"  {m.ratio_upper:.3f}  ({moves} moves)"
            )
        chart.append(
            f"  adv  {_bar(adv_ratio, mu, scale)}"
            f"  {adv_ratio:.3f}  ({sched.migrations} moves, X10 repack-OPT)"
        )
    exp.notes = (
        "ratio = repack-ff usage time / OPT lower bracket; b=0 is plain\n"
        "First Fit (bit-identical, pinned by the migration differential\n"
        "suite).  'M' on each bar marks the paper's mu lower bound, which\n"
        "assumes *no* migration — the b>0 bars spend that assumption\n"
        "down.  The 'adv' line is X10's offline repack-OPT trajectory on\n"
        "the same instance (ratio 1.0 by construction) with the move\n"
        "count it paid; the online sweep approaches it from above.\n\n"
        + "\n".join(chart)
    )
    return exp


DEFRAG_SPEC = simple_spec(
    "X13",
    "Online bounded-migration repacking (usage ratio vs. move budget)",
    _defrag_budget,
    smoke=dict(node_budget=20_000, budgets=(0, 2, 4)),
)
