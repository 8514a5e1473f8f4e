"""Experiment X11: the anatomy of First Fit's cost.

Equation (1) splits First Fit's cost into `span + ΣV` — the part any
algorithm must pay (some bin must be open whenever work exists) and the
part where *extra* bins overlap earlier ones.  Section V further splits
the overlapped time into h-subperiods (bin provably ≥ half full: dense,
efficient) and l-subperiods (the potentially wasteful part the whole
supplier-period analysis exists to pay for).

This experiment measures those shares across workload families.  The
interpretation key: only the **l-share** can make First Fit bad — the
µ+4 proof is literally a bound on how much l-time the structure permits
— so workloads with a small l-share are First-Fit-friendly regardless
of load, which is exactly what T1's random-vs-adversarial contrast
showed in ratio form.
"""

from __future__ import annotations

from ..algorithms.first_fit import FirstFit
from ..analysis.subperiods import build_subperiods
from ..analysis.usage_periods import decompose_usage_periods
from ..core.packing import run_packing
from ..opt.opt_total import opt_total
from ..workloads.adversarial import universal_lower_bound
from ..workloads.gaming import gaming_workload
from ..workloads.mmpp import mmpp_workload
from ..workloads.random_workloads import batch_workload, poisson_workload
from .harness import ExperimentResult
from .spec import simple_spec

__all__ = ["ANATOMY_SPEC"]


def _cost_anatomy(node_budget: int = 80_000) -> ExperimentResult:
    """span / V(h) / V(l) shares of FF cost across workload families."""
    exp = ExperimentResult(
        "X11",
        "Anatomy of First Fit's cost: span vs overlapped-h vs overlapped-l",
        notes=(
            "shares of FF_total = span + Σ|V| with V split into h-time\n"
            "(level ≥ 1/2, dense) and l-time (the potentially wasteful\n"
            "part the µ+4 proof bounds).  High l-share ⇒ high ratio."
        ),
    )
    families = {
        "poisson-light": poisson_workload(70, seed=2, mu_target=6.0, arrival_rate=1.0),
        "poisson-heavy": poisson_workload(70, seed=2, mu_target=6.0, arrival_rate=5.0),
        "batch": batch_workload(6, 10, seed=2, mu_target=6.0),
        "gaming": gaming_workload(80, seed=2, request_rate=6.0),
        "mmpp-bursty": mmpp_workload(40.0, seed=2, mu_target=6.0),
        "universal-lb": universal_lower_bound(14, 6.0),
    }
    for name, inst in families.items():
        if len(inst) == 0:
            continue
        result = run_packing(inst, FirstFit())
        deco = decompose_usage_periods(result)
        subs = build_subperiods(result, deco)
        total = result.total_usage_time
        l_time = sum(b.total_l for b in subs)
        h_time = sum(b.total_h for b in subs)
        opt = opt_total(inst, node_budget=node_budget)
        exp.rows.append(
            {
                "family": name,
                "ff_total": total,
                "span_share": deco.span / total,
                "overlap_h_share": h_time / total,
                "overlap_l_share": l_time / total,
                "ratio": total / opt.lower,
            }
        )
    return exp


ANATOMY_SPEC = simple_spec(
    "X11",
    "Anatomy of First Fit's cost: span vs overlapped-h vs overlapped-l",
    _cost_anatomy,
    smoke=dict(node_budget=10_000),
)
