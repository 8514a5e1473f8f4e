"""Write the version-1 checkpoint fixtures in this directory.

Run it with a checkout whose snapshot code writes version 1 (any commit
before version 2, e.g. ``git archive 31931d2 src``) first on the path::

    PYTHONPATH=<v1 checkout>/src python tests/data/service_v1/make_fixture.py

It writes two fixtures, both First-Fit-sized and deterministic:

- ``shard/`` — a shard WAL directory as a crashed ``repro serve
  --wal-dir`` leaves it: the MANIFEST, one version-1 checkpoint cut
  mid-stream (it holds closed bins and pending departures) and the WAL
  segment, whose records run past the checkpoint.  No drain was logged.
  The segment holds every operation from seq 1, so it is also the
  operation list of the run.
- ``next_fit.dumps.json`` — :func:`repro.service.snapshot.dumps` of a
  Next Fit engine cut where its available bin has already closed (the
  jobs in its ``placed_order`` were submitted, then the clock advanced
  to the next arrival), and ``next_fit_jobs.json``, the whole instance.
"""

from __future__ import annotations

import os
import shutil
import sys

from repro.algorithms import make_algorithm
from repro.service import ShardContext, ShardSpec, StreamingEngine, dumps
from repro.service.snapshot import SNAPSHOT_VERSION
from repro.workloads import poisson_workload, save_trace

HERE = os.path.dirname(os.path.abspath(__file__))

#: the shard fixture: jobs submitted, and the record count per checkpoint
SHARD_JOBS = 48
SHARD_CHECKPOINT_EVERY = 36


def write_shard(directory: str) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    ctx = ShardContext.create(
        ShardSpec(),
        wal_dir=directory,
        fsync="never",
        checkpoint_every=SHARD_CHECKPOINT_EVERY,
    )
    durable = ctx.engine
    items = poisson_workload(SHARD_JOBS, seed=5, mu_target=8.0, arrival_rate=4.0)
    ordered = sorted(items, key=lambda it: it.arrival)
    for i, it in enumerate(ordered):
        durable.submit(it, request_id=f"r{i}")
        if i % 12 == 11:  # explicit clock moves and an announced departure
            durable.advance(it.arrival)
        if i == 40:  # one job leaves before its scheduled departure
            early = next(j for j in ordered[:i] if j.departure > it.arrival)
            durable.depart(early.item_id, it.arrival)
    ctx.close()  # a crash: no drain, no final checkpoint
    names = sorted(os.listdir(directory))
    checkpoints = [n for n in names if n.startswith("checkpoint-")]
    assert len(checkpoints) == 1, names


def write_next_fit() -> None:
    items = poisson_workload(40, seed=5, mu_target=6.0, arrival_rate=2.0)
    ordered = sorted(items, key=lambda it: it.arrival)
    engine = StreamingEngine.scalar(make_algorithm("next-fit"), capacity=items.capacity)
    for cut, it in enumerate(ordered):
        if cut >= 10:
            # apply the departures due by the next arrival: Next Fit's
            # available bin may close here, before the arrival replaces it
            engine.advance(it.arrival)
            avail = engine.algorithm._available
            if avail is not None and avail.is_closed and engine.state.num_open:
                break
        engine.submit(it)
    else:
        raise SystemExit("no cut point with a closed available bin")
    with open(os.path.join(HERE, "next_fit.dumps.json"), "w") as f:
        f.write(dumps(engine) + "\n")
    save_trace(items, os.path.join(HERE, "next_fit_jobs.json"))


def main() -> None:
    if SNAPSHOT_VERSION != 1:
        sys.exit(f"this code writes snapshot version {SNAPSHOT_VERSION}, not 1")
    write_shard(os.path.join(HERE, "shard"))
    write_next_fit()


if __name__ == "__main__":
    main()
