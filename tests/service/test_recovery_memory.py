"""What recovery holds while it boots: the log past its checkpoint, not the log.

:func:`~repro.service.recovery.recover` restores its checkpoint before
it opens the log, and the log's one scan decodes every record but keeps
only those past the checkpoint's ``wal_seq``.  So the memory a recovery
needs beyond the engine it returns follows the tail it replays, not the
live segment.  The pin measures that transient with ``tracemalloc``
(peak minus what stays resident after :func:`recover` returns) on a log
whose checkpoint covers 20,000 of its 20,100 records, all in one
segment.  It reads about 36 B per covered record on CPython 3.11; a
scan that keeps every decoded record until recovery filters them (the
log opened before the checkpoint was restored) reads about 740.
"""

from __future__ import annotations

import tracemalloc

from repro.algorithms import make_algorithm
from repro.service import DurableEngine, StreamingEngine, WriteAheadLog, recover
from repro.service.wal import wal_segments
from repro.workloads import poisson_workload

COVERED = 20_000
TAIL = 100

#: bytes of transient traced allocation per covered record allowed
TRANSIENT_BYTES_PER_COVERED_RECORD = 100


def _engine():
    return StreamingEngine.scalar(make_algorithm("first-fit"))


def test_recovery_transient_memory_follows_the_tail(tmp_path):
    directory = str(tmp_path / "wal")
    items = poisson_workload(
        COVERED + TAIL, seed=5, arrival_rate=4.0, mu_target=8.0
    )
    ordered = sorted(items, key=lambda it: it.arrival)
    durable = DurableEngine(
        _engine(), WriteAheadLog(directory, fsync="never"), auto_checkpoint=False
    )
    for item in ordered[:COVERED]:
        durable.submit(item)
    durable.checkpoint_now()
    for item in ordered[COVERED:]:
        durable.submit(item)
    durable.close()
    assert len(wal_segments(directory)) == 1, "the live segment holds every record"

    tracemalloc.start()
    try:
        recovered, report = recover(directory, engine_builder=_engine, fsync="never")
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    recovered.close()
    assert report.checkpoint_seq == COVERED
    assert report.replayed == TAIL
    assert len(recovered.engine.state.item_bin) == COVERED + TAIL
    per_record = (peak - current) / COVERED
    assert per_record <= TRANSIENT_BYTES_PER_COVERED_RECORD, (
        f"{per_record:.0f} B per covered record"
    )
