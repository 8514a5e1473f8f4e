"""Generated interleavings against the write-ahead log alone.

Hypothesis draws a sequence of log operations — ``append``,
``append_many``, an ``OSError`` on the next write or on the first write
after the next rotation, a short write that stores half its buffer, a
checkpoint barrier (``sync`` then ``prune(last_seq)``), and close plus
reopen — at a segment size that rotates every few records.  A model
keeps the acknowledged records.  After every reopen the log on disk
must hold exactly those records, contiguous, each segment must start
at the record its name promises, the log must resume after the last
acknowledged record, and ``verify_wal_dir`` must call the directory
clean.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.wal import (
    WriteAheadLog,
    read_segment,
    replay_wal,
    verify_wal_dir,
    wal_segments,
)

from .test_wal import _ShortWrite

SEGMENT_BYTES = 120  # about three records per segment

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("append_many"), st.integers(1, 4)),
        st.sampled_from([
            "append", "error", "error after rotation", "short", "checkpoint",
            "reopen",
        ]).map(lambda kind: (kind, 1)),
    ),
    max_size=40,
)


class Disk:
    """The log's ``io_hook``: spends the armed fault on the next write."""

    def __init__(self, directory):
        self.directory = directory
        self.wal = None
        self.fault = None
        self.live = None  # the live segment when "error after rotation" was armed

    def arm(self, fault):
        self.fault = fault
        self.live = wal_segments(self.directory)[-1]

    def __call__(self, op, seq):
        if op != "write" or self.fault is None:
            return None
        if self.fault == "error after rotation":
            if wal_segments(self.directory)[-1] == self.live:
                return None
            self.fault = "error"
        fault, self.fault = self.fault, None
        if fault == "error":
            raise OSError("no space left on device")
        self.wal._file = _ShortWrite(self.wal._file)  # "short"
        return None


def open_log(disk):
    disk.wal = WriteAheadLog(
        disk.directory, fsync="never", segment_bytes=SEGMENT_BYTES, io_hook=disk
    )
    return disk.wal


def check(directory, wal, acked, covered):
    records, torn = replay_wal(directory)
    assert torn == 0
    seqs = [r.seq for r in records]
    if seqs:
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
    for rec in records:
        assert acked.get(rec.seq) == rec.payload, f"record {rec.seq} was never acknowledged"
    missing = [s for s in acked if s > covered and s not in seqs]
    assert not missing, f"acknowledged records {missing} are gone"
    assert wal.last_seq == max(acked, default=0), "the log resumes at the wrong seq"
    for path in wal_segments(directory):
        found, _ = read_segment(path)
        if found:
            assert os.path.basename(path) == f"wal-{found[0].seq:010d}.log"
    report = verify_wal_dir(directory)
    assert report["ok"], report["errors"]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(steps=STEPS)
def test_log_holds_exactly_the_acknowledged_records(steps):
    with tempfile.TemporaryDirectory() as directory:
        disk = Disk(directory)
        wal = open_log(disk)
        acked: dict[int, dict] = {}
        covered = 0  # the highest seq a checkpoint barrier pruned up to
        now = 0.0
        for kind, count in steps + [("reopen", 0)]:
            if kind in ("append", "append_many"):
                payloads = []
                for _ in range(count):
                    now += 1.0
                    payloads.append({"op": "advance", "now": now})
                try:
                    if kind == "append":
                        seqs = [wal.append(payloads[0])]
                    else:
                        seqs = wal.append_many(payloads)
                except OSError:
                    continue
                assert seqs == list(range(max(acked, default=0) + 1, seqs[-1] + 1))
                acked.update(zip(seqs, payloads))
            elif kind == "checkpoint":
                wal.sync()
                covered = wal.last_seq
                wal.prune(covered)
            elif kind == "reopen":
                wal.close()
                wal = open_log(disk)
                check(directory, wal, acked, covered)
            else:
                disk.arm(kind)
        wal.close()
