"""The write-ahead log: record format, rotation, torn tails, corruption.

The WAL is the durability floor of the service — every guarantee the
recovery layer makes reduces to these properties: records round-trip
exactly, a torn *tail* is tolerated and truncated on reopen, any other
defect (bit rot, a sequence gap) is loud corruption, and segments rotate
and prune so the log never grows without bound.
"""

from __future__ import annotations

import os

import pytest

from repro.service.wal import (
    WalCorruptionError,
    WalError,
    WriteAheadLog,
    read_segment,
    replay_wal,
    verify_wal_dir,
    wal_segments,
)


def test_roundtrip_in_order(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="never")
    payloads = [{"op": "submit", "job": [i, 0.5, 0.0, 1.0]} for i in range(20)]
    seqs = [wal.append(p) for p in payloads]
    wal.close()
    assert seqs == list(range(1, 21))
    records, torn = replay_wal(str(tmp_path))
    assert torn == 0
    assert [r.seq for r in records] == seqs
    assert [r.payload for r in records] == payloads


def test_preserialized_payload_equals_dict_payload(tmp_path):
    """The hot-path str form and the dict form decode identically."""
    import json

    a = WriteAheadLog(str(tmp_path / "a"), fsync="never")
    b = WriteAheadLog(str(tmp_path / "b"), fsync="never")
    payload = {"job": [7, 0.25, 0.0, 3.5], "op": "submit", "sd": True}
    a.append(payload)
    b.append(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    a.close()
    b.close()
    rec_a, _ = replay_wal(str(tmp_path / "a"))
    rec_b, _ = replay_wal(str(tmp_path / "b"))
    assert rec_a[0].payload == rec_b[0].payload
    # identical serialization means identical bytes (CRC included)
    assert (
        open(wal_segments(str(tmp_path / "a"))[0], "rb").read()
        == open(wal_segments(str(tmp_path / "b"))[0], "rb").read()
    )


def test_replay_after_seq_skips_checkpointed_records(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="never")
    for i in range(10):
        wal.append({"op": "advance", "now": float(i)})
    wal.close()
    records, _ = replay_wal(str(tmp_path), after_seq=6)
    assert [r.seq for r in records] == [7, 8, 9, 10]


def test_rotation_and_prune(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="never", segment_bytes=200)
    for i in range(30):
        wal.append({"op": "advance", "now": float(i)})
    segments = wal_segments(str(tmp_path))
    assert len(segments) > 2, "the tiny segment size must force rotation"
    records, _ = replay_wal(str(tmp_path))
    assert [r.seq for r in records] == list(range(1, 31))
    # prune everything covered by a checkpoint at seq 30: every segment
    # but the live tail goes away, and replay still works
    removed = wal.prune(30)
    assert removed == len(segments) - 1
    assert len(wal_segments(str(tmp_path))) == 1
    wal.append({"op": "drain"})
    wal.close()
    records, _ = replay_wal(str(tmp_path))
    assert records[-1].seq == 31


def test_torn_tail_is_tolerated_and_truncated_on_reopen(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="never")
    for i in range(5):
        wal.append({"op": "advance", "now": float(i)})
    wal.close()
    path = wal_segments(str(tmp_path))[0]
    size = os.path.getsize(path)
    with open(path, "ab") as f:
        f.write(b"6 deadbeef {half a rec")  # a crash mid-write
    records, torn = replay_wal(str(tmp_path))
    assert [r.seq for r in records] == [1, 2, 3, 4, 5]
    assert torn == os.path.getsize(path) - size
    # reopening for append truncates the torn bytes and resumes the
    # sequence where the intact prefix ended
    wal = WriteAheadLog(str(tmp_path), fsync="never")
    assert wal.recovered_torn_bytes == torn
    assert os.path.getsize(path) == size
    assert wal.append({"op": "drain"}) == 6
    wal.close()
    records, torn = replay_wal(str(tmp_path))
    assert [r.seq for r in records] == [1, 2, 3, 4, 5, 6]
    assert torn == 0


def test_corruption_before_the_tail_raises(tmp_path):
    """Bit rot in a non-final segment is not a torn tail — it is loss."""
    wal = WriteAheadLog(str(tmp_path), fsync="never", segment_bytes=120)
    for i in range(12):
        wal.append({"op": "advance", "now": float(i)})
    wal.close()
    first = wal_segments(str(tmp_path))[0]
    data = bytearray(open(first, "rb").read())
    data[len(data) // 2] ^= 0xFF
    with open(first, "wb") as f:
        f.write(data)
    with pytest.raises(WalCorruptionError):
        replay_wal(str(tmp_path))
    with pytest.raises(WalCorruptionError):
        read_segment(first)


def test_sequence_gap_raises(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="never")
    for i in range(4):
        wal.append({"op": "advance", "now": float(i)})
    wal.close()
    path = wal_segments(str(tmp_path))[0]
    lines = open(path, "rb").read().splitlines(keepends=True)
    with open(path, "wb") as f:
        f.write(lines[0] + lines[2] + lines[3])  # drop record 2
    with pytest.raises(WalCorruptionError, match="sequence gap"):
        replay_wal(str(tmp_path))


def test_fsync_policies(tmp_path):
    always = WriteAheadLog(str(tmp_path / "a"), fsync="always")
    for i in range(3):
        always.append({"op": "advance", "now": float(i)})
    assert always.fsyncs == 3
    always.close()

    never = WriteAheadLog(str(tmp_path / "n"), fsync="never")
    for i in range(3):
        never.append({"op": "advance", "now": float(i)})
    never.close()
    assert never.fsyncs == 0

    interval = WriteAheadLog(str(tmp_path / "i"), fsync="interval", fsync_every=4)
    for i in range(3):
        interval.append({"op": "advance", "now": float(i)})
    interval.sync()  # the checkpoint barrier forces one regardless
    assert interval.fsyncs >= 1
    interval.close()
    # everything written under every policy is replayable
    for sub in ("a", "n", "i"):
        records, _ = replay_wal(str(tmp_path / sub))
        assert len(records) == 3


def test_constructor_validation(tmp_path):
    with pytest.raises(ValueError, match="fsync mode"):
        WriteAheadLog(str(tmp_path), fsync="sometimes")
    with pytest.raises(ValueError, match="fsync_every"):
        WriteAheadLog(str(tmp_path), fsync_every=0)
    with pytest.raises(ValueError, match="segment_bytes"):
        WriteAheadLog(str(tmp_path), segment_bytes=0)


def test_append_after_close_raises(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="never")
    wal.close()
    with pytest.raises(WalError, match="closed"):
        wal.append({"op": "drain"})


def test_io_hook_error_leaves_log_usable(tmp_path):
    """An injected write error refuses the record, nothing else."""
    fail_next = {"on": False}

    def hook(op, seq):
        if op == "write" and fail_next["on"]:
            fail_next["on"] = False
            raise OSError("injected")

    wal = WriteAheadLog(str(tmp_path), fsync="never", io_hook=hook)
    wal.append({"op": "advance", "now": 1.0})
    fail_next["on"] = True
    with pytest.raises(OSError):
        wal.append({"op": "advance", "now": 2.0})
    assert wal.append({"op": "advance", "now": 3.0}) == 2
    wal.close()
    records, _ = replay_wal(str(tmp_path))
    assert [r.payload["now"] for r in records] == [1.0, 3.0]


def test_append_many_bytes_equal_sequential_appends(tmp_path):
    """Group commit is an I/O optimisation, not a format change.

    The same payloads through ``append_many`` and through one-at-a-time
    ``append`` leave byte-identical segment files (CRCs included) — the
    invariant the wire-protocol differential relies on — while paying
    one fsync barrier per batch instead of one per record.
    """
    payloads = [
        {"op": "submit", "job": [i, 0.5, float(i), float(i) + 1.0]}
        for i in range(20)
    ]

    one = WriteAheadLog(str(tmp_path / "one"), fsync="always")
    for p in payloads:
        one.append(p)
    one.close()

    many = WriteAheadLog(str(tmp_path / "many"), fsync="always")
    seqs = many.append_many(payloads[:8])
    seqs += many.append_many(payloads[8:])
    assert many.append_many([]) == []
    assert many.fsyncs == 2, "one barrier per batch is the group-commit payoff"
    many.close()

    assert seqs == list(range(1, 21))
    assert (
        open(wal_segments(str(tmp_path / "one"))[0], "rb").read()
        == open(wal_segments(str(tmp_path / "many"))[0], "rb").read()
    )
    records, torn = replay_wal(str(tmp_path / "many"))
    assert torn == 0
    assert [r.payload for r in records] == payloads


class _ShortWrite:
    """A segment file on a full disk: its first write stores half the bytes."""

    def __init__(self, f):
        self._f = f
        self.short = True

    def write(self, data):
        if self.short:
            self.short = False
            return self._f.write(data[: len(data) // 2])
        return self._f.write(data)

    def __getattr__(self, name):
        return getattr(self._f, name)


def test_short_write_is_refused_and_truncated(tmp_path):
    """A short count from the unbuffered write is a refusal, not an ack:
    the partial record is truncated away and the log numbers on."""
    wal = WriteAheadLog(str(tmp_path), fsync="never")
    acked, refused = [], 0
    for i in range(8):
        if i == 3:
            wal._file = _ShortWrite(wal._file)
        try:
            acked.append(wal.append({"op": "advance", "now": float(i)}))
        except OSError:
            refused += 1
    wal.close()
    assert refused == 1
    records, torn = replay_wal(str(tmp_path))
    assert torn == 0
    assert [r.seq for r in records] == acked == list(range(1, 8))


@pytest.mark.parametrize("defect", ["bit flip", "renamed segment"])
def test_reopen_refuses_what_is_not_a_torn_tail(tmp_path, defect):
    """Opening the log truncates only an undecodable suffix of the last
    segment; a defect with intact records after it, or a segment whose
    first record is not the one its name promises, is refused."""
    wal = WriteAheadLog(str(tmp_path), fsync="never")
    for i in range(10):
        wal.append({"op": "advance", "now": float(i)})
    wal.close()
    seg = wal_segments(str(tmp_path))[0]
    if defect == "bit flip":
        lines = open(seg, "rb").readlines()
        data = bytearray(b"".join(lines))
        data[sum(map(len, lines[:4])) + len(lines[4]) // 2] ^= 0x01  # record 5
        with open(seg, "wb") as f:
            f.write(data)
        match = "mid-log corruption"
    else:
        os.rename(seg, os.path.join(str(tmp_path), "wal-0000000003.log"))
        match = "its name promises 3"
    on_disk = [open(p, "rb").read() for p in wal_segments(str(tmp_path))]
    with pytest.raises(WalCorruptionError, match=match):
        WriteAheadLog(str(tmp_path), fsync="never")
    assert [open(p, "rb").read() for p in wal_segments(str(tmp_path))] == on_disk
    report = verify_wal_dir(str(tmp_path))
    assert not report["ok"]
    assert any(match in e for e in report["errors"]), report["errors"]


# -- offline verification (`repro wal verify`) --------------------------------
def _filled_wal(directory, n=12, segment_bytes=None):
    kwargs = {"fsync": "never"}
    if segment_bytes is not None:
        kwargs["segment_bytes"] = segment_bytes
    wal = WriteAheadLog(str(directory), **kwargs)
    for i in range(n):
        wal.append({"op": "advance", "now": float(i)})
    wal.close()


def test_verify_clean_directory(tmp_path):
    _filled_wal(tmp_path, n=12, segment_bytes=120)
    report = verify_wal_dir(str(tmp_path))
    assert report["ok"], report["errors"]
    assert report["records"] == 12
    assert report["first_seq"] == 1 and report["last_seq"] == 12
    assert len(report["segments"]) > 1, "rotation must be exercised"
    assert report["torn_tail_bytes"] == 0
    assert report["manifest"] == {"present": False, "fingerprint_ok": None}


def test_verify_tolerates_a_torn_tail(tmp_path):
    _filled_wal(tmp_path)
    seg = wal_segments(str(tmp_path))[-1]
    data = open(seg, "rb").read()
    with open(seg, "wb") as f:
        f.write(data[:-7])  # a crash half-wrote the final record
    report = verify_wal_dir(str(tmp_path))
    assert report["ok"], report["errors"]
    assert report["torn_tail_bytes"] > 0
    assert report["records"] == 11


def test_verify_flags_midlog_corruption(tmp_path):
    _filled_wal(tmp_path)
    seg = wal_segments(str(tmp_path))[0]
    data = bytearray(open(seg, "rb").read())
    data[10] ^= 0xFF  # bit rot inside the FIRST record
    with open(seg, "wb") as f:
        f.write(data)
    report = verify_wal_dir(str(tmp_path))
    assert not report["ok"]
    assert any("mid-log corruption" in e for e in report["errors"])
    assert report["torn_tail_bytes"] == 0, "this must NOT pass as a torn tail"


def test_verify_flags_a_sequence_gap(tmp_path):
    _filled_wal(tmp_path)
    seg = wal_segments(str(tmp_path))[0]
    lines = open(seg, "rb").readlines()
    with open(seg, "wb") as f:
        f.writelines(lines[:5] + lines[6:])  # record 6 vanished
    report = verify_wal_dir(str(tmp_path))
    assert not report["ok"]
    assert any("sequence gap" in e for e in report["errors"])


def test_verify_flags_unreadable_checkpoint_and_coverage_gap(tmp_path):
    import json as jsonlib

    from repro.service.snapshot import SNAPSHOT_VERSION

    _filled_wal(tmp_path)
    # rename the log so it claims to start at seq 7 and drop records 1-6:
    # the newest loadable checkpoint (wal_seq 5) no longer meets the log
    seg = wal_segments(str(tmp_path))[0]
    lines = open(seg, "rb").readlines()
    os.remove(seg)
    with open(os.path.join(str(tmp_path), "wal-0000000007.log"), "wb") as f:
        f.writelines(lines[6:])
    good = tmp_path / "checkpoint-0000000005.json"
    good.write_text(jsonlib.dumps(
        {"version": SNAPSHOT_VERSION, "wal_seq": 5, "engine": {}}
    ))
    bad = tmp_path / "checkpoint-0000000009.json"
    bad.write_text('{"version": 1, "wal_')
    report = verify_wal_dir(str(tmp_path))
    assert not report["ok"]
    assert any("unreadable checkpoint" in e for e in report["errors"])
    assert any("log coverage gap" in e for e in report["errors"])
    by_file = {c["file"]: c for c in report["checkpoints"]}
    assert by_file["checkpoint-0000000005.json"]["ok"]
    assert not by_file["checkpoint-0000000009.json"]["ok"]


def test_verify_checks_the_manifest_fingerprint(tmp_path):
    from repro.service.snapshot import config_fingerprint
    from repro.service.wal import write_manifest

    _filled_wal(tmp_path)
    config = {"algorithm": "first-fit", "capacity": 1.0, "kind": "scalar"}
    write_manifest(str(tmp_path), {
        "version": 1, "shard_id": 0, "num_shards": 1,
        "engine": config, "fingerprint": config_fingerprint(config),
    })
    report = verify_wal_dir(str(tmp_path))
    assert report["ok"], report["errors"]
    assert report["manifest"]["fingerprint_ok"] is True

    write_manifest(str(tmp_path), {
        "version": 1, "shard_id": 0, "num_shards": 1,
        "engine": config, "fingerprint": "deadbeefdeadbeef",
    })
    report = verify_wal_dir(str(tmp_path))
    assert not report["ok"]
    assert report["manifest"]["fingerprint_ok"] is False
    assert any("fingerprint" in e for e in report["errors"])


def test_wal_verify_cli_exit_codes(tmp_path, capsys):
    from repro.cli import main as cli_main

    _filled_wal(tmp_path)
    assert cli_main(["wal", "verify", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out

    assert cli_main(["wal", "verify", str(tmp_path), "--json", "-"]) == 0
    import json as jsonlib

    doc = jsonlib.loads(capsys.readouterr().out)
    assert doc["ok"] and doc["records"] == 12

    seg = wal_segments(str(tmp_path))[0]
    data = bytearray(open(seg, "rb").read())
    data[10] ^= 0xFF
    with open(seg, "wb") as f:
        f.write(data)
    assert cli_main(["wal", "verify", str(tmp_path)]) == 1
    assert "problem" in capsys.readouterr().out


def test_wal_verify_cli_on_a_missing_directory(tmp_path, capsys):
    from repro.cli import main as cli_main

    assert cli_main(["wal", "verify", str(tmp_path / "absent")]) == 1
    assert "is not a directory" in capsys.readouterr().out
