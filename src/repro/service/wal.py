"""A durable write-ahead log for the allocation service.

The paper's setting is irreversibly online: a server allocator that
loses its open-bin state on a crash cannot re-pack the past — usage
time is already billed, jobs already live on servers.  Checkpoints
(:mod:`repro.service.snapshot`) bound the loss to one interval; the WAL
closes the remaining window by appending every accepted operation
*before* it is applied, so crash recovery (:mod:`repro.service.recovery`)
can replay the tail and land bit-identical to an uninterrupted run.

On-disk layout (one directory, shared with the checkpoints):

``wal-<first_seq:010d>.log``
    One segment per file, named by the sequence number of its first
    record.  Rotation at :attr:`~WriteAheadLog.segment_bytes` keeps
    segments prunable: once a checkpoint covers a whole segment the
    file is deleted (:meth:`WriteAheadLog.prune`).

Each record is one line::

    <seq> <crc32 of "seq payload", 8 hex digits> <payload JSON>\n

The CRC detects torn writes and bit rot; the sequence number makes
replay idempotent against a checkpoint (records ``<= wal_seq`` of the
checkpoint are skipped).  A *torn tail* — a partial final record from a
crash mid-write — is expected and tolerated: replay stops at the first
undecodable record of the **last** segment, and reopening the log for
append truncates the torn bytes.  An undecodable record anywhere else
is real corruption and raises :class:`WalCorruptionError` — recovery
must not silently skip acknowledged operations.

Durability knobs (``fsync`` policy):

``"always"``
    ``fsync`` after every append — no acknowledged record can be lost,
    at the cost of one disk flush per request.
``"interval"``
    ``fsync`` every :attr:`~WriteAheadLog.fsync_every` appends (and on
    rotation/close) — bounds power-failure loss to the last interval.
    The flush itself runs on a *background thread* (the classic group
    -commit arrangement, e.g. Redis ``appendfsync everysec``): appends
    push bytes into the OS page cache and return, and the disk barrier
    proceeds in parallel, so the request path never waits on the
    platter.  The default.
``"never"``
    Leave flushing to the OS page cache — fastest, loses up to the
    cache window on power failure (still crash-safe against *process*
    death, since the file descriptor's writes survive).
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "FSYNC_MODES",
    "MANIFEST_NAME",
    "WalCorruptionError",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "read_manifest",
    "read_segment",
    "replay_wal",
    "verify_wal_dir",
    "wal_segments",
    "write_manifest",
]

FSYNC_MODES = ("never", "interval", "always")

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"

#: The WAL directory's identity card.  Written once when a shard first
#: claims the directory; recovery refuses to replay a log whose manifest
#: names a different shard or engine config (see
#: :func:`repro.service.recovery.recover` and ``repro.service.shard``).
#: Deliberately *outside* the WAL/checkpoint byte streams so that shard
#: identity never leaks into replayable state.
MANIFEST_NAME = "MANIFEST"

#: Default rotation threshold.  Segments are the unit of pruning, so
#: they should be small enough that a checkpoint usually retires a few.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


def read_manifest(directory: str) -> Optional[dict]:
    """Load the directory's MANIFEST, or ``None`` when it has none."""
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        return None
    except ValueError as exc:
        raise WalError(f"unreadable manifest {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise WalError(f"manifest {path} is not a JSON object")
    return doc


def write_manifest(directory: str, doc: dict) -> str:
    """Write the directory's MANIFEST atomically (tmp + ``os.replace``)."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, MANIFEST_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    return path


class WalError(Exception):
    """Base class for WAL failures."""


class WalCorruptionError(WalError):
    """An undecodable record *before* the tail — acknowledged data is gone."""


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    seq: int
    payload: dict[str, Any]


def _encode(seq: int, payload: "dict[str, Any] | str") -> bytes:
    """Encode one record line; ``payload`` may be pre-serialized JSON.

    The pre-serialized form is the hot-path contract with the durable
    engine: its submit path formats the payload with an f-string (2-3x
    faster than ``json.dumps`` for these small fixed-shape objects), and
    the CRC covers whatever text was actually written.
    """
    body = (
        payload
        if isinstance(payload, str)
        else json.dumps(payload, sort_keys=True, separators=(",", ":"))
    )
    encoded = body.encode()
    crc = zlib.crc32(b"%d " % seq)
    crc = zlib.crc32(encoded, crc)
    return b"%d %08x %s\n" % (seq, crc, encoded)


def _decode(line: bytes) -> WalRecord:
    """Decode one record line; raises ``ValueError`` on any defect."""
    if not line.endswith(b"\n"):
        raise ValueError("record line is not newline-terminated (torn write)")
    text = line[:-1].decode("utf-8")
    seq_text, crc_text, body = text.split(" ", 2)
    seq = int(seq_text)
    if f"{zlib.crc32(f'{seq} {body}'.encode()):08x}" != crc_text:
        raise ValueError(f"CRC mismatch on record {seq}")
    payload = json.loads(body)
    if not isinstance(payload, dict):
        raise ValueError(f"record {seq} payload is not an object")
    return WalRecord(seq, payload)


def _segment_path(directory: str, first_seq: int) -> str:
    return os.path.join(
        directory, f"{SEGMENT_PREFIX}{first_seq:010d}{SEGMENT_SUFFIX}"
    )


def wal_segments(directory: str) -> list[str]:
    """Paths of the WAL segments under ``directory``, in sequence order."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return [
        os.path.join(directory, name)
        for name in sorted(names)
        if name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)
    ]


def read_segment(path: str, *, tolerate_tail: bool = False) -> tuple[list[WalRecord], int]:
    """Decode one segment file.

    Returns ``(records, valid_bytes)`` where ``valid_bytes`` is the file
    offset up to which records decoded cleanly.  With ``tolerate_tail``
    a trailing undecodable region is accepted (the torn-write case);
    without it any defect raises :class:`WalCorruptionError`.
    """
    records: list[WalRecord] = []
    valid = 0
    with open(path, "rb") as f:
        data = f.read()
    offset = 0
    while offset < len(data):
        end = data.find(b"\n", offset)
        chunk = data[offset:] if end < 0 else data[offset : end + 1]
        try:
            records.append(_decode(chunk))
        except (ValueError, UnicodeDecodeError) as exc:
            if tolerate_tail:
                return records, valid
            raise WalCorruptionError(
                f"{os.path.basename(path)} at byte {offset}: {exc}"
            ) from exc
        offset += len(chunk)
        valid = offset
    return records, valid


def replay_wal(
    directory: str, after_seq: int = 0
) -> tuple[list[WalRecord], int]:
    """All records with ``seq > after_seq``, in order.

    Returns ``(records, torn_bytes)``.  Only the *last* segment may end
    in a torn tail (``torn_bytes`` counts the discarded bytes); a defect
    in any earlier segment raises :class:`WalCorruptionError`, as does a
    gap in the sequence numbers.  Opening a :class:`WriteAheadLog` runs
    this once over the whole log, and recovery replays what it found
    (:meth:`WriteAheadLog.take_records`) rather than reading it again.
    """
    segments = wal_segments(directory)
    out: list[WalRecord] = []
    torn = 0
    last_seq: Optional[int] = None
    for i, path in enumerate(segments):
        tail = i == len(segments) - 1
        records, valid = read_segment(path, tolerate_tail=tail)
        if tail:
            torn = os.path.getsize(path) - valid
        for rec in records:
            if last_seq is not None and rec.seq != last_seq + 1:
                raise WalCorruptionError(
                    f"sequence gap: record {rec.seq} follows {last_seq} "
                    f"in {os.path.basename(path)}"
                )
            last_seq = rec.seq
            if rec.seq > after_seq:
                out.append(rec)
    return out, torn


def verify_wal_dir(directory: str) -> dict:
    """Offline integrity scan of a WAL directory — no engine required.

    Audits everything recovery would rely on, without booting anything:

    - every segment record's CRC and newline termination (a torn tail
      on the **last** segment is reported, not flagged — recovery
      truncates it by design; torn bytes anywhere else are corruption);
    - sequence continuity across the whole log (gaps mean acknowledged
      operations are gone);
    - each checkpoint file parses and passes the schema-version gate;
    - the newest loadable checkpoint is actually covered by the log
      (the first surviving record must not start past ``wal_seq + 1``);
    - the MANIFEST, when present, is well-formed and its recorded
      ``fingerprint`` matches a recomputation over its ``engine``
      config (bit rot in the identity card would otherwise surface as
      a confusing refusal at the next boot).

    Returns a JSON-ready report dict; ``report["ok"]`` is the CLI's
    exit status (``repro wal verify`` maps it to rc 0/1).  Every
    problem found is a line in ``report["errors"]``.
    """
    report: dict[str, Any] = {
        "directory": directory,
        "ok": True,
        "segments": [],
        "records": 0,
        "first_seq": None,
        "last_seq": None,
        "torn_tail_bytes": 0,
        "checkpoints": [],
        "manifest": None,
        "errors": [],
    }

    def problem(text: str) -> None:
        report["ok"] = False
        report["errors"].append(text)

    if not os.path.isdir(directory):
        problem(f"{directory} is not a directory")
        return report

    # -- segments: CRCs, torn tails, sequence continuity ---------------------
    segments = wal_segments(directory)
    last_seq: Optional[int] = None
    for i, path in enumerate(segments):
        tail = i == len(segments) - 1
        name = os.path.basename(path)
        entry: dict[str, Any] = {
            "file": name,
            "records": 0,
            "first_seq": None,
            "last_seq": None,
            "torn_bytes": 0,
        }
        report["segments"].append(entry)
        with open(path, "rb") as f:
            data = f.read()
        # decode every line independently (read_segment stops at the
        # first defect; an audit wants the whole picture) so a CRC-bad
        # record *between* intact ones is distinguishable from a
        # genuinely torn tail
        decoded: list[tuple[int, WalRecord]] = []
        first_bad: Optional[int] = None
        first_bad_error = ""
        offset = 0
        while offset < len(data):
            end = data.find(b"\n", offset)
            chunk = data[offset:] if end < 0 else data[offset : end + 1]
            try:
                decoded.append((offset, _decode(chunk)))
            except (ValueError, UnicodeDecodeError) as exc:
                if first_bad is None:
                    first_bad = offset
                    first_bad_error = str(exc)
            offset += len(chunk)
        intact_after_bad = first_bad is not None and any(
            off > first_bad for off, _ in decoded
        )
        if first_bad is not None:
            if tail and not intact_after_bad:
                # undecodable suffix of the last segment: the torn-write
                # crash window recovery truncates by design
                entry["torn_bytes"] = len(data) - first_bad
                report["torn_tail_bytes"] = entry["torn_bytes"]
            else:
                problem(
                    f"{name} at byte {first_bad}: {first_bad_error}"
                    + (
                        " — intact records follow, so this is mid-log "
                        "corruption, not a torn tail"
                        if intact_after_bad
                        else ""
                    )
                )
        # account what recovery would actually replay: records up to
        # the first defect
        records = [
            rec
            for off, rec in decoded
            if first_bad is None or off < first_bad
        ]
        entry["records"] = len(records)
        if records:
            entry["first_seq"] = records[0].seq
            entry["last_seq"] = records[-1].seq
            if report["first_seq"] is None:
                report["first_seq"] = records[0].seq
            report["last_seq"] = records[-1].seq
            report["records"] += len(records)
        # a segment's filename promises its first record's sequence
        expected_first = int(name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)])
        if records and records[0].seq != expected_first:
            problem(
                f"{name} starts at seq {records[0].seq}, "
                f"its name promises {expected_first}"
            )
        for rec in records:
            if last_seq is not None and rec.seq != last_seq + 1:
                problem(
                    f"sequence gap: record {rec.seq} follows {last_seq} "
                    f"in {name}"
                )
            last_seq = rec.seq

    # -- checkpoints: parseable, version-gated, covered by the log -----------
    from .snapshot import check_version  # deferred: snapshot imports engine

    newest_good_seq: Optional[int] = None
    checkpoint_names = sorted(
        n
        for n in os.listdir(directory)
        if n.startswith("checkpoint-") and n.endswith(".json")
    )
    for name in checkpoint_names:
        path = os.path.join(directory, name)
        entry = {"file": name, "ok": False, "wal_seq": None}
        report["checkpoints"].append(entry)
        try:
            with open(path) as f:
                doc = json.load(f)
            if not isinstance(doc, dict):
                raise ValueError("checkpoint is not a JSON object")
            check_version(doc.get("version"))
            entry["wal_seq"] = int(doc["wal_seq"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem(f"unreadable checkpoint {name}: {exc}")
            continue
        entry["ok"] = True
        newest_good_seq = entry["wal_seq"]
    if (
        newest_good_seq is not None
        and report["first_seq"] is not None
        and report["first_seq"] > newest_good_seq + 1
    ):
        problem(
            f"log coverage gap: first surviving record is seq "
            f"{report['first_seq']} but the newest loadable checkpoint "
            f"only covers through seq {newest_good_seq}"
        )

    # -- MANIFEST: well-formed, fingerprint self-consistent ------------------
    try:
        manifest = read_manifest(directory)
    except WalError as exc:
        problem(str(exc))
        manifest = None
    if manifest is not None:
        entry = {"present": True, "fingerprint_ok": None}
        report["manifest"] = entry
        recorded = manifest.get("fingerprint")
        config = manifest.get("engine")
        if recorded is not None and isinstance(config, dict):
            from .snapshot import config_fingerprint

            entry["fingerprint_ok"] = config_fingerprint(config) == recorded
            if not entry["fingerprint_ok"]:
                problem(
                    f"MANIFEST fingerprint {recorded!r} does not match its "
                    f"own engine config (recomputed "
                    f"{config_fingerprint(config)!r})"
                )
    elif report["manifest"] is None:
        report["manifest"] = {"present": False, "fingerprint_ok": None}
    return report


class WriteAheadLog:
    """Append-only, CRC-checksummed, segment-rotated operation log.

    ``io_hook`` is the fault-injection seam: called as
    ``io_hook(op, seq)`` with ``op`` in ``("write", "fsync")`` before
    the matching I/O.  It may raise (an injected ``OSError`` leaves the
    record unwritten and the log usable), raise a kill exception, or
    return ``"tear"`` to make this *write* torn — the record's first
    half hits the disk and the kill propagates, which is exactly the
    crash window recovery must survive.
    """

    def __init__(
        self,
        directory: str,
        *,
        fsync: str = "interval",
        fsync_every: int = 512,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        io_hook: Optional[Callable[[str, int], Optional[str]]] = None,
    ):
        if fsync not in FSYNC_MODES:
            raise ValueError(
                f"fsync mode must be one of {FSYNC_MODES}, got {fsync!r}"
            )
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every}")
        if segment_bytes < 1:
            raise ValueError(f"segment_bytes must be >= 1, got {segment_bytes}")
        self.directory = directory
        self.fsync = fsync
        self.fsync_every = int(fsync_every)
        self.segment_bytes = int(segment_bytes)
        self.io_hook = io_hook
        # observability (mirrored into the metrics registry by the
        # durable engine)
        self.records_written = 0
        self.fsyncs = 0
        self.bytes_written = 0
        #: torn bytes truncated from the tail when the log was reopened
        self.recovered_torn_bytes = 0

        os.makedirs(directory, exist_ok=True)
        self._file = None
        self._segment_size = 0
        self._unsynced = 0
        self.last_seq = 0
        # background group-commit machinery ("interval" mode): the lock
        # covers the (file object, fsync) pair — the flusher must never
        # fsync a descriptor the writer is rotating or closing
        self._fd_lock = threading.Lock()
        self._fsync_due = threading.Event()
        self._stopping = False
        self._flusher: Optional[threading.Thread] = None
        self._open_tail()

    # -- opening / rotation ---------------------------------------------------
    def _open_tail(self) -> None:
        """Resume the existing log: truncate a torn tail, continue appending.

        Every record on disk is decoded here, by :func:`replay_wal` and
        with all of its checks, and kept until recovery takes it
        (:meth:`take_records`), so a recovery decodes each record once.
        """
        segments = wal_segments(self.directory)
        self._found, torn = replay_wal(self.directory)
        if self._found:
            self.last_seq = self._found[-1].seq
        if torn:
            self.recovered_torn_bytes = torn
            with open(segments[-1], "r+b") as f:
                f.truncate(os.path.getsize(segments[-1]) - torn)
        if segments:
            # unbuffered: each append is one raw write straight into the
            # OS page cache — no userspace buffer to flush or lose
            self._file = open(segments[-1], "ab", buffering=0)
            self._segment_size = os.path.getsize(segments[-1])
        else:
            self._start_segment(1)

    def take_records(self, after_seq: int) -> list[WalRecord]:
        """The records found on disk at open with ``seq > after_seq``.

        What :func:`replay_wal` would return for the directory as it was
        opened; the log drops its own reference, so a second call
        returns ``[]``.
        """
        found, self._found = self._found, []
        return [rec for rec in found if rec.seq > after_seq]

    def _start_segment(self, first_seq: int) -> None:
        with self._fd_lock:
            if self._file is not None:
                self._flush(force=self.fsync != "never")
                self._file.close()
            self._file = open(
                _segment_path(self.directory, first_seq), "ab", buffering=0
            )
            self._segment_size = 0

    # -- the write path -------------------------------------------------------
    def append(self, payload: "dict[str, Any] | str") -> int:
        """Durably record one operation; returns its sequence number.

        ``payload`` is a JSON object, either as a dict or pre-serialized
        text (the hot-path form — see :func:`_encode`).  The record is
        on disk (subject to the fsync policy) when this returns.  On an
        injected/real ``OSError`` nothing is logged and the caller must
        *not* apply the operation.
        """
        if self._file is None:
            raise WalError("write-ahead log is closed")
        seq = self.last_seq + 1
        data = _encode(seq, payload)
        if self._segment_size > 0 and self._segment_size + len(data) > self.segment_bytes:
            self._start_segment(seq)
        if self.io_hook is not None:
            if self.io_hook("write", seq) == "tear":
                # simulate a crash mid-write: half the record reaches
                # the disk, then the process dies (the hook's kill
                # fires below)
                self._file.write(data[: max(1, len(data) // 2)])
                self.io_hook("torn", seq)
                raise WalError(f"torn write injected at record {seq}")
        self._file.write(data)
        self.last_seq = seq
        self.records_written += 1
        self.bytes_written += len(data)
        self._segment_size += len(data)
        self._unsynced += 1
        if self.fsync == "always":
            self._flush(force=True)
        elif self.fsync == "interval" and self._unsynced >= self.fsync_every:
            if self._flusher is None:
                # started lazily: a log that never accumulates an
                # interval's worth of records never needs the thread
                self._flusher = threading.Thread(
                    target=self._flusher_loop, name="wal-fsync", daemon=True
                )
                self._flusher.start()
            self._fsync_due.set()
        return seq

    def append_many(self, payloads) -> list[int]:
        """Durably record a batch of operations; returns their sequences.

        One pipelined client batch becomes **one write and one fsync
        window**: the records are encoded, written with a single
        ``write`` call, and the durability policy is consulted once for
        the whole batch — under ``fsync="always"`` that is one barrier
        instead of ``len(payloads)``, which is the group-commit payoff.
        The record bytes on disk are identical to the same payloads
        appended one at a time (rotation happens on batch boundaries
        rather than mid-batch, so only segment *placement* can differ).

        Fault semantics (the ``io_hook`` seam): every injected fault is
        resolved *before* any byte is written, so an injected ``OSError``
        refuses the batch atomically — nothing is logged, the caller
        must not apply any of it.  A ``"tear"`` at record *k* writes
        records ``0..k-1`` whole plus half of record *k* and then dies,
        exactly the crash window a torn single append leaves behind.
        """
        if self._file is None:
            raise WalError("write-ahead log is closed")
        if not payloads:
            return []
        first = self.last_seq + 1
        blobs = [_encode(first + i, payload) for i, payload in enumerate(payloads)]
        total = sum(len(b) for b in blobs)
        if self._segment_size > 0 and self._segment_size + total > self.segment_bytes:
            self._start_segment(first)
        if self.io_hook is not None:
            tear_at = None
            for i in range(len(blobs)):
                if self.io_hook("write", first + i) == "tear":
                    tear_at = i
                    break
            if tear_at is not None:
                torn = blobs[tear_at]
                self._file.write(
                    b"".join(blobs[:tear_at]) + torn[: max(1, len(torn) // 2)]
                )
                self.io_hook("torn", first + tear_at)
                raise WalError(f"torn write injected at record {first + tear_at}")
        data = b"".join(blobs)
        self._file.write(data)
        self.last_seq = first + len(blobs) - 1
        self.records_written += len(blobs)
        self.bytes_written += len(data)
        self._segment_size += len(data)
        self._unsynced += len(blobs)
        if self.fsync == "always":
            self._flush(force=True)
        elif self.fsync == "interval" and self._unsynced >= self.fsync_every:
            if self._flusher is None:
                self._flusher = threading.Thread(
                    target=self._flusher_loop, name="wal-fsync", daemon=True
                )
                self._flusher.start()
            self._fsync_due.set()
        return list(range(first, self.last_seq + 1))

    def _flush(self, force: bool) -> None:
        assert self._file is not None
        if force:
            if self.io_hook is not None:
                self.io_hook("fsync", self.last_seq)
            os.fsync(self._file.fileno())
            self.fsyncs += 1
        self._unsynced = 0

    def _flusher_loop(self) -> None:
        """Background group commit: fsync when an interval's worth is due.

        Runs ``os.fsync`` off the request path (the GIL is released for
        the syscall's duration, so appends proceed in parallel).  The
        fault-injection ``io_hook`` is *not* consulted here — injected
        I/O faults stay on the deterministic synchronous paths.
        """
        while True:
            self._fsync_due.wait()
            self._fsync_due.clear()
            if self._stopping:
                return
            with self._fd_lock:
                if self._stopping or self._file is None:
                    return
                covered = self._unsynced
                try:
                    os.fsync(self._file.fileno())
                except (OSError, ValueError):  # pragma: no cover - racing close
                    continue
                self.fsyncs += 1
                self._unsynced = max(0, self._unsynced - covered)

    def sync(self) -> None:
        """Force a synchronous fsync regardless of policy (checkpoint barrier)."""
        with self._fd_lock:
            if self._file is not None:
                self._flush(force=True)

    # -- maintenance ----------------------------------------------------------
    def prune(self, upto_seq: int) -> int:
        """Delete whole segments entirely covered by ``upto_seq``.

        A segment is removable when the *next* segment starts at or
        below ``upto_seq + 1`` — i.e. every record in it is already
        captured by a checkpoint.  Returns the number of files removed.
        """
        segments = wal_segments(self.directory)
        removed = 0
        for path, nxt in zip(segments, segments[1:]):
            name = os.path.basename(nxt)
            first_of_next = int(name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)])
            if first_of_next <= upto_seq + 1:
                os.remove(path)
                removed += 1
            else:
                break
        return removed

    def close(self) -> None:
        self._stopping = True
        if self._flusher is not None:
            self._fsync_due.set()
            self._flusher.join(timeout=5.0)
            self._flusher = None
        with self._fd_lock:
            if self._file is not None:
                self._flush(force=self.fsync != "never")
                self._file.close()
                self._file = None
