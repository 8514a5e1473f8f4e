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
``checkpoint-<wal_seq:010d>.json``
    A checkpoint covering every record ``<= wal_seq``
    (:mod:`repro.service.recovery` writes them, :func:`checkpoint_files`
    lists them).

Each record is one line::

    <seq> <crc32 of "seq payload", 8 hex digits> <payload JSON>\n

The CRC detects torn writes and bit rot; the sequence number makes
replay idempotent against a checkpoint (records ``<= wal_seq`` of the
checkpoint are skipped).  Every reader of the directory — replay,
reopening the log for append, and the offline audit — goes through one
scanner (:func:`_scan`) with one rule set:

- each record has a valid CRC, a trailing newline and a JSON object;
- undecodable bytes are allowed only as a suffix of the **last**
  segment with no intact record after them: the *torn tail* a crash
  mid-write leaves, which reopening the log truncates;
- sequence numbers are contiguous across the whole log;
- a segment's first record carries the sequence number in its name.

Anything else is corruption and raises :class:`WalCorruptionError` —
recovery must not silently skip acknowledged operations.  The log
resumes one past its last record, and never below the live segment's
name (:func:`_resume_seq`), so a live segment left empty by a refused
write still numbers the next record correctly.

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
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = [
    "FSYNC_MODES",
    "MANIFEST_NAME",
    "WalCorruptionError",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "checkpoint_files",
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
CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".json"

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
    """The log breaks a rule of the scanner — acknowledged data is gone."""


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


def _segment_seq(path: str) -> int:
    """The sequence number a segment's file name promises its first record."""
    name = os.path.basename(path)
    return int(name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)])


def _listing(directory: str, prefix: str, suffix: str) -> list[str]:
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return [
        os.path.join(directory, name)
        for name in sorted(names)
        if name.startswith(prefix) and name.endswith(suffix)
    ]


def wal_segments(directory: str) -> list[str]:
    """Paths of the WAL segments under ``directory``, in sequence order."""
    return _listing(directory, SEGMENT_PREFIX, SEGMENT_SUFFIX)


def checkpoint_files(directory: str) -> list[str]:
    """Paths of the checkpoints under ``directory``, oldest first."""
    return _listing(directory, CHECKPOINT_PREFIX, CHECKPOINT_SUFFIX)


class _Segment:
    """What one pass over a segment file found (see :func:`_read_segment`)."""

    __slots__ = ("records", "count", "first_seq", "last_seq", "gaps", "defect",
                 "torn", "size")

    def __init__(self) -> None:
        #: the records kept: those past the scan's ``keep_after``
        self.records: list[WalRecord] = []
        #: records decoded before the first defect, and their first and
        #: last sequence numbers
        self.count = 0
        self.first_seq: Optional[int] = None
        self.last_seq: Optional[int] = None
        #: ``(previous seq, seq)`` of every break in the numbering
        self.gaps: list[tuple[int, int]] = []
        #: ``None``, or a description of the first undecodable chunk
        self.defect: Optional[str] = None
        #: bytes from that chunk to the end of the file, or 0 when an
        #: intact record follows it (the defect is then not a suffix)
        self.torn = 0
        #: bytes read
        self.size = 0


def _read_segment(f, keep_after: Optional[int]) -> _Segment:
    """Decode an open segment file line by line, up to its first defect.

    Every record is decoded (CRC and JSON checked) once, and kept only
    when its sequence number is past ``keep_after`` (``None`` keeps
    none), so what stays resident follows the records asked for, not
    the segment.  Reading stops at the first intact record after an
    undecodable chunk: the defect is then mid-log corruption, not a
    torn tail.
    """
    out = _Segment()
    bad: Optional[tuple[int, Exception]] = None
    prev: Optional[int] = None
    offset = 0
    for chunk in f:  # one record per line; the last may lack its newline
        try:
            rec = _decode(chunk)
        except (ValueError, UnicodeDecodeError) as exc:
            if bad is None:
                bad = (offset, exc)
        else:
            if bad is not None:
                out.defect = (
                    f"at byte {bad[0]}: {bad[1]} — intact records follow, so "
                    f"this is mid-log corruption, not a torn tail"
                )
                break
            seq = rec.seq
            if prev is None:
                out.first_seq = seq
            elif seq != prev + 1:
                out.gaps.append((prev, seq))
            prev = seq
            out.count += 1
            if keep_after is not None and seq > keep_after:
                out.records.append(rec)
        offset += len(chunk)
    else:
        if bad is not None:
            out.defect = f"at byte {bad[0]}: {bad[1]}"
            out.torn = offset - bad[0]
    out.last_seq = prev
    out.size = offset
    return out


def _scan(
    directory: str, problem: Callable[[str], None],
    keep_after: Optional[int] = None,
) -> list[tuple[str, _Segment]]:
    """The one reader of a log directory, under the module's rule set.

    Returns ``(path, segment)`` per segment file, in order: what
    :func:`_read_segment` found in it, keeping the records past
    ``keep_after``, with the torn tail counted on the last segment
    only.  Each broken rule is passed to ``problem`` as one line of
    text; :func:`replay_wal` raises on the first, :func:`verify_wal_dir`
    collects them all.  With ``keep_after`` given, a log whose last
    record falls below it breaks one more rule: it has lost what was
    logged after the checkpoint that covers ``keep_after``, or
    numbered it as covered.
    """
    out = []
    segments = wal_segments(directory)
    expect: Optional[int] = None  # the seq the next record must carry
    last: Optional[int] = None  # the last record's seq so far
    for path in segments:
        name = os.path.basename(path)
        with open(path, "rb") as f:
            found = _read_segment(f, keep_after)
        if found.defect is not None and (path != segments[-1] or not found.torn):
            problem(f"{name} {found.defect}")
            found.torn = 0
        first = _segment_seq(path)
        if expect is not None and first != expect:
            problem(f"sequence gap: {name} follows record {expect - 1}")
        if found.count and found.first_seq != first:
            problem(
                f"{name} starts at seq {found.first_seq}, its name promises "
                f"{first}"
                + (
                    f" — records {first}..{found.first_seq - 1} are gone; "
                    f"acknowledged operations missing"
                    if found.first_seq > first
                    else ""
                )
            )
        for prev, seq in found.gaps:
            problem(f"sequence gap: record {seq} follows {prev} in {name}")
        if found.count:
            last = found.last_seq
        expect = last + 1 if found.count else first
        out.append((path, found))
    if keep_after is not None and last is not None and last < keep_after:
        problem(
            f"WAL ends at seq {last} but the newest loadable checkpoint "
            f"covers through seq {keep_after} — what was logged after it "
            f"is missing or numbered as covered by it; refusing to recover "
            f"with acknowledged operations missing"
        )
    return out


def _resume_seq(segments: list[str], last_seq: Optional[int]) -> int:
    """The resume rule: the sequence number the log's next record gets.

    One past the last record on disk, and never below the live
    segment's name.  A write refused right after rotation leaves the
    new segment empty, and a checkpoint may then prune every older
    one: the name is all that still says where the log stands.
    """
    live = _segment_seq(segments[-1]) if segments else 1
    return max(live, (last_seq or 0) + 1)


def _refuse(text: str) -> None:
    raise WalCorruptionError(text)


def read_segment(path: str) -> tuple[list[WalRecord], int]:
    """Decode one segment file; any defect raises :class:`WalCorruptionError`.

    Returns ``(records, valid_bytes)`` where ``valid_bytes`` is the
    size of the file, every byte of which decoded.
    """
    with open(path, "rb") as f:
        found = _read_segment(f, 0)
    if found.defect is not None:
        _refuse(f"{os.path.basename(path)} {found.defect}")
    return found.records, found.size


def replay_wal(
    directory: str, after_seq: int = 0
) -> tuple[list[WalRecord], int]:
    """All records with ``seq > after_seq``, in order.

    Returns ``(records, torn_bytes)``.  Only the *last* segment may end
    in a torn tail (``torn_bytes`` counts the discarded bytes); any
    other defect the module's rule set names raises
    :class:`WalCorruptionError`, and so does a log whose last record
    falls below ``after_seq``.  Every record is decoded once and only
    those past ``after_seq`` are kept.  Opening a
    :class:`WriteAheadLog` runs this once over the whole log, and
    recovery replays what it kept (:meth:`WriteAheadLog.take_records`)
    rather than reading it again.
    """
    segments = _scan(directory, _refuse, after_seq)
    records = [rec for _, found in segments for rec in found.records]
    return records, segments[-1][1].torn if segments else 0


def verify_wal_dir(directory: str) -> dict:
    """Offline integrity scan of a WAL directory — no engine required.

    Audits everything recovery would rely on, without booting anything:

    - every rule of the module's scanner, over every segment: CRCs and
      newlines (a torn tail on the **last** segment is reported, not
      flagged — reopening the log truncates it by design), sequence
      continuity, and each segment's first record against its name;
    - each checkpoint file passes :func:`~repro.service.snapshot.read_checkpoint`
      (it parses and passes the schema-version gate);
    - the newest loadable checkpoint is actually covered by the log
      (the first surviving record, or the resume point of a log with
      none, must not start past ``wal_seq + 1``);
    - the log resumes past that checkpoint: ``resume_seq`` is where
      the log numbers its next record (:func:`_resume_seq`), and a log
      resuming at or below the checkpoint's ``wal_seq`` has lost what
      was logged after it, or numbered it as covered;
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
        "resume_seq": 1,
        "torn_tail_bytes": 0,
        "checkpoints": [],
        "manifest": {"present": False, "fingerprint_ok": None},
        "errors": [],
    }

    def problem(text: str) -> None:
        report["ok"] = False
        report["errors"].append(text)

    if not os.path.isdir(directory):
        problem(f"{directory} is not a directory")
        return report

    # -- segments: the scanner's rules, and what recovery would replay -------
    segments = _scan(directory, problem)
    for path, found in segments:
        report["segments"].append({
            "file": os.path.basename(path),
            "records": found.count,
            "first_seq": found.first_seq,
            "last_seq": found.last_seq,
            "torn_bytes": found.torn,
        })
        if found.count:
            report["records"] += found.count
            if report["first_seq"] is None:
                report["first_seq"] = found.first_seq
            report["last_seq"] = found.last_seq
    if segments:
        report["torn_tail_bytes"] = segments[-1][1].torn
    report["resume_seq"] = _resume_seq(
        [path for path, _ in segments], report["last_seq"]
    )

    # -- checkpoints: loadable, covered by the log, behind its resume point --
    # deferred: snapshot imports the engine
    from .snapshot import config_fingerprint, read_checkpoint

    newest_good_seq: Optional[int] = None
    for path in checkpoint_files(directory):
        name = os.path.basename(path)
        entry = {"file": name, "ok": False, "wal_seq": None}
        report["checkpoints"].append(entry)
        try:
            entry["wal_seq"] = int(read_checkpoint(path)["wal_seq"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem(f"unreadable checkpoint {name}: {exc}")
            continue
        entry["ok"] = True
        newest_good_seq = entry["wal_seq"]
    if newest_good_seq is not None:
        # an empty log starts where it resumes
        start = report["first_seq"] or report["resume_seq"]
        if start > newest_good_seq + 1:
            problem(
                f"log coverage gap: first surviving record is seq "
                f"{start} but the newest loadable checkpoint "
                f"only covers through seq {newest_good_seq}"
            )
        if report["resume_seq"] <= newest_good_seq:
            problem(
                f"log resumes at seq {report['resume_seq']}, at or below "
                f"the newest loadable checkpoint's wal_seq {newest_good_seq}: "
                f"what was logged after that checkpoint is missing or "
                f"numbered as covered by it"
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
            entry["fingerprint_ok"] = config_fingerprint(config) == recorded
            if not entry["fingerprint_ok"]:
                problem(
                    f"MANIFEST fingerprint {recorded!r} does not match its "
                    f"own engine config (recomputed "
                    f"{config_fingerprint(config)!r})"
                )
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
        _after_seq: int = 0,
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
        self._open_tail(_after_seq)

    # -- opening / rotation ---------------------------------------------------
    def _open_tail(self, after_seq: int) -> None:
        """Resume the existing log: truncate a torn tail, continue appending.

        Every record on disk is decoded here, by :func:`replay_wal` and
        with all of its checks, and those past ``after_seq`` (the wal_seq
        of the checkpoint recovery restored; ``_after_seq`` in the
        constructor) are kept until recovery takes them
        (:meth:`take_records`), so a recovery decodes each record once
        and holds only the tail it replays.
        """
        segments = wal_segments(self.directory)
        self._found, torn = replay_wal(self.directory, after_seq)
        if not segments:
            self._start_segment(1)
            return
        if torn:
            self.recovered_torn_bytes = torn
            with open(segments[-1], "r+b") as f:
                f.truncate(os.path.getsize(segments[-1]) - torn)
        # unbuffered: each append is one raw write straight into the OS
        # page cache — no userspace buffer to flush or lose
        self._file = open(segments[-1], "ab", buffering=0)
        self._segment_size = os.path.getsize(segments[-1])
        if self._found:
            last = self._found[-1].seq
        elif self._segment_size:
            # records on disk, none kept: the scan refuses a log ending
            # below after_seq, so the live segment ends exactly there
            last = after_seq
        else:
            # no record in the live segment: by the gap rule any older
            # segment ends one below its name, which the resume rule
            # reads instead
            last = None
        self.last_seq = _resume_seq(segments, last) - 1

    def take_records(self) -> list[WalRecord]:
        """The records found on disk at open.

        What :func:`replay_wal` returned for the directory as it was
        opened; the log drops its own reference, so a second call
        returns ``[]``.
        """
        found, self._found = self._found, []
        return found

    def resume_after(self, seq: int) -> None:
        """Number the next record past ``seq``, a restored checkpoint's ``wal_seq``.

        The resume rule's second half.  A log that ends below the
        checkpoint it is recovered from (a directory holding only the
        checkpoint) would number new records at or below ``wal_seq``,
        and the next recovery would skip them as covered.  The log
        continues instead in a segment named ``seq + 1``, and the
        segments the checkpoint covers are pruned.
        """
        if seq <= self.last_seq:
            return
        self.last_seq = seq
        self._start_segment(seq + 1)
        self.prune(seq)

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
        seq = self.last_seq + 1
        return self._write(seq, 1, _encode(seq, payload))

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
        An ``OSError`` refuses the batch atomically — nothing is
        logged, the caller must not apply any of it.
        """
        first = self.last_seq + 1
        data = b"".join(
            [_encode(first + i, payload) for i, payload in enumerate(payloads)]
        )
        return list(range(first, self._write(first, len(payloads), data) + 1))

    def _write(self, first: int, n: int, data: bytes) -> int:
        """The one write body: ``n`` encoded records, one line each, in one write.

        Returns the last sequence number written.

        Fault semantics (the ``io_hook`` seam): the hook is consulted
        once per record before any byte is written, so an injected
        ``OSError`` refuses the whole write.  A ``"tear"`` at record *k*
        writes records ``0..k-1`` whole plus half of record *k* and
        then dies — the crash window recovery must survive.  A short
        write (a full disk stores part of the buffer) is truncated
        away and refused with ``OSError``, ``last_seq`` unchanged: an
        acknowledged record must never sit behind a partial one.
        """
        if self._file is None:
            raise WalError("write-ahead log is closed")
        if not n:
            return self.last_seq
        size = len(data)
        if self._segment_size > 0 and self._segment_size + size > self.segment_bytes:
            self._start_segment(first)
        if self.io_hook is not None:
            for i in range(n):
                if self.io_hook("write", first + i) == "tear":
                    # simulate a crash mid-write: the records before this
                    # one and half of it reach the disk, then the process
                    # dies (the hook's kill fires below)
                    lines = data.split(b"\n")  # one record per line
                    whole = sum(len(line) + 1 for line in lines[:i])
                    self._file.write(
                        data[: whole + max(1, (len(lines[i]) + 1) // 2)]
                    )
                    self.io_hook("torn", first + i)
                    raise WalError(f"torn write injected at record {first + i}")
        written = self._file.write(data)
        if written != size:
            self._file.truncate(self._segment_size)
            raise OSError(
                f"short write: {written} of {size} bytes for records "
                f"{first}..{first + n - 1}; truncated and refused"
            )
        self.last_seq = first + n - 1
        self.records_written += n
        self.bytes_written += size
        self._segment_size += size
        self._unsynced += n
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
        return self.last_seq

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
            if _segment_seq(nxt) <= upto_seq + 1:
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
