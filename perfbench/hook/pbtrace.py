"""Span recorder for the benchmark's traced runs.

Installed at interpreter start by the ``sitecustomize`` module next to
this file, in every process under test (the batch child, ``repro
serve``, ``repro fleet`` and the workers it spawns), when the
environment names a trace directory in ``PERFBENCH_TRACE_DIR``.
Nothing in the repository is edited: the public functions listed in
:data:`TARGETS` are replaced, on their module or class, by wrappers
that time each call.

Each wrapped call is a *span*: name, start, end, parent span and, when
the call carries one, a job id.  Spans are kept in memory and written
to ``<trace dir>/spans-<pid>.json`` when the process exits, together
with exact per-name aggregates (count, wall time, self time).  Self
time is a span's own running time minus the running time of the spans
nested in it, so summing self time over every span of a process never
counts a microsecond twice.

Coroutines (the server's reply writer, the router's frame handler) are
timed step by step: a span's running time is the sum of the slices in
which its coroutine actually executes, and the time it sits suspended
on the network is excluded.  A child span run from a task the parent
spawned (``asyncio.gather``) is not nested in the parent's running
time, so it counts as top level.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import json
import os
import signal
import sys
import threading
from time import perf_counter

#: raw span records kept per process; aggregates stay exact beyond it
SPAN_CAP = 200_000

_cur = contextvars.ContextVar("perfbench_span", default=None)


class _Frame:
    __slots__ = ("nid", "sid", "parent", "child", "executing", "calls", "kids", "leaves")

    def __init__(self, nid, sid, parent):
        self.nid = nid
        self.sid = sid
        self.parent = parent
        self.child = 0.0  # running time of nested spans
        self.executing = True
        self.calls = 0
        self.kids = 0  # nested spans closed while this one ran
        self.leaves = 0  # nested leaf calls


class Recorder:
    """Per-process span store and aggregates."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: per name id: [count, wall, self, extra, longest wall]
        self.agg: list[list] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_sid = 0
        #: per thread: [first start, last end, top-level running time, idle]
        self.threads: dict[int, list] = {}
        self.main_ident = threading.main_thread().ident
        #: [job id, handling wall seconds, reply-write wall seconds] per
        #: server frame, [job id, wall seconds, 0] per router frame
        self.frames: list[tuple] = []
        self.counters: dict[str, float] = {}
        #: seconds of tracer bookkeeping a parent absorbs per nested span
        #: and per nested leaf call (see :func:`_calibrate`)
        self.cost = [0.0, 0.0]
        #: bookkeeping subtracted from self times, in seconds
        self.overhead = 0.0
        self._dumped = False
        self._lock = threading.Lock()

    def nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.agg.append([0, 0.0, 0.0, 0.0, 0.0])
        return nid

    def open(self, nid: int):
        parent = _cur.get()
        self._next_sid += 1
        return _Frame(nid, self._next_sid, parent)

    def _top(self, start: float, end: float, running: float, idle: bool) -> None:
        ident = threading.get_ident()
        slot = self.threads.get(ident)
        if slot is None:
            slot = self.threads[ident] = [start, end, 0.0, 0.0]
        if start < slot[0]:
            slot[0] = start
        if end > slot[1]:
            slot[1] = end
        slot[2] += running
        if idle:
            slot[3] += running

    def step(self, frame: _Frame, start: float, end: float, idle: bool = False) -> None:
        """Charge ``[start, end]`` of ``frame``'s running time to its parent."""
        parent = frame.parent
        if parent is not None and parent.executing:
            parent.child += end - start
        else:
            self._top(start, end, end - start, idle)

    def close(self, frame: _Frame, start: float, end: float, running: float,
              job=None, extra: float = 0.0) -> None:
        parent = frame.parent
        if parent is not None and parent.executing:
            parent.kids += 1
        charged = frame.kids * self.cost[0] + frame.leaves * self.cost[1]
        self.overhead += charged
        row = self.agg[frame.nid]
        row[0] += 1
        row[1] += end - start
        row[2] += running - frame.child - charged
        row[3] += extra
        if end - start > row[4]:
            row[4] = end - start
        if len(self.spans) < SPAN_CAP:
            self.spans.append((
                frame.nid, start, end,
                parent.sid if parent is not None else 0, frame.sid, job,
            ))
        else:
            self.dropped += 1

    def leaf(self, nid: int, start: float, end: float) -> None:
        """A call too small and too frequent for a span record."""
        row = self.agg[nid]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start
        parent = _cur.get()
        if parent is not None and parent.executing:
            parent.child += end - start
            parent.leaves += 1
        else:
            self._top(start, end, end - start, False)

    def idle(self, nid: int, start: float, end: float) -> None:
        """Time the event loop spent waiting for input: no layer's."""
        row = self.agg[nid]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start
        self._top(start, end, end - start, True)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def dump(self) -> None:
        with self._lock:
            if self._dumped:
                return
            self._dumped = True
        main = self.threads.get(self.main_ident, [0.0, 0.0, 0.0, 0.0])
        doc = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "agg": dict(zip(self.names, self.agg)),
            "main_thread": {
                "first": main[0], "last": main[1],
                "covered": main[2], "idle": main[3],
            },
            "frames": self.frames,
            "counters": self.counters,
            "tracer": {"cost_per_span_s": self.cost[0], "cost_per_leaf_s": self.cost[1],
                       "overhead_s": self.overhead},
            "spans_dropped": self.dropped,
            "span_fields": ["name", "start", "end", "parent", "sid", "job"],
            "spans": self.spans,
        }
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(doc, f)
        os.replace(tmp, path)


REC: Recorder | None = None


# -- wrappers ------------------------------------------------------------------
def _sync(fn, nid, job_of=None, on_close=None, frame_log=False):
    rec = REC

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.open(nid)
        token = _cur.set(frame)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            _cur.reset(token)
            frame.executing = False
            rec.step(frame, start, end)
            job = job_of(args) if job_of is not None else None
            extra = 0.0
            if on_close is not None:
                extra = on_close(args, result, frame, end - start) or 0.0
            rec.close(frame, start, end, end - start, job, extra)
            if frame_log:
                rec.frames.append([job, end - start, 0.0])

    return wrapper


class _Timed:
    """Drive a coroutine step by step, timing only the steps."""

    __slots__ = ("coro", "nid", "job", "on_close", "args")

    def __init__(self, coro, nid, job, on_close, args):
        self.coro = coro
        self.nid = nid
        self.job = job
        self.on_close = on_close
        self.args = args

    def __await__(self):
        rec = REC
        coro = self.coro
        frame = rec.open(self.nid)
        start = perf_counter()
        running = 0.0
        value = None
        error = None
        while True:
            token = _cur.set(frame)
            frame.executing = True
            t0 = perf_counter()
            try:
                if error is not None:
                    exc, error = error, None
                    yielded = coro.throw(exc)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                t1 = perf_counter()
                self._finish(rec, frame, token, start, t0, t1, running + t1 - t0,
                             stop.value)
                return stop.value
            except BaseException:
                t1 = perf_counter()
                self._finish(rec, frame, token, start, t0, t1, running + t1 - t0,
                             None)
                raise
            t1 = perf_counter()
            running += t1 - t0
            frame.executing = False
            _cur.reset(token)
            rec.step(frame, t0, t1)
            try:
                value = yield yielded
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # cancellation and friends: forward
                error = exc
                value = None

    def _finish(self, rec, frame, token, start, t0, t1, running, result):
        frame.executing = False
        _cur.reset(token)
        rec.step(frame, t0, t1)
        extra = 0.0
        if self.on_close is not None:
            extra = self.on_close(self.args, result, frame, t1 - start) or 0.0
        rec.close(frame, start, t1, running, self.job, extra)


def _async(fn, nid, job_of=None, on_close=None):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        job = job_of(args) if job_of is not None else None
        return await _Timed(fn(*args, **kwargs), nid, job, on_close, args)

    return wrapper


def _leaf(fn, nid):
    rec = REC

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leaf(nid, start, perf_counter())

    return wrapper


def _idle(fn, nid):
    rec = REC

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.idle(nid, start, perf_counter())

    return wrapper


def _value_property(nid):
    """Count and time every store to a metric instrument's ``value``.

    The engine writes ``counter.value += 1.0`` directly on its hot path
    (no method call to wrap); a data descriptor on the class sees those
    stores as well as the ones ``inc``/``set``/``dec`` make.
    """
    rec = REC

    def get(self):
        return self.__dict__["value"]

    def put(self, value):
        start = perf_counter()
        self.__dict__["value"] = value
        rec.leaf(nid, start, perf_counter())

    return property(get, put)


# -- job ids, straight from the arguments --------------------------------------
def _item_id(args):
    return getattr(args[1], "item_id", None) if len(args) > 1 else None


def _plain_id(args):
    return args[1] if len(args) > 1 and isinstance(args[1], int) else None


def _frame_job(args):
    """First job id in a binary request frame (submit/depart or a batch)."""
    payload = args[1] if len(args) > 1 else b""
    try:
        op = payload[0]
        if op in (0x01, 0x02):
            return int.from_bytes(payload[2:10], "big", signed=True)
        if op == 0x10 and len(payload) >= 19 and payload[9] in (0x01, 0x02):
            return int.from_bytes(payload[11:19], "big", signed=True)
    except (IndexError, TypeError):
        pass
    return None


# -- per-target extras ---------------------------------------------------------
def _place_open(args, result, frame, wall):
    return float(len(args[0]._open))


def _planner_moves(args, result, frame, wall):
    moves = len(result) if result is not None else 0
    REC.count("planner.useful", 1.0 if moves else 0.0)
    return float(moves)


def _wal_bytes(args, result, frame, wall):
    wal = args[0]
    REC.counters[f"wal.bytes.{id(wal)}"] = float(wal.bytes_written)
    return 0.0


def _ckpt_size(args, result, frame, wall):
    try:
        return float(os.path.getsize(args[0]))
    except (OSError, TypeError, IndexError):
        return 0.0


def _recover_replayed(args, result, frame, wall):
    report = result[1] if isinstance(result, tuple) and len(result) > 1 else None
    return float(getattr(report, "replayed", 0) or 0)


def _count_parent_calls(args, result, frame, wall):
    parent = frame.parent
    if parent is not None:
        parent.calls += 1
    return 0.0


def _reply_written(args, result, frame, wall):
    frames = REC.frames
    if frames and frames[-1][2] == 0.0:
        frames[-1][2] = wall
    return 0.0


def _router_frame(args, result, frame, wall):
    REC.frames.append([_frame_job(args), wall, 0.0])
    return 0.0


def _split(args, result, frame, wall):
    REC.count("router.split", 1.0 if frame.calls > 1 else 0.0)
    return float(frame.calls)


#: (module, attribute path, span name, kind, job id, extra).  Kinds:
#: ``sync``/``async`` spans; ``frame``, a sync span also logged per frame
#: for the client join; ``leaf``, a call timed without a span record;
#: ``value``, stores to an instrument's ``value``; ``idle``, the event
#: loop waiting for input.  ``extra(args, result, frame, wall)`` returns
#: a number summed per name (or records a counter).
TARGETS = (
    # core.driver
    ("repro.core.driver", "run_events", "driver.run_events", "sync", None, None),
    ("repro.core.driver", "EventStepper.arrive", "driver.arrive", "sync", None, None),
    ("repro.core.driver", "EventStepper.depart", "driver.depart", "sync", None, None),
    ("repro.core.driver", "EventStepper.apply_migrations", "driver.apply_migrations",
     "sync", None, None),
    # core.state: the scalar state's flattened overrides and the generic base
    ("repro.core.state", "PackingState.place", "state.place", "sync", _item_id, _place_open),
    ("repro.core.state", "PackingState.depart", "state.depart", "sync", _item_id, None),
    ("repro.core.state", "PackingState.migrate", "state.migrate", "sync", _item_id, None),
    ("repro.core.state", "PackingState.first_fit_bin", "state.first_fit_bin", "sync",
     None, None),
    ("repro.core.state", "BasePackingState.place", "state.place", "sync", _item_id,
     _place_open),
    ("repro.core.state", "BasePackingState.depart", "state.depart", "sync", _item_id, None),
    ("repro.core.state", "BasePackingState.migrate", "state.migrate", "sync", _item_id,
     None),
    ("repro.core.state", "BasePackingState._activate_index", "ffindex.activate", "sync",
     None, None),
    # core.ffindex
    ("repro.core.ffindex", "FirstFitIndex.first_fit", "ffindex.query", "sync", None, None),
    ("repro.core.ffindex", "FirstFitIndex.last_fit", "ffindex.query", "sync", None, None),
    ("repro.core.ffindex", "FirstFitIndex.min_level", "ffindex.query", "sync", None, None),
    ("repro.core.ffindex", "FirstFitIndex.max_feasible", "ffindex.query", "sync", None,
     None),
    ("repro.core.ffindex", "FirstFitIndex.append", "ffindex.update", "sync", None, None),
    ("repro.core.ffindex", "FirstFitIndex.set_level", "ffindex.update", "sync", None, None),
    ("repro.core.ffindex", "FirstFitIndex.close", "ffindex.update", "sync", None, None),
    ("repro.core.ffindex", "FirstFitIndex._rebuild", "ffindex.rebuild", "sync", None, None),
    # algorithms
    ("repro.algorithms.first_fit", "FirstFit.choose_bin", "policy.choose_bin", "sync",
     None, None),
    ("repro.algorithms.migration", "plan_evacuation_moves", "planner.plan", "sync", None,
     _planner_moves),
    # service.engine
    ("repro.service.engine", "StreamingEngine.submit", "engine.submit", "sync", _item_id,
     None),
    ("repro.service.engine", "StreamingEngine.depart", "engine.depart", "sync", _plain_id,
     None),
    ("repro.service.engine", "StreamingEngine.advance", "engine.advance", "sync", None,
     None),
    ("repro.service.engine", "StreamingEngine.finish", "engine.finish", "sync", None, None),
    # service.metrics
    ("repro.service.metrics", "Histogram.observe", "metrics.update", "leaf", None, None),
    ("repro.service.metrics", "Counter.value", "metrics.update", "value", None, None),
    ("repro.service.metrics", "Gauge.value", "metrics.update", "value", None, None),
    ("repro.service.metrics", "MetricsRegistry.expose_text", "metrics.expose", "sync",
     None, None),
    # service.wal
    ("repro.service.wal", "WriteAheadLog.append", "wal.append", "sync", None, _wal_bytes),
    ("repro.service.wal", "WriteAheadLog.append_many", "wal.append_many", "sync", None,
     _wal_bytes),
    ("repro.service.wal", "WriteAheadLog.sync", "wal.sync", "sync", None, None),
    ("repro.service.wal", "WriteAheadLog.prune", "wal.prune", "sync", None, None),
    ("repro.service.wal", "replay_wal", "wal.replay", "sync", None, None),
    # service.recovery / service.snapshot
    ("repro.service.recovery", "DurableEngine.submit", "durable.submit", "sync", _item_id,
     None),
    ("repro.service.recovery", "DurableEngine.submit_many", "durable.submit_many", "sync",
     None, None),
    ("repro.service.recovery", "DurableEngine.depart", "durable.depart", "sync",
     _plain_id, None),
    ("repro.service.recovery", "DurableEngine.advance", "durable.advance", "sync", None,
     None),
    ("repro.service.recovery", "DurableEngine.finish", "durable.finish", "sync", None, None),
    ("repro.service.recovery", "DurableEngine.checkpoint_now", "ckpt.checkpoint", "sync",
     None, None),
    ("repro.service.recovery", "recover", "recover.recover", "sync", None,
     _recover_replayed),
    ("repro.service.snapshot", "snapshot_engine", "snapshot.snapshot", "sync", None, None),
    ("repro.service.snapshot", "write_checkpoint", "snapshot.write", "sync", None,
     _ckpt_size),
    ("repro.service.snapshot", "read_checkpoint", "snapshot.read", "sync", None, None),
    ("repro.service.snapshot", "restore_engine", "snapshot.restore", "sync", None, None),
    # service.protocol (binary codec)
    ("repro.service.protocol", "decode_submit", "protocol.decode_job", "leaf", None, None),
    ("repro.service.protocol", "decode_depart", "protocol.decode_job", "leaf", None, None),
    ("repro.service.protocol", "decode_advance", "protocol.decode_job", "leaf", None, None),
    ("repro.service.protocol", "split_batch", "protocol.decode_frame", "leaf", None, None),
    ("repro.service.protocol", "encode_placement", "protocol.encode_job", "leaf", None,
     None),
    ("repro.service.protocol", "encode_clock", "protocol.encode_job", "leaf", None, None),
    ("repro.service.protocol", "encode_batch", "protocol.encode_frame", "leaf", None, None),
    ("repro.service.protocol", "encode_json_response", "protocol.encode_frame", "leaf",
     None, None),
    # service.server (AllocationService frame loop)
    ("repro.service.server", "AllocationService._dispatch_frame", "server.dispatch",
     "frame", _frame_job, None),
    ("repro.service.server", "AllocationService._write_reply", "server.write", "async",
     None, _reply_written),
    # service.router
    ("repro.service.router", "ShardRouter._dispatch_frame", "router.frame", "async",
     _frame_job, _router_frame),
    ("repro.service.router", "ShardRouter._route_job_batch", "router.route_batch",
     "async", None, _split),
    ("repro.service.router", "ShardRouter._call_shard", "router.call_shard", "async",
     None, _count_parent_calls),
    # traces
    ("repro.traces.adapter", "load_items", "traces.load_items", "sync", None, None),
    ("repro.traces.normalize", "normalize_items", "traces.normalize_items", "sync", None,
     None),
    # the event loop waiting for input: idle, not a layer
    ("selectors", "EpollSelector.select", "loop.idle", "idle", None, None),
)


def _fsync_wrapper(fn):
    """``os.fsync``, named by the module that called it.

    The WAL's background group-commit thread gets its own name: its
    fsyncs overlap the request path instead of sitting on it.
    """
    rec = REC
    names = {
        "repro.service.wal": rec.nid("wal.fsync"),
        "repro.service.snapshot": rec.nid("snapshot.fsync"),
    }
    background = rec.nid("wal.fsync_bg")
    other = rec.nid("fsync.other")
    main = threading.main_thread()

    @functools.wraps(fn)
    def fsync(fd):
        caller = sys._getframe(1).f_globals.get("__name__")
        nid = names.get(caller, other)
        if nid == names["repro.service.wal"] and threading.current_thread() is not main:
            nid = background
        frame = rec.open(nid)
        start = perf_counter()
        try:
            return fn(fd)
        finally:
            end = perf_counter()
            frame.executing = False
            rec.step(frame, start, end)
            rec.close(frame, start, end, end - start)

    return fsync


def _calibrate(rec: Recorder, n: int = 4000, reps: int = 5) -> None:
    """Measure the bookkeeping a parent span absorbs per nested call.

    A wrapper's work before its clock starts and after it stops runs
    inside the caller's span, so without a correction every layer's
    self time would carry its children's tracing cost.  Timing no-op
    calls with and without the wrapper, minus the part the wrapper
    charges to the callee itself, gives the cost to subtract per nested
    span and per nested leaf call.
    """

    def noop():
        return None

    class Plain:
        pass

    class Probe:
        value = _value_property(rec.nid("calibrate.leaf"))

    span = _sync(noop, rec.nid("calibrate.span"))
    plain, probe = Plain(), Probe()
    plain.value = 0.0
    probe.__dict__["value"] = 0.0

    def per_call(body) -> float:
        best = float("inf")
        for _ in range(reps):
            t0 = perf_counter()
            body()
            best = min(best, (perf_counter() - t0) / n)
        return best

    def spans():
        for _ in range(n):
            span()

    def bare():
        for _ in range(n):
            noop()

    def stores():
        for _ in range(n):
            probe.value += 1.0

    def plain_stores():
        for _ in range(n):
            plain.value += 1.0

    cost_span = per_call(spans) - per_call(bare)
    cost_leaf = per_call(stores) - per_call(plain_stores)
    own = {name: rec.agg[rec.nid(name)] for name in ("calibrate.span", "calibrate.leaf")}
    rec.cost = [
        max(0.0, cost_span - own["calibrate.span"][2] / own["calibrate.span"][0]),
        max(0.0, cost_leaf - own["calibrate.leaf"][2] / own["calibrate.leaf"][0]),
    ]
    for row in own.values():
        row[:] = [0, 0.0, 0.0, 0.0, 0.0]
    rec.threads.clear()
    rec.spans.clear()


def _resolve(modname: str, path: str):
    __import__(modname)
    owner = sys.modules[modname]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(out_dir: str) -> Recorder:
    """Wrap every target in this process and dump spans at exit."""
    global REC
    if REC is not None:
        return REC
    os.makedirs(out_dir, exist_ok=True)
    REC = Recorder(out_dir)
    _calibrate(REC)
    makers = {
        "sync": _sync,
        "async": _async,
        "frame": functools.partial(_sync, frame_log=True),
        "leaf": lambda fn, nid, job_of, extra: _leaf(fn, nid),
        "idle": lambda fn, nid, job_of, extra: _idle(fn, nid),
    }
    replaced: dict[int, object] = {}
    for modname, path, name, kind, job_of, extra in TARGETS:
        owner, attr = _resolve(modname, path)
        nid = REC.nid(name)
        if kind == "value":
            setattr(owner, attr, _value_property(nid))
            continue
        original = getattr(owner, attr)
        wrapped = makers[kind](original, nid, job_of, extra)
        setattr(owner, attr, wrapped)
        if not isinstance(owner, type):
            replaced[id(original)] = wrapped
    # `from .driver import run_events` and friends keep their own
    # reference: rebind every module-level alias of a wrapped function
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            new = replaced.get(id(value))
            if new is not None and value is not new:
                setattr(mod, key, new)
    os.fsync = _fsync_wrapper(os.fsync)
    atexit.register(REC.dump)
    _dump_on_sigterm()
    return REC


def _dump_on_sigterm() -> None:
    """A supervisor stops its workers with SIGTERM: write spans first."""
    if threading.current_thread() is not threading.main_thread():
        return

    def handler(signum, frame):
        if REC._dumped:
            return  # already exiting and writing its dump: let it finish
        REC.dump()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)

    signal.signal(signal.SIGTERM, handler)
