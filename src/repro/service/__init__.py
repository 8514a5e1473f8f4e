"""The live allocation service layer.

Everything below this package serves *streams*, not materialised
instances: a push-based :class:`StreamingEngine` bit-identical to the
batch engines on any replayed trace that keeps only live state,
checkpoint/restore of that state, admission control with per-policy accounting, a metrics
registry with Prometheus text exposition, a per-decision trace log, and
an asyncio server with a matching load generator (``repro serve`` /
``repro loadgen``).  The server speaks JSON lines by default and
negotiates up to a length-prefixed binary protocol (:mod:`.protocol`)
for the hot path; the load generator adds request pipelining and
batched frames on top.  On top of that sits the fault-tolerance
layer: a CRC-checksummed write-ahead log (:mod:`.wal`), crash recovery
by checkpoint + replay (:mod:`.recovery`), and a deterministic fault
-injection harness (:mod:`.faults`) — see ``docs/OPERATIONS.md`` for
the operator's view.

The fleet layer scales the same service horizontally: each worker is a
shard-scoped context (:mod:`.shard` — engine + WAL dir + manifest-bound
identity), a consistent-hash router (:mod:`.router`) fronts N of them
on both wire protocols, and a supervisor (:mod:`.fleet` /
``repro fleet``) spawns, restarts, and live-hands-off the workers.

Every public name below is imported from its submodule on first use
(:mod:`repro._lazy`), so a ``repro serve`` worker never loads the
router, the supervisor or the load generator.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "admission": (
            "ADMIT",
            "QUEUE",
            "REJECT",
            "SHED",
            "AdmissionPolicy",
            "AdmitAll",
            "LoadShedding",
            "OpenServerBudget",
            "make_admission_policy",
        ),
        "engine": ("Placement", "StreamResult", "StreamingEngine"),
        "faults": ("FaultInjected", "FaultInjector", "FaultPlan", "KillPoint"),
        "fleet": ("FleetSupervisor",),
        "frontdoor": ("ProtocolError",),
        "loadgen": (
            "LoadgenReport", "RetryPolicy", "loadgen", "run_loadgen", "tenantize"
        ),
        "metrics": (
            "Counter",
            "DecisionLog",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "merge_expositions",
            "relabel_exposition",
        ),
        "protocol": ("PROTOCOL_VERSION", "PROTOCOLS", "FrameError"),
        "recovery": (
            "DedupWindow",
            "DurableEngine",
            "RecoveryReport",
            "recover",
        ),
        "router": (
            "BackendLink", "HashRing", "ShardRouter", "partition_items", "route_key"
        ),
        "server": ("AllocationService", "build_engine", "serve"),
        "shard": ("ShardContext", "ShardSpec", "shard_manifest"),
        "snapshot": (
            "config_fingerprint",
            "dumps",
            "loads",
            "read_checkpoint",
            "restore_engine",
            "snapshot_engine",
            "write_checkpoint",
        ),
        "wal": (
            "WalCorruptionError",
            "WalError",
            "WriteAheadLog",
            "read_manifest",
            "replay_wal",
            "write_manifest",
        ),
    },
)
