"""Shard-scoped service context: one engine, one WAL dir, one registry.

The fleet architecture (``repro fleet`` + :mod:`repro.service.router`)
runs N identical workers, each owning one consistent-hash shard of the
keyspace.  Everything a worker owns — streaming engine, WAL/checkpoint
directory, metrics registry, decision log — is bundled here as a
:class:`ShardContext`, so nothing in the service stack is process-global:
``repro serve`` is simply the degenerate 1-shard case of the same boot
path the fleet supervisor uses per worker.

The context also owns the WAL directory's *identity*: on first boot with
a ``wal_dir`` it writes a ``MANIFEST`` file recording the shard id,
shard count, and a fingerprint of the engine configuration
(:func:`repro.service.snapshot.config_fingerprint`).  Every later boot
must present the same identity or the directory is refused — replaying
shard 3's log into shard 1's engine, or a first-fit log into a best-fit
engine, would silently corrupt placements that are already billed.
Shard identity lives **only** in the MANIFEST, never inside WAL records
or checkpoints: a shard's durable byte stream stays bit-identical to a
standalone single-shard run over the same key-partitioned subsequence
(pinned by ``tests/service/test_router.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .admission import AdmissionPolicy
from .engine import StreamingEngine
from .faults import FaultInjector
from .metrics import DecisionLog, MetricsRegistry
from .recovery import DurableEngine, RecoveryReport, recover
from .snapshot import config_fingerprint

__all__ = ["MANIFEST_VERSION", "ShardContext", "ShardSpec", "shard_manifest"]

MANIFEST_VERSION = 1


@dataclass(frozen=True)
class ShardSpec:
    """Which slice of the fleet a context serves.

    The default ``(0, 1)`` is the standalone single-process service —
    one shard owning the whole keyspace.
    """

    shard_id: int = 0
    num_shards: int = 1

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if not 0 <= self.shard_id < self.num_shards:
            raise ValueError(
                f"shard_id must be in [0, {self.num_shards}), got {self.shard_id}"
            )


def shard_manifest(spec: ShardSpec, engine_config: dict) -> dict:
    """The MANIFEST document binding a WAL dir to a shard + engine config."""
    return {
        "version": MANIFEST_VERSION,
        "shard_id": spec.shard_id,
        "num_shards": spec.num_shards,
        "engine": engine_config,
        "fingerprint": config_fingerprint(engine_config),
    }


class ShardContext:
    """Everything one shard owns, built through one boot path.

    Use :meth:`create`: it builds a fresh engine, or — with ``wal_dir``
    — recovers the durable engine from the directory after validating
    (or writing) its MANIFEST.  The context is what ``repro serve``
    binds to a socket and what each fleet worker process is.
    """

    def __init__(
        self,
        spec: ShardSpec,
        engine: "StreamingEngine | DurableEngine",
        *,
        wal_dir: Optional[str] = None,
        recovery_report: Optional[RecoveryReport] = None,
    ):
        self.spec = spec
        self.engine = engine
        self.wal_dir = wal_dir
        self.recovery_report = recovery_report

    @property
    def durable(self) -> bool:
        return isinstance(self.engine, DurableEngine)

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        return self.engine.metrics

    @classmethod
    def create(
        cls,
        spec: ShardSpec = ShardSpec(),
        *,
        algorithm: str = "first-fit",
        capacity: float = 1.0,
        indexed: bool = True,
        admission: Optional[AdmissionPolicy] = None,
        with_metrics: bool = True,
        decision_log: Optional[DecisionLog] = None,
        wal_dir: Optional[str] = None,
        fsync: str = "interval",
        fsync_every: int = 512,
        segment_bytes: Optional[int] = None,
        checkpoint_every: int = 1000,
        checkpoint_bytes: Optional[int] = None,
        injector: Optional[FaultInjector] = None,
    ) -> "ShardContext":
        """Boot one shard: fresh engine, or recover + manifest-check."""
        from .server import build_engine  # late: server imports this module's peers

        def fresh() -> StreamingEngine:
            return build_engine(
                algorithm=algorithm,
                capacity=capacity,
                indexed=indexed,
                admission=admission,
                with_metrics=with_metrics,
                decision_log=decision_log,
            )

        if wal_dir is None:
            return cls(spec, fresh())
        # the manifest fingerprints the would-be fresh config; a probe
        # engine is the one source of truth for what that config is
        probe = build_engine(
            algorithm=algorithm,
            capacity=capacity,
            indexed=indexed,
            admission=admission,
            with_metrics=False,
        )
        manifest = shard_manifest(spec, probe.config())
        engine, report = recover(
            wal_dir,
            engine_builder=fresh,
            admission=admission,
            metrics=MetricsRegistry() if with_metrics else None,
            decision_log=decision_log,
            fsync=fsync,
            fsync_every=fsync_every,
            segment_bytes=segment_bytes,
            checkpoint_every=checkpoint_every,
            checkpoint_bytes=checkpoint_bytes,
            injector=injector,
            manifest=manifest,
        )
        return cls(spec, engine, wal_dir=wal_dir, recovery_report=report)

    def close(self) -> None:
        engine = self.engine
        if hasattr(engine, "close"):
            engine.close()
