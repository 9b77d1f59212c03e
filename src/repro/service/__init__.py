"""Crash-safe online advisor service (``repro-idling serve``).

The deployed face of the paper's algorithms: per-vehicle
:class:`~repro.service.session.AdvisorSession` objects wrap
:class:`~repro.core.adaptive.AdaptiveProposed` with

* **durability** — a CRC-framed write-ahead log plus atomic compacted
  snapshots (:mod:`repro.service.wal`): a SIGKILL at any instant
  restores every session bit-identically;
* **drift detection** — Page-Hinkley/CUSUM over stop lengths and over
  the short/long split (:mod:`repro.service.drift`);
* **graceful degradation** — a HEALTHY → DEGRADED → SAFE ladder with
  hysteresis that ends at a provable guarantee (N-Rand's ``e/(e-1)``
  or DET's 2-competitive bound) instead of failing open
  (:mod:`repro.service.session`);
* **defensive ingestion** — idempotent event ids, finite values and
  monotone-clock enforcement through the :mod:`repro.validation`
  policies (:mod:`repro.service.advisor`);
* **a chaos matrix** — fault × tier × batch cells that pin cost and
  digest parity with the uninterrupted run (:mod:`repro.service.soak`);
* **horizontal scale** — consistent-hash sharding across worker
  processes with at-least-once redelivery and bit-identical shard
  recovery (:mod:`repro.service.shard`), fronted by a JSONL
  socket/stdin server with a ``/health`` endpoint
  (:mod:`repro.service.frontend`);
* **disaster recovery** — streaming WAL shipping to a standby with
  watermarked catch-up, lock-fenced standby promotion bit-identical to
  a clean continuation, cold backup/point-in-time restore under a
  content manifest, and a ``fleet doctor`` that cross-checks all of it
  (:mod:`repro.service.replica`).

See ``docs/serving.md`` for the state machine, the durability
guarantees, and the degradation ladder's competitive-ratio bounds.
"""

# NOTE: repro.service.soak is deliberately not imported here — it is
# runnable as ``python -m repro.service.soak`` and importing it from the
# package __init__ would shadow that execution (runpy warns).
from .advisor import AdvisorService, RegisteredAdvisorService, parse_event_line
from .augmented import (
    AugmentedAdvisorSession,
    AugmentedSessionConfig,
    ConstantPredictor,
    ContextualPredictor,
    TrustLearner,
    build_predictor,
)
from .drift import DriftDetector, PageHinkley
from .frontend import JsonlFrontend, parse_listen
from .replica import (
    LocalReplicaTarget,
    RemoteReplicaTarget,
    ReplicaServer,
    ReplicationError,
    ReplicationMonitor,
    backup,
    fleet_doctor,
    promote,
    replicate,
    restore,
    sweep_state_dir,
    sync_once,
)
from .session import AdvisorSession, HealthState, SessionConfig, vehicle_seed
from .shard import (
    HashRing,
    ShardedAdvisorService,
    ShardLockError,
    sweep_stale_shard_locks,
)
from .wal import SnapshotStore, WalCorruptionError, WriteAheadLog

__all__ = [
    "AdvisorService",
    "AdvisorSession",
    "AugmentedAdvisorSession",
    "AugmentedSessionConfig",
    "ConstantPredictor",
    "ContextualPredictor",
    "DriftDetector",
    "HashRing",
    "HealthState",
    "JsonlFrontend",
    "LocalReplicaTarget",
    "PageHinkley",
    "RegisteredAdvisorService",
    "RemoteReplicaTarget",
    "ReplicaServer",
    "ReplicationError",
    "ReplicationMonitor",
    "SessionConfig",
    "ShardLockError",
    "ShardedAdvisorService",
    "SnapshotStore",
    "TrustLearner",
    "WalCorruptionError",
    "WriteAheadLog",
    "backup",
    "build_predictor",
    "fleet_doctor",
    "parse_event_line",
    "parse_listen",
    "promote",
    "replicate",
    "restore",
    "sweep_stale_shard_locks",
    "sweep_state_dir",
    "sync_once",
    "vehicle_seed",
]
