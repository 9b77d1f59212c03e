"""Crash-safe online advisor service (``repro-idling serve``).

The deployed face of the paper's algorithms: per-vehicle
:class:`~repro.service.session.AdvisorSession` objects wrap
:class:`~repro.core.adaptive.AdaptiveProposed` with

* **durability** — one CRC-framed write-ahead log plus compacted
  snapshots per service root, shared by its vehicles
  (:mod:`repro.service.wal`): a SIGKILL at any instant restores every
  session bit-identically;
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

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(globals(), {
    ".advisor": ("AdvisorService", "parse_event_line"),
    ".augmented": (
        "AugmentedAdvisorSession", "AugmentedSessionConfig", "ConstantPredictor",
        "ContextualPredictor", "TrustLearner", "build_predictor",
    ),
    ".drift": ("DriftDetector", "PageHinkley"),
    ".frontend": ("JsonlFrontend", "parse_listen"),
    ".replica": (
        "LocalReplicaTarget", "RemoteReplicaTarget", "ReplicaServer",
        "ReplicationError", "ReplicationMonitor", "backup", "fleet_doctor", "promote",
        "replicate", "restore", "sweep_state_dir", "sync_once",
    ),
    ".config": ("SessionConfig",),
    ".session": ("AdvisorSession", "HealthState", "vehicle_seed"),
    ".shard": (
        "HashRing", "ShardedAdvisorService", "ShardLockError",
        "sweep_stale_shard_locks",
    ),
    ".wal": ("SnapshotStore", "WalCorruptionError", "WriteAheadLog"),
})
