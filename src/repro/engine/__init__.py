"""Parallel experiment engine: execution backends, deterministic seed
fan-out, the on-disk result cache, per-stage instrumentation, and the
fault-tolerance/observability layer.

This package is the scaling substrate every experiment and evaluation
helper builds on (see ``docs/engine.md``):

* :class:`ParallelMap` — order-preserving, fault-tolerant map over
  tasks with a serial or ``ProcessPoolExecutor`` backend, selected by
  ``jobs`` / the ``REPRO_JOBS`` environment variable; per-task timeout,
  bounded retry with exponential backoff, pool-crash recovery with a
  serial fallback, and optional :class:`MapCheckpoint` resumability;
* :func:`spawn_seeds` / :func:`spawn_rngs` — ``SeedSequence``-based
  fan-out, so serial and parallel runs draw identical random streams
  regardless of worker count;
* :class:`ResultCache` — content-addressed experiment-result cache
  keyed by (experiment id, params, code version) with hit/miss
  counters and a :meth:`~ResultCache.doctor` consistency scan;
* :class:`RunLedger` — structured JSONL event log (task lifecycle,
  retries, pool crashes, cache hits) with monotonic timestamps,
  installed ambiently via :func:`use_ledger`;
* :class:`Instrumentation` — per-stage wall-time and task-count
  records surfaced in every ``ExperimentResult`` report;
* :mod:`repro.engine.faults` — deterministic fault injection (raise /
  hang / kill) for testing every recovery path without flakiness.

Layering: ``engine`` depends only on numpy and ``repro.errors`` —
everything above it (fleet, evaluation, experiments, cli) may use it.
"""

from .._lazy import lazy_exports

__all__ = [
    "MapCheckpoint",
    "ParallelMap",
    "ParallelTaskError",
    "ParallelTimeoutError",
    "parallel_map",
    "get_default_jobs",
    "spawn_seeds",
    "spawn_rngs",
    "ResultCache",
    "cache_key",
    "code_version",
    "decode_payload",
    "default_cache_dir",
    "encode_payload",
    "RunLedger",
    "active_ledger",
    "read_ledger",
    "use_ledger",
    "Instrumentation",
    "StageTiming",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".cache": (
        "ResultCache", "cache_key", "code_version", "decode_payload",
        "default_cache_dir", "encode_payload",
    ),
    ".instrument": ("Instrumentation", "StageTiming"),
    ".ledger": ("RunLedger", "active_ledger", "read_ledger", "use_ledger"),
    ".parallel": (
        "MapCheckpoint", "ParallelMap", "ParallelTaskError", "ParallelTimeoutError",
        "get_default_jobs", "parallel_map",
    ),
    ".seeding": ("spawn_rngs", "spawn_seeds"),
})
