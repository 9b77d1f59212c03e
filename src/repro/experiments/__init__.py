"""One module per paper artifact, plus the experiment registry.

Every experiment exposes ``run(**params) -> ExperimentResult``; the
registry maps experiment ids (``fig1`` ... ``fig6``, ``table1``,
``appc``) to those callables for the CLI and the benchmarks.  All
experiments accept a ``jobs`` parameter (worker processes for the
parallel engine; results are bit-identical for every value) and report
per-stage wall times in their result.

:func:`cached_run` is the caching entry point the CLI uses: results are
stored in the content-addressed on-disk cache
(:mod:`repro.engine.cache`), keyed by experiment id, parameters and
code version, so repeated invocations skip recomputation entirely.
"""

from __future__ import annotations

import importlib
import time

from ..engine.instrument import StageTiming
from ..engine.ledger import active_ledger
from .report import ExperimentResult, Table, format_table

__all__ = [
    "ExperimentResult",
    "Table",
    "format_table",
    "EXPERIMENTS",
    "run_experiment",
    "cached_run",
]


def _on_demand(module: str, name: str = "run"):
    """The run callable ``module.name``, imported on its first call."""

    def run(**params):
        return getattr(importlib.import_module(module, __name__), name)(**params)

    return run


#: Registry: experiment id -> run callable.
EXPERIMENTS = {
    "fig1": _on_demand(".fig1"),
    "fig2": _on_demand(".fig2"),
    "fig3": _on_demand(".fig3"),
    "fig4": _on_demand(".fig4"),
    "fig5": _on_demand(".sweeps", "run_fig5"),
    "fig6": _on_demand(".sweeps", "run_fig6"),
    "table1": _on_demand(".table1"),
    "appc": _on_demand(".appendix_c"),
    # not paper artifacts: the reproduction's own studies
    "improved": _on_demand(".improved"),
    "holdout": _on_demand(".holdout_fig4"),
    "seeds": _on_demand(".seeds"),
}


def run_experiment(experiment_id: str, **params) -> ExperimentResult:
    """Run one experiment by id (see :data:`EXPERIMENTS`).

    Appends a ``total`` stage timing so even experiments without
    internal stages report their wall time.
    """
    if experiment_id not in EXPERIMENTS:
        from ..errors import InvalidParameterError

        raise InvalidParameterError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    start = time.perf_counter()
    result = EXPERIMENTS[experiment_id](**params)
    result.timings.append(
        StageTiming(stage="total", seconds=time.perf_counter() - start)
    )
    return result


def cached_run(
    experiment_id: str,
    params: dict | None = None,
    *,
    jobs: int | None = None,
    use_cache: bool = True,
    cache: ResultCache | None = None,
) -> ExperimentResult:
    """Run an experiment through the on-disk result cache.

    ``jobs`` is deliberately excluded from the cache key: the engine
    guarantees results are bit-identical for every worker count, so a
    serial run may serve a later ``--jobs 8`` invocation and vice versa.
    Underscore-prefixed params (e.g. ``_dataset_digest``, a content hash
    of an on-disk dataset) are the reverse: they salt the cache key but
    are stripped before the experiment runs — the experiment reads the
    dataset itself, the key just has to change when the bytes do.
    On a hit the stored payload is returned verbatim (its ``timings``
    are the original run's); on a miss the experiment runs and its
    payload is stored atomically.
    """
    if jobs is not None and jobs < 1:
        from ..errors import InvalidParameterError

        raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")
    from ..engine.cache import ResultCache, cache_key

    params = dict(params or {})
    params.pop("jobs", None)
    run_params = {k: v for k, v in params.items() if not k.startswith("_")}
    if not use_cache:
        return run_experiment(experiment_id, **run_params, jobs=jobs)
    if cache is None:
        cache = ResultCache()
    key = cache_key(experiment_id, params)
    payload = cache.get(key)
    ledger = active_ledger()
    if payload is not None:
        if ledger is not None:
            ledger.emit("cache-hit", experiment=experiment_id, key=key)
        return ExperimentResult.from_payload(payload)
    if ledger is not None:
        ledger.emit("cache-miss", experiment=experiment_id, key=key)
    result = run_experiment(experiment_id, **run_params, jobs=jobs)
    cache.put(key, result.to_payload())
    return result
