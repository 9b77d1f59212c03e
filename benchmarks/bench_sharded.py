"""Benchmark: sharded multi-process serving vs a single-shard fleet.

One op, ``serve_sharded``: a synthetic fleet-scale traffic stream —
configurable vehicle count, sliding active-set arrival process and
malformed-record rate — routed through
:class:`repro.service.shard.ShardedAdvisorService` at each shard count
in ``SHARD_COUNTS``, every worker running the durable columnar path
(``fsync=True``).  Reported per shard count: events/s and the p50/p99
dispatch-to-ack latency per shard command (the worst case an event in
a command waited for its decision, queueing included).

Correctness gates before any timing is reported:

* **digest gate** — the per-vehicle ``state_digest()`` map must be
  bit-identical across every shard count (sharding is a pure
  partition, never a behavior change);
* **scaling gate** — events/s at the highest shard count must be
  >= 2.5x the 1-shard run in full mode (>= 1.8x at 2 shards in quick
  mode).  The gate is *enforced* only when the host has at least as
  many usable cores as shards (``parallel_headroom()``): N workers
  time-slicing fewer cores cannot scale, and a wall-clock assertion
  there would only measure the scheduler.  The measured ratio and the
  enforcement decision are recorded in the artifact either way, next
  to the host metadata that explains them.

The module writes ``results/BENCH_sharded.json`` on teardown — see
``docs/performance.md``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.service import SessionConfig
from repro.service.shard import ShardedAdvisorService, parallel_headroom

from .conftest import emit_bench_json

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
BREAK_EVEN = 28.0  # the paper's vehicle class 1
#: Shard counts measured (first entry is the baseline).
SHARD_COUNTS = (1, 2) if QUICK else (1, 4)
#: Distinct vehicles in the synthetic stream (the acceptance criterion
#: asks for p99 at >= 100k vehicles in full mode).
VEHICLES = 2_000 if QUICK else 100_000
#: Total events routed per shard count.
EVENTS = 24_000 if QUICK else 200_000
#: Vehicles concurrently active (the arrival process's working set).
ACTIVE = 256 if QUICK else 1_024
#: Fraction of lines that are malformed (garbage JSON / bad fields).
MALFORMED_RATE = 0.002
#: Lines routed per parent-side chunk.
CHUNK = 1_024 if QUICK else 8_192
#: Scaling floor at the highest shard count (enforced only when the
#: host has the cores — see module docstring).
FLOOR = 1.8 if QUICK else 2.5
_RECORDS: list[dict] = []


@pytest.fixture(scope="module")
def bench_records(results_dir):
    yield _RECORDS
    emit_bench_json(_RECORDS, results_dir, filename="BENCH_sharded.json")


def synthetic_traffic(
    vehicles: int = VEHICLES,
    events: int = EVENTS,
    *,
    seed: int = 3,
    active: int = ACTIVE,
    malformed_rate: float = MALFORMED_RATE,
) -> tuple[list[str], int]:
    """The load generator: a JSONL fleet stream; returns (lines, malformed).

    Arrival process: a sliding window of ``active`` concurrently-active
    vehicles; every ``events // vehicles`` events the oldest vehicle
    retires and the next unseen one joins (its first event is emitted at
    the join, so every one of the ``vehicles`` ids is guaranteed to
    appear), the rest of the stream picks uniformly from the window —
    clustered per-vehicle runs, what a real depot feed looks like and
    what gives the columnar path per-vehicle runs to amortize.  Stop lengths are lognormal (the NREL shape);
    timestamps are the global event index, so every vehicle's clock is
    strictly monotone.  ``malformed_rate`` of lines are corrupted —
    garbage JSON, a missing field, or a non-numeric stop — exercising
    the defensive-ingestion path at fleet scale.  Deterministic in
    ``seed``.
    """
    rng = np.random.default_rng(seed)
    window = list(range(min(active, vehicles)))
    next_vehicle = len(window)
    rotate_every = max(1, events // vehicles)
    counters = np.zeros(vehicles, dtype=np.int64)
    picks = rng.integers(0, len(window), size=events)
    stops = np.exp(rng.normal(np.log(60.0), 1.0, size=events))
    corrupt = rng.random(size=events) < malformed_rate
    corrupt_kind = rng.integers(0, 3, size=events)
    lines: list[str] = []
    malformed = 0
    for index in range(events):
        if index < len(window):
            vehicle = window[index]  # seed every initial member's first event
        elif index % rotate_every == 0 and next_vehicle < vehicles:
            window[next_vehicle % len(window)] = next_vehicle
            vehicle = next_vehicle  # the joiner's guaranteed first event
            next_vehicle += 1
        else:
            vehicle = window[picks[index] % len(window)]
        vehicle_id = f"veh-{vehicle:06d}"
        record = {
            "id": f"{vehicle_id}-{counters[vehicle]:06d}",
            "vehicle": vehicle_id,
            "t": float(index),
            "stop": float(stops[index]),
        }
        counters[vehicle] += 1
        line = json.dumps(record)
        # Never corrupt a vehicle's first event: every id must open a
        # session, so the full run really serves `vehicles` sessions.
        if corrupt[index] and counters[vehicle] > 1:
            malformed += 1
            kind = int(corrupt_kind[index])
            if kind == 0:
                line = line[: len(line) // 2]  # garbage: truncated JSON
            elif kind == 1:
                record.pop("stop")  # missing field
                line = json.dumps(record)
            else:
                record["stop"] = "not-a-number"  # bad type
                line = json.dumps(record)
        lines.append(line)
    return lines, malformed


def _config() -> SessionConfig:
    # A lean dedup window: at 100k sessions per worker the per-session
    # history is the memory budget, and the stream never redelivers.
    # The tier cuts each shard's part of a chunk into commands of at
    # most this many lines (docs/performance.md).
    return SessionConfig(break_even=BREAK_EVEN, dedup_window=256, seed=3)


def _run_fleet(state_dir, lines: list[str], shards: int) -> dict:
    """One timed pass: route the whole stream, drain, collect digests."""
    service = ShardedAdvisorService(
        state_dir,
        _config(),
        shards=shards,
        fsync=True,
        queue_depth=16,
    )
    try:
        t0 = time.perf_counter()
        for offset in range(0, len(lines), CHUNK):
            service.submit_lines(lines[offset : offset + CHUNK])
        service.drain(timeout=3600.0)
        elapsed = time.perf_counter() - t0
        latencies = np.asarray(
            [sample for sample, _events in service.take_latencies()]
        )
        digests = service.digests(timeout=600.0)
        snapshot = service.health_snapshot(timeout=600.0)
    finally:
        service.close()
    return {
        "shards": shards,
        "wall_time_s": elapsed,
        "events_per_s": len(lines) / elapsed,
        "p50_latency_s": float(np.percentile(latencies, 50)),
        "p99_latency_s": float(np.percentile(latencies, 99)),
        "digests": digests,
        "malformed": snapshot["ingest"]["malformed"],
        "vehicles": len(digests),
    }


def test_sharded_serving_scaling(benchmark, bench_records, tmp_path, results_dir):
    """Sharded fleet: digest-identical at every shard count, near-linear
    events/s where the host has the cores."""
    lines, malformed = synthetic_traffic()
    headroom = parallel_headroom()

    runs = {}
    for shards in SHARD_COUNTS[:-1]:
        runs[shards] = _run_fleet(tmp_path / f"fleet-{shards}", lines, shards)
    top = SHARD_COUNTS[-1]
    runs[top] = benchmark.pedantic(
        _run_fleet,
        args=(tmp_path / f"fleet-{top}", lines, top),
        iterations=1,
        rounds=1,
    )

    baseline = runs[SHARD_COUNTS[0]]
    # Digest gate: every shard count produces the identical fleet state.
    for shards, run in runs.items():
        assert run["vehicles"] == VEHICLES, (
            f"{shards}-shard run served {run['vehicles']} sessions, "
            f"traffic has {VEHICLES} vehicles"
        )
        assert run["malformed"] == malformed, (
            f"{shards}-shard run flagged {run['malformed']} malformed lines, "
            f"generator produced {malformed}"
        )
        assert run["digests"] == baseline["digests"], (
            f"{shards}-shard digests diverged from the "
            f"{SHARD_COUNTS[0]}-shard baseline"
        )

    speedup = runs[top]["events_per_s"] / baseline["events_per_s"]
    gate_enforced = headroom >= top
    entry = {
        "op": "serve_sharded",
        "n": len(lines),
        "vehicles": baseline["vehicles"],
        "malformed": malformed,
        "chunk": CHUNK,
        "fsync": True,
        "wall_time_s": runs[top]["wall_time_s"],
        "scalar_wall_time_s": baseline["wall_time_s"],
        "speedup": speedup,
        "max_abs_diff": 0.0,  # digest equality asserted above — exact
        "events_per_s": runs[top]["events_per_s"],
        "scalar_events_per_s": baseline["events_per_s"],
        "per_shard_count": [
            {key: run[key] for key in run if key != "digests"}
            for _shards, run in sorted(runs.items())
        ],
        "p50_latency_s": runs[top]["p50_latency_s"],
        "p99_latency_s": runs[top]["p99_latency_s"],
        "scaling_gate": {
            "floor": FLOOR,
            "at_shards": top,
            "enforced": gate_enforced,
            "parallel_headroom": headroom,
        },
    }
    _RECORDS.append(entry)
    if gate_enforced:
        assert speedup >= FLOOR, (
            f"sharded serving scaled {speedup:.2f}x at {top} shards "
            f"(floor {FLOOR:g}x; {runs[top]['events_per_s']:,.0f} vs "
            f"{baseline['events_per_s']:,.0f} events/s)"
        )
