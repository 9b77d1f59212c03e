"""Benchmark: WAL shipping, promotion and backup/restore throughput.

Three ops over the same populated primary (a fleet state dir whose WAL
still holds its tail — a crash-consistent primary, the shape a standby
actually ships from):

* ``ship_full`` — one cold catch-up pass (``sync_once`` into an empty
  local standby): frames/s and shipped MB/s;
* ``promote`` — lock-fenced standby promotion (the failover moment):
  wall time to a serving-ready, bit-identical fleet;
* ``backup_restore`` — cold archive round trip under the content
  manifest, hash verification included.

Each op is timed over ``ROUNDS`` rounds, every round with a fresh
standby, archive and restore dir; one timing of a few milliseconds
swings several-fold with host load, so the record carries the median
(``wall_time_s``, which the rates use) and the quartiles.  Correctness
gates run on every round before any timing is reported: the promoted
standby's per-vehicle digests must be bit-identical to a clean run of
the same stream, the incremental pass after a catch-up must ship zero
frames, and the restored archive must pass ``fleet_doctor`` with
``verify_restore`` and promote to the same digests.

The module writes ``results/BENCH_replication.json`` on teardown —
see ``docs/performance.md``.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.service import SessionConfig
from repro.service.advisor import AdvisorService
from repro.service.replica import (
    LocalReplicaTarget,
    backup,
    fleet_doctor,
    promote,
    restore,
    sync_once,
)
from repro.service.soak import build_fleet_events

from .conftest import emit_bench_json

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
BREAK_EVEN = 28.0  # the paper's vehicle class 1
VEHICLES = 4 if QUICK else 8
STOPS = 150 if QUICK else 1_000
ROUNDS = 3 if QUICK else 11
#: Compaction cadence (frames per vehicle in the root's WAL): large
#: enough that the WAL carries a real tail to ship, small enough that
#: snapshots are in play too.
SNAPSHOT_EVERY = 64
_RECORDS: list[dict] = []


@pytest.fixture(scope="module")
def bench_records(results_dir):
    yield _RECORDS
    emit_bench_json(_RECORDS, results_dir, filename="BENCH_replication.json")


def _config() -> SessionConfig:
    return SessionConfig(
        break_even=BREAK_EVEN,
        snapshot_every=SNAPSHOT_EVERY,
        dedup_window=256,
        seed=3,
    )


def _populate(state_dir, events) -> dict:
    """Serve the stream as a primary; abandon without close (a clean
    close compacts the WAL away — nothing left to ship)."""
    service = AdvisorService(state_dir, _config(), policy="repair")
    for record in events:
        service.process(record)
    snapshot = service.health_snapshot()
    digests = {
        vehicle: info["digest"] for vehicle, info in snapshot["vehicles"].items()
    }
    del service  # crash-abandon: keep the WAL tail
    return digests


def _dir_bytes(root) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _timing(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {
        "rounds": len(samples),
        "wall_time_s": median,
        "wall_time_q1_s": q1,
        "wall_time_q3_s": q3,
    }


def test_replication_throughput(benchmark, bench_records, tmp_path):
    events = build_fleet_events(vehicles=VEHICLES, stops_per_vehicle=STOPS, seed=3)
    primary = tmp_path / "primary"
    reference = _populate(primary, events)
    primary_bytes = _dir_bytes(primary)
    seconds: dict[str, list[float]] = {
        "ship_full": [],
        "promote": [],
        "backup_restore": [],
    }

    def ship(standby):
        target = LocalReplicaTarget(standby)
        stats = sync_once(primary, target)
        target.close()
        return stats

    def one_round(base):
        # -- ship_full: cold catch-up into an empty standby ----------------
        standby = base / "standby"
        t0 = time.perf_counter()
        stats = ship(standby)
        seconds["ship_full"].append(time.perf_counter() - t0)
        assert stats["frames"] > 0, "primary WAL tail is empty — nothing was shipped"
        # Incremental gate: a second pass over an up-to-date standby is a no-op.
        quiet = ship(standby)
        assert quiet["frames"] == 0 and quiet["snapshots"] == 0

        # -- promote: the failover moment ----------------------------------
        t0 = time.perf_counter()
        promoted = promote(standby, _config(), fence=primary)
        seconds["promote"].append(time.perf_counter() - t0)
        # Digest gate: failover is bit-identical to the primary's live state.
        assert promoted["digests"] == reference, "promoted standby diverged"

        # -- backup_restore: cold archive round trip -----------------------
        archive = base / "archive"
        restored = base / "restored"
        t0 = time.perf_counter()
        manifest = backup(standby, archive)
        restore(archive, restored)
        seconds["backup_restore"].append(time.perf_counter() - t0)
        doctor = fleet_doctor(restored, archive_dir=archive, verify_restore=True)
        assert doctor["ok"], doctor["problems"]
        assert promote(restored, _config())["digests"] == reference
        return stats, promoted, manifest, _dir_bytes(archive)

    def run():
        return [one_round(tmp_path / f"round-{index:02d}") for index in range(ROUNDS)]

    stats, promoted, manifest, archive_bytes = benchmark.pedantic(
        run, iterations=1, rounds=1
    )[-1]
    ship_t = _timing(seconds["ship_full"])
    promote_t = _timing(seconds["promote"])
    roundtrip_t = _timing(seconds["backup_restore"])
    _RECORDS.extend(
        [
            {
                "op": "ship_full",
                "n": len(events),
                "vehicles": VEHICLES,
                **ship_t,
                "frames": stats["frames"],
                "frames_per_s": stats["frames"] / ship_t["wall_time_s"],
                "mb_per_s": primary_bytes / ship_t["wall_time_s"] / 1e6,
            },
            {
                "op": "promote",
                "n": len(events),
                "vehicles": VEHICLES,
                **promote_t,
                "sessions_per_s": len(promoted["vehicles"]) / promote_t["wall_time_s"],
            },
            {
                "op": "backup_restore",
                "n": len(events),
                "vehicles": VEHICLES,
                **roundtrip_t,
                "files": len(manifest["files"]),
                "archive_mb": archive_bytes / 1e6,
                "mb_per_s": 2 * archive_bytes / roundtrip_t["wall_time_s"] / 1e6,
            },
        ]
    )
