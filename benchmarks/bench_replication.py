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

Correctness gates before any timing is reported: the promoted
standby's per-vehicle digests must be bit-identical to a clean run of
the same stream, the incremental pass after a catch-up must ship zero
frames, and the restored archive must pass ``fleet_doctor`` with
``verify_restore`` and promote to the same digests.

The module writes ``results/BENCH_replication.json`` on teardown —
see ``docs/performance.md``.
"""

from __future__ import annotations

import os
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


def test_replication_throughput(benchmark, bench_records, tmp_path):
    events = build_fleet_events(vehicles=VEHICLES, stops_per_vehicle=STOPS, seed=3)
    primary = tmp_path / "primary"
    reference = _populate(primary, events)
    primary_bytes = _dir_bytes(primary)

    # -- ship_full: cold catch-up into an empty standby --------------------
    def ship(standby):
        target = LocalReplicaTarget(standby)
        stats = sync_once(primary, target)
        target.close()
        return stats

    t0 = time.perf_counter()
    stats = ship(tmp_path / "standby-warm")
    ship_s = time.perf_counter() - t0
    assert stats["frames"] > 0, "primary WAL tail is empty — nothing was shipped"
    # Incremental gate: a second pass over an up-to-date standby is a no-op.
    quiet = ship(tmp_path / "standby-warm")
    assert quiet["frames"] == 0 and quiet["snapshots"] == 0

    standby = tmp_path / "standby"
    benchmark.pedantic(ship, args=(standby,), iterations=1, rounds=1)

    # -- promote: the failover moment --------------------------------------
    t0 = time.perf_counter()
    promoted = promote(standby, _config(), fence=primary)
    promote_s = time.perf_counter() - t0
    # Digest gate: failover is bit-identical to the primary's live state.
    assert promoted["digests"] == reference, "promoted standby diverged"

    # -- backup_restore: cold archive round trip ----------------------------
    archive = tmp_path / "archive"
    restored = tmp_path / "restored"
    t0 = time.perf_counter()
    manifest = backup(standby, archive)
    restore(archive, restored)
    roundtrip_s = time.perf_counter() - t0
    doctor = fleet_doctor(restored, archive_dir=archive, verify_restore=True)
    assert doctor["ok"], doctor["problems"]
    assert promote(restored, _config())["digests"] == reference

    archive_bytes = _dir_bytes(archive)
    _RECORDS.extend(
        [
            {
                "op": "ship_full",
                "n": len(events),
                "vehicles": VEHICLES,
                "wall_time_s": ship_s,
                "frames": stats["frames"],
                "frames_per_s": stats["frames"] / ship_s,
                "mb_per_s": primary_bytes / ship_s / 1e6,
            },
            {
                "op": "promote",
                "n": len(events),
                "vehicles": VEHICLES,
                "wall_time_s": promote_s,
                "sessions_per_s": len(promoted["vehicles"]) / promote_s,
            },
            {
                "op": "backup_restore",
                "n": len(events),
                "vehicles": VEHICLES,
                "wall_time_s": roundtrip_s,
                "files": len(manifest["files"]),
                "archive_mb": archive_bytes / 1e6,
                "mb_per_s": 2 * archive_bytes / roundtrip_s / 1e6,
            },
        ]
    )
