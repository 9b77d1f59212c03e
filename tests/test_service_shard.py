"""The sharded serving tier: pure-partition equivalence, routing, locks,
worker chaos, the one-shard layout and the JSONL front end.

The load-bearing property (the sharding contract): for ANY event
stream, ANY shard count and ANY chunking, the decisions and per-vehicle
``state_digest()`` values produced by :class:`ShardedAdvisorService`
are identical to the single-process :class:`AdvisorService` run —
sharding is a pure partition, never a behavior change.  Stated as a
Hypothesis property over adversarial multi-vehicle streams (malformed
records included) in inline mode, and pinned against real worker
processes by the smoke/chaos tests (SIGKILL + restart marked ``slow``).
"""

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.errors import InvalidParameterError
from repro.service import AdvisorService, SessionConfig, SnapshotStore
from repro.service.frontend import JsonlFrontend, parse_listen
from repro.service.shard import (
    SHARD_LOCK_NAME,
    HashRing,
    ShardedAdvisorService,
    ShardLockError,
    acquire_shard_lock,
    release_shard_lock,
    sweep_stale_shard_locks,
)
from repro.service.soak import Cell, build_fleet_events, run_cell

B = 28.0

#: Aggressive knobs (as in test_service_batch): tiny warmups and low
#: drift thresholds so short Hypothesis streams cross health states.
CONFIG = SessionConfig(
    break_even=B,
    min_samples=3,
    dedup_window=512,
    snapshot_every=4,
    length_threshold=6.0,
    split_threshold=6.0,
    drift_min_count=4,
    recover_after=8,
    safe_recover_after=16,
    seed=77,
)


# -- consistent-hash ring -------------------------------------------------


def test_ring_is_deterministic_and_total():
    ring = HashRing(5)
    again = HashRing(5)
    for index in range(500):
        vehicle = f"veh-{index}"
        shard = ring.route(vehicle)
        assert 0 <= shard < 5
        assert again.route(vehicle) == shard


def test_ring_single_shard_routes_everything_to_zero():
    ring = HashRing(1)
    assert {ring.route(f"v{i}") for i in range(50)} == {0}


def test_ring_balance_within_reason():
    ring = HashRing(4)
    counts = [0, 0, 0, 0]
    for index in range(8000):
        counts[ring.route(f"veh-{index:05d}")] += 1
    # Consistent hashing with 64 virtual points per shard is not
    # perfectly uniform, but no shard may be starved or doubled.
    assert min(counts) > 8000 / 4 * 0.5
    assert max(counts) < 8000 / 4 * 2.0


def test_ring_growth_moves_a_minority_of_ids():
    before = HashRing(3)
    after = HashRing(4)
    ids = [f"veh-{i:05d}" for i in range(4000)]
    moved = sum(1 for v in ids if before.route(v) != after.route(v))
    # Consistent hashing: adding one shard reclaims ~1/(N+1) of the
    # space; rehash-everything (mod N) would move ~3/4 of ids.
    assert moved / len(ids) < 0.5


def test_ring_rejects_degenerate_parameters():
    from repro.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        HashRing(0)
    with pytest.raises(InvalidParameterError):
        HashRing(2, replicas=0)


# -- the pure-partition equivalence property (satellite: Hypothesis) ------


@st.composite
def sharded_fleet_stream(draw):
    """Multi-vehicle JSONL lines (malformed mixed in) + shards + chunking."""
    n = draw(st.integers(min_value=5, max_value=40))
    vehicles = ["veh-a", "veh-b", "veh-c", "veh-d"]
    clocks = dict.fromkeys(vehicles, 0.0)
    lines = []
    for index in range(n):
        vehicle = draw(st.sampled_from(vehicles))
        kind = draw(
            st.sampled_from(["ok", "ok", "ok", "ok", "missing", "badnum", "garbage"])
        )
        if kind == "garbage":
            lines.append("{not json at all")
            continue
        if kind == "missing":
            lines.append(json.dumps({"vehicle": vehicle, "t": index}))
            continue
        clocks[vehicle] += 1.0
        value = draw(st.floats(min_value=0.0, max_value=400.0))
        lines.append(
            json.dumps(
                {
                    "id": f"{vehicle}-{index:03d}",
                    "vehicle": vehicle,
                    "t": clocks[vehicle],
                    "stop": "oops" if kind == "badnum" else value,
                }
            )
        )
    shards = draw(st.integers(min_value=1, max_value=5))
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=13), min_size=1, max_size=4)
    )
    return lines, shards, sizes


def _chunks(lines, sizes):
    position, index, out = 0, 0, []
    while position < len(lines):
        size = sizes[index % len(sizes)]
        out.append(lines[position : position + size])
        position += size
        index += 1
    return out


@given(sharded_fleet_stream())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sharding_is_a_pure_partition(tmp_path_factory, case):
    """Any stream x any shard count x any chunking == single-process."""
    lines, shards, sizes = case
    tmp = tmp_path_factory.mktemp("shard-eq")

    single = AdvisorService(tmp / "single", CONFIG, fsync=False)
    decisions_single = []
    for chunk in _chunks(lines, sizes):
        decisions_single.extend(single.ingest_lines(chunk))
    digests_single = {
        vehicle: session.state_digest()
        for vehicle, session in sorted(single.sessions.items())
    }
    snap_single = single.health_snapshot()
    single.close()

    sharded = ShardedAdvisorService(
        tmp / "sharded", CONFIG, shards=shards, workers=False
    )
    decisions_sharded = []
    for chunk in _chunks(lines, sizes):
        decisions_sharded.extend(map(json.loads, sharded.request_lines(chunk)))
    digests_sharded = sharded.digests()
    snap_sharded = sharded.health_snapshot(include_vehicles=True)
    sharded.close()

    assert decisions_sharded == decisions_single
    assert digests_sharded == digests_single
    assert _fleet_part(snap_sharded) == _fleet_part(snap_single)


def _fleet_part(snapshot: dict) -> dict:
    """A health snapshot without what depends on how the fleet is cut:
    the tier's own keys and the chunk count and timing of batches."""
    fleet = {key: value for key, value in snapshot.items()
             if key not in ("routing", "shards")}
    ingest = fleet["ingest"]
    fleet["ingest"] = dict(ingest, batch={"events": ingest["batch"]["events"]})
    return fleet


def _fleet_lines(vehicles: int = 4, stops: int = 3) -> list[str]:
    return [
        json.dumps(event)
        for event in build_fleet_events(vehicles=vehicles, stops_per_vehicle=stops,
                                        seed=19)
    ]


def test_a_shard_counter_is_defined_once_and_summed_by_the_tier(
    tmp_path, monkeypatch
):
    """A counter added to ``AdvisorService.health_snapshot`` alone shows
    up in the tier's snapshot summed over the shards: numbers add, maps
    merge, and a key only one shard has is copied."""
    plain = AdvisorService.health_snapshot

    def with_probe(self, include_vehicles=True):
        snapshot = plain(self, include_vehicles)
        snapshot["probe"] = {
            "sessions": len(self.sessions),
            "shards": {"all": 1, str(self.state_dir.name): 1},
        }
        return snapshot

    monkeypatch.setattr(AdvisorService, "health_snapshot", with_probe)
    lines = _fleet_lines(vehicles=6)
    service = ShardedAdvisorService(tmp_path / "fleet", CONFIG, shards=2, workers=False)
    try:
        service.submit_lines(lines)
        snapshot = service.health_snapshot()
        owners = {service.route(json.loads(line)["vehicle"]) for line in lines}
    finally:
        service.close()
    assert owners == {0, 1}
    assert snapshot["probe"] == {
        "sessions": 6, "shards": {"all": 2, "shard-00": 1, "shard-01": 1},
    }
    assert snapshot["vehicle_count"] == 6


def test_a_tier_with_no_answering_shard_reports_no_totals(tmp_path, monkeypatch):
    """When no shard answers a health request (every breaker open), the
    fleet totals are unknown, so they are absent, and the snapshot still
    carries ``routing`` and one down row per shard."""
    from repro.service import shard as shard_module

    answer = shard_module._answer
    monkeypatch.setattr(
        shard_module,
        "_answer",
        lambda service, kind, arg, want: (
            None if kind == "health" else answer(service, kind, arg, want)
        ),
    )
    service = ShardedAdvisorService(tmp_path / "fleet", CONFIG, shards=2, workers=False)
    try:
        service.submit_lines(_fleet_lines())
        snapshot = service.health_snapshot(include_vehicles=True)
        verdict = service.readiness()
    finally:
        service.close()
    assert sorted(snapshot) == ["routing", "shards"]
    assert snapshot["routing"]["dispatched_events"] == 12
    assert snapshot["shards"] == [
        {"shard": index, "down": True, "vehicles": None, "fleet_cost": None,
         "states": None}
        for index in (0, 1)
    ]
    assert verdict["reasons"] == ["shard 0 is down", "shard 1 is down"]


@pytest.mark.parametrize("shards", [1, 2])
def test_a_shard_command_holds_at_most_dedup_window_lines(tmp_path, shards):
    """Each shard's lines go out in commands of at most ``dedup_window``
    lines, so a command redelivered after a worker death holds only
    events its vehicles' windows still remember."""
    config = SessionConfig(break_even=B, dedup_window=8)
    lines = [
        json.dumps({"id": f"e-{n:02d}", "vehicle": "veh-0", "t": float(n),
                    "stop": float(10 + n)})
        for n in range(20)
    ]
    reference = AdvisorService(tmp_path / "single", config)
    decisions = reference.ingest_lines(lines)
    reference.close()
    service = ShardedAdvisorService(
        tmp_path / "fleet", config, shards=shards, workers=False
    )
    try:
        answers = service.request_lines(lines)
        batch = service.health_snapshot()["ingest"]["batch"]
    finally:
        service.close()
    assert [json.loads(answer) for answer in answers] == decisions
    assert (batch["chunks"], batch["events"]) == (3, 20)


# -- shard state-dir locks ------------------------------------------------


def test_shard_lock_blocks_live_owner_and_sweeps_dead(tmp_path):
    from repro.engine.faults import owner_record

    lock = acquire_shard_lock(tmp_path / "shard-00")
    assert lock.read_text() == owner_record()
    assert lock.read_text().split()[0] == str(os.getpid())
    with pytest.raises(ShardLockError):
        acquire_shard_lock(tmp_path / "shard-00")
    release_shard_lock(lock)
    release_shard_lock(lock)  # idempotent

    # A lock held by a dead pid is stale: silently swept on acquire.
    dead = tmp_path / "shard-01"
    dead.mkdir()
    (dead / SHARD_LOCK_NAME).write_text("999999999")
    lock = acquire_shard_lock(dead)
    assert lock.read_text() == owner_record()
    release_shard_lock(lock)

    # A torn lock (no readable pid) is also stale.
    torn = tmp_path / "shard-02"
    torn.mkdir()
    (torn / SHARD_LOCK_NAME).write_text("")
    release_shard_lock(acquire_shard_lock(torn))


@pytest.mark.parametrize("shards", [1, 2])
def test_an_in_process_tier_holds_its_shard_locks(tmp_path, shards):
    """An in-process tier (plain ``serve``) locks each shard's dir as a
    worker does: a second opener is refused while the first is open and
    opens once it has closed, leaving no lock behind."""
    fleet = tmp_path / "fleet"
    first = ShardedAdvisorService(fleet, CONFIG, shards=shards, workers=False)
    try:
        with pytest.raises(ShardLockError, match=f"live pid {os.getpid()}"):
            ShardedAdvisorService(fleet, CONFIG, shards=shards, workers=False)
    finally:
        first.close()
    second = ShardedAdvisorService(fleet, CONFIG, shards=shards, workers=False)
    second.close()
    assert not list(fleet.rglob(SHARD_LOCK_NAME))


def test_an_in_process_tier_that_fails_to_open_releases_its_locks(
    tmp_path, monkeypatch
):
    opened = []

    def fail_on_second_shard(self, state_dir, *args, **kwargs):
        opened.append(state_dir)
        if len(opened) == 2:
            raise OSError("injected open failure")

    monkeypatch.setattr(AdvisorService, "__init__", fail_on_second_shard)
    with pytest.raises(OSError, match="injected"):
        ShardedAdvisorService(tmp_path / "fleet", CONFIG, shards=2, workers=False)
    assert len(opened) == 2
    assert not list((tmp_path / "fleet").rglob(SHARD_LOCK_NAME))


def test_shard_lock_detects_pid_reuse(tmp_path):
    from repro.engine.faults import process_token

    if process_token(os.getpid()) is None:
        pytest.skip("no /proc start-time tokens on this platform")
    # Simulate pid reuse: the lock names a live pid (ours) but a
    # start-time token from a previous boot/process incarnation.  A
    # bare dead-pid check would treat it as live forever; the token
    # mismatch marks it stale.
    reused = tmp_path / "shard-00"
    reused.mkdir()
    (reused / SHARD_LOCK_NAME).write_text(f"{os.getpid()} 1")
    lock = acquire_shard_lock(reused)  # swept and re-acquired
    assert lock.read_text().split()[1] == process_token(os.getpid())
    release_shard_lock(lock)

    # sweep_stale_shard_locks applies the same discipline...
    (reused / SHARD_LOCK_NAME).write_text(f"{os.getpid()} 1")
    assert sweep_stale_shard_locks(tmp_path) == [str(reused / SHARD_LOCK_NAME)]
    # ...while a matching token (the genuine owner) still blocks.
    lock = acquire_shard_lock(reused)
    with pytest.raises(ShardLockError):
        acquire_shard_lock(reused)
    assert sweep_stale_shard_locks(tmp_path) == []
    release_shard_lock(lock)


def test_sweep_stale_shard_locks_recursive(tmp_path):
    live = tmp_path / "fleet" / "shard-00"
    stale = tmp_path / "fleet" / "shard-01"
    torn = tmp_path / "other" / "nested" / "shard-00"
    for directory in (live, stale, torn):
        directory.mkdir(parents=True)
    (live / SHARD_LOCK_NAME).write_text(str(os.getpid()))
    (stale / SHARD_LOCK_NAME).write_text("999999999")
    (torn / SHARD_LOCK_NAME).write_text("not-a-pid")
    removed = sweep_stale_shard_locks(tmp_path)
    assert sorted(removed) == sorted(
        [str(stale / SHARD_LOCK_NAME), str(torn / SHARD_LOCK_NAME)]
    )
    assert (live / SHARD_LOCK_NAME).exists()  # live owner kept
    assert sweep_stale_shard_locks(tmp_path / "missing") == []


def test_cache_doctor_sweeps_shard_locks(tmp_path, capsys):
    from repro.cli import main

    stale = tmp_path / "state" / "shard-00"
    stale.mkdir(parents=True)
    (stale / SHARD_LOCK_NAME).write_text("999999999")
    assert main(["cache", "doctor", "--fault-claims", str(tmp_path / "state")]) in (
        None,
        0,
    )
    out = capsys.readouterr().out
    assert "shard locks:     swept 1 stale lock(s)" in out
    assert not (stale / SHARD_LOCK_NAME).exists()


# -- the one-shard layout -------------------------------------------------


def test_one_shard_tier_owns_the_state_dir_and_refuses_shard_00(tmp_path):
    service = ShardedAdvisorService(tmp_path / "fleet", CONFIG, shards=1, workers=False)
    service.submit_lines(
        [json.dumps({"id": "e-1", "vehicle": "v1", "t": 0.0, "stop": 42.0})]
    )
    service.close()
    assert list(SnapshotStore(tmp_path / "fleet" / "snapshot.json").load()) == ["v1"]
    assert not list((tmp_path / "fleet").glob("shard-*"))

    legacy = tmp_path / "old" / "shard-00"
    legacy.mkdir(parents=True)
    for workers in (False, True):
        with pytest.raises(InvalidParameterError, match=re.escape(str(legacy))):
            ShardedAdvisorService(tmp_path / "old", CONFIG, shards=1, workers=workers)


@pytest.mark.parametrize("before, after", [(1, 2), (2, 3)])
def test_a_state_dir_refuses_another_shard_count(tmp_path, before, after):
    """The layout names the shard count that wrote a state dir: another
    count is refused, naming the dir and both counts, instead of routing
    vehicles to roots that do not hold their state.  The count that
    wrote it still serves it: a redelivery is all duplicates."""
    lines = [json.dumps(event) for event in build_fleet_events(12, 5, seed=43)]
    fleet = tmp_path / "fleet"
    service = ShardedAdvisorService(fleet, CONFIG, shards=before, workers=False)
    service.submit_lines(lines)
    service.close()
    with pytest.raises(InvalidParameterError) as refused:
        ShardedAdvisorService(fleet, CONFIG, shards=after, workers=False)
    message = str(refused.value)
    assert message.startswith(f"{fleet} was written by {before} shard(s)")
    assert f"a {after}-shard tier" in message
    service = ShardedAdvisorService(fleet, CONFIG, shards=before, workers=False)
    service.submit_lines(lines)
    snapshot = service.health_snapshot()
    service.close()
    assert snapshot["ingest"]["duplicates"] == len(lines)


def test_a_state_dir_with_root_files_and_shard_dirs_is_refused(tmp_path):
    fleet = tmp_path / "fleet"
    service = ShardedAdvisorService(fleet, CONFIG, shards=1, workers=False)
    service.submit_lines([json.dumps(build_fleet_events(1, 1, seed=3)[0])])
    service.close()
    (fleet / "shard-00").mkdir()
    (fleet / "shard-01").mkdir()
    for shards in (1, 2):
        with pytest.raises(InvalidParameterError, match="both root files"):
            ShardedAdvisorService(fleet, CONFIG, shards=shards, workers=False)


def test_inline_tier_serializes_concurrent_requests(tmp_path):
    """Front-end threads share the in-process shard.  Four connections
    feed the same vehicles at once (one clock, so any serial order
    admits every event); with more threads than cores and a tiny switch
    interval, no event or counter may be lost and the durable state must
    recover to the live digests."""
    vehicles = [f"veh-{index}" for index in range(4)]
    streams = [
        [
            json.dumps({"id": f"c{client}-{vehicle}-{n:03d}", "vehicle": vehicle,
                        "t": 0.0, "stop": float((n * 37 + client * 11) % 90)})
            for n in range(30)
            for vehicle in vehicles
        ]
        for client in range(4)
    ]
    service = ShardedAdvisorService(tmp_path / "fleet", CONFIG, shards=1, workers=False)

    def client(lines):
        for start in range(0, len(lines), 3):
            service.request_lines(lines[start : start + 3])
            service.health_snapshot()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(client, lines) for lines in streams]:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    snapshot = service.health_snapshot(include_vehicles=True)
    digests = service.digests()
    service.close()
    total = sum(len(lines) for lines in streams)
    assert snapshot["ingest"]["received"] == total
    assert snapshot["ingest"]["batch"]["chunks"] == total // 3
    assert snapshot["routing"]["dispatched_events"] == total
    assert [info["applied"] for info in snapshot["vehicles"].values()] == [120] * 4
    recovered = AdvisorService(tmp_path / "fleet", CONFIG)
    assert {
        vehicle: recovered.session(vehicle).state_digest() for vehicle in vehicles
    } == digests
    recovered.close()


# -- process-mode fleet: smoke, registry recovery, chaos ------------------


def _single_reference(tmp, lines):
    service = AdvisorService(tmp / "reference", CONFIG, fsync=False)
    decisions = service.ingest_lines(lines)
    digests = {
        vehicle: session.state_digest()
        for vehicle, session in sorted(service.sessions.items())
    }
    cost = service.fleet_cost
    service.close()
    return decisions, digests, cost


def test_process_mode_matches_single_and_recovers_warm(tmp_path):
    """Real workers: decisions/digests == single process; a cold restart
    with no traffic warm-recovers every session from its shard's root."""
    events = build_fleet_events(vehicles=5, stops_per_vehicle=12, seed=21)
    lines = [json.dumps(event) for event in events]
    decisions_single, digests_single, cost_single = _single_reference(
        tmp_path, lines
    )

    service = ShardedAdvisorService(tmp_path / "fleet", CONFIG, shards=2, fsync=True)
    try:
        answers = service.request_lines(lines, timeout=120.0)
        digests = service.digests(timeout=120.0)
        snapshot = service.health_snapshot(include_vehicles=True, timeout=120.0)
    finally:
        service.close()
    assert [json.loads(answer) for answer in answers] == decisions_single
    assert digests == digests_single
    assert snapshot["fleet_cost"] == cost_single
    assert snapshot["routing"]["shards"] == 2
    assert [row["restarts"] for row in snapshot["shards"]] == [0, 0]
    # Locks are released by the graceful close.
    assert not list((tmp_path / "fleet").rglob(SHARD_LOCK_NAME))

    # Cold restart, zero traffic: each shard's snapshot and WAL must
    # warm-recover every session so digests come back bit-identical.
    service = ShardedAdvisorService(tmp_path / "fleet", CONFIG, shards=2, fsync=True)
    try:
        assert service.digests(timeout=120.0) == digests_single
    finally:
        service.close()


def test_a_put_waiting_on_a_full_queue_leaves_the_shard_lock_free(tmp_path):
    """A submit waiting on a frozen worker's full queue must not hold its
    shard lock: once the worker dies, ``_respawn`` needs that lock to
    swap the queue, and while the collector waits on it no shard's acks
    are read and no hang is detected.  The chunks then all land once."""
    lines = [json.dumps(event) for event in build_fleet_events(2, 6, seed=21)]
    _, digests_single, _ = _single_reference(tmp_path, lines)
    service = ShardedAdvisorService(
        tmp_path / "fleet", CONFIG, shards=1, queue_depth=2, hang_timeout=None
    )
    try:
        service.request_lines(lines[:1], timeout=120.0)  # the worker is up
        pid = service.worker_pids[0]
        os.kill(pid, signal.SIGSTOP)
        chunks = [lines[start : start + 2] for start in range(1, len(lines), 2)]
        service.submit_lines(chunks[0])
        service.submit_lines(chunks[1])  # the frozen worker's queue is full
        blocked = threading.Thread(
            target=lambda: [service.submit_lines(chunk) for chunk in chunks[2:]]
        )
        blocked.start()
        time.sleep(0.3)
        assert blocked.is_alive()
        lock = service._shard_locks[0]
        free = 0
        for _ in range(20):
            if lock.acquire(timeout=0.02):
                lock.release()
                free += 1
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 60.0
        while service.restarts[0] < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        blocked.join(timeout=60.0)
        assert not blocked.is_alive()
        service.drain(timeout=120.0)
        digests = service.digests(timeout=120.0)
        restarts = service.restarts[0]
    finally:
        service.close()
    assert free >= 18, f"shard lock free in only {free} of 20 tries"
    assert restarts == 1
    assert digests == digests_single


def test_a_control_request_in_flight_when_its_worker_dies_is_redelivered(tmp_path):
    """Health and digests requests queued at a frozen worker stay in
    flight through its SIGKILL: the respawned worker answers both, from
    the recovered shard."""
    lines = [json.dumps(event) for event in build_fleet_events(3, 6, seed=23)]
    _, digests_single, _ = _single_reference(tmp_path, lines)
    service = ShardedAdvisorService(
        tmp_path / "fleet", CONFIG, shards=1, hang_timeout=None
    )
    try:
        service.request_lines(lines, timeout=120.0)
        pid = service.worker_pids[0]
        os.kill(pid, signal.SIGSTOP)
        with ThreadPoolExecutor(max_workers=2) as pool:
            digests = pool.submit(service.digests, 120.0)
            health = pool.submit(service.health_snapshot, False, 120.0)
            time.sleep(0.5)
            assert not digests.done() and not health.done()
            os.kill(pid, signal.SIGKILL)
            digests = digests.result(timeout=120.0)
            health = health.result(timeout=120.0)
    finally:
        service.close()
    assert digests == digests_single
    assert health["routing"]["restarts"] == 1


def test_a_timed_out_request_leaves_no_answer_behind(tmp_path):
    """A caller that timed out never collects its answer, so the late
    answer must not stay in the result map for the life of the tier;
    the next request still gets the right decisions."""
    lines = [json.dumps(event) for event in build_fleet_events(2, 6, seed=29)]
    decisions_single, digests_single, _ = _single_reference(tmp_path, lines)
    service = ShardedAdvisorService(
        tmp_path / "fleet", CONFIG, shards=1, hang_timeout=None
    )
    try:
        first = service.request_lines(lines[:1], timeout=120.0)
        assert list(map(json.loads, first)) == decisions_single[:1]
        pid = service.worker_pids[0]
        os.kill(pid, signal.SIGSTOP)
        try:
            with pytest.raises(TimeoutError):
                service.request_lines(lines[1:3], timeout=0.3)
        finally:
            os.kill(pid, signal.SIGCONT)
        service.drain(timeout=120.0)
        orphans = dict(service._results)
        rest = service.request_lines(lines[3:], timeout=120.0)
        digests = service.digests(timeout=120.0)
        leftover = dict(service._results)
    finally:
        service.close()
    assert orphans == {}
    assert list(map(json.loads, rest)) == decisions_single[3:]
    assert digests == digests_single
    assert leftover == {}


def test_latency_samples_keep_only_the_newest(tmp_path, monkeypatch):
    """The tier keeps a bounded window of per-chunk latency samples:
    more chunks than the cap leave exactly the cap, the newest ones."""
    monkeypatch.setattr("repro.service.shard._LATENCY_SAMPLES", 3)
    lines = [json.dumps(event) for event in build_fleet_events(2, 6, seed=31)]
    service = ShardedAdvisorService(
        tmp_path / "fleet", CONFIG, shards=1, hang_timeout=None
    )
    try:
        start = 0
        for size in range(1, 5):  # four chunks of 1, 2, 3 and 4 lines
            service.request_lines(lines[start : start + size], timeout=120.0)
            start += size
        held = len(service._latencies)
        samples = service.take_latencies()
        after = service.take_latencies()
    finally:
        service.close()
    assert held == 3
    assert [events for _latency, events in samples] == [2, 3, 4]
    assert after == []


@pytest.mark.parametrize("workers", [False, True], ids=["in-process", "workers"])
def test_tier_readiness_gates_on_replication_lag(tmp_path, workers):
    """A tier built with a ReplicationMonitor: /ready is not ready while
    the standby lags past the bound, and /health carries the lag."""
    from repro.service.replica import ReplicationMonitor

    events = build_fleet_events(vehicles=3, stops_per_vehicle=4, seed=27)
    standby = tmp_path / "standby"
    standby.mkdir()
    service = ShardedAdvisorService(
        tmp_path / "fleet",
        CONFIG,
        shards=2,
        workers=workers,
        replication=ReplicationMonitor(tmp_path / "fleet", standby, max_lag=0),
    )
    try:
        service.request_lines([json.dumps(event) for event in events], timeout=120.0)
        verdict = service.readiness(timeout=60.0)
        snapshot = service.health_snapshot(timeout=60.0)
    finally:
        service.close()
    assert not verdict["ready"]
    assert [
        reason
        for reason in verdict["reasons"]
        if re.fullmatch(r"replication lag \d+ events exceeds bound 0 \(3 .*\)", reason)
    ], verdict["reasons"]
    assert verdict["replication"]["max_lag_bound"] == 0
    replication = snapshot["replication"]
    assert replication["vehicles_lagging"] == 3
    assert replication["within_bound"] is False
    assert sorted(replication["vehicles"]) == sorted({e["vehicle"] for e in events})


@pytest.mark.slow
def test_worker_sigkill_chaos_recovers_bit_identically(tmp_path):
    """SIGKILL a live worker mid-stream: the fleet keeps serving, the
    killed shard recovers from WAL+snapshots, digests stay exact."""
    events = build_fleet_events(vehicles=4, stops_per_vehicle=30, seed=29)
    lines = [json.dumps(event) for event in events]
    _, digests_single, cost_single = _single_reference(tmp_path, lines)

    result, evidence = run_cell(
        Cell("kill", "sharded", 8), events, CONFIG, tmp_path / "fleet"
    )
    assert evidence["restarts"] == 2
    assert result["digests"] == digests_single
    assert result["fleet_cost"] == cost_single
    assert result["snapshot"]["routing"]["restarts"] == 2


# -- the JSONL front end --------------------------------------------------


def test_parse_listen_specs():
    from repro.errors import InvalidParameterError

    assert parse_listen("unix:/run/advisor.sock") == ("unix", "/run/advisor.sock")
    assert parse_listen("./advisor.sock") == ("unix", "./advisor.sock")
    assert parse_listen("tcp:0.0.0.0:9000") == ("tcp", "0.0.0.0", 9000)
    assert parse_listen("localhost:9000") == ("tcp", "localhost", 9000)
    assert parse_listen(":9000") == ("tcp", "127.0.0.1", 9000)
    for bad in ("", "unix:", "9000", "host:port"):
        with pytest.raises(InvalidParameterError):
            parse_listen(bad)


def test_frontend_socket_decisions_and_health(tmp_path):
    """JSONL in, one JSON decision per line out — each line exactly as
    ``json.dumps`` writes the single-process decision — and /health over
    the same socket, against an inline sharded service (no worker
    processes)."""
    events = build_fleet_events(vehicles=3, stops_per_vehicle=6, seed=33)
    lines = [json.dumps(event) for event in events]
    decisions_single, digests_single, _cost = _single_reference(tmp_path, lines)

    service = ShardedAdvisorService(
        tmp_path / "fleet", CONFIG, shards=3, workers=False
    )
    frontend = JsonlFrontend(service)
    sock_path = str(tmp_path / "advisor.sock")

    async def scenario():
        ready = asyncio.Event()
        server = asyncio.create_task(
            frontend.serve(f"unix:{sock_path}", ready=ready, install_signals=False)
        )
        await asyncio.wait_for(ready.wait(), timeout=30)

        def stream_client():
            with socket.socket(socket.AF_UNIX) as sock:
                sock.connect(sock_path)
                handle = sock.makefile("rw")
                for line in lines:
                    handle.write(line + "\n")
                handle.flush()
                sock.shutdown(socket.SHUT_WR)
                return handle.read().splitlines()

        replies = await asyncio.to_thread(stream_client)

        def health_client():
            with socket.socket(socket.AF_UNIX) as sock:
                sock.connect(sock_path)
                sock.sendall(b"GET /health HTTP/1.0\r\n\r\n")
                payload = b""
                while chunk := sock.recv(65536):
                    payload += chunk
            return payload

        raw = await asyncio.to_thread(health_client)
        frontend.request_stop()
        await asyncio.wait_for(server, timeout=30)
        return replies, raw

    replies, raw = asyncio.run(scenario())
    service_digests = service.digests()
    service.close()

    assert replies == [json.dumps(decision) for decision in decisions_single]
    assert service_digests == digests_single
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"200 OK" in head
    snapshot = json.loads(body)
    assert snapshot["routing"]["shards"] == 3
    assert snapshot["ingest"]["received"] == len(lines)


class _EchoService:
    """Minimal service shape (`request_lines`/`health_snapshot`/`close`)
    for frontend protocol tests — no advisor state involved.  It records
    every `request_lines` call, and answers each line with JSON text."""

    def __init__(self):
        self.requests = []

    def request_lines(self, lines):
        self.requests.append(list(lines))
        return [json.dumps({"echo": line}) for line in lines]

    def health_snapshot(self):
        return {"ok": True}

    def close(self):
        pass


def test_frontend_http_hardening(tmp_path, monkeypatch):
    """Malformed, partial and non-GET HTTP on the health socket get clean
    error responses and a closed connection — never a hung handler task,
    never a traceback, and the server keeps serving afterwards."""
    import contextlib

    from repro.service import frontend as frontend_mod

    monkeypatch.setattr(frontend_mod, "_HTTP_HEADER_TIMEOUT_S", 0.2)
    monkeypatch.setattr(frontend_mod, "_LINE_LIMIT", 1024)
    frontend = JsonlFrontend(_EchoService())
    sock_path = str(tmp_path / "advisor.sock")

    async def exchange(payload: bytes) -> bytes:
        reader, writer = await asyncio.open_unix_connection(sock_path)
        writer.write(payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=10)
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
        return raw

    async def scenario():
        ready = asyncio.Event()
        server = asyncio.create_task(
            frontend.serve(f"unix:{sock_path}", ready=ready, install_signals=False)
        )
        await asyncio.wait_for(ready.wait(), timeout=30)
        results = {}
        results["post"] = await exchange(b"POST /health HTTP/1.0\r\n\r\n")
        results["bare"] = await exchange(b"GET\r\n")
        results["junk"] = await exchange(b"GET /health HTTP/1.0 junk\r\n\r\n")
        # Stalls mid-headers: the write side stays open, so only the
        # bounded header read can unblock the handler.
        results["stall"] = await exchange(b"GET /health HTTP/1.0\r\nx-partial: ")
        results["head"] = await exchange(b"HEAD /health HTTP/1.0\r\n\r\n")
        # One line over the stream limit: unframed from here, close.
        results["overrun"] = await exchange(b"x" * 4096)
        # The server survived all of it: a well-formed request still works.
        results["ok"] = await exchange(b"GET /health HTTP/1.0\r\n\r\n")
        frontend.request_stop()
        await asyncio.wait_for(server, timeout=30)
        return results

    results = asyncio.run(scenario())
    assert results["post"].startswith(b"HTTP/1.0 405")
    assert results["bare"].startswith(b"HTTP/1.0 400")
    assert results["junk"].startswith(b"HTTP/1.0 400")
    assert results["stall"].startswith(b"HTTP/1.0 408")
    head, _, body = results["head"].partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 200")
    assert body == b""  # HEAD: headers only
    assert results["overrun"] == b""  # closed cleanly, no response
    head, _, body = results["ok"].partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 200")
    payload = json.loads(body)
    assert payload["ok"] is True
    # The frontend annotates health with its own connection telemetry.
    assert payload["frontend"]["slow_client_disconnects"] == 0


def test_frontend_stdin_pump(tmp_path, monkeypatch):
    from repro.service import frontend as frontend_mod

    monkeypatch.setattr(frontend_mod, "CHUNK_LINES", 4)
    events = build_fleet_events(vehicles=2, stops_per_vehicle=5, seed=41)
    lines = [json.dumps(event) for event in events]
    _, digests_single, _cost = _single_reference(tmp_path, lines)
    service = ShardedAdvisorService(
        tmp_path / "fleet", CONFIG, shards=2, workers=False
    )
    frontend = JsonlFrontend(service)
    stdin = iter(line + "\n" for line in lines)
    asyncio.run(frontend.serve(stdin=stdin, install_signals=False))
    received = service.health_snapshot()["ingest"]["received"]
    digests = service.digests()
    service.close()
    assert frontend.requests == received == len(lines)
    assert digests == digests_single


def test_frontend_answers_a_socket_client_while_stdin_is_open_and_idle(tmp_path):
    """``serve - --listen`` pumps stdin in a thread: a stdin that is open
    but sends nothing must not keep the socket from answering."""
    line = json.dumps(build_fleet_events(vehicles=1, stops_per_vehicle=1, seed=3)[0])
    [decision], _digests, _cost = _single_reference(tmp_path, [line])
    service = ShardedAdvisorService(tmp_path / "fleet", CONFIG, shards=1, workers=False)
    frontend = JsonlFrontend(service)
    sock_path = str(tmp_path / "advisor.sock")
    read_fd, write_fd = os.pipe()
    answers = []

    def client(loop):
        try:
            deadline = time.monotonic() + 30.0
            while not os.path.exists(sock_path) and time.monotonic() < deadline:
                time.sleep(0.01)
            with socket.socket(socket.AF_UNIX) as sock:
                sock.settimeout(5.0)
                sock.connect(sock_path)
                sock.sendall(line.encode() + b"\n")
                sock.shutdown(socket.SHUT_WR)
                answers.append(sock.makefile().read())
        except OSError as exc:
            answers.append(exc)
        finally:
            os.close(write_fd)  # stdin EOF
            loop.call_soon_threadsafe(frontend.request_stop)

    async def scenario():
        thread = threading.Thread(target=client, args=(asyncio.get_running_loop(),))
        thread.start()
        with os.fdopen(read_fd) as stdin:
            await frontend.serve(f"unix:{sock_path}", stdin=stdin, install_signals=False)
        thread.join(timeout=60.0)
        assert not thread.is_alive()

    try:
        asyncio.run(scenario())
    finally:
        service.close()
    assert answers == [json.dumps(decision) + "\n"]


def _serve_while(frontend, sock_path, client):
    """Serve ``frontend`` on ``sock_path`` while ``client()`` runs in a
    thread; returns what the client returned."""

    async def scenario():
        ready = asyncio.Event()
        server = asyncio.create_task(
            frontend.serve(f"unix:{sock_path}", ready=ready, install_signals=False)
        )
        await asyncio.wait_for(ready.wait(), timeout=30)
        try:
            return await asyncio.to_thread(client)
        finally:
            frontend.request_stop()
            await asyncio.wait_for(server, timeout=30)

    return asyncio.run(scenario())


def _send_all_then_read(sock_path: str, payload: bytes) -> bytes:
    with socket.socket(socket.AF_UNIX) as sock:
        sock.connect(sock_path)
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    return raw


def test_frontend_caps_chunks_and_answers_in_order(tmp_path, monkeypatch):
    """Ten lines in one write reach the service in requests of at most
    CHUNK_LINES lines, and their ten answers come back in input order."""
    from repro.service import frontend as frontend_mod

    monkeypatch.setattr(frontend_mod, "CHUNK_LINES", 4)
    service = _EchoService()
    lines = [json.dumps({"n": n}) for n in range(10)]
    sock_path = str(tmp_path / "advisor.sock")
    payload = "".join(f"{line}\n" for line in lines).encode()
    raw = _serve_while(
        JsonlFrontend(service),
        sock_path,
        lambda: _send_all_then_read(sock_path, payload),
    )
    assert raw.decode().splitlines() == [json.dumps({"echo": line}) for line in lines]
    assert [line for request in service.requests for line in request] == lines
    assert max(len(request) for request in service.requests) <= 4


def test_frontend_frames_lines_as_readline_did(tmp_path):
    """CRLF endings, a blank line, a byte that is not UTF-8 and a last
    line with no newline before EOF each get exactly one answer, in
    order."""
    service = _EchoService()
    payload = b'{"a": 1}\r\n\n{"b": "\xff"}\r\n{"c": 3}'
    expected = ['{"a": 1}', "", '{"b": "\ufffd"}', '{"c": 3}']
    sock_path = str(tmp_path / "advisor.sock")
    raw = _serve_while(
        JsonlFrontend(service),
        sock_path,
        lambda: _send_all_then_read(sock_path, payload),
    )
    answers = raw.decode().splitlines()
    assert answers == [json.dumps({"echo": line}) for line in expected]
    assert [line for request in service.requests for line in request] == expected


def test_frontend_closes_on_an_overlong_line_and_keeps_serving(tmp_path, monkeypatch):
    """After one answered line, a line longer than _LINE_LIMIT closes the
    connection with no answer; a new connection is still served."""
    from repro.service import frontend as frontend_mod

    monkeypatch.setattr(frontend_mod, "_LINE_LIMIT", 64)
    service = _EchoService()
    sock_path = str(tmp_path / "advisor.sock")

    def client():
        with socket.socket(socket.AF_UNIX) as sock:
            sock.connect(sock_path)
            sock.settimeout(10)
            handle = sock.makefile("rwb")
            handle.write(b'{"first": 1}\n')
            handle.flush()
            first = handle.readline()
            handle.write(b"x" * 200 + b"\n")
            handle.flush()
            after = handle.read()
        again = _send_all_then_read(sock_path, b'{"again": 2}\n')
        return first, after, again

    first, after, again = _serve_while(JsonlFrontend(service), sock_path, client)
    assert first == json.dumps({"echo": '{"first": 1}'}).encode() + b"\n"
    assert after == b""
    assert again == json.dumps({"echo": '{"again": 2}'}).encode() + b"\n"
    assert service.requests == [['{"first": 1}'], ['{"again": 2}']]


async def _readline_lines(payload: bytes) -> list[str]:
    reader = asyncio.StreamReader()
    reader.feed_data(payload)
    reader.feed_eof()
    lines = []
    while line := await reader.readline():
        lines.append(line.decode("utf-8", "replace").rstrip("\r\n"))
    return lines


async def _line_reader_chunks(payload: bytes, arrival: int) -> list[list[str]]:
    from repro.service.frontend import _LineReader

    reader = asyncio.StreamReader()

    async def feed():
        for start in range(0, len(payload), arrival):
            reader.feed_data(payload[start : start + arrival])
            await asyncio.sleep(0)
        reader.feed_eof()

    feeder = asyncio.create_task(feed())
    lines, chunks = _LineReader(reader), []
    while chunk := await lines.chunk([]):
        chunks.append(chunk)
    await feeder
    return chunks


@given(
    pieces=st.lists(
        st.sampled_from([b"{}", b" ", b"\n", b"\r", b"\xff", b"\xe2\x82", b"\xc3\xa9"]),
        max_size=40,
    ),
    arrival=st.integers(min_value=1, max_value=8),
    chunk_lines=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=100, deadline=None)
def test_frontend_reader_frames_any_arrival_as_readline_did(
    pieces, arrival, chunk_lines
):
    """Any bytes, arriving in pieces, become the lines ``readline`` made
    — CR stripped, UTF-8 replaced, a partial last line kept — in chunks
    of at most CHUNK_LINES."""
    from unittest import mock

    from repro.service import frontend as frontend_mod

    payload = b"".join(pieces)
    with mock.patch.object(frontend_mod, "CHUNK_LINES", chunk_lines):
        chunks = asyncio.run(_line_reader_chunks(payload, arrival))
    assert [line for chunk in chunks for line in chunk] == asyncio.run(
        _readline_lines(payload)
    )
    assert all(0 < len(chunk) <= chunk_lines for chunk in chunks)


# -- CLI ------------------------------------------------------------------


def test_serve_cli_sharded(tmp_path, capsys):
    from repro.cli import main

    events = build_fleet_events(vehicles=3, stops_per_vehicle=8, seed=17)
    events_path = tmp_path / "events.jsonl"
    events_path.write_text("".join(json.dumps(e) + "\n" for e in events))
    health_path = tmp_path / "health.json"
    code = main(
        [
            "serve",
            str(events_path),
            "--state-dir",
            str(tmp_path / "state"),
            "--shards",
            "2",
            "--break-even",
            str(B),
            "--health",
            str(health_path),
        ]
    )
    assert code in (None, 0)
    out = capsys.readouterr().out
    assert "sharded:     2 shard(s)" in out
    snapshot = json.loads(health_path.read_text())
    assert snapshot["routing"]["shards"] == 2
    assert snapshot["ingest"]["received"] == len(events)
    assert len(snapshot["shards"]) == 2


def test_serve_cli_sharded_usage_errors(tmp_path, capsys):
    from repro.cli import main

    events_path = tmp_path / "events.jsonl"
    events_path.write_text("")
    base = ["serve", str(events_path), "--state-dir", str(tmp_path / "state")]
    assert main(base + ["--shards", "0"]) == 2
    capsys.readouterr()


def _http_get(sock_path: str, path: str) -> tuple[bytes, dict]:
    with socket.socket(socket.AF_UNIX) as sock:
        sock.connect(sock_path)
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        payload = b""
        while chunk := sock.recv(65536):
            payload += chunk
    head, _, body = payload.partition(b"\r\n\r\n")
    return head, json.loads(body)


def _stream_lines(sock_path: str, lines: list[str]) -> list:
    with socket.socket(socket.AF_UNIX) as sock:
        sock.connect(sock_path)
        handle = sock.makefile("rw")
        for line in lines:
            handle.write(line + "\n")
        handle.flush()
        sock.shutdown(socket.SHUT_WR)
        return [json.loads(reply) for reply in handle]


def test_serve_cli_listens_without_shards(tmp_path):
    """``serve - --listen unix:PATH`` with no ``--shards``: the
    in-process shard answers JSONL with AdvisorService's decisions and
    serves /health and /ready; two concurrent connections on disjoint
    vehicles end on the single-process digests."""
    events = build_fleet_events(vehicles=4, stops_per_vehicle=30, seed=19)
    lines = [json.dumps(event) for event in events]
    reference = AdvisorService(tmp_path / "reference", SessionConfig(break_even=B))
    expected = {
        event["id"]: decision
        for event, decision in zip(events, reference.ingest_lines(lines))
    }
    digests = {
        vehicle: session.state_digest()
        for vehicle, session in sorted(reference.sessions.items())
    }
    reference.close()
    vehicles = sorted({event["vehicle"] for event in events})
    groups = [
        [line for line, event in zip(lines, events) if event["vehicle"] in part]
        for part in (vehicles[:2], vehicles[2:])
    ]

    sock_path = str(tmp_path / "advisor.sock")
    health_path = tmp_path / "health.json"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "-",
            "--state-dir", str(tmp_path / "state"),
            "--break-even", str(B),
            "--listen", f"unix:{sock_path}",
            "--health", str(health_path),
        ],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
    )
    try:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                ready_head, ready = _http_get(sock_path, "/ready")
                break
            except OSError:
                assert server.poll() is None, "serve exited before listening"
                assert time.monotonic() < deadline, "serve never listened"
                time.sleep(0.05)
        with ThreadPoolExecutor(max_workers=2) as pool:
            replies = list(pool.map(lambda group: _stream_lines(sock_path, group), groups))
        health_head, health = _http_get(sock_path, "/health")
    finally:
        server.terminate()
        out, _ = server.communicate(timeout=60)
    assert server.returncode == 0, out.decode(errors="replace")

    assert ready_head.startswith(b"HTTP/1.0 200") and ready["ready"] is True
    for group, answers in zip(groups, replies):
        assert answers == [expected[json.loads(line)["id"]] for line in group]
    assert health_head.startswith(b"HTTP/1.0 200")
    assert health["routing"]["shards"] == 1
    assert health["ingest"]["received"] == len(lines)
    final = json.loads(health_path.read_text())
    assert {
        vehicle: info["digest"] for vehicle, info in final["vehicles"].items()
    } == digests
    assert (tmp_path / "state" / "snapshot.json").is_file()
