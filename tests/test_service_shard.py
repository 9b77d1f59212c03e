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
        decisions_sharded.extend(sharded.request_lines(chunk))
    digests_sharded = sharded.digests()
    snap_sharded = sharded.health_snapshot(include_vehicles=True)
    sharded.close()

    assert decisions_sharded == decisions_single
    assert digests_sharded == digests_single
    assert snap_sharded["fleet_cost"] == snap_single["fleet_cost"]
    for counter in ("received", "malformed", "duplicates", "rejected"):
        assert snap_sharded["ingest"][counter] == snap_single["ingest"][counter]
    assert snap_sharded["states"] == snap_single["states"]


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
        decisions = service.request_lines(lines, timeout=120.0)
        digests = service.digests(timeout=120.0)
        snapshot = service.health_snapshot(include_vehicles=True, timeout=120.0)
    finally:
        service.close()
    assert decisions == decisions_single
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
    """JSONL in, one JSON decision per line out, /health over the same
    socket — against an inline sharded service (no worker processes)."""
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
                return [json.loads(reply) for reply in handle]

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

    assert replies == decisions_single
    assert service_digests == digests_single
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"200 OK" in head
    snapshot = json.loads(body)
    assert snapshot["routing"]["shards"] == 3
    assert snapshot["ingest"]["received"] == len(lines)


class _EchoService:
    """Minimal service shape (`request_lines`/`health_snapshot`/`close`)
    for frontend protocol tests — no advisor state involved."""

    def request_lines(self, lines):
        return [{"echo": line} for line in lines]

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
    routed = asyncio.run(frontend.pump_stdin(iter(line + "\n" for line in lines)))
    digests = service.digests()
    service.close()
    assert routed == len(lines)
    assert digests == digests_single


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
