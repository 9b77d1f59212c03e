"""Self-healing supervision: disk-fault degradation, hang detection,
poison-chunk quarantine, crash-loop circuit breaking and readiness.

The load-bearing properties:

* **Disk faults degrade, never corrupt.**  For ANY injected schedule of
  write failures (``FsFaultInjector`` down-windows over the WAL /
  snapshot / ledger write path), the service keeps serving — SAFE
  decisions, zero unhandled exceptions — and once the disk heals the
  recovered state is bit-identical to a run that never saw a fault.
  Stated as a Hypothesis property over fault schedules.
* **A hung worker is a detected worker.**  A SIGSTOPped worker holding
  in-flight work is SIGKILLed and respawned through the normal
  redelivery path (marked ``slow``: real processes).
* **A poison chunk is quarantined, not retried forever.**  The sidecar
  record carries full provenance and the rest of the fleet keeps
  serving (marked ``slow``).
* **A crash loop opens the breaker.**  Traffic to the dead shard is
  shed with count and readiness says why (marked ``slow``).
"""

import contextlib
import errno
import json
import os
import signal
import stat
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.faults import Fault, FaultInjector, FsFault, FsFaultInjector
from repro.engine.ledger import RunLedger
from repro.service import AdvisorService, SessionConfig
from repro.service.shard import POISON_SIDECAR_NAME, ShardedAdvisorService
from repro.service.soak import _noop
from repro.service.wal import SnapshotStore, WriteAheadLog

B = 28.0

#: Small snapshot cadence so short streams exercise WAL appends,
#: snapshot publishes AND WAL resets inside the injected fault windows.
CONFIG = SessionConfig(
    break_even=B,
    min_samples=3,
    dedup_window=512,
    snapshot_every=4,
    seed=77,
)


def _events(vehicles: int = 3, stops: int = 12) -> list[dict]:
    return [
        {
            "id": f"e{v}-{i}",
            "vehicle": f"veh-{v}",
            "t": float(i * 60),
            "stop": 20.0 + (7 * i + 13 * v) % 30,
        }
        for i in range(stops)
        for v in range(vehicles)
    ]


def _serve(state_dir, events, fs=None) -> dict[str, str]:
    """Stream events through an AdvisorService; force-heal; return digests."""
    service = AdvisorService(state_dir, CONFIG, fs=fs)
    for record in events:
        service.process(record)
    # Drain any still-open fault window: every probe advances the
    # injector's op ordinal, so this terminates for any finite schedule.
    for session in service.sessions.values():
        for _ in range(1000):
            if session.probe_durability():
                break
        assert not session.durability_suspended
    service.close()
    return {
        vehicle: session.state_digest()
        for vehicle, session in sorted(service.sessions.items())
    }


# -- FsFaultInjector ------------------------------------------------------


def test_fs_injector_windows_are_ordinal_and_claim_once(tmp_path):
    faults = {3: FsFault(count=2), 7: FsFault(errno_code=errno.EIO)}
    fs = FsFaultInjector(faults, tmp_path / "claims")
    outcomes = []
    for _ in range(8):
        try:
            fs.check("op", "/dev/null")
            outcomes.append(None)
        except OSError as exc:
            outcomes.append(exc.errno)
    assert outcomes == [
        None, None, errno.ENOSPC, errno.ENOSPC, None, None, errno.EIO, None,
    ]
    assert fs.ops == 8
    assert fs.raised == 3
    # The claim files make windows fire exactly once per state dir: a
    # second injector over the same claims (the recovery rerun) is clean.
    again = FsFaultInjector(faults, tmp_path / "claims")
    for _ in range(8):
        again.check("op", "/dev/null")
    assert again.raised == 0


def test_fs_injector_rejects_degenerate_schedules(tmp_path):
    from repro.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        FsFaultInjector({0: FsFault()}, tmp_path)
    with pytest.raises(InvalidParameterError):
        FsFault(count=0)
    with pytest.raises(InvalidParameterError):
        FsFault(errno_code=0)


# -- disk-fault degradation ------------------------------------------------


def test_disk_fault_suspends_serves_safe_then_heals_bit_identically(tmp_path):
    events = _events()
    clean = _serve(tmp_path / "clean", events)
    fs = FsFaultInjector({4: FsFault(count=5)}, tmp_path / "claims")
    service = AdvisorService(tmp_path / "faulty", CONFIG, fs=fs)
    suspended_seen = 0
    for record in events:
        decision = service.process(record)
        assert decision is not None  # a sick disk never drops a decision
        suspended_seen += sum(
            1 for s in service.sessions.values() if s.durability_suspended
        )
    assert suspended_seen > 0  # the window actually opened mid-stream
    assert fs.raised > 0
    for session in service.sessions.values():
        assert session.probe_durability()
    service.close()
    faulty = {
        vehicle: session.state_digest()
        for vehicle, session in sorted(service.sessions.items())
    }
    assert faulty == clean
    # ...and the on-disk state is equally healed: a warm restart over
    # the faulted directory recovers the same digests with no injector.
    rerun = AdvisorService(tmp_path / "faulty", CONFIG)
    for vehicle in clean:
        rerun.session(vehicle)
    assert {
        vehicle: session.state_digest()
        for vehicle, session in sorted(rerun.sessions.items())
    } == clean
    rerun.close()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    schedule=st.dictionaries(
        st.integers(min_value=1, max_value=60),
        st.builds(
            FsFault,
            errno_code=st.sampled_from([errno.ENOSPC, errno.EIO, errno.EROFS]),
            count=st.integers(min_value=1, max_value=6),
        ),
        max_size=4,
    ),
    case=st.integers(),
)
def test_any_fault_schedule_recovers_bit_identically(
    tmp_path_factory, schedule, case
):
    """The tentpole property: disk faults are invisible after healing.

    ANY schedule of down-windows — any ordinals, any widths, any errno,
    overlapping or not — must leave the service bit-identical to the
    never-faulted run once the disk heals and the buffered tail replays.
    """
    root = tmp_path_factory.mktemp("fault-schedule")
    events = _events(vehicles=2, stops=10)
    clean = _serve(root / "clean", events)
    fs = FsFaultInjector(schedule, root / "claims")
    healed = _serve(root / "faulty", events, fs=fs)
    assert healed == clean


def test_run_ledger_swallows_injected_disk_faults(tmp_path):
    fs = FsFaultInjector({2: FsFault(count=2)}, tmp_path / "claims")
    ledger = RunLedger(tmp_path / "run.jsonl", fs=fs)
    for index in range(5):
        ledger.emit("tick", index=index)  # must never raise
    assert ledger.io_errors == 2
    assert "ENOSPC" in (ledger.last_io_error or "")
    survived = [
        json.loads(line)["index"]
        for line in (tmp_path / "run.jsonl").read_text().splitlines()
        if json.loads(line).get("event") == "tick"
    ]
    assert survived == [0, 3, 4]  # the window's records are lost, not fatal


# -- directory fsync (publish durability against OS crash) -----------------


def test_fsync_true_syncs_directory_after_publish_and_creation(
    tmp_path, monkeypatch
):
    """``os.replace`` + file-fsync is not enough: the *directory* entry
    must be fsynced or an OS crash can revert the publish.  Pin that
    ``fsync=True`` syncs the parent directory after a snapshot publish,
    after the first WAL append (creation), and after a WAL reset."""
    synced_dirs = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            synced_dirs.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)

    store = SnapshotStore(tmp_path / "snapshot.json", fsync=True)
    store.save({"v1": {"applied": 1}})
    assert len(synced_dirs) >= 1

    synced_dirs.clear()
    wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync=True)
    wal.append({"id": "e1", "t": 0.0, "stop": 30.0})
    assert len(synced_dirs) == 1  # creation is made durable on first append
    wal.append({"id": "e2", "t": 1.0, "stop": 30.0})
    assert len(synced_dirs) == 1  # ...and only on the first

    synced_dirs.clear()
    wal.reset()
    assert len(synced_dirs) == 1  # the os.replace of the fresh log

    # Without fsync none of these paths sync the directory.
    synced_dirs.clear()
    plain = WriteAheadLog(tmp_path / "wal2.jsonl", fsync=False)
    plain.append({"id": "e1", "t": 0.0, "stop": 30.0})
    plain.reset()
    SnapshotStore(tmp_path / "snap2.json", fsync=False).save({})
    assert synced_dirs == []


# -- respawn escalation ----------------------------------------------------


class _ZombieProcess:
    """A worker whose exit raced a revival: ``join`` alone never reaps
    it, only an explicit SIGKILL does."""

    def __init__(self):
        self.pid = 4242
        self.kills = 0
        self.joins = []
        self._alive = True

    def join(self, timeout=None):
        self.joins.append(timeout)
        if self.kills:
            self._alive = False

    def is_alive(self):
        return self._alive

    def kill(self):
        self.kills += 1


class _Endpoint:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True

    def cancel_join_thread(self):
        pass


def _fake_tier(process):
    """The minimal attribute surface ``_respawn`` touches, so the
    zombie-escalation branch is testable without real processes."""
    tier = SimpleNamespace(
        _shard_locks=[threading.Lock()],
        _commands=[_Endpoint()],
        _pipes=[_Endpoint()],
        _procs=[process],
        _lock=threading.Lock(),
        restarts=[0],
        _eof=set(),
        _in_flight=[{}],
        _stop_sent=set(),
        _ledger=None,
    )
    tier.spawned = []

    def fake_spawn(shard):
        tier.spawned.append(shard)
        tier._commands[shard] = _Endpoint()
        tier._pipes[shard] = _Endpoint()
        tier._procs[shard] = SimpleNamespace(pid=7777, is_alive=lambda: True)

    tier._spawn = fake_spawn
    return tier


def test_respawn_escalates_unjoinable_worker_to_sigkill():
    zombie = _ZombieProcess()
    tier = _fake_tier(zombie)
    old_commands, old_pipe = tier._commands[0], tier._pipes[0]
    ShardedAdvisorService._respawn(tier, 0)
    assert zombie.kills == 1
    assert zombie.joins == [1.0, 10.0]  # polite join, then post-kill reap
    assert not zombie.is_alive()
    assert tier.spawned == [0]
    assert tier.restarts == [1]
    assert old_commands.closed and old_pipe.closed


def test_respawn_skips_escalation_for_a_reaped_worker():
    class _DeadProcess(_ZombieProcess):
        def join(self, timeout=None):
            self.joins.append(timeout)
            self._alive = False

    dead = _DeadProcess()
    tier = _fake_tier(dead)
    ShardedAdvisorService._respawn(tier, 0)
    assert dead.kills == 0
    assert dead.joins == [1.0]
    assert tier.spawned == [0]


# -- readiness (GET /ready) ------------------------------------------------


class _ProbeService:
    """Frontend-shaped stub with a pluggable readiness verdict."""

    def __init__(self, verdict=None):
        if verdict is not None:
            self.readiness = lambda: verdict

    def request_lines(self, lines):
        return [json.dumps({"echo": line}) for line in lines]

    def health_snapshot(self):
        return {"ok": True}

    def close(self):
        pass


def _http(frontend, tmp_path, requests):
    """Serve over a unix socket, run the given raw requests, collect
    the raw responses."""
    import asyncio

    tmp_path.mkdir(parents=True, exist_ok=True)
    sock_path = str(tmp_path / "advisor.sock")

    async def exchange(payload):
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
        responses = [await exchange(request) for request in requests]
        frontend.request_stop()
        await asyncio.wait_for(server, timeout=30)
        return responses

    return asyncio.run(scenario())


def test_ready_endpoint_gates_on_the_service_verdict(tmp_path):
    from repro.service.frontend import JsonlFrontend

    ready_service = _ProbeService({"ready": True, "reasons": []})
    [ok, head] = _http(
        JsonlFrontend(ready_service),
        tmp_path,
        [b"GET /ready HTTP/1.0\r\n\r\n", b"HEAD /readyz HTTP/1.0\r\n\r\n"],
    )
    header, _, body = ok.partition(b"\r\n\r\n")
    assert header.startswith(b"HTTP/1.0 200")
    assert json.loads(body) == {"ready": True, "reasons": []}
    assert head.startswith(b"HTTP/1.0 200")
    assert head.partition(b"\r\n\r\n")[2] == b""  # HEAD: headers only


def test_ready_endpoint_503_when_not_ready_or_probe_raises(tmp_path):
    from repro.service.frontend import JsonlFrontend

    sick = _ProbeService({"ready": False, "reasons": ["circuit breaker open"]})
    [response] = _http(
        JsonlFrontend(sick), tmp_path / "a", [b"GET /ready HTTP/1.0\r\n\r\n"]
    )
    header, _, body = response.partition(b"\r\n\r\n")
    assert header.startswith(b"HTTP/1.0 503")
    assert json.loads(body)["reasons"] == ["circuit breaker open"]

    class _Raising(_ProbeService):
        def readiness(self):
            raise RuntimeError("probe exploded")

    [response] = _http(
        JsonlFrontend(_Raising()), tmp_path / "b", [b"GET /ready HTTP/1.0\r\n\r\n"]
    )
    header, _, body = response.partition(b"\r\n\r\n")
    assert header.startswith(b"HTTP/1.0 503")
    assert "probe exploded" in json.loads(body)["reasons"][0]

    # A service with no readiness probe (legacy shape) is ready whenever
    # it answers — /ready degrades to liveness, never to a 500.
    [response] = _http(
        JsonlFrontend(_ProbeService()), tmp_path / "c",
        [b"GET /ready HTTP/1.0\r\n\r\n"],
    )
    assert response.partition(b"\r\n\r\n")[0].startswith(b"HTTP/1.0 200")


def test_inline_tier_readiness_reflects_suspended_sessions(tmp_path):
    service = ShardedAdvisorService(
        tmp_path, CONFIG, shards=2, workers=False
    )
    try:
        service.submit_lines(
            [json.dumps(record) for record in _events(vehicles=2, stops=3)]
        )
        assert service.readiness() == {"ready": True, "reasons": []}
        session = next(iter(service._inline[0].sessions.values()), None) or next(
            iter(service._inline[1].sessions.values())
        )
        session._suspend(OSError(errno.ENOSPC, "injected"), "wal-append")
        verdict = service.readiness()
        assert not verdict["ready"]
        assert any("durability suspended" in reason for reason in verdict["reasons"])
    finally:
        service.close()


# -- process-mode supervision (slow: real workers) -------------------------


@pytest.mark.slow
def test_hang_detection_respawns_a_frozen_worker(tmp_path):
    events = _events(vehicles=4, stops=8)
    lines = [json.dumps(record) for record in events]
    service = ShardedAdvisorService(
        tmp_path, CONFIG, shards=2, hang_timeout=1.0
    )
    try:
        service.submit_lines(lines[: len(lines) // 2])
        # Settle first: hang detection only arms once a worker has
        # spoken since its last spawn (a booting worker is excused).
        service.drain(timeout=120.0)
        victim = service.route(events[len(events) // 2]["vehicle"])
        pid = service.worker_pids[victim]
        baseline = service.restarts[victim]
        os.kill(pid, signal.SIGSTOP)
        service.submit_lines(lines[len(lines) // 2 :])
        deadline = time.monotonic() + 60.0
        while service.restarts[victim] == baseline:
            assert time.monotonic() < deadline, "hang was never detected"
            time.sleep(0.05)
        assert service.hangs[victim] == 1
        service.drain(timeout=120.0)
        snapshot = service.health_snapshot(timeout=60.0)
        assert snapshot["routing"]["hangs"] == 1
        # Nothing was lost to the freeze: the respawned worker's warm
        # recovery plus redelivery converge on the clean run's state.
        assert service.digests(timeout=60.0) == _serve(
            tmp_path.parent / "hang-clean", events
        )
    finally:
        service.close()


@pytest.mark.slow
def test_poison_chunk_is_quarantined_with_provenance(tmp_path):
    events = _events(vehicles=4, stops=6)
    poison_line = json.dumps(
        {"id": "poison-0", "vehicle": "poison-pill", "t": -1.0, "stop": 1.0},
        sort_keys=True,
    )
    injector = FaultInjector(
        _noop, {poison_line: Fault("kill", times=12)}, tmp_path / "claims"
    )
    service = ShardedAdvisorService(
        tmp_path, CONFIG, shards=2, poison_budget=2, injector=injector
    )
    try:
        service.submit_lines([json.dumps(record) for record in events[:12]])
        service.drain(timeout=120.0)  # attribution needs a lone head chunk
        service.submit_lines([poison_line])
        deadline = time.monotonic() + 120.0
        while service.quarantined_chunks < 1:
            assert time.monotonic() < deadline, "poison chunk never quarantined"
            time.sleep(0.05)
        service.submit_lines([json.dumps(record) for record in events[12:]])
        service.drain(timeout=120.0)
        assert service.quarantined_chunks == 1
        assert service.quarantined_events == 1
        snapshot = service.health_snapshot(timeout=60.0)
        assert snapshot["routing"]["quarantined_chunks"] == 1
        # The quarantine protected everyone else: final digests match a
        # run that never saw the poison line at all.
        assert service.digests(timeout=60.0) == _serve(
            tmp_path.parent / "poison-clean", events
        )
    finally:
        service.close()
    records = [
        json.loads(line)
        for line in (tmp_path / POISON_SIDECAR_NAME).read_text().splitlines()
    ]
    assert len(records) == 1
    [record] = records
    assert record["lines"] == [poison_line]
    assert record["crashes"] == 2
    assert record["events"] == 1
    assert record["shard"] == service.route("poison-pill")
    # Written at classification time: the final crash's respawn has not
    # bumped the counter yet, so it records the restarts *before* it.
    assert record["restarts"] == 1


@pytest.mark.slow
def test_crash_loop_opens_the_breaker_and_sheds_with_count(tmp_path):
    events = _events(vehicles=1, stops=4)
    lines = [json.dumps(record) for record in events]
    # EVERY line kills the worker and the poison budget is out of
    # reach, so nothing can be blamed on a chunk: a pure crash loop.
    injector = FaultInjector(
        _noop,
        {line: Fault("kill", times=50) for line in lines},
        tmp_path / "claims",
    )
    service = ShardedAdvisorService(
        tmp_path,
        CONFIG,
        shards=1,
        restart_budget=2,
        poison_budget=99,
        injector=injector,
    )
    try:
        service.submit_lines(lines)
        deadline = time.monotonic() + 120.0
        while 0 not in service.breaker_open:
            assert time.monotonic() < deadline, "breaker never opened"
            time.sleep(0.05)
        # Everything the shard held was shed with count...
        assert service.breaker_shed == len(events)
        # ...new traffic sheds instead of blocking forever...
        service.submit_lines(lines[:1])
        assert service.breaker_shed == len(events) + 1
        # ...and readiness names the breaker.
        verdict = service.readiness(timeout=30.0)
        assert not verdict["ready"]
        assert any("breaker" in reason for reason in verdict["reasons"])
        snapshot = service.health_snapshot(timeout=60.0)
        assert snapshot["routing"]["breaker_open"] == [0]
        [row] = snapshot["shards"]
        assert row["down"] is True
    finally:
        service.close()  # must not hang on the held-down shard
    assert service.quarantined_chunks == 0
