"""Disaster-recovery pins: WAL shipping, promotion, PITR, fleet doctor.

The acceptance bar (mirrored from the chaos harness): a standby fed by
WAL shipping, promoted after the primary dies, must land on per-vehicle
state digests bit-identical to a run that never failed.  On top of that
pin, this module covers the replication channel (local and remote with
injected connection drops), point-in-time restore under the backup
manifest, the ``fleet doctor`` verifier, replication-lag readiness
gating, and a Hypothesis property: a crash at ANY operation ordinal
during ``restore``/``promote`` — or a torn write truncating any restored
file at any byte — leaves a state dir that either recovers
bit-identically or is cleanly detected, never a silently wrong digest.
"""

import asyncio
import contextlib
import json
import os
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.faults import FsFault, FsFaultInjector, NetFault, NetFaultInjector
from repro.service.advisor import AdvisorService
from repro.service.augmented import TrustLearner
from repro.service.replica import (
    LocalReplicaTarget,
    RemoteReplicaTarget,
    ReplicaServer,
    ReplicationError,
    ReplicationMonitor,
    backup,
    durable_summary,
    fleet_doctor,
    promote,
    read_manifest,
    replicate,
    restore,
    sweep_state_dir,
    sync_once,
)
from repro.service.session import SessionConfig
from repro.service.shard import ShardLockError, acquire_shard_lock, release_shard_lock
from repro.service.soak import build_fleet_events, run_stream
from repro.service.wal import WriteAheadLog

#: snapshot_every=5 keeps compaction (and the delta log) in play for
#: most shipping passes — the trickiest replication window.
CONFIG = SessionConfig(
    break_even=28.0,
    min_samples=3,
    snapshot_every=5,
    dedup_window=256,
    drift_min_count=5,
    seed=99,
)

EVENTS = build_fleet_events(vehicles=3, stops_per_vehicle=12, seed=21)


def _serve_registered(events, state_dir, *, config=CONFIG, close=True):
    """Run a primary (every root is promotable); optionally crash-abandon it."""
    service = AdvisorService(Path(state_dir), config, policy="repair")
    for record in events:
        service.process(record)
    if close:
        service.close()
        return service.health_snapshot()
    snapshot = service.health_snapshot()
    # Crash: abandon without close — no final compaction, WAL keeps its
    # tail.  Durability must not depend on a clean shutdown.
    del service
    return snapshot


def _digests(snapshot) -> dict:
    return {vid: info["digest"] for vid, info in snapshot["vehicles"].items()}


@pytest.fixture()
def reference(tmp_path):
    """Digests of a clean, never-failed run over the full stream."""
    return _digests(_serve_registered(EVENTS, tmp_path / "ref"))


# -- WAL follow -------------------------------------------------------------


class TestFollow:
    def test_follow_yields_frames_past_the_watermark(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        for seq in range(1, 6):
            wal.append({"seq": seq, "value": seq * 10})
        frames = list(wal.follow(2))
        assert [seq for seq, _line, _record in frames] == [3, 4, 5]
        assert frames[0][2]["value"] == 30
        # the yielded line re-verifies: it is the exact framed bytes
        assert all(" " in line for _seq, line, _record in frames)

    def test_follow_drops_a_torn_tail_like_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.append({"seq": 1})
        wal.append({"seq": 2})
        with open(wal.path, "a") as handle:
            handle.write('deadbeef {"seq": 3, "torn')  # no newline, bad crc
        fresh = WriteAheadLog(tmp_path / "wal.jsonl")
        frames = list(fresh.follow(0))
        assert [seq for seq, _line, _record in frames] == [1, 2]
        assert fresh.tail_torn

    def test_follow_raises_on_mid_file_corruption(self, tmp_path):
        from repro.service.wal import WalCorruptionError

        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.append({"seq": 1})
        wal.append({"seq": 2})
        lines = wal.path.read_text().splitlines()
        lines[0] = "00000000 " + lines[0].split(" ", 1)[1]
        wal.path.write_text("\n".join(lines) + "\n")
        fresh = WriteAheadLog(tmp_path / "wal.jsonl")
        with pytest.raises(WalCorruptionError):
            list(fresh.follow(0))


# -- local shipping + promotion ---------------------------------------------


class TestShipAndPromote:
    def test_promoted_standby_is_bit_identical_to_a_clean_run(
        self, tmp_path, reference
    ):
        primary = tmp_path / "primary"
        standby = tmp_path / "standby"
        _serve_registered(EVENTS, primary, close=False)
        target = LocalReplicaTarget(standby)
        stats = sync_once(primary, target)
        assert stats["frames"] > 0  # abandoned primary leaves WAL tail
        promoted = promote(standby, CONFIG, fence=primary)
        assert promoted["digests"] == reference

    def test_incremental_catchup_ships_only_new_frames(self, tmp_path):
        primary = tmp_path / "primary"
        standby = tmp_path / "standby"
        half = len(EVENTS) // 2
        _serve_registered(EVENTS[:half], primary, close=False)
        target = LocalReplicaTarget(standby)
        sync_once(primary, target)
        quiet = sync_once(primary, target)
        assert (quiet["frames"], quiet["snapshots"], quiet["deltas"]) == (0, 0, 0)
        # primary recovers and serves the rest (full redelivery dedups)
        _serve_registered(EVENTS, primary, close=False)
        moved = sync_once(primary, target)
        assert moved["frames"] > 0 or moved["snapshots"] > 0

    def test_lagging_standby_promotes_then_redelivery_restores_parity(
        self, tmp_path, reference
    ):
        primary = tmp_path / "primary"
        standby = tmp_path / "standby"
        cut = (2 * len(EVENTS)) // 3
        _serve_registered(EVENTS[:cut], primary, close=False)
        sync_once(primary, LocalReplicaTarget(standby))
        # primary dies here; the standby is promoted mid-history and the
        # producer replays the WHOLE stream (at-least-once delivery).
        promote(standby, CONFIG, fence=primary)
        final = _digests(_serve_registered(EVENTS, standby))
        assert final == reference

    def test_promote_is_fenced_by_a_live_primary_lock(self, tmp_path, reference):
        primary = tmp_path / "primary"
        standby = tmp_path / "standby"
        _serve_registered(EVENTS, primary, close=False)
        sync_once(primary, LocalReplicaTarget(standby))
        lock = acquire_shard_lock(primary)  # we are the live old primary
        try:
            with pytest.raises(ShardLockError, match="split-brain"):
                promote(standby, CONFIG, fence=primary)
        finally:
            release_shard_lock(lock)
        # a DEAD owner is a stale lock, not a fence
        (primary / "shard.lock").write_text("999999999 0\n")
        promoted = promote(standby, CONFIG, fence=primary)
        assert promoted["digests"] == reference


# -- remote shipping over the JSONL socket channel --------------------------


@contextlib.contextmanager
def _replica_server(standby, sock_path):
    server = ReplicaServer(standby)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve(f"unix:{sock_path}", ready=ready)),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=30)
    try:
        yield server
    finally:
        server.request_stop()
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestRemoteShipping:
    def test_remote_standby_promotes_bit_identically(self, tmp_path, reference):
        primary = tmp_path / "primary"
        standby = tmp_path / "standby"
        _serve_registered(EVENTS, primary, close=False)
        sock = str(tmp_path / "replica.sock")
        with _replica_server(standby, sock):
            target = RemoteReplicaTarget(f"unix:{sock}")
            totals = replicate(primary, target, passes=2, interval=0)
            assert totals["passes"] == 2
            assert totals["channel_errors"] == 0
        promoted = promote(standby, CONFIG, fence=primary)
        assert promoted["digests"] == reference

    def test_injected_connection_drops_are_retried_idempotently(
        self, tmp_path, reference
    ):
        primary = tmp_path / "primary"
        standby = tmp_path / "standby"
        _serve_registered(EVENTS, primary, close=False)
        sock = str(tmp_path / "replica.sock")
        # ordinals are global over net ops: drop the very first connect
        # and a mid-stream send — both passes must re-ship idempotently.
        net = NetFaultInjector(
            {1: NetFault(), 5: NetFault(count=2)}, tmp_path / "net-claims"
        )
        with _replica_server(standby, sock):
            target = RemoteReplicaTarget(f"unix:{sock}", net=net)
            totals = replicate(
                primary, target, passes=2, interval=0, max_errors=10
            )
            assert totals["channel_errors"] >= 1
            assert totals["passes"] == 2
        assert net.raised >= 1
        promoted = promote(standby, CONFIG, fence=primary)
        assert promoted["digests"] == reference

    def test_a_dead_channel_becomes_a_replication_error(self, tmp_path):
        primary = tmp_path / "primary"
        _serve_registered(EVENTS[:6], primary, close=False)
        # a regular file where a socket should be: ECONNREFUSED per try
        (tmp_path / "nobody.sock").touch()
        target = RemoteReplicaTarget(f"unix:{tmp_path / 'nobody.sock'}")
        with pytest.raises(ReplicationError, match="channel failed"):
            replicate(primary, target, passes=1, interval=0, max_errors=2)


# -- cold backup / point-in-time restore ------------------------------------


class TestBackupRestore:
    def test_backup_restore_round_trip_promotes_bit_identically(
        self, tmp_path, reference
    ):
        primary = tmp_path / "primary"
        archive = tmp_path / "archive"
        restored = tmp_path / "restored"
        _serve_registered(EVENTS, primary, close=False)
        manifest = backup(primary, archive)
        assert manifest["files"] and manifest["vehicles"]
        report = restore(archive, restored)
        assert report["files"] == len(
            [rel for rel in manifest["files"] if rel != "replica.watermarks.json"]
        )
        doctor = fleet_doctor(restored, archive_dir=archive, verify_restore=True)
        assert doctor["ok"], doctor["problems"]
        promoted = promote(restored, CONFIG)
        assert promoted["digests"] == reference

    def test_backup_refuses_to_overwrite_an_archive(self, tmp_path):
        primary = tmp_path / "primary"
        archive = tmp_path / "archive"
        _serve_registered(EVENTS[:6], primary)
        backup(primary, archive)
        with pytest.raises(ReplicationError, match="already holds"):
            backup(primary, archive)

    def test_restore_refuses_a_nonempty_target(self, tmp_path):
        primary = tmp_path / "primary"
        archive = tmp_path / "archive"
        _serve_registered(EVENTS[:6], primary)
        backup(primary, archive)
        with pytest.raises(ReplicationError, match="refusing to restore"):
            restore(archive, primary)

    def test_a_corrupt_archive_is_refused_and_diagnosed(self, tmp_path):
        primary = tmp_path / "primary"
        archive = tmp_path / "archive"
        _serve_registered(EVENTS[:6], primary, close=False)
        backup(primary, archive)
        victim = next(
            path
            for path in sorted(archive.rglob("*"))
            if path.is_file() and path.name == "wal.jsonl"
        )
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        with pytest.raises(ReplicationError, match="corrupt backup"):
            restore(archive, tmp_path / "restored")
        doctor = fleet_doctor(primary, archive_dir=archive)
        assert not doctor["ok"]
        assert any("backup-corrupt" in line for line in doctor["problems"])

    def test_point_in_time_restore_equals_the_shorter_clean_run(self, tmp_path):
        # One vehicle, no compaction: every applied event is one WAL seq,
        # so --upto-seq k IS "the first k events".
        config = SessionConfig(
            break_even=28.0,
            min_samples=3,
            snapshot_every=10**6,
            dedup_window=256,
            drift_min_count=5,
            seed=99,
        )
        events = build_fleet_events(vehicles=1, stops_per_vehicle=14, seed=3)
        upto = 9
        primary = tmp_path / "primary"
        archive = tmp_path / "archive"
        restored = tmp_path / "restored"
        _serve_registered(events, primary, config=config, close=False)
        backup(primary, archive)
        report = restore(archive, restored, upto_seq=upto)
        assert sum(report["truncated"].values()) == len(events) - upto
        promoted = promote(restored, config)
        shorter = _digests(
            _serve_registered(events[:upto], tmp_path / "short", config=config)
        )
        assert promoted["digests"] == shorter

    def test_pitr_refuses_history_already_compacted_away(self, tmp_path):
        # snapshot_every=5: by event 12 the full snapshot sits past seq 5,
        # so a restore to seq 2 cannot be honoured and must say so.
        events = build_fleet_events(vehicles=1, stops_per_vehicle=12, seed=3)
        primary = tmp_path / "primary"
        archive = tmp_path / "archive"
        _serve_registered(events, primary, close=False)
        backup(primary, archive)
        with pytest.raises(ReplicationError, match="compact"):
            restore(archive, tmp_path / "restored", upto_seq=2)

    def test_pitr_refuses_a_compaction_point_past_the_restore_point(self, tmp_path):
        # Batched ingest compacts at 6 and 12 here, and the WAL between
        # them is gone: seq 9 cannot be rebuilt, so the restore must say
        # which vehicle and seq stand in the way, and write nothing.
        events = build_fleet_events(vehicles=1, stops_per_vehicle=12, seed=3)
        lines = [json.dumps(event) for event in events]
        primary = tmp_path / "primary"
        service = AdvisorService(primary, CONFIG, policy="repair")
        for start in range(0, len(lines), 3):
            service.ingest_lines(lines[start : start + 3])
        vehicle = events[0]["vehicle"]
        del service  # abandoned without close()
        archive = tmp_path / "archive"
        backup(primary, archive)
        restored = tmp_path / "restored"
        with pytest.raises(ReplicationError, match=f"{vehicle}.*seq 12"):
            restore(archive, restored, upto_seq=9)
        assert not list(restored.iterdir())


# -- fleet doctor + replication-lag readiness -------------------------------


class TestDoctorAndReadiness:
    def test_doctor_reports_lag_and_divergence(self, tmp_path):
        primary = tmp_path / "primary"
        standby = tmp_path / "standby"
        cut = len(EVENTS) // 2
        _serve_registered(EVENTS[:cut], primary, close=False)
        sync_once(primary, LocalReplicaTarget(standby))
        _serve_registered(EVENTS, primary, close=False)  # standby now lags

        lagging = fleet_doctor(primary, replica_dir=standby)
        assert lagging["ok"]  # lag without a bound is a report, not a problem
        assert lagging["replication"]["max_lag_events"] > 0

        bounded = fleet_doctor(primary, replica_dir=standby, max_lag=0)
        assert not bounded["ok"]
        assert any("replication-lag" in line for line in bounded["problems"])

        sync_once(primary, LocalReplicaTarget(standby))
        caught_up = fleet_doctor(primary, replica_dir=standby, max_lag=0)
        assert caught_up["ok"], caught_up["problems"]
        assert caught_up["replication"]["max_lag_events"] == 0

    def test_doctor_flags_a_replica_ahead_of_its_primary(self, tmp_path):
        primary = tmp_path / "primary"
        standby = tmp_path / "standby"
        cut = len(EVENTS) // 2
        _serve_registered(EVENTS[:cut], primary, close=False)
        sync_once(primary, LocalReplicaTarget(standby))
        _serve_registered(EVENTS, standby)  # standby ran AHEAD: wrong pairing
        report = fleet_doctor(primary, replica_dir=standby)
        assert not report["ok"]
        assert any("replica-ahead" in line for line in report["problems"])

    def test_readiness_gates_on_replication_lag(self, tmp_path):
        primary = tmp_path / "primary"
        standby = tmp_path / "standby"
        _serve_registered(EVENTS, primary, close=False)
        monitor = ReplicationMonitor(primary, standby, max_lag=0)
        service = AdvisorService(primary, CONFIG, replication=monitor)
        try:
            verdict = service.readiness()
            assert not verdict["ready"]
            assert any("replication lag" in reason for reason in verdict["reasons"])
            health = service.health_snapshot()
            assert health["replication"]["within_bound"] is False

            sync_once(primary, LocalReplicaTarget(standby))
            verdict = service.readiness()
            assert verdict["ready"], verdict["reasons"]
            assert service.health_snapshot()["replication"]["max_lag_events"] == 0
        finally:
            service.close()

    def test_corrupt_watermarks_fail_closed(self, tmp_path):
        primary = tmp_path / "primary"
        standby = tmp_path / "standby"
        _serve_registered(EVENTS[:6], primary, close=False)
        sync_once(primary, LocalReplicaTarget(standby))
        (standby / "replica.watermarks.json").write_text("garbage not a frame\n")
        monitor = ReplicationMonitor(primary, standby, max_lag=10**6)
        snap = monitor.snapshot()
        assert snap["watermarks_corrupt"]
        assert not snap["within_bound"]
        service = AdvisorService(primary, CONFIG, replication=monitor)
        try:
            verdict = service.readiness()
            assert not verdict["ready"]
            assert any("watermarks corrupt" in r for r in verdict["reasons"])
        finally:
            service.close()


# -- crash-anywhere property (Hypothesis) -----------------------------------


def _build_archive(tmp_path):
    primary = tmp_path / "primary"
    events = build_fleet_events(vehicles=2, stops_per_vehicle=6, seed=5)
    _serve_registered(events, primary, close=False)
    archive = tmp_path / "archive"
    backup(primary, archive)
    reference = promote(tmp_path / "primary", CONFIG)["digests"]
    return archive, reference


class TestCrashDuringRecoveryOps:
    @settings(max_examples=12, deadline=None)
    @given(ordinal=st.integers(min_value=1, max_value=10))
    def test_restore_crash_is_detected_or_recovers_bit_identically(
        self, tmp_path_factory, ordinal
    ):
        tmp_path = tmp_path_factory.mktemp("pitr-crash")
        archive, reference = _build_archive(tmp_path)
        restored = tmp_path / "restored"
        fs = FsFaultInjector({ordinal: FsFault()}, tmp_path / "fs-claims")
        try:
            restore(archive, restored, fs=fs)
        except OSError:
            # Crashed mid-restore: the partial dir must be DETECTED —
            # verify_restore byte-compares against the manifest, so a
            # missing or half-written file cannot pass silently.
            doctor = fleet_doctor(restored, archive_dir=archive, verify_restore=True)
            assert not doctor["ok"]
            return
        # The schedule landed past the last write: the restore is whole
        # and must promote to the exact reference digests.
        doctor = fleet_doctor(restored, archive_dir=archive, verify_restore=True)
        assert doctor["ok"], doctor["problems"]
        assert promote(restored, CONFIG)["digests"] == reference

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_torn_write_in_a_restored_file_never_passes_silently(
        self, tmp_path_factory, data
    ):
        tmp_path = tmp_path_factory.mktemp("pitr-torn")
        archive, _reference = _build_archive(tmp_path)
        restored = tmp_path / "restored"
        restore(archive, restored)
        files = sorted(
            path
            for path in restored.rglob("*")
            if path.is_file() and path.name != "replica.watermarks.json"
        )
        victim = files[data.draw(st.integers(0, len(files) - 1), label="file")]
        size = victim.stat().st_size
        cut = data.draw(st.integers(0, max(0, size - 1)), label="offset")
        victim.write_bytes(victim.read_bytes()[:cut])
        doctor = fleet_doctor(restored, archive_dir=archive, verify_restore=True)
        assert not doctor["ok"]

    @settings(max_examples=8, deadline=None)
    @given(ordinal=st.integers(min_value=1, max_value=40))
    def test_promote_crash_leaves_a_repromotable_dir(
        self, tmp_path_factory, ordinal
    ):
        tmp_path = tmp_path_factory.mktemp("promote-crash")
        archive, reference = _build_archive(tmp_path)
        restored = tmp_path / "restored"
        restore(archive, restored)
        fs = FsFaultInjector({ordinal: FsFault()}, tmp_path / "fs-claims")
        try:
            first = promote(restored, CONFIG, fs=fs)
        except OSError:
            first = None
        # Whether the fault hit a durable write or the schedule ran past
        # the end, a clean re-promotion must land on the reference
        # digests — compaction publishes atomically, so no torn state.
        again = promote(restored, CONFIG)
        assert again["digests"] == reference
        if first is not None:
            assert first["digests"] == reference


# -- state-dir sweeping (cache doctor) --------------------------------------


class TestSweepStateDir:
    def test_sweep_removes_dead_tmp_and_stale_deltas_only(self, tmp_path):
        primary = tmp_path / "primary"
        _serve_registered(EVENTS[:6], primary, close=False)
        vdir = primary
        dead_tmp = vdir / "snapshot.json.tmp999999999"
        dead_tmp.write_text("abandoned by a dead writer")
        live_tmp = vdir / f"snapshot.json.tmp{os.getpid()}"
        live_tmp.write_text("in flight right now")
        orphan_delta = vdir / "snapshot.json.delta"
        base = vdir / "snapshot.json"
        had_base = base.exists()
        if had_base:
            base.unlink()
        orphan_delta.write_text("00000000 {}\n")

        removed = sweep_state_dir(primary)
        assert not dead_tmp.exists()
        assert live_tmp.exists()  # owner alive: mid-publish, hands off
        assert not orphan_delta.exists()
        assert len(removed) == 2
        live_tmp.unlink()

    def test_cache_doctor_cli_sweeps_a_state_dir(self, tmp_path, capsys):
        from repro import cli

        primary = tmp_path / "primary"
        _serve_registered(EVENTS[:6], primary, close=False)
        (primary / "wal.jsonl.tmp999999999").write_text("orphan")
        code = cli.main(["cache", "doctor", "--state-dir", str(primary)])
        assert code == 0
        out = capsys.readouterr().out
        assert "state dir:       swept 1 orphan(s)" in out


# -- CLI round trip ---------------------------------------------------------


class TestCliRoundTrip:
    def test_replicate_promote_backup_restore_doctor(self, tmp_path, capsys):
        from repro import cli

        # only flags `promote` exposes — the promoted config must match
        # the primary's exactly for a bit-identical continuation
        config = SessionConfig(break_even=28.0, snapshot_every=5, seed=99)
        primary = tmp_path / "primary"
        standby = tmp_path / "standby"
        archive = tmp_path / "archive"
        restored = tmp_path / "restored"
        _serve_registered(EVENTS, primary, config=config, close=False)
        reference = _digests(
            _serve_registered(EVENTS, tmp_path / "ref", config=config)
        )

        assert cli.main([
            "replicate", str(primary), "--standby", str(standby),
            "--passes", "1", "--interval", "0",
        ]) == 0
        assert cli.main([
            "fleet", "doctor", str(primary),
            "--replica", str(standby), "--max-lag", "0",
        ]) == 0
        assert cli.main([
            "promote", str(standby), "--fence", str(primary),
            "--break-even", "28", "--snapshot-every", "5", "--seed", "99",
        ]) == 0
        out = capsys.readouterr().out
        for digest in reference.values():
            assert digest in out

        assert cli.main(["backup", str(standby), str(archive)]) == 0
        assert cli.main(["restore", str(archive), str(restored)]) == 0
        assert cli.main([
            "fleet", "doctor", str(restored),
            "--archive", str(archive), "--verify-restore",
        ]) == 0
        capsys.readouterr()

        # corrupt the archive: doctor must exit nonzero and say why
        victim = next(
            path
            for path in sorted(archive.rglob("snapshot.json"))
            if path.is_file()
        )
        victim.write_bytes(victim.read_bytes()[:-4])
        assert cli.main([
            "fleet", "doctor", str(restored), "--archive", str(archive),
        ]) == 1
        captured = capsys.readouterr()
        assert "backup-corrupt" in captured.out

    def test_promote_keeps_a_learning_augmented_fleet(self, tmp_path, capsys):
        """``promote --predictor contextual`` continues an augmented
        primary bit-identically, and its compaction keeps the learners."""
        from repro import cli
        from repro.service import AugmentedSessionConfig
        from repro.service.wal import SnapshotStore

        config = AugmentedSessionConfig(break_even=28.0, predictor="contextual")
        events = build_fleet_events(vehicles=3, stops_per_vehicle=40, seed=5)
        primary = tmp_path / "primary"
        snapshot = _serve_registered(events, primary, config=config, close=False)
        digests = _digests(snapshot)

        assert cli.main(["promote", str(primary), "--predictor", "contextual"]) == 0
        out = capsys.readouterr().out
        for vehicle, digest in digests.items():
            assert f"{vehicle}  {digest}" in out
        states = SnapshotStore(primary / "snapshot.json").load()
        assert sorted(states) == sorted(digests)
        for state in states.values():
            assert state["augmented"]["predictor"]["global"][0] == 40
            assert state["augmented"]["trust"] != TrustLearner().to_state()
        service = AdvisorService(primary, config)
        try:
            assert _digests(service.health_snapshot()) == digests
        finally:
            service.close()

    def test_replicate_argument_validation(self, tmp_path, capsys):
        from repro import cli

        assert cli.main(["replicate"]) == 2
        assert cli.main(["replicate", str(tmp_path)]) == 2
        assert cli.main([
            "replicate", str(tmp_path), "--standby", str(tmp_path / "s"),
            "--to", "unix:/nope",
        ]) == 2
        assert cli.main(["replicate", "--serve"]) == 2
        capsys.readouterr()


# -- the acceptance pin: SIGKILL the primary, promote, stay bit-identical ---


class TestKillPrimaryChaosPin:
    """The disaster-recovery acceptance bar, with a real SIGKILL."""

    @pytest.mark.slow
    def test_killed_primary_promoted_standby_is_bit_identical(self, tmp_path):
        from repro.service.soak import Cell, gate, run_cell

        events = build_fleet_events(vehicles=2, stops_per_vehicle=20, seed=3)
        config = SessionConfig(
            break_even=28.0,
            min_samples=5,
            snapshot_every=7,
            dedup_window=64,
            seed=3,
        )
        clean = run_stream(events, tmp_path / "clean", config)
        cell = Cell("primary-loss", "standby", 1, at=((2 * len(events)) // 3,))
        final, evidence = run_cell(cell, events, config, tmp_path / "chaos")
        # The gate holds the primary's SIGKILL, the fleet doctor's verdict
        # and backup -> restore -> promote parity; the promoted-standby
        # parity against a never-failed run is ours.
        assert gate(cell, final, evidence, clean) == []
        assert final["fleet_cost"] == clean["fleet_cost"]
        assert final["digests"] == clean["digests"]
        assert evidence["sync_passes"] >= 1
        assert evidence["frames_shipped"] >= 1
        assert evidence["restored_digests"] == clean["digests"]


# -- durable summaries ------------------------------------------------------


class TestDurableSummary:
    def test_summary_is_stable_across_processless_reads(self, tmp_path):
        primary = tmp_path / "primary"
        _serve_registered(EVENTS[:6], primary, close=False)
        first = durable_summary(primary)
        assert first == durable_summary(primary)
        assert sorted(first) == sorted({event["vehicle"] for event in EVENTS[:6]})
        for info in first.values():
            assert info["tip"] >= info["snapshot_seq"]
            assert isinstance(info["digest"], str) and len(info["digest"]) == 64

    def test_manifest_read_rejects_missing_and_corrupt(self, tmp_path):
        with pytest.raises(ReplicationError, match="backup incomplete"):
            read_manifest(tmp_path)
        (tmp_path / "backup.manifest.json").write_text("junk with no frame\n")
        with pytest.raises(ReplicationError, match="CRC"):
            read_manifest(tmp_path)
