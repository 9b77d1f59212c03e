"""Crash-recovery pins: bit-identical state after any interruption.

Two layers:

* a Hypothesis property — for ANY split point of the event stream
  (including splits landing inside a snapshot compaction), abandoning
  the session mid-stream and recovering from its state directory, then
  redelivering the FULL stream, yields a state digest bit-identical to
  an uninterrupted in-memory run;
* the acceptance chaos pin — a real SIGKILL delivered at arbitrary
  event indices via :func:`repro.service.soak.run_cell`, restart from
  ``--state-dir``, per-vehicle thresholds (RNG stream included) and
  total cost bit-identical to the uninterrupted run.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import AdvisorSession, SessionConfig, soak
from repro.service.advisor import RegisteredAdvisorService
from repro.service.soak import Cell, build_fleet_events, run_cell, run_stream
from repro.service.wal import SnapshotStore

B = 28.0
N_EVENTS = 40

#: snapshot_every=3 makes most split points land near (or inside) a
#: compaction boundary, the trickiest recovery window.
CONFIG = SessionConfig(
    break_even=B,
    min_samples=3,
    snapshot_every=3,
    dedup_window=64,
    drift_min_count=5,
    seed=99,
)


def _events() -> list[tuple[str, float, float]]:
    rng = np.random.default_rng(2014)
    lengths = rng.lognormal(3.0, 1.2, N_EVENTS)
    return [
        (f"e-{index:04d}", float(index), float(length))
        for index, length in enumerate(lengths)
    ]


EVENTS = _events()


def _reference_digest() -> str:
    session = AdvisorSession("v1", CONFIG)  # in-memory, uninterrupted
    for event_id, timestamp, stop_length in EVENTS:
        session.submit(event_id, timestamp, stop_length)
    return session.state_digest()


REFERENCE = _reference_digest()


class TestSplitRecovery:
    @settings(max_examples=30, deadline=None)
    @given(split=st.integers(min_value=0, max_value=N_EVENTS))
    def test_any_split_plus_full_redelivery_is_bit_identical(self, split):
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "v1"
            first = AdvisorSession("v1", CONFIG, state_dir)
            for event_id, timestamp, stop_length in EVENTS[:split]:
                first.submit(event_id, timestamp, stop_length)
            # Crash: the session object is simply abandoned — no close,
            # no final compaction.  Durability must not depend on them.
            del first
            recovered = AdvisorSession("v1", CONFIG, state_dir)
            # At-least-once delivery: the producer replays the WHOLE
            # stream; everything before the split must dedup to no-ops.
            for event_id, timestamp, stop_length in EVENTS:
                recovered.submit(event_id, timestamp, stop_length)
            assert recovered.applied == N_EVENTS
            assert recovered.duplicates == split
            assert recovered.state_digest() == REFERENCE

    def test_split_inside_compaction_window(self):
        # Deterministic pin of the exact boundary cases around
        # snapshot_every=3: right before, at, and after a compaction.
        for split in (2, 3, 4, 6, 39, 40):
            with tempfile.TemporaryDirectory() as tmp:
                state_dir = Path(tmp) / "v1"
                first = AdvisorSession("v1", CONFIG, state_dir)
                for event_id, timestamp, stop_length in EVENTS[:split]:
                    first.submit(event_id, timestamp, stop_length)
                del first
                recovered = AdvisorSession("v1", CONFIG, state_dir)
                for event_id, timestamp, stop_length in EVENTS[split:]:
                    recovered.submit(event_id, timestamp, stop_length)
                assert recovered.state_digest() == REFERENCE, f"split={split}"

    def test_recovery_restores_the_rng_stream(self):
        # The next drawn threshold after recovery equals the one the
        # uninterrupted session would draw: the RNG state round-trips.
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "v1"
            uninterrupted = AdvisorSession("v1", CONFIG)
            first = AdvisorSession("v1", CONFIG, state_dir)
            for event_id, timestamp, stop_length in EVENTS[:17]:
                uninterrupted.submit(event_id, timestamp, stop_length)
                first.submit(event_id, timestamp, stop_length)
            del first
            recovered = AdvisorSession("v1", CONFIG, state_dir)
            for event_id, timestamp, stop_length in EVENTS[17:]:
                expected = uninterrupted.submit(event_id, timestamp, stop_length)
                actual = recovered.submit(event_id, timestamp, stop_length)
                assert actual == expected  # thresholds bit-identical

    def test_torn_wal_tail_is_compacted_away_and_parity_holds(self):
        # split=3 lands exactly on a compaction (snapshot_every=3), so
        # the WAL is empty except for the torn bytes: recovery replays
        # nothing, yet must still compact so a later append can never
        # merge into the torn frame.
        split = 3
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "v1"
            first = AdvisorSession("v1", CONFIG, state_dir)
            for event_id, timestamp, stop_length in EVENTS[:split]:
                first.submit(event_id, timestamp, stop_length)
            del first
            with open(state_dir / "wal.jsonl", "a") as handle:
                handle.write('deadbeef {"torn')  # kill mid-append
            recovered = AdvisorSession("v1", CONFIG, state_dir)
            assert recovered._wal.replay() == []  # torn tail gone
            for event_id, timestamp, stop_length in EVENTS[split:]:
                recovered.submit(event_id, timestamp, stop_length)
            del recovered
            final = AdvisorSession("v1", CONFIG, state_dir)
            assert final.state_digest() == REFERENCE

    def test_recompaction_after_recovery_leaves_empty_wal(self):
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "v1"
            first = AdvisorSession("v1", CONFIG, state_dir)
            for event_id, timestamp, stop_length in EVENTS[:7]:
                first.submit(event_id, timestamp, stop_length)
            del first
            recovered = AdvisorSession("v1", CONFIG, state_dir)
            assert recovered.applied == 7
            # Recovery re-compacts: WAL empty, snapshot == live state.
            assert recovered._wal.replay() == []
            seq, state = recovered._snapshots.load()
            assert seq == 7
            assert state == recovered.to_state()


class TestCloseCompactsOnlyDirtySessions:
    def test_close_publishes_snapshots_only_for_sessions_with_work(
        self, tmp_path, monkeypatch
    ):
        # Default snapshot_every (64) is above any session's event count
        # here, so every compaction counted below comes from close().
        config = SessionConfig(break_even=B, seed=99)
        events = build_fleet_events(vehicles=6, stops_per_vehicle=10, seed=3)
        first = RegisteredAdvisorService(tmp_path, config)
        first.ingest_lines([json.dumps(event) for event in events])
        first.close()

        published: list[str] = []
        for name in ("save", "save_delta"):
            real = getattr(SnapshotStore, name)

            def counting(store, *args, _real=real, **kwargs):
                published.append(store.path.parent.name)
                return _real(store, *args, **kwargs)

            monkeypatch.setattr(SnapshotStore, name, counting)

        def digests(service):
            return {
                vehicle: session.state_digest()
                for vehicle, session in sorted(service.sessions.items())
            }

        # A warm restart that receives nothing rewrites nothing.
        warm = RegisteredAdvisorService(tmp_path, config)
        assert len(warm.sessions) == 6
        before = digests(warm)
        warm.close()
        assert published == []

        # Events to k of n vehicles: close() compacts exactly those k.
        warm = RegisteredAdvisorService(tmp_path, config)
        assert digests(warm) == before
        touched = sorted(warm.sessions)[:2]
        warm.ingest_lines([
            json.dumps({"id": f"{vehicle}-late", "vehicle": vehicle, "t": 1e6, "stop": 30.0})
            for vehicle in touched
        ])
        after = digests(warm)
        assert published == []
        warm.close()
        assert sorted(published) == sorted(
            warm.sessions[vehicle]._snapshots.path.parent.name for vehicle in touched
        )

        # ...and a further restart recovers the same digests.
        again = RegisteredAdvisorService(tmp_path, config)
        assert digests(again) == after
        again.close()


class TestSigkillChaosPin:
    """The acceptance crash pin, with real SIGKILLs."""

    @pytest.mark.slow
    def test_chaos_run_is_bit_identical_to_clean_run(self, tmp_path):
        events = build_fleet_events(vehicles=2, stops_per_vehicle=25, seed=3)
        config = SessionConfig(
            break_even=B,
            min_samples=5,
            snapshot_every=7,
            dedup_window=64,
            seed=3,
        )
        clean = run_stream(events, tmp_path / "clean", config)
        kill_points = (17, 41)
        chaos, evidence = run_cell(
            Cell("kill", "single", 1, at=kill_points),
            events,
            config,
            tmp_path / "chaos",
        )
        assert evidence["restarts"] == len(kill_points)  # each kill fired exactly once
        assert chaos["fleet_cost"] == clean["fleet_cost"]  # exact, not approx
        assert chaos["digests"] == clean["digests"]
        # The ledger survived the kills and is readable.
        assert (tmp_path / "chaos" / "ledger.jsonl").exists()


class TestChaosMatrix:
    def test_every_fault_and_tier_pair_is_a_cell_or_unsupported(self):
        pairs = {(fault, tier) for fault in soak.FAULTS for tier in soak.TIERS}
        supported = {(cell.fault, cell.tier) for cell in soak.MATRIX}
        assert supported.isdisjoint(soak.UNSUPPORTED)
        assert supported | set(soak.UNSUPPORTED) == pairs
        assert all(Cell.parse(cell.name) == cell for cell in soak.MATRIX)

    def test_gate_fails_on_parity_or_evidence(self):
        cell = Cell("kill", "single")
        clean = {"fleet_cost": 1.0, "digests": {"v1": "a"}}
        evidence = {"scheduled": 3, "struck": 3, "restarts": 3}
        assert soak.gate(cell, clean, evidence, clean) == []
        drifted = {"fleet_cost": 1.0, "digests": {"v1": "b"}}
        assert soak.gate(cell, drifted, evidence, clean)
        assert soak.gate(cell, clean, {**evidence, "restarts": 2}, clean)

    def test_cli_writes_the_verdict_table(self, tmp_path, capsys):
        argv = ["disk-single-1", "--vehicles", "2", "--stops", "12", "--out", str(tmp_path)]
        assert soak.main(argv) == 0
        verdict = json.loads((tmp_path / "SOAK_matrix.json").read_text())["cells"]
        assert verdict["disk-single-1"]["verdict"] == "pass"
        assert verdict["disk-single-1"]["evidence"]["suspensions"] >= 1

    @pytest.mark.parametrize("name", ["hang-single-1", "melt-single-1", "kill-single"])
    def test_cli_rejects_unsupported_and_unknown_cells(self, tmp_path, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            soak.main([name, "--out", str(tmp_path)])
        assert exit_info.value.code == 2
