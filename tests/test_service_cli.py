"""CLI tests for ``serve``, ``ledger`` and the fault-claim sweep hook."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.constants import B_SSV
from repro.engine import RunLedger
from repro.service import AdvisorService, SessionConfig, SnapshotStore
from repro.service.frontend import CHUNK_LINES
from repro.service.soak import build_fleet_events


@pytest.fixture
def events_file(tmp_path):
    path = tmp_path / "events.jsonl"
    events = build_fleet_events(vehicles=2, stops_per_vehicle=12, seed=5)
    path.write_text("".join(json.dumps(event) + "\n" for event in events))
    return path


class TestServe:
    def test_serve_processes_a_file(self, events_file, tmp_path, capsys):
        assert main([
            "serve", str(events_file), "--state-dir", str(tmp_path / "state"),
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet cost:" in out
        assert "24 received" in out

    def test_serve_reads_stdin(self, tmp_path, capsys, monkeypatch):
        event = {"id": "e-1", "vehicle": "v1", "t": 0.0, "stop": 42.0}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(event) + "\n"))
        assert main(["serve", "-", "--state-dir", str(tmp_path / "state")]) == 0
        assert "v1" in capsys.readouterr().out

    def test_serve_writes_health_snapshot(self, events_file, tmp_path, capsys):
        health = tmp_path / "health.json"
        assert main([
            "serve", str(events_file),
            "--state-dir", str(tmp_path / "state"),
            "--health", str(health),
        ]) == 0
        snapshot = json.loads(health.read_text())
        assert set(snapshot) >= {
            "fleet_cost", "vehicles", "ingest", "states", "durability",
        }
        assert snapshot["durability"]["suspended_sessions"] == 0
        assert len(snapshot["vehicles"]) == 2
        for info in snapshot["vehicles"].values():
            assert info["health"] in ("healthy", "degraded", "safe")
            assert "digest" in info

    def test_serve_restart_recovers_and_dedups(self, events_file, tmp_path, capsys):
        state_dir = tmp_path / "state"
        assert main(["serve", str(events_file), "--state-dir", str(state_dir)]) == 0
        first = capsys.readouterr().out
        assert main(["serve", str(events_file), "--state-dir", str(state_dir)]) == 0
        second = capsys.readouterr().out
        # Full redelivery after restart: same fleet cost, all duplicates.
        cost = [line for line in first.splitlines() if "fleet cost" in line]
        assert cost == [line for line in second.splitlines() if "fleet cost" in line]
        assert "24 duplicate(s)" in second

    def test_serve_ledger_and_summary_round_trip(self, events_file, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        assert main([
            "serve", str(events_file),
            "--state-dir", str(tmp_path / "state"),
            "--ledger", str(ledger_path),
        ]) == 0
        capsys.readouterr()
        assert main(["ledger", str(ledger_path)]) == 0
        assert "record(s)" in capsys.readouterr().out

    def test_serve_strict_failure_still_flushes_state(self, tmp_path, capsys):
        # A strict-policy validation error aborts the stream mid-pump;
        # service.close() must still run (finally) so the applied work
        # is compacted durably.
        events = tmp_path / "events.jsonl"
        good = {"id": "e-1", "vehicle": "v1", "t": 0.0, "stop": 42.0}
        bad = {"id": "e-2", "vehicle": "v1", "t": 1.0, "stop": -1.0}
        events.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        state_dir = tmp_path / "state"
        assert main([
            "serve", str(events),
            "--state-dir", str(state_dir),
            "--policy", "strict",
        ]) == 1
        assert "error:" in capsys.readouterr().err
        states = SnapshotStore(state_dir / "snapshot.json").load()
        assert states["v1"]["applied"] == 1  # the good event was compacted

    def test_serve_missing_events_file_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "serve", str(tmp_path / "absent.jsonl"),
            "--state-dir", str(tmp_path / "state"),
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_digests_match_per_event_service(self, tmp_path, capsys):
        # Plain serve runs the one-shard tier on the columnar path; its
        # per-vehicle digests must equal feeding the same file one event
        # at a time through AdvisorService (duplicates, a stale clock
        # and undecodable lines included).
        events = build_fleet_events(vehicles=3, stops_per_vehicle=40, seed=11)
        lines = [json.dumps(event) for event in events]
        stale = dict(events[30], id="stale-1", t=0.0)
        lines[40:40] = [lines[5], json.dumps(stale), "{not json"]
        path = tmp_path / "events.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        health = tmp_path / "health.json"
        assert main([
            "serve", str(path),
            "--state-dir", str(tmp_path / "state"),
            "--health", str(health),
        ]) == 0
        snapshot = json.loads(health.read_text())

        reference = AdvisorService(
            tmp_path / "reference", SessionConfig(break_even=B_SSV)
        )
        for line in lines:
            reference.ingest_line(line)
        expected = reference.health_snapshot()
        reference.close()

        assert {
            vehicle: info["digest"] for vehicle, info in snapshot["vehicles"].items()
        } == {
            vehicle: info["digest"] for vehicle, info in expected["vehicles"].items()
        }
        assert snapshot["fleet_cost"] == expected["fleet_cost"]
        for counter in ("received", "duplicates", "rejected", "malformed"):
            assert snapshot["ingest"][counter] == expected["ingest"][counter]
        assert snapshot["ingest"]["duplicates"] == 1
        assert snapshot["ingest"]["rejected"] == 1
        assert snapshot["ingest"]["malformed"] == 1

    def test_serve_keeps_vehicles_under_the_state_dir(
        self, events_file, tmp_path, capsys
    ):
        plain = tmp_path / "plain"
        assert main(["serve", str(events_file), "--state-dir", str(plain)]) == 0
        assert len(SnapshotStore(plain / "snapshot.json").load()) == 2
        assert not list(plain.glob("shard-*"))
        sharded = tmp_path / "sharded"
        assert main([
            "serve", str(events_file), "--state-dir", str(sharded), "--shards", "2",
        ]) == 0
        assert sorted(path.name for path in sharded.glob("shard-*")) == [
            "shard-00", "shard-01",
        ]
        assert not (sharded / "snapshot.json").exists()


class TestServeBatch:
    def test_non_integer_batch_is_rejected_by_argparse(self, events_file, tmp_path):
        # --batch is gone: every chunk holds up to CHUNK_LINES lines and
        # decisions are identical for any chunking, so argparse rejects
        # the flag whatever its value.
        for value in ("many", "8"):
            with pytest.raises(SystemExit) as excinfo:
                main([
                    "serve", str(events_file),
                    "--state-dir", str(tmp_path / "state"),
                    "--batch", value,
                ])
            assert excinfo.value.code == 2

    def test_health_snapshot_reports_batch_throughput(
        self, events_file, tmp_path, capsys
    ):
        health = tmp_path / "health.json"
        assert main([
            "serve", str(events_file),
            "--state-dir", str(tmp_path / "state"),
            "--health", str(health),
        ]) == 0
        batch = json.loads(health.read_text())["ingest"]["batch"]
        # 24 events fit in one CHUNK_LINES chunk.
        assert CHUNK_LINES >= 24
        assert batch["chunks"] == 1
        assert batch["events"] == 24
        assert batch["wall_s"] > 0.0
        assert batch["events_per_s"] > 0.0

    def test_batch_mode_with_fsync_and_restart_dedups(
        self, events_file, tmp_path, capsys
    ):
        state_dir = tmp_path / "state"
        args = [
            "serve", str(events_file),
            "--state-dir", str(state_dir),
            "--fsync",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        cost = [l for l in first.splitlines() if "fleet cost" in l]
        assert cost == [l for l in second.splitlines() if "fleet cost" in l]
        assert "24 duplicate(s)" in second


class TestLedgerSummary:
    def test_truncated_final_line_is_tolerated(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.emit("advisor-state", vehicle="v1", **{
            "from": "healthy", "to": "degraded", "reason": "drift", "applied": 20,
        })
        ledger.emit("map-start", tasks=4)
        with open(path, "a") as handle:
            handle.write('{"event": "torn')  # crash mid-write
        assert main(["ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out
        assert "advisor state transitions:" in out
        assert "degraded" in out

    def test_missing_ledger_fails_cleanly(self, tmp_path, capsys):
        assert main(["ledger", str(tmp_path / "absent.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_mid_file_corruption_fails_cleanly(self, tmp_path, capsys):
        # Real corruption (not a torn tail) raises JSONDecodeError from
        # the reader; the CLI must report it, not traceback.
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.emit("map-start", tasks=1)
        ledger.emit("map-finish")
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-2]  # corrupt a non-final line
        path.write_text("\n".join(lines) + "\n")
        assert main(["ledger", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestFaultClaimSweep:
    def test_cache_doctor_sweeps_dead_pid_claims(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        claims = tmp_path / "claims"
        claims.mkdir()
        (claims / "deadbeef.0").write_text("999999999")  # no such pid
        (claims / "cafebabe.0").write_text(str(os.getpid()))  # alive: keep
        assert main([
            "cache", "doctor", "--fault-claims", str(claims),
        ]) == 0
        out = capsys.readouterr().out
        assert "swept 1 stale claim(s)" in out
        assert not (claims / "deadbeef.0").exists()
        assert (claims / "cafebabe.0").exists()


#: Runs in a fresh interpreter (the test process has scipy loaded by
#: other tests): every serving entry point, then whatever scipy modules
#: they left in ``sys.modules``, one per line.
_SERVING_PATH = """
import sys
import repro.cli, repro.service, repro.service.shard, repro.service.replica

root, first, second = sys.argv[1:]
augmented = ["--predictor", "contextual", "--cvar-alpha", "0.2", "--cvar-cap", "3"]
for name, flags in (
    ("plain", []),
    ("det", ["--safe-strategy", "det"]),
    ("augmented", augmented),
):
    for events in (first, second):  # the second run recovers warm
        code = repro.cli.main([
            "serve", events, "--state-dir", f"{root}/{name}",
            "--snapshot-every", "5", *flags,
        ])
        assert code == 0, (name, code)
assert repro.cli.main([
    "replicate", f"{root}/augmented", "--standby", f"{root}/standby",
    "--passes", "1", "--interval", "0",
]) == 0
assert repro.cli.main([
    "promote", f"{root}/standby", "--snapshot-every", "5", *augmented,
]) == 0
for name in sorted(sys.modules):
    if name == "scipy" or name.startswith("scipy."):
        print(name)
"""


class TestServingPathImports:
    def test_serving_loads_no_scipy(self, tmp_path):
        # Serving is closed form per vehicle, so neither importing the
        # serving entry points nor serving, recovering, shipping and
        # promoting may load scipy: it would cost every serve parent,
        # shard worker and replicate ~1 s of start-up.
        events = build_fleet_events(vehicles=4, stops_per_vehicle=30, seed=13)
        lines = [json.dumps(event) for event in events]
        lines[7:7] = ["{not json", json.dumps(dict(events[3], id="neg", stop=-1.0))]
        lines[70:70] = ['{"id": "no-vehicle", "t": 1.0, "stop": 5.0}']
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        first.write_text("".join(line + "\n" for line in lines[:60]))
        second.write_text("".join(line + "\n" for line in lines[60:]))
        env = dict(
            os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1])
        )
        result = subprocess.run(
            [
                sys.executable, "-c", _SERVING_PATH,
                str(tmp_path / "state"), str(first), str(second),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "promoted" in result.stdout
        loaded = [
            line for line in result.stdout.splitlines() if line.startswith("scipy")
        ]
        assert loaded == []
