"""Unit tests for the CRC-framed WAL and atomic snapshot store."""

import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.wal import (
    SnapshotStore,
    WalCorruptionError,
    WriteAheadLog,
    _event_body,
    _frame,
    _unframe,
)


class TestFraming:
    def test_frame_round_trip(self):
        payload = {"seq": 3, "id": "v-00003", "t": 12.5, "v": "veh-1", "y": 87.25}
        assert _unframe(_frame(payload)) == payload

    def test_floats_round_trip_bit_exactly(self):
        value = 0.1 + 0.2  # not representable "nicely"; repr must survive
        assert _unframe(_frame({"y": value}))["y"] == value

    def test_bad_crc_rejected(self):
        line = _frame({"seq": 1})
        tampered = ("0" if line[0] != "0" else "1") + line[1:]
        assert _unframe(tampered) is None

    def test_tampered_body_rejected(self):
        line = _frame({"seq": 1})
        assert _unframe(line[:-1] + "X") is None

    def test_non_dict_payload_rejected(self):
        body = json.dumps([1, 2, 3])
        line = f"{zlib.crc32(body.encode()):08x} {body}"
        assert _unframe(line) is None

    @given(
        st.text(min_size=1, max_size=40),
        st.integers(min_value=0, max_value=2**62),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(min_size=1, max_size=40),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_event_body_matches_json_dumps_byte_for_byte(
        self, event_id, seq, timestamp, vehicle, stop_length
    ):
        # The hot-path serializer must be indistinguishable from the
        # general encoder for the stop-event frame shape — including
        # ids needing escaping and floats with awkward reprs.
        payload = {
            "id": event_id, "seq": seq, "t": timestamp, "v": vehicle, "y": stop_length,
        }
        assert _event_body(payload) == json.dumps(payload, sort_keys=True)

    def test_event_body_defers_other_shapes(self):
        base = {"id": "e-1", "seq": 2, "t": 1.5, "v": "veh-1", "y": 2.5}
        assert _event_body(base) is not None
        for bad in (
            {**base, "extra": 1},  # wrong arity
            {key: value for key, value in base.items() if key != "v"},  # no vehicle
            {**base, "t": 1},  # int where scalar path stored float
            {**base, "y": float("inf")},  # non-finite
            {**base, "id": 7},  # non-str id
            {**base, "v": 7},  # non-str vehicle
            {"a": 1, "b": 2, "c": 3, "d": 4, "e": 5},  # wrong keys
        ):
            assert _event_body(bad) is None
            # ...and the frame still encodes them via the fallback.
            if bad != {**base, "y": float("inf")}:
                assert _unframe(_frame(bad)) == bad


class TestWriteAheadLog:
    def test_append_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        records = [{"seq": i, "y": float(i) * 1.5} for i in range(1, 6)]
        for record in records:
            wal.append(record)
        assert wal.replay() == records

    def test_missing_file_replays_empty(self, tmp_path):
        assert WriteAheadLog(tmp_path / "absent.jsonl").replay() == []

    def test_torn_final_frame_is_dropped(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append({"seq": 1})
        wal.append({"seq": 2})
        # Simulate a kill mid-append: half a frame at the tail.
        with open(path, "a") as handle:
            handle.write(_frame({"seq": 3})[:12])
        assert wal.replay() == [{"seq": 1}, {"seq": 2}]

    def test_replay_reports_a_torn_tail(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append({"seq": 1})
        assert wal.replay() == [{"seq": 1}]
        assert wal.tail_torn is False
        with open(path, "a") as handle:
            handle.write(_frame({"seq": 2})[:12])
        assert wal.replay() == [{"seq": 1}]
        assert wal.tail_torn is True

    def test_append_after_torn_tail_does_not_merge(self, tmp_path):
        # A new frame written after a torn tail must not land on the
        # same line: the partial frame is truncated away first.
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append({"seq": 1})
        with open(path, "a") as handle:
            handle.write(_frame({"seq": 2})[:12])
        wal.append({"seq": 3})
        assert wal.replay() == [{"seq": 1}, {"seq": 3}]
        wal.append({"seq": 4})
        assert wal.replay() == [{"seq": 1}, {"seq": 3}, {"seq": 4}]

    def test_append_completes_a_frame_missing_only_its_newline(self, tmp_path):
        # The kill can land between the frame bytes and the newline; the
        # frame is complete and must be preserved, not truncated.
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append({"seq": 1})
        with open(path, "a") as handle:
            handle.write(_frame({"seq": 2}))
        wal.append({"seq": 3})
        assert wal.replay() == [{"seq": 1}, {"seq": 2}, {"seq": 3}]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        for seq in range(1, 4):
            wal.append({"seq": seq})
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-1] + "X"  # corrupt a non-final record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalCorruptionError, match="line 2"):
            wal.replay()

    def test_reset_truncates_atomically(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append({"seq": 1})
        wal.reset()
        assert path.exists()
        assert wal.replay() == []
        # No temp litter left behind.
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_fsync_mode_appends_identically(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync=True)
        wal.append({"seq": 1, "y": 2.5})
        assert wal.replay() == [{"seq": 1, "y": 2.5}]


class TestGroupCommit:
    def test_append_many_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        records = [
            {"id": f"e-{i}", "seq": i, "t": float(i), "y": i * 1.5}
            for i in range(1, 9)
        ]
        wal.append_many(records)
        assert wal.replay() == records

    def test_append_many_empty_is_a_no_op(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        WriteAheadLog(path).append_many([])
        assert not path.exists()

    def test_append_many_matches_append_byte_for_byte(self, tmp_path):
        records = [{"id": f"e-{i}", "seq": i, "t": float(i), "y": 2.0} for i in range(5)]
        one = WriteAheadLog(tmp_path / "one.jsonl")
        for record in records:
            one.append(record)
        many = WriteAheadLog(tmp_path / "many.jsonl")
        many.append_many(records)
        assert (tmp_path / "many.jsonl").read_bytes() == (
            tmp_path / "one.jsonl"
        ).read_bytes()

    def test_append_many_heals_a_torn_tail_first(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append({"seq": 1})
        with open(path, "a") as handle:
            handle.write(_frame({"seq": 2})[:12])
        wal.append_many([{"seq": 3}, {"seq": 4}])
        assert wal.replay() == [{"seq": 1}, {"seq": 3}, {"seq": 4}]

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=120, deadline=None)
    def test_torn_anywhere_recovers_a_prefix(self, n, cut_seed, preexisting):
        # Satellite guarantee: a kill at ANY byte offset of a group
        # commit leaves the log replaying to a PREFIX of (prior records
        # + the batch) — never a mid-batch record without its
        # predecessors, never garbage.  The next append then heals the
        # torn bytes.
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "wal.jsonl"
            wal = WriteAheadLog(path)
            prior = [{"id": f"p-{i}", "seq": i, "t": float(i), "y": 1.0}
                     for i in range(preexisting)]
            if prior:
                wal.append_many(prior)
            base = path.read_bytes() if path.exists() else b""
            batch = [
                {"id": f"b-{i}", "seq": preexisting + i, "t": float(i), "y": 2.0}
                for i in range(n)
            ]
            wal.append_many(batch)
            full = path.read_bytes()
            appended = full[len(base):]
            cut = cut_seed % (len(appended) + 1)
            path.write_bytes(base + appended[:cut])

            recovered = wal.replay()
            expected_full = prior + batch
            assert recovered == expected_full[: len(recovered)]
            assert len(recovered) >= len(prior)

            wal.append({"id": "after", "seq": 10**7, "t": 0.0, "y": 0.0})
            assert wal.replay() == recovered + [
                {"id": "after", "seq": 10**7, "t": 0.0, "y": 0.0}
            ]


class TestSnapshotStore:
    def test_save_load_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path / "snapshot.json")
        states = {
            "v1": {"applied": 7, "total_cost": 123.456, "nested": {"a": [1, 2]}},
            "v2": {"applied": 3, "total_cost": 0.5, "nested": {}},
        }
        store.save(states)
        assert store.load() == states
        assert SnapshotStore(tmp_path / "snapshot.json").load() == states

    def test_missing_snapshot_is_none(self, tmp_path):
        # Nothing compacted yet: no state for any vehicle.
        assert SnapshotStore(tmp_path / "absent.json").load() == {}

    def test_save_overwrites_atomically(self, tmp_path):
        store = SnapshotStore(tmp_path / "snapshot.json")
        store.save({"v1": {"applied": 1}, "v2": {"applied": 1}})
        store.save({"v1": {"applied": 2}})
        assert store.load() == {"v1": {"applied": 2}}
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_corrupted_snapshot_always_raises(self, tmp_path):
        # Publication is atomic, so a bad frame is never a torn write:
        # unlike the WAL tail, it must hard-fail.
        path = tmp_path / "snapshot.json"
        store = SnapshotStore(path)
        store.save({"v1": {"applied": 3}})
        path.write_text(path.read_text()[:-5])
        with pytest.raises(WalCorruptionError, match="CRC"):
            store.load()


class TestSnapshotDeltas:
    def test_delta_merges_over_its_base(self, tmp_path):
        store = SnapshotStore(tmp_path / "snapshot.json")
        store.save({"v1": {"applied": 10}, "v2": {"applied": 4}})
        store.save_delta({"v2": {"applied": 9, "cost": 4.5}})
        assert store.load() == {
            "v1": {"applied": 10},
            "v2": {"applied": 9, "cost": 4.5},
        }
        assert store.delta_states == 1

    def test_delta_is_cumulative_not_chained(self, tmp_path):
        # A delta line carries a session's whole state, so a later line
        # replaces an earlier one outright: no patch chain to merge.
        store = SnapshotStore(tmp_path / "snapshot.json")
        store.save({"v1": {"applied": 10, "recent": [1]}})
        store.save_delta({"v1": {"applied": 12, "recent": [1, 2]}})
        store.save_delta({"v1": {"applied": 15, "recent": [3]}})
        assert store.load() == {"v1": {"applied": 15, "recent": [3]}}
        assert store.delta_states == 2

    def test_stale_delta_is_ignored(self, tmp_path):
        # A crash between a new base and the delta's removal leaves
        # lines of an older generation: they must not be applied.
        store = SnapshotStore(tmp_path / "snapshot.json")
        store.save({"v1": {"applied": 10}})
        store.save_delta({"v1": {"applied": 12}})
        delta_bytes = store.delta_path.read_bytes()
        store.save({"v1": {"applied": 20}})
        store.delta_path.write_bytes(delta_bytes)  # resurrect the stale delta
        assert store.load() == {"v1": {"applied": 20}}
        assert store.delta_states == 0

    def test_full_save_empties_the_delta(self, tmp_path):
        store = SnapshotStore(tmp_path / "snapshot.json")
        store.save({"v1": {"applied": 10}})
        store.save_delta({"v1": {"applied": 12}})
        assert store.delta_path.stat().st_size
        store.save({"v1": {"applied": 12}})
        assert store.delta_path.read_text() == ""
        assert store.load() == {"v1": {"applied": 12}}

    def test_corrupt_delta_raises(self, tmp_path):
        # The delta log keeps the WAL's rules: a torn final line is an
        # interrupted compaction and is dropped; a bad line before an
        # intact one is corruption at rest.
        store = SnapshotStore(tmp_path / "snapshot.json")
        store.save({"v1": {"applied": 10}})
        store.save_delta({"v1": {"applied": 12}})
        store.save_delta({"v1": {"applied": 14}})
        lines = store.delta_path.read_text().splitlines()
        store.delta_path.write_text(lines[0] + "\n" + lines[1][:-3])
        assert store.load() == {"v1": {"applied": 12}}
        store.delta_path.write_text(lines[0][:-3] + "X\n" + lines[1] + "\n")
        with pytest.raises(WalCorruptionError, match="delta"):
            store.load()
