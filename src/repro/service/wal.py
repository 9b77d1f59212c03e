"""Durable per-session state: CRC-framed write-ahead log + snapshots.

The advisor service promises that a SIGKILL at *any* instant loses no
applied work: restarting from the same state directory restores every
session bit-identically.  Two files per session make that true:

``wal.jsonl``
    An append-only log of applied stop events.  Each line is framed as
    ``<crc32-hex8> <json>`` where the CRC covers the JSON bytes, so a
    torn tail (the process died mid-write) is *detected*, not parsed as
    garbage: replay stops at the first bad frame.  Every append is
    flushed (surviving a process kill); ``fsync=True`` additionally
    syncs to disk (surviving an OS crash).
``snapshot.json``
    A periodic compaction point: the full serialized session state
    after ``seq`` applied events, written to a temp file and atomically
    published with ``os.replace`` — readers see either the old snapshot
    or the new one, never a partial write.

Recovery = load the snapshot (if any), then replay WAL records with
``seq`` greater than the snapshot's.  The ``seq`` filter is what makes
compaction crash-safe: the snapshot is published *before* the WAL is
reset, so dying between the two steps merely leaves already-compacted
records in the log, and replay skips them.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from pathlib import Path

from ..errors import ReproError

__all__ = ["WriteAheadLog", "SnapshotStore", "WalCorruptionError"]

#: Canonical per-session durable file names (the replication layer and
#: state-dir doctor address sessions by these).
WAL_NAME = "wal.jsonl"
SNAPSHOT_NAME = "snapshot.json"
DELTA_NAME = SNAPSHOT_NAME + ".delta"


def _fsync_dir(path: Path) -> None:
    """Fsync a directory so a just-created or just-renamed entry survives
    an OS crash — ``fsync`` of the file alone durably stores its *bytes*
    but not the directory entry naming them.  Best-effort: directories
    are not fsyncable on every platform/filesystem, and losing the
    belt-and-braces sync there is not an error.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(fd)


class WalCorruptionError(ReproError, RuntimeError):
    """A WAL or snapshot frame failed its integrity check *before* the
    final record — real corruption, not a torn tail."""


def _event_body(payload: dict) -> str | None:
    """Hand-rolled serializer for the hot stop-event frame shape.

    Byte-identical to ``json.dumps(payload, sort_keys=True)`` for a
    plain ``{"id": str, "seq": int, "t": float, "y": float}`` record
    (Python's ``repr`` of a finite float IS the json float form, and
    the string field still goes through ``json.dumps`` for escaping);
    returns None for any other shape so the general encoder handles it.
    ``test_service_wal.py`` pins the byte identity.
    """
    if len(payload) != 4:
        return None
    try:
        event_id = payload["id"]
        seq = payload["seq"]
        timestamp = payload["t"]
        stop_length = payload["y"]
    except KeyError:
        return None
    if (
        type(event_id) is not str
        or type(seq) is not int
        or type(timestamp) is not float
        or type(stop_length) is not float
        or not math.isfinite(timestamp)
        or not math.isfinite(stop_length)
    ):
        return None
    return (
        f'{{"id": {json.dumps(event_id)}, "seq": {seq}, '
        f'"t": {timestamp!r}, "y": {stop_length!r}}}'
    )


def _frame(payload: dict) -> str:
    body = _event_body(payload)
    if body is None:
        body = json.dumps(payload, sort_keys=True, allow_nan=False)
    return f"{zlib.crc32(body.encode()):08x} {body}"


def _unframe(line: str) -> dict | None:
    """Decode one WAL line; None means the frame is invalid."""
    if len(line) < 10 or line[8] != " ":
        return None
    crc_text, body = line[:8], line[9:]
    try:
        crc = int(crc_text, 16)
    except ValueError:
        return None
    if zlib.crc32(body.encode()) != crc:
        return None
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


class WriteAheadLog:
    """Append-only CRC-framed JSONL log for one advisor session.

    ``fs`` is an optional fault-injection shim (``check(op, path)``)
    consulted before each physical operation; a scheduled ``OSError``
    from it is indistinguishable from the real disk failing
    (:class:`repro.engine.faults.FsFaultInjector`).
    """

    def __init__(self, path: str | Path, *, fsync: bool = False, fs=None) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self.fs = fs
        #: True when the last :meth:`replay` dropped a torn final frame;
        #: recovery uses it to force a compaction so the torn bytes never
        #: survive into the next append.
        self.tail_torn = False
        # The directory entry for a brand-new log file is only durable
        # once its parent directory is synced; done lazily on the first
        # fsync'd append rather than here (creation may predate fsync).
        self._dir_synced = False
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def _check(self, op: str) -> None:
        if self.fs is not None:
            self.fs.check(op, self.path)

    def probe(self) -> None:
        """One cheap disk-health probe: open-append + flush (+ fsync when
        configured), raising ``OSError`` while the disk is still sick.

        What the ``DURABILITY_SUSPENDED`` recovery path calls on its
        backoff schedule before attempting to replay the buffered tail.
        """
        self._check("wal-probe")
        with open(self.path, "ab") as handle:
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())

    def append(self, record: dict) -> None:
        """Durably append one record: a group commit of one."""
        self.append_many([record])

    def _sync_dir_once(self) -> None:
        """Make the log's directory entry durable, once per instance.

        Only reached under ``fsync=True``: without it nothing here
        claims OS-crash durability anyway."""
        if not self._dir_synced:
            _fsync_dir(self.path.parent)
            self._dir_synced = True

    def append_many(self, records: list[dict]) -> None:
        """Group-commit: durably append a batch with ONE write + flush
        (+ at most one fsync), instead of one syscall round-trip per
        record.

        The frames are concatenated into a single buffer before the
        write, so a kill mid-commit tears the file at some byte offset
        of that buffer: replay then recovers exactly the complete
        leading frames — a *prefix* of the batch, never a frame from the
        middle without its predecessors.  (POSIX does not promise a
        single ``write`` is atomic, but it does append sequentially;
        the prefix property is all recovery needs, and the torn-anywhere
        Hypothesis property in ``tests/test_service_wal.py`` pins it.)

        A previous crash can leave the file without a trailing newline.
        Appending blindly would merge the new frames into that tail, so
        the tail is healed first: a complete frame that lost only its
        newline gets one (the record is preserved); a partial frame is
        truncated away (it was never durable).
        """
        if not records:
            return
        self._check("wal-append")
        with open(self.path, "a+b") as handle:
            size = handle.seek(0, os.SEEK_END)
            if size:
                handle.seek(size - 1)
                if handle.read(1) != b"\n":
                    handle.seek(0)
                    data = handle.read()
                    cut = data.rfind(b"\n") + 1
                    tail = data[cut:].decode(errors="replace")
                    if _unframe(tail) is not None:
                        handle.write(b"\n")
                    else:
                        handle.truncate(cut)
            buffer = "".join(_frame(record) + "\n" for record in records)
            handle.write(buffer.encode())
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
                self._sync_dir_once()

    def _frames(self):
        """Yield ``(line, record)`` for every intact frame, in order.

        The final frame may be torn by a kill mid-append and is then
        dropped (and :attr:`tail_torn` set, so recovery compacts the
        torn bytes away); a bad frame *followed by intact ones* means
        the file was corrupted at rest and raises
        :class:`WalCorruptionError`.
        """
        self.tail_torn = False
        if not self.path.exists():
            return
        lines = self.path.read_text().splitlines()
        for index, line in enumerate(lines):
            if not line:
                continue
            record = _unframe(line)
            if record is None:
                if index == len(lines) - 1:
                    self.tail_torn = True
                    return
                raise WalCorruptionError(
                    f"{self.path}: bad frame at line {index + 1} "
                    f"(not the final line — corruption, not a torn tail)"
                )
            yield line, record

    def replay(self) -> list[dict]:
        """All intact records, in order (torn-tail rules: :meth:`_frames`)."""
        return [record for _line, record in self._frames()]

    def follow(self, from_seq: int = 0):
        """Tail-follower for replication: yield ``(seq, line, record)``
        for every intact frame whose ``seq`` is greater than ``from_seq``.

        ``line`` is the raw CRC-framed text exactly as it sits in the
        log, so a shipper can append it to a standby's WAL byte-for-byte
        (re-framing would be byte-identical anyway — framing is
        deterministic — but shipping the verified original is cheaper
        and keeps the CRC end-to-end).  Torn-tail discipline is
        :meth:`replay`'s: a bad *final* frame is dropped silently
        because the primary may be mid-append right now.  Records
        without an integer ``seq`` are never shipped (none are written
        by the session today).
        """
        for line, record in self._frames():
            seq = record.get("seq")
            if type(seq) is int and seq > from_seq:
                yield seq, line, record

    def last_seq(self) -> int:
        """Highest intact ``seq`` in the log (0 when empty/missing)."""
        last = 0
        for seq, _line, _record in self.follow(0):
            last = seq
        return last

    def reset(self) -> None:
        """Atomically truncate the log (the post-snapshot compaction step).

        ``os.replace`` of a fresh empty file means a crash leaves either
        the full old log or an empty one — never a half-truncated file.
        """
        self._check("wal-reset")
        tmp = self.path.with_name(self.path.name + f".tmp{os.getpid()}")
        tmp.write_text("")
        os.replace(tmp, self.path)
        if self.fsync:
            _fsync_dir(self.path.parent)


class SnapshotStore:
    """Atomic snapshot of one session's full state, plus delta overlays.

    A full snapshot (``snapshot.json``) is the complete serialized
    state.  Between full snapshots a compaction may instead publish a
    **delta** sidecar (``snapshot.json.delta``): the scalar fields that
    changed plus the items *appended* to the bounded history lists since
    the full base — typically 10-50x smaller than a full snapshot whose
    bulk is the dedup window.  Both files are published atomically, and
    the delta names the full snapshot it extends (``base_seq``): a delta
    left behind by a crash whose base has since moved is stale and
    ignored, never half-applied.  Base seqs cannot collide: a delta at
    ``seq`` proves the session durably reached ``seq``, and applied
    counts never move backwards, so no later full snapshot can reuse the
    delta's smaller ``base_seq``.
    """

    def __init__(self, path: str | Path, *, fsync: bool = False, fs=None) -> None:
        self.path = Path(path)
        self.delta_path = self.path.with_name(self.path.name + ".delta")
        self.fsync = bool(fsync)
        self.fs = fs
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def _publish(self, path: Path, body: str) -> None:
        if self.fs is not None:
            self.fs.check("snapshot-publish", path)
        payload = f"{zlib.crc32(body.encode()):08x} {body}"
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        with open(tmp, "w") as handle:
            handle.write(payload)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        # The rename itself lives in the directory: without a directory
        # fsync an OS crash can revert the publish even though the new
        # snapshot's bytes are safely on disk.
        if self.fsync:
            _fsync_dir(path.parent)

    def save(self, seq: int, state: dict) -> None:
        """Publish ``state`` as the full snapshot after ``seq`` events.

        Any delta sidecar is deleted afterwards: it extended the
        *previous* full snapshot.  A crash between the two steps leaves
        a stale delta whose ``base_seq`` no longer matches — ignored on
        load and cleaned up by the next full save.
        """
        body = json.dumps(
            {"seq": int(seq), "state": state}, sort_keys=True, allow_nan=False
        )
        self._publish(self.path, body)
        try:
            os.unlink(self.delta_path)
        except FileNotFoundError:
            pass

    def save_delta(
        self, seq: int, base_seq: int, changed: dict, appended: dict
    ) -> None:
        """Publish a delta: ``changed`` fields replace the base's,
        ``appended`` lists extend them (bounded histories re-trim on
        load).  Always cumulative against the *full* base, so rewriting
        the one sidecar file supersedes the previous delta."""
        body = json.dumps(
            {
                "seq": int(seq),
                "base_seq": int(base_seq),
                "set": changed,
                "append": appended,
            },
            sort_keys=True,
            allow_nan=False,
        )
        self._publish(self.delta_path, body)

    def _load_delta(self) -> dict | None:
        if not self.delta_path.exists():
            return None
        payload = _unframe(self.delta_path.read_text().strip())
        if (
            payload is None
            or "seq" not in payload
            or "base_seq" not in payload
            or "set" not in payload
            or "append" not in payload
        ):
            raise WalCorruptionError(
                f"{self.delta_path}: snapshot delta failed its CRC check"
            )
        return payload

    def load(self) -> tuple[int, dict] | None:
        """The latest snapshot as ``(seq, state)``, or None if absent.

        A valid delta whose ``base_seq`` matches the full snapshot is
        merged in (appended list items are concatenated; the session's
        bounded deques re-trim them on restore).  The CRCs guard against
        at-rest corruption; because publication is atomic, a bad frame
        here is never a torn write and always raises.
        """
        if not self.path.exists():
            return None
        payload = _unframe(self.path.read_text().strip())
        if payload is None or "seq" not in payload or "state" not in payload:
            raise WalCorruptionError(f"{self.path}: snapshot failed its CRC check")
        seq, state = int(payload["seq"]), payload["state"]
        delta = self._load_delta()
        if delta is not None and int(delta["base_seq"]) == seq:
            state = dict(state)
            state.update(delta["set"])
            for key, items in delta["append"].items():
                state[key] = list(state.get(key, [])) + list(items)
            seq = int(delta["seq"])
        return seq, state
