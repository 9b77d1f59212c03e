"""Durable service-root state: one CRC-framed write-ahead log and one
snapshot store shared by every session in the root.

The advisor service promises that a SIGKILL at *any* instant loses no
applied work: restarting from the same state directory restores every
session bit-identically.  Three files per service root make that true,
whatever the number of vehicles in it:

``wal.jsonl``
    An append-only log of applied stop events of every vehicle.  Each
    line is framed as ``<crc32-hex8> <json>`` where the CRC covers the
    JSON bytes, so a torn tail (the process died mid-write) is
    *detected*, not parsed as garbage: replay stops at the first bad
    frame.  A frame carries its vehicle id (``v``) next to the
    session's own ``seq``.  Every append is flushed (surviving a
    process kill); ``fsync=True`` additionally syncs to disk
    (surviving an OS crash).
``snapshot.json``
    The base: every session's serialized state, one framed line each
    after a header naming the base's ``generation``, written to a temp
    file and atomically published with ``os.replace`` — readers see
    either the old base or the new one, never a partial write.
``snapshot.json.delta``
    The states compacted since the base, appended like WAL frames, so a
    compaction writes only the sessions it changed.

Recovery = load the snapshot, then replay, per vehicle, the WAL records
with ``seq`` greater than that vehicle's compacted state.  The ``seq``
filter is what makes compaction crash-safe: states are published
*before* the WAL is reset, so dying between the two steps merely leaves
already-compacted records in the log, and replay skips them.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from pathlib import Path

from ..errors import ReproError

__all__ = [
    "WriteAheadLog",
    "SnapshotStore",
    "WalCorruptionError",
    "base_generation",
    "snapshot_states",
]

#: Canonical durable file names of a service root (the replication
#: layer and the state-dir doctor address root state by these).
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
    plain ``{"id": str, "seq": int, "t": float, "v": str, "y": float}``
    record (Python's ``repr`` of a finite float IS the json float form,
    and the string fields still go through ``json.dumps`` for
    escaping); returns None for any other shape so the general encoder
    handles it.  ``test_service_wal.py`` pins the byte identity.
    """
    if len(payload) != 5:
        return None
    try:
        event_id = payload["id"]
        seq = payload["seq"]
        timestamp = payload["t"]
        vehicle = payload["v"]
        stop_length = payload["y"]
    except KeyError:
        return None
    if (
        type(event_id) is not str
        or type(seq) is not int
        or type(timestamp) is not float
        or type(vehicle) is not str
        or type(stop_length) is not float
        or not math.isfinite(timestamp)
        or not math.isfinite(stop_length)
    ):
        return None
    return (
        f'{{"id": {json.dumps(event_id)}, "seq": {seq}, '
        f'"t": {timestamp!r}, "v": {json.dumps(vehicle)}, "y": {stop_length!r}}}'
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


def _intact(lines: list[str], path) -> tuple[list[tuple[str, dict]], bool]:
    """``(line, record)`` for every intact frame of a log, in order, and
    whether its final frame was torn.

    The final frame may be torn by a kill mid-append and is then
    dropped; a bad frame *followed by intact ones* means the file was
    corrupted at rest and raises :class:`WalCorruptionError`.
    """
    frames = []
    for index, line in enumerate(lines):
        if not line:
            continue
        record = _unframe(line)
        if record is None:
            if index == len(lines) - 1:
                return frames, True
            raise WalCorruptionError(
                f"{path}: bad frame at line {index + 1} "
                f"(not the final line — corruption, not a torn tail)"
            )
        frames.append((line, record))
    return frames, False


def _read(path: Path) -> str | None:
    return path.read_text() if path.exists() else None


def _append(path: Path, records: list[dict], fsync: bool) -> None:
    """Append ``records`` as frames with ONE write + flush (+ at most one
    fsync), healing a torn tail first.

    The frames are concatenated into a single buffer before the write,
    so a kill mid-append tears the file at some byte offset of that
    buffer: a reader then recovers exactly the complete leading frames —
    a *prefix* of the batch, never a frame from the middle without its
    predecessors.  (POSIX does not promise a single ``write`` is atomic,
    but it does append sequentially; the prefix property is all
    recovery needs, and the torn-anywhere Hypothesis property in
    ``tests/test_service_wal.py`` pins it.)

    A previous crash can leave the file without a trailing newline.
    Appending blindly would merge the new frames into that tail, so the
    tail is healed first: a complete frame that lost only its newline
    gets one (the record is preserved); a partial frame is truncated
    away (it was never durable).
    """
    with open(path, "a+b") as handle:
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
        if fsync:
            os.fsync(handle.fileno())


class WriteAheadLog:
    """Append-only CRC-framed JSONL log of one service root.

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
        record; a kill mid-commit leaves a prefix of the batch, and a
        torn tail left by an earlier crash is healed first
        (:func:`_append`).
        """
        if not records:
            return
        self._check("wal-append")
        _append(self.path, records, self.fsync)
        if self.fsync:
            self._sync_dir_once()

    def _frames(self) -> list[tuple[str, dict]]:
        """Every intact ``(line, record)``, in order (torn-tail rules:
        :func:`_intact`).  A dropped torn tail sets :attr:`tail_torn`,
        so recovery compacts the torn bytes away."""
        lines = (_read(self.path) or "").splitlines()
        frames, self.tail_torn = _intact(lines, self.path)
        return frames

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
        by the session today).  ``seq`` is per vehicle, so replication
        follows from 0 and filters per vehicle itself.
        """
        for line, record in self._frames():
            seq = record.get("seq")
            if type(seq) is int and seq > from_seq:
                yield seq, line, record

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


def _base_states(text: str | None, path) -> tuple[int, dict]:
    """``(generation, vehicle -> state)`` of a base snapshot's text;
    ``(0, {})`` when there is none.  Publication is atomic, so any bad
    line — unlike the WAL tail — is at-rest corruption and raises."""
    if text is None:
        return 0, {}
    records = [_unframe(line) for line in text.splitlines()]
    header = records[0] if records else None
    if header is None or None in records or header.get("sessions") != len(records) - 1:
        raise WalCorruptionError(f"{path}: snapshot failed its CRC check")
    return int(header["generation"]), {
        record["vehicle"]: record["state"] for record in records[1:]
    }


def base_generation(text: str | None) -> int:
    """The generation a base snapshot's text names in its header line
    (0 when absent; 0 too when unreadable, which :func:`snapshot_states`
    reports as corruption)."""
    header = _unframe(text.split("\n", 1)[0]) if text else None
    return int(header.get("generation", 0)) if header else 0


def snapshot_states(
    base_text: str | None, delta_text: str | None, path: Path
) -> tuple[int, dict, int]:
    """``(generation, vehicle -> state, delta states applied)`` of a
    snapshot's base and delta texts: the base overlaid, in order, by the
    delta lines of its generation.  Lines of an older generation are
    left over from a crash between a new base and the emptying of the
    delta it superseded, and are ignored."""
    generation, states = _base_states(base_text, path)
    delta, _torn = _intact(
        (delta_text or "").splitlines(), path.with_name(DELTA_NAME)
    )
    applied = 0
    for _line, record in delta:
        if record.get("generation") == generation:
            states[record["vehicle"]] = record["state"]
            applied += 1
    return generation, states, applied


class SnapshotStore:
    """The compacted session states of one service root.

    A full **base** (``snapshot.json``) holds every session's state; a
    compaction that changed only some sessions instead appends their
    states to the **delta** log (``snapshot.json.delta``), so its bytes
    grow with the sessions it changed, not with the root.  The owner
    rebases (:meth:`save`) once the delta holds as many states as the
    root has sessions, which keeps a rebase's cost within the states
    written since the previous one and a load within twice the base.
    Every delta line names the generation of its base, and each base
    raises the generation by one, so a delta a crash left behind a newer
    base is recognizably stale (see :func:`snapshot_states`).
    """

    def __init__(self, path: str | Path, *, fsync: bool = False, fs=None) -> None:
        self.path = Path(path)
        self.delta_path = self.path.with_name(self.path.name + ".delta")
        self.fsync = bool(fsync)
        self.fs = fs
        #: Generation of the base last loaded or published.
        self.generation = 0
        #: States appended to the delta log since that base.
        self.delta_states = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def save(self, states: dict) -> None:
        """Publish ``states`` (vehicle -> state, every session of the
        root) as a new base, then empty the delta log it supersedes
        (kept as an empty file, so a root's file set does not depend on
        which kind of compaction came last)."""
        generation = self.generation + 1
        records = [{"generation": generation, "sessions": len(states)}]
        records += [
            {"state": state, "vehicle": vehicle} for vehicle, state in states.items()
        ]
        if self.fs is not None:
            self.fs.check("snapshot-publish", self.path)
        tmp = self.path.with_name(self.path.name + f".tmp{os.getpid()}")
        with open(tmp, "w") as handle:
            handle.write("".join(_frame(record) + "\n" for record in records))
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        # The rename itself lives in the directory: without a directory
        # fsync an OS crash can revert the publish even though the new
        # base's bytes are safely on disk.
        if self.fsync:
            _fsync_dir(self.path.parent)
        self.generation = generation
        self.delta_states = 0
        # In place: until emptied, the old lines are stale and ignored.
        open(self.delta_path, "w").close()

    def save_delta(self, states: dict) -> None:
        """Append ``states`` (vehicle -> state, the sessions a compaction
        changed) to the delta log of the current base: one group commit,
        torn-tail safe like the WAL (:func:`_append`)."""
        if self.fs is not None:
            self.fs.check("snapshot-publish", self.delta_path)
        records = [
            {"generation": self.generation, "state": state, "vehicle": vehicle}
            for vehicle, state in states.items()
        ]
        _append(self.delta_path, records, self.fsync)
        if self.fsync:
            _fsync_dir(self.path.parent)  # the log may have just been created
        self.delta_states += len(states)

    def load(self) -> dict:
        """vehicle -> latest compacted state (empty when nothing was
        compacted yet); also resets :attr:`generation` and
        :attr:`delta_states` to what is on disk."""
        self.generation, states, self.delta_states = snapshot_states(
            _read(self.path), _read(self.delta_path), self.path
        )
        return states
