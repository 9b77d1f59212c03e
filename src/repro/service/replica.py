"""Replicated durability: WAL shipping, standby promotion, PITR.

The serving tier's durability story (CRC-framed WAL + atomic snapshots,
PR 5) lives on one state directory — losing the machine loses every
session, trust weight, and RNG stream bit-for-bit irrecoverably.  This
module adds the missing layer, one **service root** at a time (the
state dir itself, or each ``shard-NN/`` of a sharded one — see
:func:`service_roots`), each with one WAL and one snapshot store:

* **Shipping** — :func:`sync_once` streams each root's WAL frames (via
  :meth:`WriteAheadLog.follow`) plus its snapshot base and delta log to
  a :class:`LocalReplicaTarget` or, over the wire, a
  :class:`RemoteReplicaTarget` talking JSONL to a :class:`ReplicaServer`.
  A watermark file on the standby records, per root, the snapshot
  shipped and each vehicle's shipped ``seq``, so catch-up after a
  standby restart resumes from the watermark instead of re-shipping
  history, and so replication lag is observable per vehicle
  (:class:`ReplicationMonitor`, surfaced in ``/health`` and ``/ready``).

* **Promotion** — :func:`promote` fences the old primary via the
  ``shard.lock`` owner-token machinery (a *live* owner refuses the
  promotion: split-brain), then brings the standby up through the
  ordinary recovery path so its ``state_digest()`` is bit-identical to
  a clean continuation of the primary.

* **Point-in-time recovery** — :func:`backup` copies a state dir into a
  cold archive under a CRC-framed manifest of content hashes;
  :func:`restore` verifies every hash before writing a byte and can
  truncate to ``--upto-seq`` when the WAL still holds that history.

* **Verification** — :func:`fleet_doctor` cross-checks WAL/snapshot
  integrity, seq contiguity, replica watermarks and logical digests,
  and archive manifests end to end; :func:`sweep_state_dir` reclaims
  the orphaned ``.tmp*`` files and stale delta logs a SIGKILL mid-
  compaction leaves behind.

Correctness hinges on two orderings.  The shipper reads each root's
**WAL, then its delta log, then its base**: a compaction racing the
pass then always ships the covering states in the same pass, so the
standby never holds frames whose prefix is missing, and a base newer
than the delta read before it makes that delta stale rather than
mismatched.  The target applies **snapshots before frames**: a standby
crash mid-pass leaves a consistent prefix state.  Frame application is
idempotent (the target drops frames at or below its local per-vehicle
WAL tip), so re-shipping after a dropped connection is safe.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import time
import zlib
from pathlib import Path

from ..engine.faults import owner_alive, pid_alive
from ..errors import InvalidParameterError, ReproError
from .frontend import parse_listen
from .shard import SHARD_LOCK_NAME, ShardLockError, acquire_shard_lock, release_shard_lock
from .wal import (
    DELTA_NAME,
    SNAPSHOT_NAME,
    WAL_NAME,
    SnapshotStore,
    WalCorruptionError,
    WriteAheadLog,
    _unframe,
    base_generation,
    snapshot_states,
)

__all__ = [
    "MANIFEST_NAME",
    "WATERMARKS_NAME",
    "LocalReplicaTarget",
    "RemoteReplicaTarget",
    "ReplicaServer",
    "ReplicationError",
    "ReplicationMonitor",
    "backup",
    "check_layout",
    "durable_summary",
    "fleet_doctor",
    "promote",
    "read_manifest",
    "replicate",
    "restore",
    "service_roots",
    "sweep_state_dir",
    "sync_once",
]

#: Watermark sidecar at the standby root: one CRC-framed JSON line
#: mapping root keys to ``{"snapshot": [base generation, delta length],
#: "vehicles": {vehicle: shipped seq}}``.
WATERMARKS_NAME = "replica.watermarks.json"

#: CRC-framed backup manifest, written *last* so a torn backup is a
#: missing manifest, never a silently short archive.
MANIFEST_NAME = "backup.manifest.json"

#: The durable files of one service root.
ROOT_FILES = (SNAPSHOT_NAME, DELTA_NAME, WAL_NAME)

#: JSONL line limit on the replication channel — a ``frames`` op or a
#: shipped snapshot can far exceed the frontend's 1 MiB event limit.
_REPLICA_LINE_LIMIT = 1 << 26

#: Frames per ``frames`` op when shipping remotely (bounds line length).
_FRAMES_PER_OP = 512


class ReplicationError(ReproError, RuntimeError):
    """Replication/backup invariant violated (gap, divergence, corrupt
    archive, history compacted away) — never silently continued past."""


# ---------------------------------------------------------------------------
# State-dir layout helpers


def service_roots(state_dir: str | Path) -> list[tuple[str, Path]]:
    """The service roots under ``state_dir`` as ``(key, path)``: its
    ``shard-*`` subdirectories when sharded, else the directory itself
    under key ``""``.  Keys are the unit of replication: watermarks,
    shipped frames and relpaths are addressed by them.

    A dir holding both root files and ``shard-*`` dirs was written by
    more than one shard count; every reader refuses it, since any one
    reading would leave the other layout's state behind."""
    state_dir = Path(state_dir)
    shards = sorted(path for path in state_dir.glob("shard-*") if path.is_dir())
    if shards and any((state_dir / name).exists() for name in ROOT_FILES):
        raise InvalidParameterError(
            f"{state_dir} holds both root files and shard dirs: it was "
            "written by more than one shard count"
        )
    return [(path.name, path) for path in shards] or [("", state_dir)]


def check_layout(state_dir: Path, roots: list[Path]) -> None:
    """Refuse ``state_dir`` unless it is empty or its roots are ``roots``.

    The layout names the shard count that wrote it (the rule of
    :func:`service_roots`): root files at the top mean one shard, and
    ``shard-NN/`` dirs give their number.  Another count would route
    vehicles away from the roots holding their state.
    """
    found = [path for key, path in service_roots(state_dir) if key]
    if not found and any((state_dir / name).exists() for name in ROOT_FILES):
        found = [state_dir]
    if found and set(found) != set(roots):
        raise InvalidParameterError(
            f"{state_dir} was written by {len(found)} shard(s), with state in "
            f"{', '.join(map(str, found))}; a {len(roots)}-shard tier reads "
            f"{', '.join(map(str, roots))}: serve it with the count that wrote it"
        )


def _rel(key: str, name: str) -> str:
    return f"{key}/{name}" if key else name


def _publish_text(path: Path, text: str, *, fs=None, op: str = "replica-publish") -> None:
    """Atomically publish ``text`` at ``path`` (tmp + rename), with an
    injection point for fault schedules."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if fs is not None:
        fs.check(op, path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
    os.replace(tmp, path)


def _load_marks(path: Path) -> dict:
    """Watermarks from ``path`` (empty when absent; corrupt raises)."""
    if not path.exists():
        return {}
    payload = _unframe(path.read_text().strip())
    if payload is None or not isinstance(payload.get("marks"), dict):
        raise WalCorruptionError(f"{path}: watermark file failed its CRC check")
    return payload["marks"]


def _shipped(marks: dict, key: str) -> dict:
    """vehicle -> shipped seq of one root's watermark (empty when none)."""
    mark = marks.get(key)
    vehicles = mark.get("vehicles") if isinstance(mark, dict) else None
    return dict(vehicles) if isinstance(vehicles, dict) else {}


def durable_summary(root: str | Path) -> dict:
    """One service root's durable state in one pass, per vehicle:
    ``{vehicle: {"tip", "snapshot_seq", "digest"}}``.

    ``tip`` is the highest durably-applied seq (compacted state or WAL
    tail, whichever is further); ``digest`` hashes the compacted state
    plus the WAL records beyond it, so two roots with the same tip *and
    the same snapshot seq* must agree bit-for-bit.  (Two roots at the
    same tip but different compaction points legitimately differ — the
    doctor only compares digests when snapshot seqs match.)
    """
    root = Path(root)
    states = SnapshotStore(root / SNAPSHOT_NAME).load()
    tails: dict[str, list] = {}
    for seq, _line, record in WriteAheadLog(root / WAL_NAME).follow(0):
        state = states.get(record["v"])
        if state is None or seq > state["applied"]:
            tails.setdefault(record["v"], []).append(record)
    summary = {}
    for vehicle in sorted(states.keys() | tails.keys()):
        state = states.get(vehicle)
        seq = 0 if state is None else state["applied"]
        tail = tails.get(vehicle, [])
        body = json.dumps(
            {"seq": seq, "state": state, "tail": tail}, sort_keys=True, default=str
        )
        summary[vehicle] = {
            "tip": tail[-1]["seq"] if tail else seq,
            "snapshot_seq": seq,
            "digest": hashlib.sha256(body.encode()).hexdigest(),
        }
    return summary


# ---------------------------------------------------------------------------
# Replica targets


class LocalReplicaTarget:
    """Applies shipped state to a standby directory on this machine.

    Also the server-side engine behind :class:`ReplicaServer` — the
    remote protocol is just these five methods as JSONL ops.  Frame
    application filters to ``seq`` above the standby WAL's local tip,
    making re-ships idempotent; watermarks are published atomically on
    :meth:`commit` (one pass = one commit), never mid-pass.
    """

    def __init__(self, state_dir: str | Path, *, fs=None) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.fs = fs
        self._marks = _load_marks(self.state_dir / WATERMARKS_NAME)
        #: root key -> vehicle -> standby WAL tip, read once per root.
        self._tips: dict[str, dict] = {}

    def watermarks(self) -> dict:
        return {key: dict(mark) for key, mark in self._marks.items()}

    def put_text(self, rel: str, text: str) -> None:
        _publish_text(self.state_dir / rel, text, fs=self.fs, op="replica-put")

    def remove(self, rel: str) -> None:
        try:
            os.unlink(self.state_dir / rel)
        except FileNotFoundError:
            pass

    def append_frames(self, key: str, lines: list[str]) -> int:
        """Append shipped WAL frames to root ``key``; returns how many
        were new.  Every line is CRC-verified again here (end-to-end
        integrity), unframed, filtered to ``seq`` beyond the standby
        WAL's tip for its vehicle, and re-appended — framing is
        deterministic, so the standby's WAL bytes equal the primary's.
        """
        wal = WriteAheadLog(self.state_dir / _rel(key, WAL_NAME), fs=self.fs)
        tips = self._tips.get(key)
        if tips is None:
            tips = {record["v"]: seq for seq, _line, record in wal.follow(0)}
        tips = dict(tips)
        records = []
        for line in lines:
            record = _unframe(line)
            if record is None:
                raise ReplicationError(
                    f"{key or '.'}: shipped frame failed its CRC check in transit"
                )
            seq, vehicle = record.get("seq"), record.get("v")
            if type(seq) is not int or type(vehicle) is not str:
                raise ReplicationError(
                    f"{key or '.'}: shipped frame carries no seq or vehicle"
                )
            if seq > tips.get(vehicle, 0):
                records.append(record)
                tips[vehicle] = seq
        wal.append_many(records)
        self._tips[key] = tips
        return len(records)

    def set_mark(self, key: str, mark: dict) -> None:
        self._marks[key] = dict(mark)

    def commit(self) -> None:
        body = json.dumps(
            {"version": 1, "marks": self._marks}, sort_keys=True, allow_nan=False
        )
        _publish_text(
            self.state_dir / WATERMARKS_NAME,
            f"{zlib.crc32(body.encode()):08x} {body}",
            fs=self.fs,
            op="replica-commit",
        )

    def close(self) -> None:
        self.commit()


class RemoteReplicaTarget:
    """Same interface as :class:`LocalReplicaTarget`, over the wire.

    Mutating ops buffer locally and flush as one JSONL exchange on
    :meth:`commit` — the server applies them in order and publishes its
    watermarks only when the trailing ``commit`` op lands, so a dropped
    connection leaves data-without-watermark (re-shipped harmlessly next
    pass), never watermark-without-data.  ``net`` is an optional
    :class:`~repro.engine.faults.NetFaultInjector` hooked at ``connect``
    and before every ``send``.
    """

    def __init__(self, address: str, *, net=None, timeout: float = 30.0) -> None:
        self.address = parse_listen(address)
        self.net = net
        self.timeout = float(timeout)
        self._ops: list[dict] = []

    def watermarks(self) -> dict:
        replies = self._exchange([{"op": "watermarks"}])
        return replies[0]["marks"]

    def put_text(self, rel: str, text: str) -> None:
        self._ops.append({"op": "put", "rel": rel, "text": text})

    def remove(self, rel: str) -> None:
        self._ops.append({"op": "rm", "rel": rel})

    def append_frames(self, key: str, lines: list[str]) -> int:
        for start in range(0, len(lines), _FRAMES_PER_OP):
            self._ops.append(
                {"op": "frames", "key": key, "lines": lines[start : start + _FRAMES_PER_OP]}
            )
        return len(lines)

    def set_mark(self, key: str, mark: dict) -> None:
        self._ops.append({"op": "mark", "key": key, "mark": dict(mark)})

    def commit(self) -> None:
        ops = self._ops + [{"op": "commit"}]
        self._ops = []
        self._exchange(ops)

    def close(self) -> None:
        if self._ops:
            self.commit()

    def _exchange(self, ops: list[dict]) -> list[dict]:
        if self.net is not None:
            self.net.check("connect")
        return asyncio.run(self._roundtrip(ops))

    async def _roundtrip(self, ops: list[dict]) -> list[dict]:
        if self.address[0] == "unix":
            opener = asyncio.open_unix_connection(
                self.address[1], limit=_REPLICA_LINE_LIMIT
            )
        else:
            opener = asyncio.open_connection(
                self.address[1], self.address[2], limit=_REPLICA_LINE_LIMIT
            )
        reader, writer = await asyncio.wait_for(opener, self.timeout)
        try:
            replies = []
            for op in ops:
                if self.net is not None:
                    self.net.check("send")
                writer.write((json.dumps(op, sort_keys=True) + "\n").encode())
                await asyncio.wait_for(writer.drain(), self.timeout)
                line = await asyncio.wait_for(reader.readline(), self.timeout)
                if not line:
                    raise ConnectionResetError(
                        "replica server closed the connection mid-exchange"
                    )
                reply = json.loads(line)
                if not reply.get("ok"):
                    raise ReplicationError(
                        f"replica server rejected {op.get('op')!r}: {reply.get('error')}"
                    )
                replies.append(reply)
            return replies
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionResetError):
                pass


class ReplicaServer:
    """Standby-side network front end: JSONL ops over a unix or TCP
    socket (the repo's established framing), applied through a
    :class:`LocalReplicaTarget`.  Run via ``repro-idling replicate
    --listen`` on the standby machine.
    """

    def __init__(self, state_dir: str | Path, *, fs=None) -> None:
        self.target = LocalReplicaTarget(state_dir, fs=fs)
        self.requests = 0
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    def _apply(self, op: dict) -> dict:
        kind = op.get("op")
        if kind == "watermarks":
            return {"ok": True, "marks": self.target.watermarks()}
        if kind == "put":
            self.target.put_text(op["rel"], op["text"])
            return {"ok": True}
        if kind == "rm":
            self.target.remove(op["rel"])
            return {"ok": True}
        if kind == "frames":
            appended = self.target.append_frames(op["key"], op["lines"])
            return {"ok": True, "appended": appended}
        if kind == "mark":
            self.target.set_mark(op["key"], op["mark"])
            return {"ok": True}
        if kind == "commit":
            self.target.commit()
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {kind!r}"}

    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    op = json.loads(line)
                except ValueError:
                    reply = {"ok": False, "error": "malformed JSON op"}
                else:
                    if not isinstance(op, dict):
                        reply = {"ok": False, "error": "op must be a JSON object"}
                    else:
                        self.requests += 1
                        try:
                            reply = await asyncio.to_thread(self._apply, op)
                        except (ReplicationError, WalCorruptionError, OSError, KeyError, TypeError) as exc:
                            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                writer.write((json.dumps(reply, sort_keys=True) + "\n").encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.LimitOverrunError, ValueError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionResetError):
                pass

    async def serve(self, listen: str, *, ready=None, install_signals: bool = False) -> None:
        import signal

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if install_signals:
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._loop.add_signal_handler(sig, self._stop.set)
                except (NotImplementedError, RuntimeError):
                    pass
        parsed = parse_listen(listen)
        if parsed[0] == "unix":
            server = await asyncio.start_unix_server(
                self._handle, path=parsed[1], limit=_REPLICA_LINE_LIMIT
            )
        else:
            server = await asyncio.start_server(
                self._handle, host=parsed[1], port=parsed[2], limit=_REPLICA_LINE_LIMIT
            )
        async with server:
            if ready is not None:
                ready.set()
            await self._stop.wait()
        self.target.commit()

    def request_stop(self) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)


# ---------------------------------------------------------------------------
# The shipper


def sync_once(primary_dir: str | Path, target, *, fs=None) -> dict:
    """One replication pass: ship everything the target hasn't seen.

    Read order per root is WAL, then delta log, then base (see the
    module docstring).  The snapshot is re-shipped, and its per-vehicle
    seqs folded into the watermark, only when its base generation or
    delta length moved.  A vehicle's frames must then continue from
    what the standby holds: a first frame beyond it means the primary
    compacted history the standby never received, and raises
    :class:`ReplicationError` rather than shipping a stream recovery
    would silently mis-apply.
    """
    marks = target.watermarks()
    stats = {"roots": 0, "frames": 0, "snapshots": 0, "deltas": 0}
    for key, root in service_roots(primary_dir):
        stats["roots"] += 1
        frames = list(WriteAheadLog(root / WAL_NAME, fs=fs).follow(0))
        delta_path, base_path = root / DELTA_NAME, root / SNAPSHOT_NAME
        delta_text = delta_path.read_text() if delta_path.exists() else ""
        base_text = base_path.read_text() if base_path.exists() else None
        mark = marks.get(key) if isinstance(marks.get(key), dict) else {}
        shipped = _shipped(marks, key)
        version = [base_generation(base_text), len(delta_text)]
        if version != mark.get("snapshot"):
            _generation, states, _applied = snapshot_states(
                base_text, delta_text, base_path
            )
            if base_text is not None:
                target.put_text(_rel(key, SNAPSHOT_NAME), base_text)
                stats["snapshots"] += 1
            if delta_text:
                target.put_text(_rel(key, DELTA_NAME), delta_text)
                stats["deltas"] += 1
            else:
                target.remove(_rel(key, DELTA_NAME))
            for vehicle, state in states.items():
                shipped[vehicle] = max(shipped.get(vehicle, 0), state["applied"])
        lines = []
        for seq, line, record in frames:
            vehicle = record["v"]
            have = shipped.get(vehicle, 0)
            if seq <= have:
                continue
            if seq != have + 1:
                raise ReplicationError(
                    f"{key or '.'}: vehicle {vehicle!r}: primary WAL resumes at "
                    f"seq {seq} but the standby holds only {have} and no "
                    f"snapshot covers the gap — history needed for catch-up is gone"
                )
            lines.append(line)
            shipped[vehicle] = seq
        if lines:
            stats["frames"] += target.append_frames(key, lines)
        target.set_mark(key, {"snapshot": version, "vehicles": shipped})
    target.commit()
    return stats


def replicate(
    primary_dir: str | Path,
    target,
    *,
    interval: float = 0.2,
    passes: int | None = None,
    stop=None,
    max_errors: int | None = None,
    fs=None,
) -> dict:
    """Run :func:`sync_once` in a loop — the standby's steady state.

    Channel drops (``ConnectionError``) are counted and retried: every
    op is idempotent, so a half-applied pass just re-ships.  ``stop`` is
    an optional :class:`threading.Event`-alike; ``passes`` bounds the
    loop for tests and one-shot catch-ups; ``max_errors`` turns a
    persistently dead channel into a :class:`ReplicationError`.
    """
    totals = {
        "passes": 0,
        "frames": 0,
        "snapshots": 0,
        "deltas": 0,
        "channel_errors": 0,
    }
    while True:
        if stop is not None and stop.is_set():
            break
        try:
            stats = sync_once(primary_dir, target, fs=fs)
        except ConnectionError as exc:
            totals["channel_errors"] += 1
            if max_errors is not None and totals["channel_errors"] > max_errors:
                raise ReplicationError(
                    f"replication channel failed {totals['channel_errors']} "
                    f"times; last error: {exc}"
                ) from exc
        else:
            totals["passes"] += 1
            for field in ("frames", "snapshots", "deltas"):
                totals[field] += stats[field]
            if passes is not None and totals["passes"] >= passes:
                break
        if stop is not None:
            if stop.wait(interval):
                break
        elif interval:
            time.sleep(interval)
    return totals


# ---------------------------------------------------------------------------
# Promotion


def promote(
    state_dir: str | Path,
    config,
    *,
    fence: str | Path | None = None,
    policy: str = "repair",
    fsync: bool = False,
    fs=None,
) -> dict:
    """Promote a standby (or restored) state dir to primary.

    ``fence`` names the *old* primary's state dir: any ``shard.lock``
    there with a live owner (pid + start-time token, pid-reuse-proof)
    refuses the promotion — that is a split-brain attempt, not a
    failover.  Dead owners are stale locks and promotion proceeds.

    The promotion itself is the ordinary recovery path: acquire each
    service root's lock, open it (which rebuilds every session the root
    holds from its snapshot and WAL), and close — the compaction step.
    Because recovery is bit-identical, the returned per-vehicle
    ``state_digest()`` values equal what a clean continuation of the
    primary would have had.
    """
    state_dir = Path(state_dir)
    if fence is not None:
        for lock in sorted(Path(fence).rglob(SHARD_LOCK_NAME)):
            try:
                record = lock.read_text()
            except OSError:
                continue
            if owner_alive(record):
                raise ShardLockError(
                    f"refusing to promote {state_dir}: primary {fence} is still "
                    f"owned by a live process ({record.strip()!r}) — split-brain "
                    f"attempt fenced"
                )

    digests: dict[str, str] = {}
    costs: dict[str, float] = {}
    roots: list[str] = []
    from .advisor import AdvisorService

    for _key, root in service_roots(state_dir):
        roots.append(str(root))
        lock = acquire_shard_lock(root)
        try:
            service = AdvisorService(root, config, policy=policy, fsync=fsync, fs=fs)
            try:
                for vid, info in service.health_snapshot()["vehicles"].items():
                    digests[vid] = info["digest"]
                    costs[vid] = info["total_cost"]
            finally:
                service.close()
        finally:
            release_shard_lock(lock)

    # This dir is a primary now; a leftover standby watermark file would
    # only mislead a future doctor run.
    try:
        os.unlink(state_dir / WATERMARKS_NAME)
    except FileNotFoundError:
        pass

    ordered = sorted(digests)
    return {
        "fleet_cost": sum(costs[vid] for vid in ordered),
        "digests": {vid: digests[vid] for vid in ordered},
        "vehicles": ordered,
        "roots": roots,
    }


# ---------------------------------------------------------------------------
# Cold backup / point-in-time restore


def backup(state_dir: str | Path, archive_dir: str | Path, *, fs=None) -> dict:
    """Copy a state dir into a cold archive under a content manifest.

    Files are copied first; per-vehicle tips/digests are then computed
    **from the archive copies** (a live primary may have moved on — the
    manifest must describe the archive, not the source); the CRC-framed
    manifest is published last, so a backup interrupted at any point is
    a missing/unreadable manifest — detected, never trusted.
    """
    state_dir = Path(state_dir)
    archive = Path(archive_dir)
    manifest_path = archive / MANIFEST_NAME
    if manifest_path.exists():
        raise ReplicationError(
            f"{archive}: already holds a backup manifest — refusing to overwrite"
        )
    archive.mkdir(parents=True, exist_ok=True)

    rels = [WATERMARKS_NAME] if (state_dir / WATERMARKS_NAME).exists() else []
    for key, root in service_roots(state_dir):
        # An empty log (a WAL or delta just reset) holds no state.
        rels += [
            _rel(key, name)
            for name in ROOT_FILES
            if (root / name).exists() and (root / name).stat().st_size
        ]

    files = {}
    for rel in rels:
        data = (state_dir / rel).read_bytes()
        dest = archive / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        if fs is not None:
            fs.check("backup-write", dest)
        tmp = dest.with_name(dest.name + f".tmp{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, dest)
        files[rel] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }

    vehicles = {
        vehicle: {"root": key, "tip": info["tip"], "digest": info["digest"]}
        for key, root in service_roots(archive)
        for vehicle, info in durable_summary(root).items()
    }
    manifest = {"version": 2, "files": files, "vehicles": vehicles}
    body = json.dumps(manifest, sort_keys=True, allow_nan=False)
    if fs is not None:
        fs.check("backup-write", manifest_path)
    _publish_text(
        manifest_path, f"{zlib.crc32(body.encode()):08x} {body}", fs=None
    )
    return manifest


def read_manifest(archive_dir: str | Path) -> dict:
    """The archive's manifest; missing or CRC-bad raises
    :class:`ReplicationError` (a torn backup looks exactly like this)."""
    path = Path(archive_dir) / MANIFEST_NAME
    if not path.exists():
        raise ReplicationError(
            f"corrupt backup: {path} is missing (backup incomplete or torn)"
        )
    payload = _unframe(path.read_text().strip())
    if payload is None or not isinstance(payload.get("files"), dict):
        raise ReplicationError(f"corrupt backup: {path} failed its CRC check")
    return payload


def restore(
    archive_dir: str | Path,
    state_dir: str | Path,
    *,
    upto_seq: int | None = None,
    fs=None,
) -> dict:
    """Restore a cold archive into an empty state dir.

    Every archived file's hash is verified against the manifest *before
    anything is written* — a corrupt backup aborts with the target
    untouched.  With ``upto_seq``, every vehicle's history past that seq
    is dropped from the WAL; a vehicle whose compacted state already
    lies past it (compaction consumed the history that restore point
    needs) refuses the restore, also before anything is written, rather
    than producing a state other than the one asked for.
    """
    archive = Path(archive_dir)
    state_dir = Path(state_dir)
    manifest = read_manifest(archive)
    state_dir.mkdir(parents=True, exist_ok=True)
    if any(
        (root / name).exists()
        for _key, root in service_roots(state_dir)
        for name in ROOT_FILES
    ):
        raise ReplicationError(
            f"{state_dir}: target already holds session state — refusing to "
            f"restore over it"
        )

    for rel, meta in sorted(manifest["files"].items()):
        src = archive / rel
        if not src.exists():
            raise ReplicationError(
                f"corrupt backup: {rel} is named in the manifest but missing"
            )
        data = src.read_bytes()
        if len(data) != meta["bytes"] or hashlib.sha256(data).hexdigest() != meta["sha256"]:
            raise ReplicationError(
                f"corrupt backup: {rel} does not match its manifest hash"
            )

    if upto_seq is not None:
        for key, root in service_roots(archive):
            for vehicle, state in SnapshotStore(root / SNAPSHOT_NAME).load().items():
                if state["applied"] > upto_seq:
                    raise ReplicationError(
                        f"{key or '.'}: vehicle {vehicle!r} is compacted at seq "
                        f"{state['applied']} > --upto-seq {upto_seq}; compaction "
                        f"already consumed the history that restore point needs"
                    )

    report = {"files": 0, "truncated": {}, "upto_seq": upto_seq}
    for rel in sorted(manifest["files"]):
        if rel == WATERMARKS_NAME:
            continue  # the restored dir is a primary, not a standby
        data = (archive / rel).read_bytes()
        dest = state_dir / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        if fs is not None:
            fs.check("restore-write", dest)
        tmp = dest.with_name(dest.name + f".tmp{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, dest)
        report["files"] += 1

    if upto_seq is not None:
        for _key, root in service_roots(state_dir):
            wal = WriteAheadLog(root / WAL_NAME, fs=fs)
            kept, dropped = [], {}
            for seq, line, record in wal.follow(0):
                if seq <= upto_seq:
                    kept.append(line)
                else:
                    dropped[record["v"]] = dropped.get(record["v"], 0) + 1
            if dropped:
                report["truncated"].update(dropped)
                if fs is not None:
                    fs.check("restore-write", wal.path)
                tmp = wal.path.with_name(wal.path.name + f".tmp{os.getpid()}")
                with open(tmp, "w") as handle:
                    handle.write("".join(line + "\n" for line in kept))
                    handle.flush()
                os.replace(tmp, wal.path)
    return report


# ---------------------------------------------------------------------------
# End-to-end verification


def _check_root(key: str, root: Path, problems: list, warnings: list) -> dict | None:
    """One root's integrity findings; its :func:`durable_summary`, or
    None when corruption makes it unreadable."""
    where = key or "."
    try:
        states = SnapshotStore(root / SNAPSHOT_NAME).load()
    except WalCorruptionError as exc:
        problems.append(f"{where}: snapshot-corrupt: {exc}")
        return None
    wal = WriteAheadLog(root / WAL_NAME)
    try:
        frames = list(wal.follow(0))
    except WalCorruptionError as exc:
        problems.append(f"{where}: wal-corrupt: {exc}")
        return None
    if wal.tail_torn:
        warnings.append(
            f"{where}: wal-tail-torn (final frame dropped — in-flight append)"
        )
    expect = {vehicle: state["applied"] for vehicle, state in states.items()}
    gapped: set[str] = set()
    for seq, _line, record in frames:
        vehicle = record["v"]
        have = expect.get(vehicle, 0)
        if seq <= have or vehicle in gapped:
            continue
        if seq != have + 1:
            problems.append(
                f"{where}: wal-gap: vehicle {vehicle!r} jumps {have} -> {seq} "
                f"beyond its snapshot seq — recovery would silently skip events"
            )
            gapped.add(vehicle)
            continue
        expect[vehicle] = seq
    return durable_summary(root)


def fleet_doctor(
    state_dir: str | Path,
    *,
    replica_dir: str | Path | None = None,
    archive_dir: str | Path | None = None,
    max_lag: int | None = None,
    verify_restore: bool = False,
) -> dict:
    """Cross-check WAL/snapshot/replica/archive consistency end to end.

    ``problems`` are states recovery would get *wrong* or data that is
    already lost (corrupt frames, seq gaps, a replica ahead of its
    primary, divergent digests at the same compaction point, a corrupt
    backup, root files next to shard dirs); ``warnings`` are
    benign-but-notable (torn tails).  ``ok`` is ``problems == []``.
    ``vehicles`` is keyed by vehicle id.

    With ``replica_dir``, per-vehicle lag (primary durable tip minus
    replica durable tip) is reported, watermarks are checked against
    what is actually on the replica's disk, and — when both sides sit at
    the same tip *and* the same snapshot seq — their durable digests
    must match bit-for-bit.  With ``archive_dir``, every archived file
    is re-hashed against the manifest; ``verify_restore`` additionally
    checks ``state_dir`` byte-for-byte against the manifest (meaningful
    right after a *full* restore, before promotion compacts).
    """
    state_dir = Path(state_dir)
    problems: list[str] = []
    warnings: list[str] = []
    vehicles: dict[str, dict] = {}
    summaries: dict[str, dict] = {}
    try:
        roots = service_roots(state_dir)
    except InvalidParameterError as exc:
        problems.append(f"mixed-layout: {exc}")
        roots = []
    for key, root in roots:
        summary = _check_root(key, root, problems, warnings)
        if summary is not None:
            summaries[key] = summary
            vehicles.update(summary)

    replication = None
    if replica_dir is not None:
        replica_dir = Path(replica_dir)
        marks: dict = {}
        try:
            marks = _load_marks(replica_dir / WATERMARKS_NAME)
        except WalCorruptionError as exc:
            problems.append(f"replica: watermark-corrupt: {exc}")
        lag_by_vehicle: dict[str, int] = {}
        for key, summary in summaries.items():
            replica_root = replica_dir / key
            try:
                replicated = (
                    durable_summary(replica_root) if replica_root.is_dir() else {}
                )
            except WalCorruptionError as exc:
                problems.append(f"replica {key or '.'}: {exc}")
                continue
            shipped = _shipped(marks, key)
            for vehicle, info in summary.items():
                other = replicated.get(vehicle)
                r_tip = other["tip"] if other else 0
                applied = int(shipped.get(vehicle, 0))
                if applied > r_tip:
                    problems.append(
                        f"replica {vehicle}: watermark-ahead: watermark claims "
                        f"applied seq {applied} but replica state only reaches {r_tip}"
                    )
                if r_tip > info["tip"]:
                    problems.append(
                        f"replica {vehicle}: replica-ahead: replica at seq {r_tip} "
                        f"but primary at {info['tip']} — wrong pairing or primary "
                        f"rollback"
                    )
                lag_by_vehicle[vehicle] = max(0, info["tip"] - r_tip)
                if (
                    other is not None
                    and r_tip == info["tip"]
                    and other["snapshot_seq"] == info["snapshot_seq"]
                    and other["digest"] != info["digest"]
                ):
                    problems.append(
                        f"replica {vehicle}: replica-diverged: same durable tip "
                        f"{info['tip']} and snapshot seq but different logical digest"
                    )
        lags = lag_by_vehicle.values()
        replication = {
            "replica": str(replica_dir),
            "max_lag_events": max(lags, default=0),
            "total_lag_events": sum(lags),
            "vehicles_lagging": sum(1 for lag in lags if lag),
            "lag": lag_by_vehicle,
        }
        if max_lag is not None and replication["max_lag_events"] > max_lag:
            problems.append(
                f"replication-lag: max lag {replication['max_lag_events']} events "
                f"exceeds the configured bound {max_lag}"
            )

    archive = None
    if archive_dir is not None:
        archive_dir = Path(archive_dir)
        manifest = None
        try:
            manifest = read_manifest(archive_dir)
        except ReplicationError as exc:
            problems.append(f"backup-corrupt: {exc}")
        if manifest is not None:
            archive = {"files": len(manifest["files"]), "verified": 0}
            for rel, meta in sorted(manifest["files"].items()):
                src = archive_dir / rel
                if not src.exists():
                    problems.append(
                        f"backup-corrupt: {rel} is named in the manifest but missing"
                    )
                    continue
                data = src.read_bytes()
                if (
                    len(data) != meta["bytes"]
                    or hashlib.sha256(data).hexdigest() != meta["sha256"]
                ):
                    problems.append(
                        f"backup-corrupt: {rel} does not match its manifest hash"
                    )
                    continue
                archive["verified"] += 1
            if verify_restore:
                for rel, meta in sorted(manifest["files"].items()):
                    if rel == WATERMARKS_NAME:
                        continue
                    dest = state_dir / rel
                    if not dest.exists():
                        problems.append(
                            f"restore-incomplete: {rel} is missing from {state_dir}"
                        )
                        continue
                    data = dest.read_bytes()
                    if hashlib.sha256(data).hexdigest() != meta["sha256"]:
                        problems.append(
                            f"restore-diverged: {rel} differs from the backup copy"
                        )

    return {
        "ok": not problems,
        "problems": problems,
        "warnings": warnings,
        "vehicles": vehicles,
        "replication": replication,
        "archive": archive,
    }


class ReplicationMonitor:
    """Live replication-lag gauge for a primary's health/readiness.

    Wire into ``ShardedAdvisorService(..., replication=monitor)``, the
    tier every ``serve`` runs and the only place readiness is decided:
    ``health_snapshot()`` then carries a ``replication`` section, keyed
    by vehicle, and ``/ready`` flips to 503 with a machine-readable
    reason while any vehicle lags past ``max_lag`` events.  Reads the primary's durable tips and the
    standby's watermark file — both crash-safe artifacts — so it is
    accurate across restarts of either side.
    """

    def __init__(
        self, primary_dir: str | Path, replica_dir: str | Path, *, max_lag: int = 0
    ) -> None:
        self.primary_dir = Path(primary_dir)
        self.replica_dir = Path(replica_dir)
        self.max_lag = int(max_lag)

    def snapshot(self) -> dict:
        marks: dict = {}
        corrupt = False
        try:
            marks = _load_marks(self.replica_dir / WATERMARKS_NAME)
        except WalCorruptionError:
            corrupt = True
        per_vehicle: dict[str, dict] = {}
        for key, root in service_roots(self.primary_dir):
            try:
                summary = durable_summary(root)
            except WalCorruptionError:
                continue  # the doctor reports corruption; lag is moot here
            shipped = _shipped(marks, key)
            for vehicle, info in summary.items():
                applied = int(shipped.get(vehicle, 0))
                lag = max(0, info["tip"] - applied)
                per_vehicle[vehicle] = {
                    "tip": info["tip"],
                    "applied": applied,
                    "lag": lag,
                }
        lags = [info["lag"] for info in per_vehicle.values()]
        return {
            "replica": str(self.replica_dir),
            "max_lag_bound": self.max_lag,
            "max_lag_events": max(lags, default=0),
            "total_lag_events": sum(lags),
            "vehicles_lagging": sum(1 for lag in lags if lag),
            "vehicles": per_vehicle,
            "within_bound": (not corrupt) and max(lags, default=0) <= self.max_lag,
            "watermarks_corrupt": corrupt,
        }


# ---------------------------------------------------------------------------
# State-dir hygiene (`cache doctor --state-dir`)


def sweep_state_dir(state_dir: str | Path) -> list[str]:
    """Reclaim debris a SIGKILL mid-compaction leaves in a state dir.

    Two families: ``*.tmp<pid>`` staging files whose writer is dead (a
    live writer's temps are left alone — it is about to rename them),
    and delta logs that extend no base on disk — the base is gone, or
    no line names its generation (loads already ignore them; this
    reclaims the bytes).  Returns the removed paths relative to
    ``state_dir``.
    """
    state_dir = Path(state_dir)
    removed: list[str] = []
    for path in sorted(state_dir.rglob("*.tmp*")):
        if not path.is_file():
            continue
        suffix = path.name[path.name.rfind(".tmp") + 4 :]
        if suffix.isdigit() and pid_alive(int(suffix)):
            continue
        try:
            path.unlink()
        except FileNotFoundError:
            continue
        removed.append(str(path.relative_to(state_dir)))
    for _key, root in service_roots(state_dir):
        delta_path, base_path = root / DELTA_NAME, root / SNAPSHOT_NAME
        if not delta_path.is_file() or not delta_path.stat().st_size:
            continue
        if base_path.exists():
            generation = base_generation(base_path.read_text())
            lines = delta_path.read_text().splitlines()
            if generation == 0 or any(
                (_unframe(line) or {}).get("generation") == generation
                for line in lines
            ):
                # A corrupt base is the doctor's problem, not sweepable
                # debris; a current line makes the log live.
                continue
        try:
            delta_path.unlink()
        except FileNotFoundError:
            continue
        removed.append(str(delta_path.relative_to(state_dir)))
    return removed
