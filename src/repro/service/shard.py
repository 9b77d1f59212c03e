"""Sharded multi-process serving tier: consistent-hash fleet routing.

One :class:`~repro.service.advisor.AdvisorService` process tops out at
one core's worth of batched ingest.  :class:`ShardedAdvisorService`
turns that per-core path into fleet throughput by partitioning the
vehicle-id space across N worker processes with a consistent-hash ring:

* every vehicle id is owned by exactly one shard, so per-vehicle event
  order — the thing session state depends on — is preserved without any
  cross-process coordination;
* each worker owns its shard's state directory (WAL, snapshots,
  quarantine sidecar, per-shard ledger) and serves it with the stock
  ``AdvisorService``/``AdvisorSession`` machinery, *unchanged* — the
  sharding layer routes lines, it never touches decision logic;
* sharding is therefore a **pure partition**: for any stream and any
  shard count, the multiset of per-vehicle decisions and
  ``state_digest()`` values equals the single-process run
  (``tests/test_service_shard.py`` pins this as a Hypothesis property).

Every shard answers the same commands — a chunk's decisions, a health
snapshot, the digests — through one function over its
``AdvisorService``, called directly for an in-process shard and by the
command loop of a worker process.  Delivery to a worker is
**at-least-once**: the parent keeps every command it sends, chunk or
control request, in its shard's in-flight ledger until the worker
answers it.  A worker that dies (SIGKILL, OOM) is respawned —
recovering its shard bit-identically from the WAL + snapshots — and the
unanswered commands are redelivered in their original dispatch order;
the sessions' idempotent event ids absorb anything the dead worker had
already applied.  ``SIGTERM`` is the graceful path: the worker finishes
what is already queued, flushes WAL + final snapshots
(``service.close()``) and exits, and the parent spawns a fresh worker
for the handoff.

Supervision is self-healing (see ``docs/serving.md``, "Failure-mode
matrix"): a worker that goes silent while holding work — no answer or
idle heartbeat for ``hang_timeout`` — is SIGKILLed and recovered like
any crash; a command at the head of the in-flight ledger across
``poison_budget`` consecutive crashes is quarantined with provenance to
``poison.quarantine.jsonl`` and skipped; a shard that crashes
``restart_budget`` times consecutively (backing off exponentially
between respawns) trips a circuit breaker — it stays down and its
traffic is shed with count instead of burning respawns forever.

Each shard's state directory is guarded by a ``shard.lock`` file (its
worker's, or the tier's for an in-process shard) recording the owner's
pid plus a ``/proc`` start-time token (``O_CREAT |
O_EXCL`` — the same owner discipline as :mod:`repro.engine.faults`
claim files, immune to pid reuse).  A stale lock left by a
SIGKILLed worker is swept automatically on the next acquire, and
``repro-idling cache doctor --fault-claims DIR`` sweeps them explicitly
via :func:`sweep_stale_shard_locks`.

See ``docs/serving.md`` ("Sharded serving") for the topology diagram,
the routing rule, and the health endpoint schema.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import multiprocessing
import os
import pickle
import queue as queue_module
import signal
import threading
import time
import traceback
from collections import deque
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path

from ..engine.ledger import RunLedger, active_ledger, use_ledger
from ..errors import InvalidParameterError, ReproError
from .config import identifiable_vehicle

__all__ = [
    "HashRing",
    "POISON_SIDECAR_NAME",
    "SHARD_LOCK_NAME",
    "ShardLockError",
    "ShardedAdvisorService",
    "acquire_shard_lock",
    "parallel_headroom",
    "release_shard_lock",
    "sweep_stale_shard_locks",
]

SHARD_LOCK_NAME = "shard.lock"
#: Crash-loop backoff: the first crash respawns immediately (the common
#: SIGKILL/OOM case must not add latency), the second waits this long,
#: doubling per consecutive crash up to the cap — a tight crash loop
#: burns backoff instead of CPU while containment decides what to do.
_BACKOFF_BASE_S = 0.1
_BACKOFF_CAP_S = 5.0
#: Poison-chunk quarantine sidecar (JSONL, parent-side, with provenance
#: — the shard-tier mirror of the validation layer's quarantine files).
POISON_SIDECAR_NAME = "poison.quarantine.jsonl"
#: Per-command latency samples kept for :meth:`take_latencies`; older
#: samples are dropped, so a tier nobody drains holds a bounded window.
_LATENCY_SAMPLES = 4096


def parallel_headroom() -> int:
    """CPUs actually usable by this process (affinity-aware).

    The sharded bench's scaling gate is meaningful only up to this
    number: N workers on fewer than N cores time-slice one another and
    honest near-linear scaling is physically unavailable.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class HashRing:
    """Consistent-hash ring mapping vehicle ids to shard indices.

    Each shard owns ``replicas`` virtual points on a 64-bit ring
    (``sha256`` of a stable per-replica key); an id is owned by the
    first point clockwise from its own hash.  Properties the serving
    tier relies on:

    * **deterministic** — the mapping is a pure function of
      ``(shards, replicas, id)``: every parent restart routes
      identically, so a vehicle's events always reach the shard holding
      its durable state;
    * **balanced** — virtual points smooth the per-shard load to within
      a few percent at the default 64 replicas;
    * **stable under growth** — adding a shard only claims arcs from
      existing shards, so roughly ``1/(N+1)`` of ids move (a future
      resharding migration touches only those).
    """

    def __init__(self, shards: int, replicas: int = 64) -> None:
        if shards < 1:
            raise InvalidParameterError(f"shards must be >= 1, got {shards}")
        if replicas < 1:
            raise InvalidParameterError(f"replicas must be >= 1, got {replicas}")
        self.shards = int(shards)
        self.replicas = int(replicas)
        points = sorted(
            (self._point(f"shard-{shard:05d}/{replica:05d}"), shard)
            for shard in range(self.shards)
            for replica in range(self.replicas)
        )
        self._hashes = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    @staticmethod
    def _point(key: str) -> int:
        return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")

    def route(self, vehicle_id: str) -> int:
        """The shard index owning ``vehicle_id``."""
        if self.shards == 1:
            return 0
        index = bisect.bisect_right(self._hashes, self._point(str(vehicle_id)))
        if index == len(self._hashes):
            index = 0
        return self._owners[index]


# -- shard state-dir locks -------------------------------------------------


class ShardLockError(ReproError):
    """A shard state directory is already locked by a live process."""


def _lock_record(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def acquire_shard_lock(state_dir: str | Path) -> Path:
    """Take exclusive ownership of a shard state directory.

    The lock file records the owning pid plus its start-time token
    (``O_CREAT | O_EXCL`` — atomic everywhere; see
    :func:`repro.engine.faults.owner_record`).  A lock whose owner is
    **dead** — dead pid, unreadable record, or a live pid whose token
    mismatches (the pid was recycled by an unrelated process) — is
    swept and re-acquired; a lock held by a live owner raises
    :class:`ShardLockError` — two workers must never share a WAL.
    """
    from ..engine.faults import owner_alive, owner_record

    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    path = state_dir / SHARD_LOCK_NAME
    for _attempt in range(3):
        try:
            handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            record = _lock_record(path)
            if owner_alive(record):
                raise ShardLockError(
                    f"shard state dir {state_dir} is locked by live pid "
                    f"{record.split()[0]}"
                )
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
            continue
        try:
            os.write(handle, owner_record().encode())
        finally:
            os.close(handle)
        return path
    raise ShardLockError(f"could not acquire shard lock {path}")


def release_shard_lock(path: str | Path) -> None:
    """Drop a lock taken by :func:`acquire_shard_lock` (idempotent)."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def sweep_stale_shard_locks(root: str | Path) -> list[str]:
    """Remove ``shard.lock`` files (recursively) whose owner pid is dead.

    The shard-lock counterpart of
    :func:`repro.engine.faults.sweep_stale_claims`: a SIGKILLed worker
    leaves its lock behind, and while a *running*
    :class:`ShardedAdvisorService` sweeps it automatically on respawn,
    an operator restarting a torn-down fleet wants the explicit
    doctor-style cleanup (``cache doctor --fault-claims DIR`` runs
    both sweeps).  Locks held by live owners are kept; a live pid
    whose start-time token mismatches the record is a recycled pid —
    stale, swept.
    """
    from ..engine.faults import owner_alive

    removed: list[str] = []
    root = Path(root)
    if not root.exists():
        return removed
    candidates = sorted(root.rglob(SHARD_LOCK_NAME))
    if root.name == SHARD_LOCK_NAME and root.is_file():
        candidates.insert(0, root)
    for path in candidates:
        if not path.is_file():
            continue
        if owner_alive(_lock_record(path)):
            continue
        try:
            path.unlink()
        except FileNotFoundError:
            continue
        removed.append(str(path))
    return removed


# -- one shard's answers ---------------------------------------------------


def _answer(service: AdvisorService, kind: str, arg, want: bool):
    """One shard's answer to one command, computed over its service, or
    None when no caller wants it.

    Both transports run this: an in-process shard calls it from the
    caller's thread, a worker process from its command loop.  ``kind``
    is ``"chunk"`` (``arg``: JSONL lines; the answer is their decisions
    as JSON text lines, encoded only when wanted), ``"health"``
    (``arg``: ``include_vehicles``) or ``"digests"``.
    """
    if kind == "chunk":
        decisions = service.ingest_lines(arg)
        return [json.dumps(decision) for decision in decisions] if want else None
    if not want:
        return None
    if kind == "health":
        return service.health_snapshot(include_vehicles=arg)
    return {
        vehicle_id: session.state_digest()
        for vehicle_id, session in sorted(service.sessions.items())
    }


def _sum_snapshots(snapshots) -> dict:
    """Shard health snapshots summed key by key: numbers add, maps merge,
    and a key only one shard has (a vehicle's row) is copied."""
    values: dict = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            values.setdefault(key, []).append(value)
    return {
        key: (
            parts[0]
            if len(parts) == 1
            else _sum_snapshots(parts)
            if isinstance(parts[0], dict)
            else sum(parts[1:], parts[0])
        )
        for key, parts in values.items()
    }


# -- worker process --------------------------------------------------------


def _worker_loop(
    shard, service, commands, conn, stopping, injector=None, beat_every=0.0
) -> None:
    last_sent = time.monotonic()
    while True:
        try:
            # SIGTERM drain: finish what is already queued, take nothing
            # new; the caller then flushes WAL + snapshots and exits.
            if stopping.is_set():
                command = commands.get_nowait()
            else:
                command = commands.get(timeout=0.1)
        except queue_module.Empty:
            if stopping.is_set():
                return
            # Idle heartbeat: answers double as liveness while busy, so a
            # beat is only needed when there is nothing to answer.  A
            # send failure means the parent is gone — exit quietly.
            if beat_every > 0.0 and time.monotonic() - last_sent >= beat_every:
                try:
                    conn.send(("beat", shard))
                except OSError:
                    return
                last_sent = time.monotonic()
            continue
        if command is None:  # the stop sentinel
            return
        request_id, kind, arg, want = command
        if injector is not None and kind == "chunk":
            # Chaos hook: every line is offered to the fault injector
            # *before* any line of the chunk is applied, so a "kill"
            # fault can never leave a partially ingested chunk behind —
            # redelivery after the crash replays the whole chunk.
            for line in arg:
                injector(line)
        answer = _answer(service, kind, arg, want)
        # The done stamp is CLOCK_MONOTONIC, comparable with the parent's
        # dispatch stamp on the same host — it is the p50/p99
        # command-latency sample.
        conn.send(("done", shard, request_id, time.monotonic(), answer))
        last_sent = time.monotonic()


def _shard_worker(
    shard: int,
    state_dir: str,
    config,
    policy: str,
    fsync: bool,
    ledger_path: str | None,
    commands,
    conn,
    injector=None,
    beat_every: float = 0.0,
) -> None:
    """Worker-process entry point (module-level: spawn-picklable).

    Owns one shard: lock the state dir, warm-recover every session,
    answer commands until the stop sentinel (``None``) or SIGTERM, then
    flush WAL + final snapshots and release the lock.  Any exception is
    reported to the parent as an ``("error", ...)`` message rather than
    a silent nonzero exit.
    """
    stopping = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_args: stopping.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns ctrl-C
    try:
        lock_path = acquire_shard_lock(state_dir)
    except ShardLockError:
        conn.send(("error", shard, traceback.format_exc()))
        conn.close()
        return
    ledger = (
        RunLedger(ledger_path, fsync=fsync, append=True)
        if ledger_path is not None
        else None
    )
    service = None
    error = None
    try:
        from .advisor import AdvisorService

        service = AdvisorService(Path(state_dir), config, policy=policy, fsync=fsync)
        with use_ledger(ledger):  # None: this fresh process has no ledger
            _worker_loop(shard, service, commands, conn, stopping, injector, beat_every)
    except Exception:
        error = traceback.format_exc()
    if service is not None:
        try:
            service.close()
        except Exception:
            if error is None:
                error = traceback.format_exc()
    try:
        conn.send(("stopped", shard) if error is None else ("error", shard, error))
    except OSError:  # parent already gone
        pass
    release_shard_lock(lock_path)
    conn.close()


# -- the sharded tier ------------------------------------------------------


class ShardedAdvisorService:
    """Consistent-hash sharded advisor fleet (see module docstring).

    Every public method sends per-shard commands — a chunk of lines, or
    a ``health`` / ``digests`` control request — and gathers their
    answers one way, whatever the transport: each command takes the
    next id from one sequence, and a wanted answer waits in one result
    map for its caller.

    Parameters
    ----------
    state_dir:
        Root directory.  A one-shard tier keeps its state in
        ``state_dir`` itself (its WAL and snapshot directly under it —
        the plain ``serve`` layout); with N >= 2 shards, shard ``i``
        owns ``state_dir/shard-NN``.
    config:
        Shared :class:`~repro.service.session.SessionConfig`.
    shards:
        Worker count (>= 1).
    workers:
        ``True`` (default) spawns one process per shard.  ``False``
        keeps every shard in process: the same routing and the same
        commands, each answered in the caller's thread — no
        parallelism, but byte-for-byte the same partition, and a
        failure raises to the caller.  The tier holds each shard's
        ``shard.lock`` until :meth:`close`.  Plain ``serve`` runs this
        mode with one shard; its commands share one lock, because the
        front end calls from worker threads, one per open connection.
    queue_depth:
        Bound on each shard's pending-command queue; a full queue
        blocks the caller (lossless backpressure).
    ledger_path:
        Optional base path: worker ``i`` appends its advisor-state
        events to ``<ledger_path>.shard-NN`` (one writer per file —
        JSONL appends do not interleave safely across processes).
    hang_timeout:
        Self-healing supervision: a worker that is *alive* but has sent
        nothing — no answer, no idle heartbeat — for this many seconds
        while holding in-flight commands is presumed hung (deadlocked,
        SIGSTOPped, livelocked), SIGKILLed, and respawned through the
        normal redelivery path.  Workers send idle heartbeats every
        ``hang_timeout / 4`` seconds (floored at 50 ms, capped at 1 s)
        and every answer doubles as a beat, so the timeout only needs
        to exceed the worst-case single-command processing time.
        ``None`` disables hang detection.
    restart_budget:
        Crash-loop containment: after this many *consecutive* crashes
        (any chunk's completion resets the count) the shard's circuit
        breaker opens — the worker stays down, its traffic is shed with
        count (``breaker_shed``), control requests get ``None`` rows —
        instead of burning CPU respawning forever.  Consecutive crashes
        before the budget back off exponentially (0.1 s doubling, capped
        at 5 s; the first crash respawns immediately).
    poison_budget:
        Poison quarantine: when the same command — a chunk or a control
        request — is at the head of its shard's in-flight ledger across
        this many consecutive crashes, the command, not the worker, is
        presumed at fault; it is written with full provenance to
        ``state_dir/poison.quarantine.jsonl``, dropped from redelivery,
        counted (``quarantined_chunks`` / ``quarantined_events``; a
        control request counts as a chunk of no events), its caller
        gets a ``None`` answer, and the crash counter resets so the
        shard keeps serving everything else.
    injector:
        Optional :class:`repro.engine.faults.FaultInjector` consulted
        by workers for every line *before* a chunk is applied — the
        chaos harness's deterministic crash trigger (picklable; ships
        to workers at spawn).
    """

    def __init__(
        self,
        state_dir: str | Path,
        config,
        *,
        shards: int = 2,
        policy: str = "repair",
        fsync: bool = False,
        queue_depth: int = 8,
        replicas: int = 64,
        workers: bool = True,
        ledger_path: str | Path | None = None,
        hang_timeout: float | None = 30.0,
        restart_budget: int = 8,
        poison_budget: int = 3,
        injector=None,
        replication=None,
    ) -> None:
        if shards < 1:
            raise InvalidParameterError(f"shards must be >= 1, got {shards}")
        if hang_timeout is not None and not hang_timeout > 0:
            raise InvalidParameterError(
                f"hang_timeout must be > 0 or None, got {hang_timeout}"
            )
        if restart_budget < 1:
            raise InvalidParameterError(
                f"restart_budget must be >= 1, got {restart_budget}"
            )
        if poison_budget < 1:
            raise InvalidParameterError(
                f"poison_budget must be >= 1, got {poison_budget}"
            )
        self.state_dir = Path(state_dir)
        self.shards = int(shards)
        from .replica import check_layout  # replica imports this module

        check_layout(
            self.state_dir, [self._shard_dir(index) for index in range(self.shards)]
        )
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.policy = policy
        self.fsync = bool(fsync)
        self.queue_depth = max(1, int(queue_depth))
        self.ring = HashRing(self.shards, replicas)
        self.worker_mode = bool(workers)
        self._ledger_path = None if ledger_path is None else str(ledger_path)
        self._ledger = active_ledger()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self.dispatched_events = 0
        self.restarts = [0] * self.shards
        # -- self-healing supervision (see class docstring) --
        self.hang_timeout = None if hang_timeout is None else float(hang_timeout)
        self.restart_budget = int(restart_budget)
        self.poison_budget = int(poison_budget)
        self.hangs = [0] * self.shards
        self.quarantined_chunks = 0
        self.quarantined_events = 0
        self.breaker_open: set[int] = set()
        self.breaker_shed_by_shard = [0] * self.shards
        self._injector = injector
        # Optional ReplicationMonitor (service/replica.py): lag against
        # the standby's watermarks, surfaced in /health and /ready.
        self.replication = replication
        self._beat_every = (
            0.0
            if self.hang_timeout is None
            else max(0.05, min(1.0, self.hang_timeout / 4.0))
        )
        self._poison_path = self.state_dir / POISON_SIDECAR_NAME
        # The command path: one id sequence for chunks and control
        # requests; per shard, the at-least-once ledger of commands a
        # worker has not answered yet (id -> (command, submit_monotonic,
        # events)); and the answers waiting for their callers.
        self._next_id = 0
        self._in_flight: list[dict[int, tuple]] = [{} for _ in range(self.shards)]
        self._results: dict[int, object] = {}
        self._latencies: deque[tuple[float, int]] = deque(maxlen=_LATENCY_SAMPLES)
        self._acked_chunks = [0] * self.shards
        self._acked_events = [0] * self.shards
        self._stop_sent: set[int] = set()
        self._errors: list[str] = []
        self._shutdown = False
        self._procs: list = []
        if not self.worker_mode:
            from .advisor import AdvisorService

            self._held_locks: list[Path] = []
            try:
                for index in range(self.shards):
                    self._held_locks.append(acquire_shard_lock(self._shard_dir(index)))
                self._inline = [
                    AdvisorService(
                        self._shard_dir(index), config, policy=policy, fsync=fsync
                    )
                    for index in range(self.shards)
                ]
            except BaseException:
                for lock in self._held_locks:
                    release_shard_lock(lock)
                raise
            return
        self._context = multiprocessing.get_context("spawn")
        self._shard_locks = [threading.Lock() for _ in range(self.shards)]
        self._stopped: set[int] = set()
        self._failed: set[int] = set()
        self._eof: set[int] = set()
        # Supervision bookkeeping: last message time per shard (answers
        # and idle beats both count), consecutive-crash counts (reset by
        # a chunk's completion or a quarantine), per-command crash
        # attribution for the head of each shard's in-flight ledger,
        # not-before respawn deadlines (crash-loop backoff), and the set
        # of dead workers whose death has already been classified.
        self._last_seen = [time.monotonic()] * self.shards
        # Shards whose current worker has sent at least one message
        # since its last spawn.  Hang detection only arms after that:
        # a booting worker (interpreter start, warm session recovery)
        # is busy *and* silent for an unbounded, hardware-dependent
        # time, and killing it mid-boot would flap forever.
        self._heard_from: set[int] = set()
        self._consecutive_crashes = [0] * self.shards
        self._head_crashes: list[dict[int, int]] = [{} for _ in range(self.shards)]
        self._respawn_at = [0.0] * self.shards
        self._death_noted: set[int] = set()
        self._commands: list = [None] * self.shards
        self._pipes: list = [None] * self.shards
        self._procs = [None] * self.shards
        for index in range(self.shards):
            self._spawn(index)
        self._collector = threading.Thread(
            target=self._collect, name="shard-collector", daemon=True
        )
        self._collector.start()

    # -- topology ---------------------------------------------------------

    def _shard_dir(self, shard: int) -> Path:
        if self.shards == 1:
            return self.state_dir
        return self.state_dir / f"shard-{shard:02d}"

    def _worker_ledger_path(self, shard: int) -> str | None:
        if self._ledger_path is None:
            return None
        return f"{self._ledger_path}.shard-{shard:02d}"

    def route(self, vehicle_id: str) -> int:
        """The shard index owning ``vehicle_id`` (pure, deterministic)."""
        return self.ring.route(str(vehicle_id))

    @property
    def worker_pids(self) -> list[int | None]:
        return [process.pid if process is not None else None for process in self._procs]

    def __enter__(self) -> "ShardedAdvisorService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- routing/partition ------------------------------------------------

    def _partition(self, lines: list[str]) -> list[tuple[int, tuple[list, list]]]:
        """Group JSONL lines by owning shard, preserving in-chunk order,
        into commands of at most ``config.dedup_window`` lines.

        Decoded once here for routing only; workers re-parse their own
        sub-chunk (in parallel, through the same ``ingest_lines`` array
        decode).  A line whose vehicle cannot be identified — garbage
        JSON, or no usable ``vehicle`` field — is routed by a hash of
        the raw line: deterministic, and behaviour-neutral because such
        lines only touch malformed counters, never a session.  Each
        key is hashed once per call.  One shard owns every line, so a
        one-shard tier skips the decode.

        The cut keeps redelivery exact: a worker answers each command
        before taking the next, so only the one it died on can have been
        applied unanswered, and at most ``dedup_window`` lines redeliver
        as duplicates only.
        """
        groups: dict[int, tuple[list, list]] = {}
        if self.shards == 1:
            groups[0] = (list(range(len(lines))), lines)
        else:
            try:
                records = json.loads("[" + ",".join(lines) + "]")
                if len(records) != len(lines):
                    records = None
            except json.JSONDecodeError:
                records = None
            if records is None:
                records = []
                for line in lines:
                    try:
                        records.append(json.loads(line))
                    except json.JSONDecodeError:
                        records.append(None)
            owners: dict[str, int] = {}
            for position, (line, record) in enumerate(zip(lines, records)):
                vehicle = identifiable_vehicle(record)
                key = vehicle if vehicle is not None else line
                shard = owners.get(key)
                if shard is None:
                    shard = owners[key] = self.ring.route(key)
                bucket = groups.setdefault(shard, ([], []))
                bucket[0].append(position)
                bucket[1].append(line)
        window = self.config.dedup_window
        return [
            (shard, (positions[start : start + window], part[start : start + window]))
            for shard, (positions, part) in sorted(groups.items())
            for start in range(0, len(part), window)
        ]

    @staticmethod
    def _as_lines(lines) -> list[str]:
        return [
            line if isinstance(line, str) else json.dumps(line) for line in lines
        ]

    # -- ingestion --------------------------------------------------------

    def submit_lines(self, lines) -> None:
        """Route one chunk to its shards, blocking on full queues.

        The lossless path (file pumps, benches, chaos harnesses): a
        full shard queue exerts backpressure on the caller instead of
        shedding.  "Lossless" has one exception — a shard whose circuit
        breaker is open has no worker to block *for*, so its sub-chunks
        are shed with count (``breaker_shed_by_shard``) rather than
        deadlocking the caller.
        """
        lines = self._as_lines(lines)
        if not lines:
            return
        for shard, (_positions, sub_lines) in self._partition(lines):
            self._request(shard, "chunk", sub_lines, want=False)

    def request_lines(self, lines, timeout: float | None = None) -> list[str]:
        """Route one chunk and wait for its answers, aligned with input.

        The front end's request/response path: one JSON text line per
        input line, in input order — the decision as ``json.dumps``
        writes it, or ``"null"`` for a malformed, dropped, shed or
        quarantined record.
        """
        lines = self._as_lines(lines)
        if not lines:
            return []
        parts = self._partition(lines)
        answers = self._ask(
            "chunk", [(shard, sub_lines) for shard, (_, sub_lines) in parts], timeout
        )
        results = ["null"] * len(lines)
        for (_shard, (positions, _lines)), encoded in zip(parts, answers):
            for position, text in zip(positions, encoded or ()):
                results[position] = text
        return results

    def drain(self, timeout: float | None = None) -> None:
        """Block until every command sent to a worker has been answered."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._wake:
            while any(self._in_flight):
                self._raise_errors_locked()
                if deadline is not None and time.monotonic() > deadline:
                    pending = {
                        index: len(ledger)
                        for index, ledger in enumerate(self._in_flight)
                        if ledger
                    }
                    raise TimeoutError(f"shards did not drain in time: {pending}")
                self._wake.wait(0.2)

    @property
    def breaker_shed(self) -> int:
        """Total events shed because a circuit breaker was open."""
        return sum(self.breaker_shed_by_shard)

    # -- the command path -------------------------------------------------

    def _ask(self, kind: str, requests, timeout: float | None) -> list:
        """Send one ``kind`` command per ``(shard, arg)`` and wait for
        the answers, in the same order.

        A caller that gives up (timeout, failed tier) collects nothing
        more, so its answers are dropped: those that arrived leave the
        result map, and commands still in flight are marked unwanted,
        so their late answers are never stored.  They stay in flight
        for redelivery like any other command.
        """
        sent = [(shard, self._request(shard, kind, arg)) for shard, arg in requests]
        deadline = None if timeout is None else time.monotonic() + timeout
        answers = []
        with self._wake:
            try:
                for _shard, request_id in sent:
                    while request_id not in self._results:
                        self._raise_errors_locked()
                        if deadline is not None and time.monotonic() > deadline:
                            raise TimeoutError(
                                f"no answer to {kind} request {request_id} "
                                f"within {timeout}s"
                            )
                        self._wake.wait(0.2)
                    answers.append(self._results.pop(request_id))
            finally:
                for shard, request_id in sent[len(answers) :]:
                    self._results.pop(request_id, None)
                    entry = self._in_flight[shard].get(request_id)
                    if entry is not None:
                        command, submit_t, events = entry
                        self._in_flight[shard][request_id] = (
                            command[:3] + (False,),
                            submit_t,
                            events,
                        )
        return answers

    def _request(self, shard: int, kind: str, arg, want: bool = True) -> int:
        """Send one command to ``shard``; returns its id.

        A breaker-open shard has no worker to answer: a chunk's events
        are shed with count, and a wanted answer is ``None`` (callers
        render it as a None decision or a "down" row rather than
        blocking forever).
        """
        events = len(arg) if kind == "chunk" else 0
        with self._wake:
            self._raise_errors_locked()
            if self._shutdown or shard in self._stop_sent:
                raise ReproError("dispatch on a closed ShardedAdvisorService")
            self._next_id += 1
            request_id = self._next_id
        if not self._send(shard, (request_id, kind, arg, want), events):
            with self._lock:
                self.breaker_shed_by_shard[shard] += events
                if want:
                    self._results[request_id] = None
        return request_id

    def _send(self, shard: int, command, events: int = 0) -> bool:
        """Hand ``command`` to ``shard``; False when its breaker is open.

        An in-process shard answers at once, under the tier lock.  A
        worker's command is queued and recorded in flight under the
        per-shard lock that serializes it against the collector's queue
        swap on worker death: a command either lands in the pre-swap
        queue *and* is recorded in flight (so the swap redelivers it) or
        lands in the fresh queue.  The put never blocks while holding
        that lock.  A dead worker's queue can be full, and ``_respawn``
        needs the lock to swap it; while it waits, the collector reads
        no shard's answers and detects no hang.  So a full queue is
        waited out with the lock released.  The stop sentinel (``None``)
        is never answered, so it is never in flight.
        """
        if not self.worker_mode:
            request_id, kind, arg, want = command
            with self._lock:
                self.dispatched_events += events
                answer = _answer(self._inline[shard], kind, arg, want)
                if want:
                    self._results[request_id] = answer
            return True
        submit_t = time.monotonic()
        while True:
            with self._shard_locks[shard]:
                with self._lock:
                    if shard in self.breaker_open:
                        # The breaker sweep already answered (or shed)
                        # everything this shard owed; the put is moot.
                        return False
                try:
                    self._commands[shard].put_nowait(command)
                except queue_module.Full:
                    pass
                else:
                    if command is None:
                        return True
                    with self._lock:
                        if shard in self.breaker_open:
                            # The breaker opened between the check and
                            # the put: the put landed in a dead worker's
                            # queue, and the breaker sweep already ran,
                            # so shed it.
                            return False
                        self._in_flight[shard][command[0]] = (
                            command,
                            submit_t,
                            events,
                        )
                        self.dispatched_events += events
                    return True
            with self._wake:
                self._raise_errors_locked()
                self._wake.wait(0.05)

    def _raise_errors_locked(self) -> None:
        if self._errors:
            raise ReproError(f"shard worker failed:\n{self._errors[0]}")

    # -- observability ----------------------------------------------------

    def take_latencies(self) -> list[tuple[float, int]]:
        """Drain the newest per-command ``(latency_s, events)`` samples
        (at most ``_LATENCY_SAMPLES``).

        Latency is dispatch-to-worker-answer wall time — the worst case
        an event in the command waited for its decision (queueing
        included).  In-process shards record none.
        """
        with self._lock:
            latencies = list(self._latencies)
            self._latencies.clear()
        return latencies

    def digests(self, timeout: float | None = None) -> dict[str, str]:
        """Per-vehicle ``state_digest()`` across the whole fleet, sorted."""
        parts = self._ask(
            "digests", [(shard, None) for shard in range(self.shards)], timeout
        )
        merged: dict[str, str] = {}
        for part in parts:
            merged.update(part or {})
        return dict(sorted(merged.items()))

    def health_snapshot(
        self, include_vehicles: bool = False, timeout: float | None = None
    ) -> dict:
        """Fleet-wide health: the shards' snapshots summed, plus
        ``routing``, ``shards`` (one row per shard; a worker's row adds
        pid, liveness, restarts, hangs, acks, in-flight depth and
        breaker state) and, with a monitor, ``replication``.

        Set here is only what a sum cannot give: ``fleet_cost`` in
        sorted-vehicle order when vehicles are included (bitwise the
        single-process total) and ``ingest.batch.events_per_s``.  A
        shard that does not answer (breaker open) gets a ``"down"`` row
        of ``None`` fields; with none answering, the totals are absent:
        unknown, not zero.
        """
        snapshots = self._ask(
            "health",
            [(shard, include_vehicles) for shard in range(self.shards)],
            timeout,
        )
        fleet = _sum_snapshots(s for s in snapshots if s is not None)
        if fleet:
            vehicles = fleet["vehicles"] = dict(sorted(fleet["vehicles"].items()))
            if vehicles:
                fleet["fleet_cost"] = sum(v["total_cost"] for v in vehicles.values())
            batch = fleet["ingest"]["batch"]
            wall_s = batch["wall_s"]
            batch["events_per_s"] = batch["events"] / wall_s if wall_s > 0.0 else 0.0
        down = {"down": True, "vehicles": None, "fleet_cost": None, "states": None}
        rows = [
            {"shard": index, **down}
            if snapshot is None
            else {
                "shard": index,
                "vehicles": snapshot["vehicle_count"],
                "fleet_cost": snapshot["fleet_cost"],
                "states": snapshot["states"],
            }
            for index, snapshot in enumerate(snapshots)
        ]
        if self.replication is not None:
            fleet["replication"] = self.replication.snapshot()
        with self._lock:
            for index, process in enumerate(self._procs):
                rows[index].update(
                    pid=None if process is None else process.pid,
                    alive=process is not None and process.is_alive(),
                    restarts=self.restarts[index],
                    hangs=self.hangs[index],
                    consecutive_crashes=self._consecutive_crashes[index],
                    breaker_open=index in self.breaker_open,
                    breaker_shed=self.breaker_shed_by_shard[index],
                    chunks_acked=self._acked_chunks[index],
                    events_acked=self._acked_events[index],
                    in_flight=len(self._in_flight[index]),
                )
        fleet["routing"] = {
            "algorithm": "consistent-hash",
            "shards": self.shards,
            "replicas": self.ring.replicas,
            "queue_depth": self.queue_depth,
            "dispatched_events": self.dispatched_events,
            "restarts": sum(self.restarts),
            "hangs": sum(self.hangs),
            "hang_timeout": self.hang_timeout,
            "quarantined_chunks": self.quarantined_chunks,
            "quarantined_events": self.quarantined_events,
            "breaker_open": sorted(self.breaker_open),
            "breaker_shed": self.breaker_shed,
        }
        fleet["shards"] = rows
        return fleet

    def readiness(self, timeout: float | None = 5.0) -> dict:
        """Serving-readiness verdict for the front end's ``GET /ready``.

        Stricter than liveness: ready means every shard's worker is
        alive, no circuit breaker is open, no worker has failed, no
        session is durability-suspended and the standby, if monitored,
        is within its lag bound.  Returns ``{"ready": bool, "reasons":
        [str, ...]}`` (plus the monitor's ``"replication"`` lag) —
        reasons name what is wrong so the probe's consumer can tell a
        crash loop from a full disk.
        """
        reasons: list[str] = []
        with self._lock:
            if self._errors:
                reasons.append("worker error (see service logs)")
            breakers = sorted(self.breaker_open)
            dead = [
                index
                for index, process in enumerate(self._procs)
                if index not in self.breaker_open
                and (process is None or not process.is_alive())
            ]
        if breakers:
            reasons.append(f"circuit breaker open on shards {breakers}")
        if dead:
            reasons.append(f"workers dead on shards {dead}")
        if not reasons:
            try:
                snapshots = self._ask(
                    "health", [(shard, False) for shard in range(self.shards)], timeout
                )
            except (ReproError, TimeoutError) as exc:
                reasons.append(f"health probe failed: {exc}")
            else:
                for index, snapshot in enumerate(snapshots):
                    if snapshot is None:
                        reasons.append(f"shard {index} is down")
                        continue
                    suspended = snapshot["durability"]["suspended_sessions"]
                    if suspended:
                        reasons.append(
                            f"shard {index}: durability suspended on "
                            f"{suspended} session(s)"
                        )
        verdict = {"ready": True, "reasons": reasons}
        if self.replication is not None:
            # Unreadable watermarks: the standby's state is unknown.
            lag = verdict["replication"] = self.replication.snapshot()
            if lag["watermarks_corrupt"]:
                reasons.append("replication watermarks corrupt: standby state unknown")
            elif not lag["within_bound"]:
                reasons.append(
                    f"replication lag {lag['max_lag_events']} events exceeds "
                    f"bound {lag['max_lag_bound']} "
                    f"({lag['vehicles_lagging']} session(s) lagging)"
                )
        verdict["ready"] = not reasons
        return verdict

    # -- worker lifecycle -------------------------------------------------

    def _spawn(self, shard: int) -> None:
        commands = self._context.Queue(self.queue_depth)
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_shard_worker,
            args=(
                shard,
                str(self._shard_dir(shard)),
                self.config,
                self.policy,
                self.fsync,
                self._worker_ledger_path(shard),
                commands,
                child_conn,
                self._injector,
                self._beat_every,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._commands[shard] = commands
        self._pipes[shard] = parent_conn
        self._procs[shard] = process
        # Fresh liveness lease: the new worker cannot be declared hung
        # until it has spoken once (see _heard_from), and its
        # (eventual) death is a new event to classify.
        self._last_seen[shard] = time.monotonic()
        self._heard_from.discard(shard)
        self._death_noted.discard(shard)

    def _collect(self) -> None:
        # The collector is the supervisor: if a bug in the reap/
        # containment logic escaped, dying silently would freeze every
        # blocked caller forever — surface it through the same _errors
        # channel worker failures use, so waiters raise instead of hang.
        try:
            while self._collect_once():
                pass
        except Exception:
            with self._wake:
                self._errors.append(traceback.format_exc())
                self._wake.notify_all()

    def _collect_once(self) -> bool:
        with self._lock:
            if self._shutdown:
                return False
            conns = {
                self._pipes[index]: index
                for index in range(self.shards)
                if self._pipes[index] is not None and index not in self._eof
            }
        if conns:
            ready = _connection_wait(list(conns), timeout=0.2)
        else:
            time.sleep(0.05)
            ready = []
        for conn in ready:
            shard = conns[conn]
            try:
                message = conn.recv()
            except Exception:
                # Clean EOF (worker exited), a send torn by SIGKILL or a
                # torn pickle; either way this pipe is done — the reap
                # pass below decides whether to respawn.
                with self._lock:
                    self._eof.add(shard)
                continue
            # Any message — answer, stopped, or idle beat — proves the
            # worker is making progress: stamp its liveness lease and
            # arm hang detection for it.
            self._last_seen[shard] = time.monotonic()
            self._heard_from.add(shard)
            self._handle_message(message)
        self._check_hangs()
        self._reap()
        return True

    def _handle_message(self, message) -> None:
        # An idle "beat" only renews the lease, which _collect_once
        # already did.
        kind = message[0]
        with self._wake:
            if kind == "done":
                _, shard, request_id, done_t, answer = message
                self._head_crashes[shard].pop(request_id, None)
                entry = self._in_flight[shard].pop(request_id, None)
                if entry is not None:
                    command, submit_t, events = entry
                    if command[3]:
                        self._results[request_id] = answer
                    if command[1] == "chunk":
                        # Forward progress: the worker is not
                        # crash-looping.
                        self._consecutive_crashes[shard] = 0
                        self._latencies.append((max(0.0, done_t - submit_t), events))
                        self._acked_chunks[shard] += 1
                        self._acked_events[shard] += events
            elif kind == "stopped":
                self._stopped.add(message[1])
            elif kind == "error":
                self._errors.append(message[2])
                self._failed.add(message[1])
            self._wake.notify_all()

    def _check_hangs(self) -> None:
        """SIGKILL workers that are alive, busy, and silent past deadline.

        "Busy" means holding in-flight commands — an idle worker beats
        every ``_beat_every`` seconds, so silence while busy past
        ``hang_timeout`` means the worker is deadlocked, SIGSTOPped, or
        livelocked and will never answer.  The kill turns the hang into
        an ordinary worker death: the normal reap/respawn/redeliver
        machinery takes it from there.
        """
        if self.hang_timeout is None:
            return
        now = time.monotonic()
        ledger = active_ledger() or self._ledger
        for shard in range(self.shards):
            process = self._procs[shard]
            if process is None or not process.is_alive():
                continue
            if shard not in self._heard_from:
                continue  # still booting: silence is expected, not a hang
            silent = now - self._last_seen[shard]
            if silent < self.hang_timeout:
                continue
            with self._lock:
                if shard in self.breaker_open or shard in self._stopped:
                    continue
                if not self._in_flight[shard]:
                    continue
                self.hangs[shard] += 1
                # Re-stamp the lease so one hang is one kill: the reap
                # pass classifies the death, not a second timeout.
                self._last_seen[shard] = now
            try:
                os.kill(process.pid, signal.SIGKILL)
            except OSError:  # pragma: no cover - raced a natural death
                pass
            if ledger is not None:
                ledger.emit(
                    "shard-hang",
                    shard=shard,
                    pid=process.pid,
                    silent_s=round(silent, 3),
                    in_flight=len(self._in_flight[shard]),
                )

    def _reap(self) -> None:
        """Detect dead workers; contain, then respawn + redeliver.

        Each dead worker's death is classified exactly once by
        :meth:`_note_death` (crash vs handoff vs reported failure);
        crashes then wait out their backoff deadline before
        :meth:`_respawn` — during the wait the shard's queue keeps
        absorbing traffic up to ``queue_depth``, after which callers
        block (backpressure).
        """
        for shard in range(self.shards):
            process = self._procs[shard]
            if process is None or process.is_alive():
                continue
            with self._lock:
                if shard in self.breaker_open or shard in self._failed:
                    continue
                if shard in self._stopped and shard in self._stop_sent:
                    continue  # clean shutdown we asked for
                noted = shard in self._death_noted
            if not noted and not self._note_death(shard):
                continue
            if time.monotonic() < self._respawn_at[shard]:
                continue  # crash-loop backoff: not yet
            self._respawn(shard)

    def _note_death(self, shard: int) -> bool:
        """Classify one worker death; True when a respawn is due.

        The dead worker's pipe is drained first: answers it managed to
        send shrink the redelivery set *and* pin crash attribution to
        the command it actually died on (the head of the in-flight
        ledger after the drain, chunk or control request alike).  Then,
        in order: a clean SIGTERM handoff respawns immediately; a
        reported error stays down; a crash is attributed, quarantines
        its head command at ``poison_budget`` repeats, opens the circuit
        breaker at ``restart_budget`` consecutive crashes, and otherwise
        schedules a backed-off respawn.
        """
        conn = self._pipes[shard]
        try:
            while conn.poll(0):
                self._handle_message(conn.recv())
        except (EOFError, OSError, pickle.UnpicklingError) as exc:
            # Expected shrapnel of a dying worker: clean EOF, a pipe
            # torn mid-send, or a half-written pickle frame.  Anything
            # else is a parent-side bug and propagates to the collector
            # guard instead of being silently swallowed.
            ledger = active_ledger() or self._ledger
            if ledger is not None:
                ledger.emit("shard-drain-error", shard=shard, error=repr(exc))
        with self._lock:
            self._death_noted.add(shard)
            if shard in self._failed:
                return False  # the drain surfaced a reported error
            if shard in self._stopped:
                # A clean SIGTERM exit we did NOT ask for is the drain/
                # handoff path: state is flushed, hand the shard to a
                # fresh worker immediately.
                self._stopped.discard(shard)
                self._respawn_at[shard] = 0.0
                return True
            self._consecutive_crashes[shard] += 1
            crashes = self._consecutive_crashes[shard]
            head = min(self._in_flight[shard]) if self._in_flight[shard] else None
            head_crashes = 0
            if head is not None:
                self._head_crashes[shard][head] = (
                    self._head_crashes[shard].get(head, 0) + 1
                )
                head_crashes = self._head_crashes[shard][head]
        if head is not None and head_crashes >= self.poison_budget:
            self._quarantine(shard, head, head_crashes)
            with self._lock:
                crashes = self._consecutive_crashes[shard]
        if crashes >= self.restart_budget:
            self._open_breaker(shard, crashes)
            return False
        # First crash respawns immediately (the common SIGKILL/OOM case
        # must not add latency); repeats back off exponentially.
        delay = (
            0.0
            if crashes <= 1
            else min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2 ** (crashes - 2))
        )
        self._respawn_at[shard] = time.monotonic() + delay
        return True

    def _quarantine(self, shard: int, request_id: int, crashes: int) -> None:
        """Skip a poison command: sidecar it with provenance, keep serving.

        The shard-tier mirror of the validation layer's quarantine
        files: the sidecar record carries the command kind and a
        chunk's raw lines, plus everything needed to investigate or
        replay (shard, crash count, the pid that died on it, the
        shard's restart count).  Its caller, if one waits, gets a
        ``None`` answer.  Quarantining resets the consecutive-crash
        counter — the presumed cause is gone, so the shard gets a fresh
        restart budget for the rest of its traffic.
        """
        with self._lock:
            entry = self._in_flight[shard].pop(request_id, None)
            self._head_crashes[shard].pop(request_id, None)
            self._consecutive_crashes[shard] = 0
            if entry is None:  # pragma: no cover - raced an answer
                return
            (_, kind, arg, want), _submit_t, events = entry
            process = self._procs[shard]
            record = {
                "chunk": request_id,
                "command": kind,
                "shard": shard,
                "crashes": crashes,
                "events": events,
                "worker_pid": None if process is None else process.pid,
                "restarts": self.restarts[shard],
                "lines": list(arg) if kind == "chunk" else [],
            }
            self.quarantined_chunks += 1
            self.quarantined_events += events
            if want:
                self._results[request_id] = None
            self._wake.notify_all()
        try:
            with open(self._poison_path, "a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
        except OSError:
            pass  # quarantine is telemetry; a sick disk must not block recovery
        ledger = active_ledger() or self._ledger
        if ledger is not None:
            ledger.emit(
                "shard-poison-quarantine",
                shard=shard,
                chunk=request_id,
                crashes=crashes,
                events=events,
            )

    def _open_breaker(self, shard: int, crashes: int) -> None:
        """Hold a crash-looping shard down; shed its traffic with count.

        Everything the shard held is released in one sweep of its
        in-flight ledger, so no caller blocks on a worker that will
        never come back: chunk events are shed (counted in
        ``breaker_shed_by_shard``) and every waiting caller gets a
        ``None`` answer.  The breaker stays open for the life of the
        service — after ``restart_budget`` consecutive crashes with no
        single command to blame, respawning again would just burn CPU.
        """
        shed_events = 0
        with self._lock:
            self.breaker_open.add(shard)
            for request_id, (command, _submit_t, events) in self._in_flight[
                shard
            ].items():
                shed_events += events
                if command[3]:
                    self._results[request_id] = None
            self._in_flight[shard].clear()
            self._head_crashes[shard].clear()
            self.breaker_shed_by_shard[shard] += shed_events
            self._wake.notify_all()
        ledger = active_ledger() or self._ledger
        if ledger is not None:
            ledger.emit(
                "shard-breaker-open",
                shard=shard,
                crashes=crashes,
                shed_events=shed_events,
                restarts=self.restarts[shard],
            )

    def _respawn(self, shard: int) -> None:
        with self._shard_locks[shard]:
            old_commands = self._commands[shard]
            old_pipe = self._pipes[shard]
            old_process = self._procs[shard]
            old_process.join(timeout=1.0)
            if old_process.is_alive():
                # is_alive() went false once (that is what got us here),
                # so a live process now means an exit raced by a revival
                # we cannot explain — escalate to SIGKILL and wait it
                # out: spawning a replacement while the old worker still
                # holds the shard lock would dead-end the respawn.
                old_process.kill()
                old_process.join(timeout=10.0)
            self._spawn(shard)
            with self._lock:
                self.restarts[shard] += 1
                self._eof.discard(shard)
                redeliver = sorted(self._in_flight[shard].items())
                stop_again = shard in self._stop_sent
                pid = self._procs[shard].pid
            ledger = active_ledger() or self._ledger
            if ledger is not None:
                ledger.emit(
                    "shard-restart",
                    shard=shard,
                    pid=pid,
                    redelivered_chunks=len(redeliver),
                )
            # At-least-once redelivery in original dispatch order; the
            # sessions' idempotent event ids absorb anything the dead
            # worker had already applied and made durable.
            for _request_id, (command, _submit_t, _events) in redeliver:
                if not self._put_alive(shard, command):
                    return  # died again already; the next reap retries
            if stop_again:
                self._put_alive(shard, None)
        old_pipe.close()
        old_commands.close()
        old_commands.cancel_join_thread()

    def _put_alive(self, shard: int, command) -> bool:
        """Put into the (already-locked) fresh queue, aborting on death."""
        while True:
            try:
                self._commands[shard].put(command, timeout=0.2)
                return True
            except queue_module.Full:
                if not self._procs[shard].is_alive():
                    return False

    # -- shutdown ---------------------------------------------------------

    def close(self, timeout: float = 120.0) -> None:
        """Graceful fleet drain: every shard flushes WAL + snapshots.

        Each worker gets the stop sentinel behind all queued work; a
        worker that dies mid-shutdown is respawned (recovering its
        shard) and re-stopped, so even a close raced by a SIGKILL
        leaves every shard durable and unlocked.  Breaker-open shards
        have no worker to stop — they count as already down (their last
        crash-recovery worker flushed whatever state survived).
        """
        if not self.worker_mode:
            with self._lock:
                if not self._shutdown:
                    self._shutdown = True
                    try:
                        for service in self._inline:
                            service.close()
                    finally:
                        for lock in self._held_locks:
                            release_shard_lock(lock)
            return
        with self._lock:
            if self._shutdown:
                return
            already_failed = bool(self._errors)
            self._stop_sent.update(range(self.shards))
        if not already_failed:
            for shard in range(self.shards):
                try:
                    self._send(shard, None)
                except ReproError:
                    break
            deadline = time.monotonic() + timeout
            with self._wake:
                while (
                    len(self._stopped | self._failed | self.breaker_open)
                    < self.shards
                ):
                    if time.monotonic() > deadline:
                        break
                    self._wake.wait(0.2)
        with self._lock:
            self._shutdown = True
            errors = list(self._errors)
            stopped = set(self._stopped) | set(self.breaker_open)
        self._collector.join(timeout=10.0)
        for shard in range(self.shards):
            process = self._procs[shard]
            if process is None:
                continue
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - last-resort teardown
                process.terminate()
                process.join(timeout=5.0)
            self._pipes[shard].close()
            self._commands[shard].close()
            self._commands[shard].cancel_join_thread()
        if errors:
            raise ReproError(f"shard worker failed:\n{errors[0]}")
        if len(stopped) < self.shards:
            missing = sorted(set(range(self.shards)) - stopped)
            raise ReproError(f"shards {missing} did not stop cleanly")
