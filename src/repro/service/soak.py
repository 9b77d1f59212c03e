"""Deterministic chaos matrix for the advisor service.

The durability contract — "a SIGKILL at any instant loses nothing" —
is only worth stating if something kills the service mid-stream and
checks the books afterwards.  This harness does that as one matrix of
cells, each a :class:`Cell` on three axes:

* the **fault** — ``kill`` (SIGKILL), ``hang`` (SIGSTOP a worker),
  ``poison`` (a chunk that kills every worker touching it), ``disk``
  (ENOSPC windows over the WAL/snapshot writes) or ``primary-loss``
  (SIGKILL a primary while a standby ships its WAL);
* the **tier** — ``single`` (one :class:`AdvisorService` process),
  ``sharded`` (a :class:`~repro.service.shard.ShardedAdvisorService`
  fleet of worker processes) or ``standby`` (a registered primary plus
  the standby it ships to);
* the **batch** — events per ``process_batch`` chunk on the single and
  standby tiers (1 = the scalar loop), events per routed chunk on the
  sharded tier.

:func:`run_cell` drives one cell over an NREL-shaped fleet stream
(:func:`build_fleet_events`), and :func:`gate` holds every cell to the
same bar: its fleet cost and per-vehicle state digests must be
**bit-identical** to one clean single-process run of the same stream,
and its fault's own evidence (:data:`EVIDENCE`) must show the fault
struck and was recovered from.  Combinations the serving code cannot
run are listed in :data:`UNSUPPORTED` with the reason.

Run it directly (CI does, naming the cells it gates on)::

    python -m repro.service.soak kill-single-1 hang-sharded-8 \
        --vehicles 4 --stops 60 --out results

No cell names runs the full :data:`MATRIX`.  Exit status 0 means every
cell passed; ``<out>/SOAK_matrix.json`` holds each cell's verdict, wall
time and evidence, and the state directories, WALs and ledgers stay
under ``<out>/soak/<cell>/`` for post-mortems.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import signal
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..engine.faults import Fault, FaultInjector, FsFault, FsFaultInjector
from ..engine.ledger import RunLedger, use_ledger
from ..errors import InvalidParameterError
from ..fleet import area_config
from ..fleet.generator import FleetGenerator
from .advisor import AdvisorService, RegisteredAdvisorService
from .session import SessionConfig

__all__ = [
    "BATCHES",
    "EVIDENCE",
    "FAULTS",
    "MATRIX",
    "TIERS",
    "UNSUPPORTED",
    "Cell",
    "SoakResult",
    "build_fleet_events",
    "fault_schedule",
    "gate",
    "main",
    "run_cell",
    "run_stream",
]

# -- the matrix --------------------------------------------------------------
#
# Constant parameters first, then the axes: every cell shares the former.

#: Worker processes in a sharded cell.
SHARDS = 2
#: SIGKILLs in a single-process kill cell (the restart cycle's length).
KILLS = 3
#: Worker SIGKILLs or SIGSTOPs in a sharded kill or hang cell.
WORKER_FAULTS = 2
#: Supervisor silence bound in a hang cell, seconds (kill and poison
#: cells keep the tier's 30 s default).
HANG_TIMEOUT = 2.0
#: Crashes one chunk may cause before the supervisor quarantines it.
POISON_BUDGET = 3
#: ENOSPC windows in a disk cell, and the failing operations in each.
DISK_WINDOWS = 2
DISK_WINDOW_OPS = 3
#: Standby shipping period, and the primary's pacing per event — without
#: the pacing the stream would finish in a microsecond burst and the
#: standby would usually see no frame before the kill.
SYNC_INTERVAL = 0.01
EVENT_DELAY = 0.005
#: The line a poison cell injects; any worker that touches it dies.
POISON_LINE = json.dumps(
    {"id": "poison-0", "vehicle": "poison-pill", "t": -1.0, "stop": 1.0},
    sort_keys=True,
)

FAULTS = ("kill", "hang", "poison", "disk", "primary-loss")
TIERS = ("single", "sharded", "standby")
BATCHES = (1, 8, 16)

#: ``(fault, tier)`` -> why no cell of that combination can run today.
UNSUPPORTED = {
    ("hang", "single"): "nothing supervises a single process: hang "
    "detection is the sharded tier's heartbeat",
    ("poison", "single"): "crash attribution and the poison sidecar live in "
    "the shard supervisor; a restarted single process would replay the "
    "poison line forever",
    ("primary-loss", "single"): "losing the primary needs a standby to "
    "promote: that is the standby tier",
    ("disk", "sharded"): "ShardedAdvisorService takes no disk-fault "
    "injector, so its workers cannot see one",
    ("primary-loss", "sharded"): "the drill SIGKILLs one serving process; "
    "a sharded primary's workers outlive it, flushing until their next "
    "heartbeat fails, and the stream would have to finish through a "
    "sharded service on the standby",
    ("kill", "standby"): "a SIGKILL on this tier is the primary-loss cell",
    ("hang", "standby"): "nothing supervises the primary: a SIGSTOPped "
    "primary stays alive, so the shipping loop would wait on it forever",
    ("poison", "standby"): "the primary is a single process, with no crash "
    "attribution",
    ("disk", "standby"): "disk faults on the primary are the disk-single "
    "cells; faulting the standby's writes (LocalReplicaTarget(fs=...)) "
    "needs a shipping loop that retries failed passes, and leaves no "
    "session suspension for this fault's evidence check to read",
}

#: fault -> (what its evidence must show, the check over evidence and result).
EVIDENCE = {
    "kill": (
        "restarts equal kills fired",
        lambda e, r: e["restarts"] == e["struck"] == e["scheduled"],
    ),
    "hang": (
        "detected hangs equal frozen workers",
        lambda e, r: e["hangs"] == e["struck"] == e["scheduled"],
    ),
    "poison": (
        "the sidecar holds exactly the poison line",
        lambda e, r: e["sidecar"] == [[POISON_LINE]],
    ),
    "disk": (
        "at least one suspension, nothing left suspended or dropped",
        lambda e, r: e["raised"] >= 1
        and e["suspensions"] >= 1
        and e["suspended_sessions"] == 0
        and e["dropped_events"] == 0,
    ),
    "primary-loss": (
        "frames shipped, and backup -> restore -> promote digests equal",
        lambda e, r: e["primary_exitcode"] == -signal.SIGKILL
        and e["frames_shipped"] >= 1
        and not e["doctor_problems"]
        and e["restored_fleet_cost"] == r["fleet_cost"]
        and e["restored_digests"] == r["digests"],
    ),
}


@dataclass(frozen=True)
class Cell:
    """One supported matrix cell; ``at`` overrides where its faults
    strike (see :func:`fault_schedule`)."""

    fault: str
    tier: str
    batch: int = 1
    at: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.fault not in FAULTS or self.tier not in TIERS or self.batch < 1:
            raise InvalidParameterError(
                f"no cell {self.name}: faults are {FAULTS}, tiers {TIERS}, "
                f"and the batch is a positive integer"
            )
        reason = UNSUPPORTED.get((self.fault, self.tier))
        if reason is not None:
            raise InvalidParameterError(f"{self.name} is unsupported: {reason}")

    @property
    def name(self) -> str:
        return f"{self.fault}-{self.tier}-{self.batch}"

    @classmethod
    def parse(cls, name: str) -> Cell:
        """``"primary-loss-standby-1"`` -> ``Cell("primary-loss", "standby", 1)``."""
        try:
            fault, tier, batch = name.rsplit("-", 2)
            batch = int(batch)
        except ValueError:
            raise InvalidParameterError(
                f"no cell {name}: cells are named FAULT-TIER-BATCH"
            ) from None
        return cls(fault, tier, batch)


#: Every supported cell, in the order ``main`` runs them by default.
MATRIX = [
    Cell(fault, tier, batch)
    for fault in FAULTS
    for tier in TIERS
    for batch in BATCHES
    if (fault, tier) not in UNSUPPORTED
]


def _spread(count: int, first: int, span: int, gap: int = 1) -> tuple[int, ...]:
    """``count`` distinct positions spread evenly over ``span`` from ``first``."""
    positions: list[int] = []
    for index in range(count):
        position = first + (index * span) // count
        while position in positions:  # keep every fault distinct on short streams
            position += gap
        positions.append(position)
    return tuple(positions)


def fault_schedule(cell: Cell, events: int) -> tuple[int, ...]:
    """Where ``cell``'s faults strike in an ``events``-long stream.

    Event indices on the single and standby tiers, chunk indices on the
    sharded tier.  A disk cell's windows open at disk-operation ordinals
    inside the first half of the stream's writes, so the probe backoff
    heals them with events to spare.  ``cell.at``, when set, is returned
    as is.
    """
    if cell.at:
        return cell.at
    chunks = -(-events // cell.batch)
    if cell.fault == "disk":
        writes = max(2, events // (2 * cell.batch))
        return _spread(DISK_WINDOWS, 2, writes, gap=DISK_WINDOW_OPS + 1)
    if cell.fault == "primary-loss":
        return (max(1, (2 * events) // 3),)
    if cell.fault == "poison":
        return (chunks // 2,)
    if cell.tier == "sharded":
        return _spread(WORKER_FAULTS, 1, max(1, chunks - 2))
    return _spread(KILLS, 1, max(1, events - 2))


# -- the stream and the clean run -------------------------------------------


def build_fleet_events(
    vehicles: int = 4,
    stops_per_vehicle: int = 80,
    seed: int = 7,
    area: str = "chicago",
) -> list[dict]:
    """An NREL-shaped multi-vehicle event stream, round-robin interleaved.

    Timestamps are the global event index, so every vehicle's clock is
    strictly monotone and the stream is reproducible byte-for-byte from
    ``(vehicles, stops_per_vehicle, seed, area)``.
    """
    config = area_config(area)
    generator = FleetGenerator(config, seed=seed)
    rng = np.random.default_rng(seed)
    fleet = [generator.generate_vehicle(index, rng) for index in range(vehicles)]
    events: list[dict] = []
    for stop_index in range(stops_per_vehicle):
        for vehicle in fleet:
            stops = vehicle.stop_lengths
            stop = float(stops[stop_index % stops.size])
            events.append(
                {
                    "id": f"{vehicle.vehicle_id}-{stop_index:05d}",
                    "vehicle": vehicle.vehicle_id,
                    "t": float(len(events)),
                    "stop": stop,
                }
            )
    return events


class SoakResult(dict):
    """``{"fleet_cost": float, "digests": {vehicle: sha}, "snapshot": ...}``."""


def _noop(item):
    """Identity task for the kill injector (module-level: picklable)."""
    return item


def run_stream(
    events: list[dict],
    state_dir: str | Path,
    config: SessionConfig,
    *,
    injector: FaultInjector | None = None,
    ledger_path: str | Path | None = None,
    batch: int = 1,
    fs=None,
    register: bool = False,
) -> SoakResult:
    """Serve ``events`` into ``state_dir`` (recovering any prior state).

    ``injector`` is consulted with the global event index before each
    event — a ``"kill"`` fault SIGKILLs the process right there, which
    is the whole point.  ``batch > 1`` serves through the columnar
    ``process_batch`` path in chunks of that size; the injector is still
    consulted per event index, before the chunk applies.  ``fs`` is an
    optional :class:`repro.engine.faults.FsFaultInjector` threaded into
    the service's WAL/snapshot writers — the disk-fault hook.
    ``register=True`` serves through a
    :class:`~repro.service.advisor.RegisteredAdvisorService` so the
    state dir carries a vehicle registry — required for a state dir that
    a standby may later have to promote without redelivery.
    """
    ledger = (
        RunLedger(ledger_path, append=True) if ledger_path is not None else None
    )
    service_cls = RegisteredAdvisorService if register else AdvisorService
    service = service_cls(Path(state_dir), config, fs=fs)
    if ledger is not None:
        with use_ledger(ledger):
            _serve(service, events, injector, batch)
    else:
        _serve(service, events, injector, batch)
    service.close()
    snapshot = service.health_snapshot()
    return SoakResult(
        fleet_cost=service.fleet_cost,
        digests={
            vehicle: info["digest"] for vehicle, info in snapshot["vehicles"].items()
        },
        snapshot=snapshot,
    )


def _serve(
    service: AdvisorService, events: list[dict], injector, batch: int = 1
) -> None:
    if batch <= 1:
        for index, record in enumerate(events):
            if injector is not None:
                injector(index)
            service.process(record)
        return
    for start in range(0, len(events), batch):
        chunk = events[start : start + batch]
        if injector is not None:
            for index in range(start, start + len(chunk)):
                injector(index)
        service.process_batch(chunk)


# -- driving one cell --------------------------------------------------------


def run_cell(
    cell: Cell, events: list[dict], config: SessionConfig, out_dir: str | Path
) -> tuple[SoakResult, dict]:
    """Serve ``events`` under ``cell``'s fault; returns the final result
    and the fault's evidence, for :func:`gate` to judge.

    All of the cell's state — service roots, fault claims, the run
    ledger at ``ledger.jsonl`` — lives under ``out_dir``.  Claims are
    never swept between restarts: a dead process's claim is the record
    that its fault already fired.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    at = fault_schedule(cell, len(events))
    if cell.tier == "sharded":
        return _run_sharded(cell, at, events, config, out_dir)
    if cell.tier == "standby":
        return _run_standby(cell, at, events, config, out_dir)
    if cell.fault == "disk":
        fs = FsFaultInjector(
            {ordinal: FsFault(count=DISK_WINDOW_OPS) for ordinal in at},
            out_dir / "fs-claims",
        )
        result = run_stream(
            events,
            out_dir / "state",
            config,
            ledger_path=out_dir / "ledger.jsonl",
            batch=cell.batch,
            fs=fs,
        )
        durability = result["snapshot"]["durability"]
        return result, {"windows": len(at), "raised": fs.raised, **durability}
    return _run_killed(cell, at, events, config, out_dir)


def _serve_child(cell, events, state_dir, config, injector, ledger_path, out_path):
    """Child-process entry: serve the stream until the injected SIGKILL.

    The child holds the state dir's ``shard.lock`` like a real primary,
    so a later ``promote --fence`` meets the lock a SIGKILL leaves
    behind and must recognize its owner as dead.  A standby-tier primary
    serves registered (promotable) and paced, so the parent's shipping
    loop streams mid-run.
    """
    from .shard import acquire_shard_lock, release_shard_lock

    standby = cell.tier == "standby"

    def strike(index):
        if standby:
            time.sleep(EVENT_DELAY)
        injector(index)

    lock = acquire_shard_lock(state_dir)
    try:
        result = run_stream(
            events,
            state_dir,
            config,
            injector=strike,
            ledger_path=ledger_path,
            batch=cell.batch,
            register=standby,
        )
    finally:
        release_shard_lock(lock)
    Path(out_path).write_text(json.dumps(result, sort_keys=True))


def _spawn_child(cell, at, events, config, state_dir, out_dir):
    """Start a child serving into ``state_dir`` that dies at each of ``at``.

    The kill injector is built here, in the parent, so the child's pid
    differs from its creator's and a ``"kill"`` fault delivers a real
    SIGKILL (see :mod:`repro.engine.faults`).
    """
    injector = FaultInjector(
        _noop, {index: Fault("kill") for index in at}, out_dir / "kill-claims"
    )
    child = multiprocessing.get_context("spawn").Process(
        target=_serve_child,
        args=(
            cell,
            events,
            state_dir,
            config,
            injector,
            out_dir / "ledger.jsonl",
            out_dir / "result.json",
        ),
    )
    child.start()
    return child


def _run_killed(cell, at, events, config, out_dir):
    """SIGKILL/restart cycle: every restart recovers from the state dir
    and replays the stream from the top, so duplicate delivery is the
    normal case and idempotent ingestion is exercised for free."""
    for restarts in range(len(at) + 1):
        child = _spawn_child(cell, at, events, config, out_dir / "state", out_dir)
        child.join()
        if child.exitcode == 0:
            result = SoakResult(json.loads((out_dir / "result.json").read_text()))
            struck = len(list((out_dir / "kill-claims").glob("*")))
            return result, {"scheduled": len(at), "struck": struck, "restarts": restarts}
        if child.exitcode > 0:
            raise RuntimeError(f"chaos child failed with exit code {child.exitcode}")
    raise RuntimeError(f"service did not complete within {len(at)} restarts")


def _await(done, what: str, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while not done():
        if time.monotonic() > deadline:
            raise RuntimeError(f"timed out waiting for {what}")
        time.sleep(0.02)


def _run_sharded(cell, at, events, config, out_dir):
    """Route the stream in ``cell.batch``-event chunks through a sharded
    fleet; at each scheduled chunk, strike before submitting it.

    * ``kill``: SIGKILL a live worker (round-robin over shards) while the
      rest of the fleet keeps serving; the parent respawns it, it
      recovers its shard from WAL + snapshots, and the unacknowledged
      chunks are redelivered.
    * ``hang``: SIGSTOP the worker that owns the chunk's first event and
      hand it the chunk — alive, pipe open, never acking; the supervisor
      must notice the silence, SIGKILL and respawn it.
    * ``poison``: submit one line that SIGKILLs any worker touching it;
      the supervisor must quarantine it after the poison budget and keep
      the shard serving everything else.
    """
    from .shard import POISON_SIDECAR_NAME, ShardedAdvisorService

    injector = None
    if cell.fault == "poison":
        # Claims beyond the budget: every redelivery burns one, and the
        # line must keep killing until the parent quarantines it.
        injector = FaultInjector(
            _noop,
            {POISON_LINE: Fault("kill", times=4 * POISON_BUDGET)},
            out_dir / "poison-claims",
        )
    service = ShardedAdvisorService(
        out_dir / "state",
        config,
        shards=SHARDS,
        ledger_path=out_dir / "ledger.jsonl",
        hang_timeout=HANG_TIMEOUT if cell.fault == "hang" else 30.0,
        poison_budget=POISON_BUDGET,
        injector=injector,
    )
    struck = 0
    try:
        for index in range(0, len(events), cell.batch):
            chunk = events[index : index + cell.batch]
            lines = [json.dumps(record) for record in chunk]
            if index // cell.batch not in at:
                service.submit_lines(lines)
                continue
            if cell.fault == "poison":
                # Settle first so the poison chunk is the sole head of its
                # shard's in-flight queue: crash attribution is unambiguous.
                service.drain(timeout=300.0)
                service.submit_lines([POISON_LINE])
                _await(lambda: service.quarantined_chunks >= 1, "quarantine", 120.0)
                service.submit_lines(lines)
            else:
                if cell.fault == "hang":
                    # Hang detection arms once a worker has spoken since
                    # its spawn, and idle silence is not a hang: settle
                    # the fleet, then freeze the chunk's owner before it
                    # receives the chunk.
                    service.drain(timeout=300.0)
                    victim = service.route(chunk[0]["vehicle"])
                else:
                    victim = struck % SHARDS
                baseline = service.restarts[victim]
                os.kill(
                    service.worker_pids[victim],
                    signal.SIGSTOP if cell.fault == "hang" else signal.SIGKILL,
                )
                if cell.fault == "hang":
                    service.submit_lines(lines)  # the frozen owner holds it
                # Wait for the respawn so consecutive faults cannot
                # collapse into one observed death.
                _await(
                    lambda: service.restarts[victim] > baseline,
                    f"shard {victim} to respawn",
                    60.0,
                )
                if cell.fault == "kill":
                    service.submit_lines(lines)
            struck += 1
        service.drain(timeout=300.0)
        digests = service.digests(timeout=120.0)
        snapshot = service.health_snapshot(timeout=120.0)
        restarts, hangs = sum(service.restarts), sum(service.hangs)
    finally:
        service.close()
    result = SoakResult(
        fleet_cost=snapshot["fleet_cost"], digests=digests, snapshot=snapshot
    )
    if cell.fault == "poison":
        sidecar = out_dir / "state" / POISON_SIDECAR_NAME
        records = [json.loads(line) for line in sidecar.read_text().splitlines()]
        return result, {
            "crashes": [record["crashes"] for record in records],
            "sidecar": [record["lines"] for record in records],
        }
    return result, {
        "scheduled": len(at),
        "struck": struck,
        "restarts": restarts,
        "hangs": hangs,
    }


def _run_standby(cell, at, events, config, out_dir):
    """The disaster-recovery drill: lose the primary, promote, verify.

    A child serves the stream into ``out_dir/primary`` and is SIGKILLed
    at ``at[0]``; meanwhile this process ships WAL frames and snapshots
    to ``out_dir/standby`` — but **only while the child is alive**.  The
    primary's disk is never read after the kill: that is the
    machine-loss story, and the standby holds only what was shipped in
    time.  Recovery then follows the operator runbook: ``promote`` the
    standby (fencing against the dead primary's ``shard.lock``), finish
    the stream by full redelivery, and round-trip the result through
    ``backup`` -> ``restore`` -> ``fleet_doctor`` -> ``promote``.
    """
    from .replica import (
        LocalReplicaTarget,
        backup,
        fleet_doctor,
        promote,
        restore,
        sync_once,
    )

    primary_dir = out_dir / "primary"
    standby_dir = out_dir / "standby"
    child = _spawn_child(cell, at, events, config, primary_dir, out_dir)
    target = LocalReplicaTarget(standby_dir)
    sync_passes = frames_shipped = 0
    while child.is_alive():
        frames_shipped += sync_once(primary_dir, target)["frames"]
        sync_passes += 1
        time.sleep(SYNC_INTERVAL)
    child.join()

    promote(standby_dir, config, fence=primary_dir)
    final = run_stream(
        events, standby_dir, config, batch=cell.batch, register=True
    )
    archive_dir = out_dir / "archive"
    restored_dir = out_dir / "restored"
    backup(standby_dir, archive_dir)
    restore(archive_dir, restored_dir)
    report = fleet_doctor(restored_dir, archive_dir=archive_dir, verify_restore=True)
    restored = promote(restored_dir, config)
    return final, {
        "primary_exitcode": child.exitcode,
        "sync_passes": sync_passes,
        "frames_shipped": frames_shipped,
        "doctor_problems": report["problems"],
        "restored_fleet_cost": restored["fleet_cost"],
        "restored_digests": restored["digests"],
    }


# -- the gate ----------------------------------------------------------------


def gate(cell: Cell, result: dict, evidence: dict, clean: dict) -> list[str]:
    """Every way ``cell``'s run misses the bar; empty means it passed.

    The bar is the same for every cell: fleet cost and per-vehicle
    digests bit-identical to the clean run, plus the fault's own
    :data:`EVIDENCE` check.
    """
    problems = []
    if result["fleet_cost"] != clean["fleet_cost"]:
        problems.append(
            f"fleet cost {result['fleet_cost']!r} != clean {clean['fleet_cost']!r}"
        )
    mismatched = sorted(
        vehicle
        for vehicle in clean["digests"].keys() | result["digests"].keys()
        if result["digests"].get(vehicle) != clean["digests"].get(vehicle)
    )
    if mismatched:
        problems.append(f"digests differ from the clean run for {mismatched}")
    claim, check = EVIDENCE[cell.fault]
    if not check(evidence, result):
        problems.append(f"evidence check failed ({claim}): {evidence}")
    return problems


def main(argv: list[str] | None = None) -> int:
    from .shard import parallel_headroom

    parser = argparse.ArgumentParser(
        prog="repro.service.soak",
        description="Chaos matrix: every cell's run must cost exactly what "
        "the clean run costs, and show its fault's evidence.",
    )
    parser.add_argument(
        "cells",
        nargs="*",
        metavar="CELL",
        help=f"cells to run, named FAULT-TIER-BATCH (default: the full matrix); "
        f"faults {', '.join(FAULTS)}; tiers {', '.join(TIERS)}",
    )
    parser.add_argument("--vehicles", type=int, default=4)
    parser.add_argument("--stops", type=int, default=80, help="stops per vehicle")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--area", default="chicago")
    parser.add_argument("--break-even", type=float, default=28.0)
    parser.add_argument("--safe-strategy", choices=("nrand", "det"), default="nrand")
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("results"),
        help="writes SOAK_matrix.json here, and each cell's state under soak/CELL/",
    )
    args = parser.parse_args(argv)
    try:
        cells = [Cell.parse(name) for name in args.cells] or MATRIX
    except InvalidParameterError as exc:
        parser.error(str(exc))

    events = build_fleet_events(args.vehicles, args.stops, args.seed, args.area)
    config = SessionConfig(
        break_even=args.break_even,
        safe_strategy=args.safe_strategy,
        # dedup must cover full-stream redelivery after each restart
        dedup_window=max(1024, args.stops + 1),
        seed=args.seed,
    )
    root = args.out / "soak"
    print(f"{len(events)} events over {args.vehicles} vehicles; {len(cells)} cell(s)")
    # A rerun starts from scratch: an earlier run's fault claims would
    # mark every fault as already fired.
    for name in ["clean"] + [cell.name for cell in cells]:
        shutil.rmtree(root / name, ignore_errors=True)
    clean = run_stream(events, root / "clean", config)
    verdicts = {}
    for cell in cells:
        start = time.perf_counter()
        try:
            result, evidence = run_cell(cell, events, config, root / cell.name)
            problems = gate(cell, result, evidence, clean)
        except Exception as exc:  # a broken cell must not hide the others' verdicts
            traceback.print_exc()
            evidence, problems = {}, [f"{type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - start
        verdicts[cell.name] = {
            "verdict": "fail" if problems else "pass",
            "wall_s": round(wall, 2),
            "evidence_check": EVIDENCE[cell.fault][0],
            "evidence": evidence,
            "problems": problems,
        }
        print(f"{'FAIL' if problems else 'pass'}  {cell.name:<24} {wall:6.1f} s")
        for problem in problems:
            print(f"      {problem}", file=sys.stderr)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "SOAK_matrix.json").write_text(
        json.dumps(
            {
                "stream": {
                    "vehicles": args.vehicles,
                    "stops": args.stops,
                    "seed": args.seed,
                    "area": args.area,
                    "events": len(events),
                },
                "config": asdict(config),
                "host": {
                    "cpu_count": parallel_headroom(),
                    "platform": platform.platform(),
                    "python": platform.python_version(),
                },
                "clean": {"fleet_cost": clean["fleet_cost"], "digests": clean["digests"]},
                "cells": verdicts,
                "unsupported": {
                    f"{fault}-{tier}": reason
                    for (fault, tier), reason in UNSUPPORTED.items()
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    failed = [name for name, verdict in verdicts.items() if verdict["problems"]]
    if failed:
        print(f"PARITY FAILED: {failed}", file=sys.stderr)
        return 1
    print("PARITY OK: every cell is bit-identical to the clean run")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI/CI
    sys.exit(main())
