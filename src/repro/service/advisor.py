"""The multi-vehicle advisor service: routing, validation, health.

:class:`AdvisorService` owns one :class:`~repro.service.session.AdvisorSession`
per vehicle, each with its own sub-directory of the service state
directory (WAL + snapshot), and a shared validation report/quarantine
sidecar:

* ``process(record)`` validates and routes one raw event (the
  per-event scalar path);
* ``process_batch(records)`` / ``ingest_lines(lines)`` are the columnar
  fast path (what ``serve`` runs): a chunk is planned into per-vehicle
  runs (:mod:`repro.service.batch`) and each run applied through one
  vectorized group-commit — bit-identical to the scalar loop (the
  equivalence harness in ``tests/test_service_batch.py`` pins it).

Raw records are value-validated by
:func:`repro.validation.schemas.stop_event_findings` before they reach
a session; malformed records are policy-handled (strict raises, repair
drops, quarantine diverts to ``events.quarantine.csv`` in the state
directory) and fed to the owning session's failure-streak health signal
when the vehicle is identifiable.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from pathlib import Path

from ..validation import CsvQuarantineWriter, PolicyEnforcer, ValidationReport
from ..validation.schemas import stop_event_findings
from .batch import MalformedEvent, identifiable_vehicle, plan_chunk
from .session import AdvisorSession, SessionConfig

__all__ = [
    "REGISTRY_NAME",
    "AdvisorService",
    "RegisteredAdvisorService",
    "gate_on_replication",
    "parse_event_line",
]

#: JSONL registry of every vehicle id a service root has ever held —
#: hashed session directory names cannot be inverted, so warm recovery
#: (shard respawn, standby promotion) replays this file to rebuild each
#: session under its correct RNG seed.
REGISTRY_NAME = "vehicles.idx"

_UNSAFE_CHARS = re.compile(r"[^A-Za-z0-9._-]")


def _vehicle_dirname(vehicle_id: str) -> str:
    """A filesystem-safe, collision-free directory name per vehicle.

    The name always ends in a hash of the exact id, so distinct ids can
    never share a directory — not even ids differing only in case on a
    case-insensitive filesystem (macOS/Windows), and not an id that
    happens to look like another id's hashed name.  A sanitized prefix
    of the id is kept for operator readability.
    """
    digest = hashlib.sha256(vehicle_id.encode()).hexdigest()[:16]
    prefix = _UNSAFE_CHARS.sub("_", vehicle_id)[:48].lstrip(".")
    return f"{prefix}-{digest}" if prefix else f"veh-{digest}"


def gate_on_replication(replication, reasons: list) -> dict:
    """Fold replication lag into a readiness verdict.

    Shared by the single-process and sharded tiers so ``/ready`` speaks
    one schema: the verdict carries the monitor's full lag snapshot
    under ``"replication"`` (machine-readable), and flips not-ready when
    lag exceeds the monitor's bound or the standby's watermark file is
    unreadable (its state is then unknown — the conservative verdict).
    """
    verdict = {"ready": True, "reasons": reasons}
    if replication is not None:
        lag = replication.snapshot()
        verdict["replication"] = lag
        if not lag["within_bound"]:
            if lag["watermarks_corrupt"]:
                reasons.append(
                    "replication watermarks corrupt: standby state unknown"
                )
            else:
                reasons.append(
                    f"replication lag {lag['max_lag_events']} events exceeds "
                    f"bound {lag['max_lag_bound']} "
                    f"({lag['vehicles_lagging']} session(s) lagging)"
                )
    verdict["ready"] = not reasons
    return verdict


def parse_event_line(line: str):
    """Parse one JSONL event line; returns ``(record, error)``.

    ``record`` is the decoded JSON value (*not* yet schema-validated);
    ``error`` is a message when the line is not JSON at all.
    """
    try:
        return json.loads(line), None
    except json.JSONDecodeError as exc:
        return None, f"not valid JSON: {exc}"


class AdvisorService:
    """Long-running advisor for a fleet (see module docstring).

    Parameters
    ----------
    state_dir:
        Root of the durable state; one sub-directory per vehicle.
    config:
        Shared :class:`SessionConfig` for every session.
    policy:
        Validation policy for ingestion (default ``repair`` — a
        deployed service must not die on one bad record; pass
        ``strict`` to make it do exactly that in tests).
    fsync:
        Forwarded to every session's WAL/snapshot writes.
    recover:
        Restore per-vehicle durable state found under ``state_dir``.
    fs:
        Optional fault-injection shim shared by every session's WAL and
        snapshot store (:class:`repro.engine.faults.FsFaultInjector`);
        the ordinal schedule then covers the whole service's disk
        traffic, which is how the disk-fault soak is driven.
    replication:
        Optional :class:`repro.service.replica.ReplicationMonitor`.
        When set, :meth:`health_snapshot` carries a ``replication``
        section (per-session lag against the standby's watermarks) and
        :meth:`readiness` refuses traffic with a machine-readable
        reason while any session lags past the monitor's bound.
    """

    def __init__(
        self,
        state_dir: str | Path,
        config: SessionConfig,
        *,
        policy: str = "repair",
        report: ValidationReport | None = None,
        fsync: bool = False,
        recover: bool = True,
        source: str = "events",
        fs=None,
        replication=None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.policy = policy
        self.fsync = bool(fsync)
        self.fs = fs
        self.replication = replication
        self.recover = bool(recover)
        self.report = report if report is not None else ValidationReport(str(policy))
        self._enforcer = PolicyEnforcer(policy, self.report, source)
        self._enforcer.attach_quarantine_writer(
            CsvQuarantineWriter(self.state_dir / source, self.report)
        )
        self.sessions: dict[str, AdvisorSession] = {}
        self.received = 0
        self.malformed = 0
        # Batched-ingest throughput counters (health_snapshot -> ingest.batch).
        self.batch_chunks = 0
        self.batch_events = 0
        self.batch_seconds = 0.0

    # -- sessions ---------------------------------------------------------

    def session(self, vehicle_id: str) -> AdvisorSession:
        """The vehicle's session, creating (and recovering) it on first use."""
        vehicle_id = str(vehicle_id)
        existing = self.sessions.get(vehicle_id)
        if existing is not None:
            return existing
        session = self.config.build_session(
            vehicle_id,
            self.state_dir / "vehicles" / _vehicle_dirname(vehicle_id),
            enforcer=self._enforcer,
            fsync=self.fsync,
            recover=self.recover,
            fs=self.fs,
        )
        self.sessions[vehicle_id] = session
        return session

    # -- ingestion --------------------------------------------------------

    def process(self, record) -> dict | None:
        """Validate and apply one event (the per-event scalar path)."""
        self.received += 1
        return self._handle(record)

    def ingest_line(self, line: str) -> dict | None:
        """Parse one JSONL event line and process it (one event at a time).

        Undecodable lines are policy-handled as ``malformed-event`` —
        the raw line goes to the quarantine sidecar under the
        ``quarantine`` policy — and never reach a session.
        """
        record, error = parse_event_line(line)
        if error is not None:
            self.received += 1
            self.malformed += 1
            self._enforcer.flag("malformed-event", error, record=[line])
            return None
        return self.process(record)

    def process_batch(self, records) -> list:
        """The columnar fast path: apply a chunk of parsed records.

        The chunk is planned into per-vehicle runs
        (:func:`repro.service.batch.plan_chunk`); each run is applied
        with one vectorized
        :meth:`~repro.service.session.AdvisorSession.submit_batch` —
        one WAL group-commit, one fsync — and malformed markers are
        policy-handled at their in-chunk position so per-vehicle health
        signals land exactly where the scalar loop would put them.

        Returns decisions aligned with ``records`` (None where the
        record was malformed or dropped).
        """
        records = list(records)
        self.received += len(records)
        results: list = [None] * len(records)
        if not records:
            return results
        start = time.perf_counter()
        for item in plan_chunk(records).items:
            if isinstance(item, MalformedEvent):
                self._flag_malformed(item.record, item.findings)
                continue
            decisions = self.session(item.vehicle).submit_batch(
                item.event_ids, item.timestamps, item.stop_lengths
            )
            for position, decision in zip(item.indices, decisions):
                results[int(position)] = decision
        self.batch_chunks += 1
        self.batch_events += len(records)
        self.batch_seconds += time.perf_counter() - start
        return results

    def ingest_lines(self, lines) -> list:
        """Parse a chunk of JSONL lines and apply it as one batch.

        The whole chunk is decoded with a single ``json.loads`` (each
        line is one JSON value, so joining them into an array is one
        C-level parse instead of one call per line).  If *any* line is
        undecodable the chunk falls back to per-line parsing, where bad
        lines are policy-handled exactly as :meth:`ingest_line` handles
        them and the decoded remainder still goes through
        :meth:`process_batch`.  Returns decisions aligned with
        ``lines``.
        """
        lines = list(lines)
        try:
            records = json.loads("[" + ",".join(lines) + "]")
        except json.JSONDecodeError:
            records = None
        # Length mismatch = some line held several comma-separated JSON
        # values (invalid alone, but legal inside the joined array) —
        # only the per-line path flags it the way ingest_line would.
        if records is not None and len(records) == len(lines):
            return self.process_batch(records)
        results: list = [None] * len(lines)
        decodable = []
        positions = []
        for position, line in enumerate(lines):
            record, error = parse_event_line(line)
            if error is not None:
                self.received += 1
                self.malformed += 1
                self._enforcer.flag("malformed-event", error, record=[line])
                continue
            decodable.append(record)
            positions.append(position)
        for position, decision in zip(positions, self.process_batch(decodable)):
            results[position] = decision
        return results

    def _handle(self, record) -> dict | None:
        findings, event = stop_event_findings(record)
        if event is None:
            self._flag_malformed(record, findings)
            return None
        event_id, vehicle, timestamp, stop_length = event
        return self.session(vehicle).submit(event_id, timestamp, stop_length)

    def _flag_malformed(self, record, findings) -> None:
        """Policy-handle one value-invalid record (scalar and batch paths)."""
        self.malformed += 1
        vehicle = identifiable_vehicle(record)
        for check, message in findings:
            self._enforcer.flag(
                check,
                message if vehicle is None else f"vehicle {vehicle}: {message}",
                record=[json.dumps(record, default=repr)],
            )
        # A malformed record still carries a health signal for the
        # vehicle it claims to be from — but only for vehicles we
        # already serve: garbage must not create sessions.
        if vehicle is not None and vehicle in self.sessions:
            self.sessions[vehicle].note_invalid_event(findings[0][0])

    # -- lifecycle / observability ---------------------------------------

    @property
    def fleet_cost(self) -> float:
        """Total realized cost (idle-seconds units) across all sessions.

        Summed in sorted-vehicle order: float addition is not
        associative, and a canonical order makes the total
        bit-reproducible no matter how sessions were created — the
        sharded tier's aggregated snapshot sums the same sequence.
        """
        return sum(
            self.sessions[vehicle].total_cost for vehicle in sorted(self.sessions)
        )

    def health_snapshot(self, include_vehicles: bool = True) -> dict:
        """Operator-facing service view: fleet totals + per-vehicle state.

        ``include_vehicles=False`` keeps the same schema but leaves the
        ``vehicles`` map empty — the sharded tier aggregates snapshots
        across workers, where a 100k-vehicle per-session map would make
        every ``/health`` poll cost megabytes of pickled payload.
        """
        vehicles = (
            {
                vehicle_id: session.health_snapshot()
                for vehicle_id, session in sorted(self.sessions.items())
            }
            if include_vehicles
            else {}
        )
        snapshot = {
            "fleet_cost": self.fleet_cost,
            "vehicles": vehicles,
            "ingest": {
                "received": self.received,
                "malformed": self.malformed,
                "duplicates": sum(s.duplicates for s in self.sessions.values()),
                "rejected": sum(s.rejected for s in self.sessions.values()),
                "batch": {
                    "chunks": self.batch_chunks,
                    "events": self.batch_events,
                    "wall_s": self.batch_seconds,
                    "events_per_s": (
                        self.batch_events / self.batch_seconds
                        if self.batch_seconds > 0.0
                        else 0.0
                    ),
                },
            },
            "states": {
                state: sum(
                    1 for s in self.sessions.values() if s.health.value == state
                )
                for state in ("healthy", "degraded", "safe")
            },
            "durability": self.durability_summary(),
        }
        if self.replication is not None:
            snapshot["replication"] = self.replication.snapshot()
        return snapshot

    def durability_summary(self) -> dict:
        """Aggregated DURABILITY_SUSPENDED overlay across sessions."""
        sessions = self.sessions.values()
        return {
            "suspended_sessions": sum(
                1 for s in sessions if s.durability_suspended
            ),
            "buffered_events": sum(len(s._suspend_buffer) for s in sessions),
            "dropped_events": sum(s.suspend_dropped for s in sessions),
            "suspensions": sum(s.suspensions for s in sessions),
            "resumes": sum(s.resumes for s in sessions),
        }

    def readiness(self) -> dict:
        """What a load balancer should gate on: ``{"ready", "reasons"}``.

        Distinct from :meth:`health_snapshot` — health reports, readiness
        *decides*.  A service with any durability-suspended session is
        serving SAFE decisions (still correct under the distribution-free
        guarantee) but cannot persist state, so new traffic should go
        elsewhere while it heals.
        """
        suspended = sorted(
            vehicle
            for vehicle, session in self.sessions.items()
            if session.durability_suspended
        )
        reasons = []
        if suspended:
            reasons.append(
                f"durability suspended for {len(suspended)} session(s): "
                f"{suspended[:5]}"
            )
        return gate_on_replication(self.replication, reasons)

    def close(self) -> None:
        """Flush durable state: a final compaction for every session with
        work since its last one (a warm-recovered fleet that received
        nothing rewrites no snapshot).

        A durability-suspended session gets one forced probe first — the
        last chance to land its buffered tail before the process exits
        (a tail still unlandable stays lost, by design: it was never
        durable and the snapshot says so).
        """
        for session in self.sessions.values():
            if session.durability_suspended:
                session.probe_durability()
            if session.dirty:
                session.compact()
        self._enforcer.close()


class RegisteredAdvisorService(AdvisorService):
    """An ``AdvisorService`` that can warm-recover its whole fleet.

    The stock service recovers sessions lazily on first use, which is
    fine when the full stream is redelivered after a restart — but a
    respawned shard only gets its unacknowledged chunks back, and a
    promoted standby gets nothing at all, so both must restore every
    session the root ever held before answering health or digest
    queries.  Vehicle directory names are hashed and cannot be inverted,
    so the service keeps a registry (JSONL of vehicle ids at
    :data:`REGISTRY_NAME`, appended and flushed *before* the session's
    durable state is created — a crash can orphan a registry line, never
    a session) and replays it at startup.  The registry file itself is
    shipped by the replication layer, which is what lets ``promote``
    rebuild each session under its correct RNG seed.
    """

    def __init__(self, state_dir, config, **kwargs) -> None:
        super().__init__(state_dir, config, **kwargs)
        self._registry_path = self.state_dir / REGISTRY_NAME
        # Every registered id in first-seen order (a dict, so the dedup
        # of a 100k-line registry stays linear).
        self._registered: dict[str, None] = {}
        if self._registry_path.exists():
            for line in self._registry_path.read_text().splitlines():
                try:
                    vehicle_id = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail: the id re-registers on redelivery
                if isinstance(vehicle_id, str):
                    self._registered[vehicle_id] = None
        self._registry = open(self._registry_path, "a")
        if self.recover:
            for vehicle_id in self._registered:
                self.session(vehicle_id)

    def session(self, vehicle_id):
        vehicle_id = str(vehicle_id)
        if vehicle_id not in self._registered:
            self._registry.write(json.dumps(vehicle_id) + "\n")
            self._registry.flush()
            if self.fsync:
                os.fsync(self._registry.fileno())
            self._registered[vehicle_id] = None
        return super().session(vehicle_id)

    def close(self) -> None:
        super().close()
        self._registry.close()
