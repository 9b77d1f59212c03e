"""The multi-vehicle advisor service: routing, validation, health.

:class:`AdvisorService` owns one :class:`~repro.service.session.AdvisorSession`
per vehicle, all sharing the state directory's one WAL and snapshot
store (:class:`~repro.service.session.SessionRoot`), and a shared
validation report/quarantine sidecar:

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

import json
import time
from pathlib import Path

from ..validation import CsvQuarantineWriter, PolicyEnforcer, ValidationReport
from ..validation.schemas import stop_event_findings
from .batch import MalformedEvent, plan_chunk
from .config import SessionConfig, identifiable_vehicle
from .session import AdvisorSession, SessionRoot

__all__ = ["AdvisorService", "RegisteredAdvisorService", "parse_event_line"]


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
        The service root: one WAL and one snapshot store for every
        vehicle.  Construction recovers every session the root holds
        (one read of the snapshot, one pass over the WAL), so a
        respawned shard or a promoted standby answers for its whole
        fleet before any traffic arrives.
    config:
        Shared :class:`SessionConfig` for every session.
    policy:
        Validation policy for ingestion (default ``repair`` — a
        deployed service must not die on one bad record; pass
        ``strict`` to make it do exactly that in tests).
    fsync:
        Fsync the root's WAL and snapshot writes.
    fs:
        Optional fault-injection shim on the root's WAL and snapshot
        store (:class:`repro.engine.faults.FsFaultInjector`); the
        ordinal schedule then covers the whole service's disk traffic,
        which is how the disk-fault soak is driven.
    """

    def __init__(
        self,
        state_dir: str | Path,
        config: SessionConfig,
        *,
        policy: str = "repair",
        report: ValidationReport | None = None,
        fsync: bool = False,
        source: str = "events",
        fs=None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._root = SessionRoot(self.state_dir, config, fsync=fsync, fs=fs)
        self.config = config
        self.policy = policy
        self.report = report if report is not None else ValidationReport(str(policy))
        self._enforcer = PolicyEnforcer(policy, self.report, source)
        self._enforcer.attach_quarantine_writer(
            CsvQuarantineWriter(self.state_dir / source, self.report)
        )
        self.sessions: dict[str, AdvisorSession] = self._root.sessions
        self.received = 0
        self.malformed = 0
        # Batched-ingest throughput counters (health_snapshot -> ingest.batch).
        self.batch_chunks = 0
        self.batch_events = 0
        self.batch_seconds = 0.0
        self._root.recover(self._build)

    # -- sessions ---------------------------------------------------------

    def _build(self, vehicle_id: str) -> AdvisorSession:
        return self.config.build_session(
            vehicle_id, enforcer=self._enforcer, root=self._root
        )

    def session(self, vehicle_id: str) -> AdvisorSession:
        """The vehicle's session; a vehicle new to the root starts fresh."""
        vehicle_id = str(vehicle_id)
        session = self.sessions.get(vehicle_id)
        if session is None:
            session = self.sessions[vehicle_id] = self._build(vehicle_id)
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

        The one definition of a shard's counters: the sharded tier sums
        its shards' snapshots key by key, so a counter added here shows
        up fleet-wide.  ``include_vehicles=False`` leaves the
        ``vehicles`` map empty, which keeps a tier's ``/health`` poll
        O(shards) instead of O(fleet).
        """
        sessions = self.sessions.values()
        events, wall_s = self.batch_events, self.batch_seconds
        return {
            "fleet_cost": self.fleet_cost,
            "vehicle_count": len(self.sessions),
            "vehicles": (
                {
                    vehicle_id: session.health_snapshot()
                    for vehicle_id, session in sorted(self.sessions.items())
                }
                if include_vehicles
                else {}
            ),
            "ingest": {
                "received": self.received,
                "malformed": self.malformed,
                "duplicates": sum(s.duplicates for s in sessions),
                "rejected": sum(s.rejected for s in sessions),
                "batch": {
                    "chunks": self.batch_chunks,
                    "events": events,
                    "wall_s": wall_s,
                    "events_per_s": events / wall_s if wall_s > 0.0 else 0.0,
                },
            },
            "states": {
                state: sum(1 for s in sessions if s.health.value == state)
                for state in ("healthy", "degraded", "safe")
            },
            # The DURABILITY_SUSPENDED overlay.
            "durability": {
                "suspended_sessions": sum(
                    1 for s in sessions if s.durability_suspended
                ),
                "buffered_events": sum(len(s._suspend_buffer) for s in sessions),
                "dropped_events": sum(s.suspend_dropped for s in sessions),
                "suspensions": sum(s.suspensions for s in sessions),
                "resumes": sum(s.resumes for s in sessions),
            },
        }

    def close(self) -> None:
        """Flush durable state: a final compaction of the root when any
        session has work since the last one (a warm-recovered fleet that
        received nothing rewrites no snapshot).

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


#: ``fleetbench/tracing.py`` wraps the service under this name.
RegisteredAdvisorService = AdvisorService
