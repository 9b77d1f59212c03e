"""Per-vehicle advisor sessions: crash-safe state + graceful degradation.

An :class:`AdvisorSession` is the long-running, deployed counterpart of
:class:`~repro.core.adaptive.AdaptiveProposed`: it advises an idling
threshold per stop, learns from every completed stop, and — unlike the
batch experiments — survives crashes and distribution drift.

Durability
----------
Every applied event is appended to a CRC-framed write-ahead log
*before* it mutates the session, and the full session state (estimator
accumulators, RNG stream, drift detectors, health machine, cost
counters) is periodically compacted into a snapshot.  The log and the
snapshot store belong to the session's :class:`SessionRoot` — one per
service root, shared by every vehicle in it, so a new vehicle costs a
dict insert: its initial state is a pure function of config and id.
Recovery loads the snapshot and replays the WAL tail through the *same*
apply path, so a SIGKILL at any instant restores every session
bit-identically — pinned by the soak harness (:mod:`repro.service.soak`)
and the Hypothesis round-trip properties in the tests.

When the *disk itself* fails (``ENOSPC``, ``EIO``, read-only FS) the
session enters **DURABILITY_SUSPENDED** instead of dying: decisions
keep flowing from the SAFE fallback (distribution-free guarantee, no
state needed), incoming events buffer in a bounded in-memory tail, the
disk is probed on an event-counted backoff schedule, and on recovery
the buffer replays through the normal apply path — converging
bit-identically to a run that never faulted.  See the
"disk-fault degradation" section below.

Degradation ladder
------------------
``HEALTHY → DEGRADED → SAFE``, driven by the drift detectors
(:mod:`repro.service.drift`), by
:class:`~repro.errors.DegenerateStatisticsError` from the solver, and
by streaks of event-validation failures:

* **HEALTHY** — play the adaptive selector on the full-history
  estimate (the paper's proposed algorithm with estimated statistics).
* **DEGRADED** — the estimate is suspect: rebuild the estimator over a
  short exponentially-forgetting window of recent stops and re-solve,
  so the advisor tracks the new regime instead of averaging across the
  shift.  Recovers to HEALTHY after ``recover_after`` clean stops.
* **SAFE** — estimation has failed twice; abandon estimated statistics
  entirely and play a distribution-free guarantee: N-Rand
  (``e/(e-1) ≈ 1.582`` expected CR against *any* distribution) or,
  via ``safe_strategy="det"``, DET (unconditionally 2-competitive per
  stop).  Returns to DEGRADED only after the longer
  ``safe_recover_after`` clean streak (hysteresis — flapping between
  guarantees is worse than staying conservative).

Every transition is emitted to the ambient run ledger
(:func:`repro.engine.ledger.active_ledger`) as an ``advisor-state``
event.

Defensive ingestion
-------------------
Duplicate event ids (at-least-once delivery) are no-ops; events whose
timestamp runs behind the vehicle's clock are rejected through the
:mod:`repro.validation` policy machinery (strict raises, repair drops,
quarantine diverts to a sidecar); malformed values never reach the
estimator and, in streaks, degrade the session's health.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from ..constants import E
from ..core.adaptive import RENORM_FLUSH, RENORM_INTERVAL, AdaptiveProposed
from ..core.costs import validate_break_even
from ..core.deterministic import Deterministic
from ..core.kernels import VERTEX_NAMES, select_vertices
from ..core.randomized import NRand
from ..core.strategy import DeterministicThresholdStrategy
from ..errors import DegenerateStatisticsError, InvalidParameterError
from ..engine.ledger import active_ledger
from ..simulation.controller import StopStartController
from ..validation import PolicyEnforcer
from .drift import DriftDetector
from .wal import SNAPSHOT_NAME, WAL_NAME, SnapshotStore, WriteAheadLog

__all__ = [
    "HealthState",
    "SessionConfig",
    "AdvisorSession",
    "SessionRoot",
    "vehicle_seed",
]

#: Snapshot schema version; bump on incompatible state layout changes.
STATE_VERSION = 1

#: Transitions kept in memory *and* in snapshots.  The cap must be
#: identical in both places: an uncapped live list would diverge from a
#: capped restored one and break bit-identical recovery.
TRANSITION_HISTORY = 64


class HealthState(str, Enum):
    """The degradation ladder (see module docstring)."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    SAFE = "safe"


@dataclass(frozen=True)
class SessionConfig:
    """Tuning knobs of one advisor session.

    Recovery is bit-identical only when the session is reopened with
    the same config it ran under — the config is an input of the
    deterministic apply path, not part of the durable state.
    """

    break_even: float
    min_samples: int = 10
    healthy_decay: float = 1.0
    degraded_decay: float = 0.9
    degraded_window: int = 32
    recent_window: int = 128
    dedup_window: int = 1024
    snapshot_every: int = 64
    safe_strategy: str = "nrand"
    # Page-Hinkley knobs, in robust-σ units (deviations are self-scaled
    # by a running mean absolute deviation — see repro.service.drift):
    # delta 0.25 tolerates wander up to a quarter-MAD per observation;
    # threshold 50 keeps the stationary false-alarm rate negligible even
    # for heavy-tailed stop streams (typical stationary departures stay
    # under ~15) while catching a one-MAD mean shift within ~50 stops.
    length_delta: float = 0.25
    length_threshold: float = 50.0
    split_delta: float = 0.25
    split_threshold: float = 50.0
    drift_min_count: int = 20
    recover_after: int = 50
    safe_recover_after: int = 200
    bad_event_streak: int = 5
    seed: int = 20140601
    # Bounded in-memory event tail kept while durability is suspended
    # (disk fault): events past the bound are dropped-and-counted, so a
    # long outage degrades availability of *history*, never memory.
    suspend_buffer: int = 4096

    def __post_init__(self) -> None:
        validate_break_even(self.break_even)
        if self.safe_strategy not in ("nrand", "det"):
            raise InvalidParameterError(
                f"safe_strategy must be 'nrand' or 'det', got {self.safe_strategy!r}"
            )
        for name in ("healthy_decay", "degraded_decay"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise InvalidParameterError(f"{name} must lie in (0, 1], got {value!r}")
        for name in (
            "min_samples",
            "degraded_window",
            "recent_window",
            "dedup_window",
            "snapshot_every",
            "drift_min_count",
            "recover_after",
            "safe_recover_after",
            "bad_event_streak",
            "suspend_buffer",
        ):
            if getattr(self, name) < 1:
                raise InvalidParameterError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def safe_guarantee(self) -> float:
        """The competitive-ratio bound of the SAFE fallback: N-Rand's
        distribution-free ``e/(e-1)`` or DET's unconditional 2."""
        return E / (E - 1.0) if self.safe_strategy == "nrand" else 2.0

    def build_session(self, vehicle_id: str, state_dir=None, **kwargs):
        """Construct the session this config describes.

        The service layer calls this instead of naming a session class,
        so config subclasses (the learning-augmented tier) can swap in
        their own session without the service knowing about them.
        """
        return AdvisorSession(vehicle_id, self, state_dir, **kwargs)


def vehicle_seed(base_seed: int, vehicle_id: str) -> np.random.SeedSequence:
    """Deterministic per-vehicle seed: stable across runs and restarts."""
    digest = hashlib.sha256(vehicle_id.encode()).digest()
    return np.random.SeedSequence([int(base_seed), int.from_bytes(digest[:8], "big")])


class AdvisorSession:
    """One vehicle's online advisor (see module docstring).

    Parameters
    ----------
    vehicle_id:
        Routing key; also salts the session's RNG stream.
    config:
        :class:`SessionConfig`.
    state_dir:
        Directory of a one-vehicle service root (WAL + snapshot) that
        the session owns and recovers from.  ``None`` (and no ``root``)
        runs the session in memory only (tests, ephemeral evaluation).
    policy / report / quarantine_writer / enforcer:
        Validation plumbing.  Pass ``enforcer`` to share one
        :class:`~repro.validation.PolicyEnforcer` across sessions (the
        multi-vehicle service does); otherwise one is built from
        ``policy``/``report``.
    fsync:
        Fsync the ``state_dir`` root's WAL appends and snapshots
        (power-loss durability; a plain process kill is already covered
        by flush).
    fs:
        Optional fault-injection shim for the ``state_dir`` root's WAL
        and snapshot store (:class:`repro.engine.faults.FsFaultInjector`)
        — how the ``DURABILITY_SUSPENDED`` path is tested
        deterministically.
    root:
        The :class:`SessionRoot` of a multi-vehicle service, which
        builds, recovers and compacts its sessions itself.
    """

    def __init__(
        self,
        vehicle_id: str,
        config: SessionConfig,
        state_dir: str | Path | None = None,
        *,
        policy: str = "repair",
        report=None,
        enforcer: PolicyEnforcer | None = None,
        fsync: bool = False,
        fs=None,
        root: SessionRoot | None = None,
    ) -> None:
        self.vehicle_id = str(vehicle_id)
        self.config = config
        self._enforcer = (
            enforcer
            if enforcer is not None
            else PolicyEnforcer(policy, report, f"events:{self.vehicle_id}")
        )
        self._fallback = (
            NRand(config.break_even)
            if config.safe_strategy == "nrand"
            else Deterministic(config.break_even)
        )
        self._controller = StopStartController(self._fallback)
        if state_dir is not None:
            root = SessionRoot(state_dir, config, fsync=fsync, fs=fs)
            root.sessions[self.vehicle_id] = self
        self._root = root
        self._wal = None if root is None else root.wal
        self._snapshots = None if root is None else root.snapshots
        self._init_fresh_state()
        if state_dir is not None:
            root.recover(self._only_self)

    def _only_self(self, vehicle_id: str) -> AdvisorSession:
        raise InvalidParameterError(
            f"{self._wal.path.parent} also holds vehicle {vehicle_id!r}: a "
            f"session's own state dir holds only {self.vehicle_id!r}; open a "
            "multi-vehicle root with AdvisorService"
        )

    def _init_fresh_state(self) -> None:
        config = self.config
        self._replaying = False
        #: True while memory holds state the durable snapshot lacks;
        #: cleared by a successful compaction (volatile), so compaction
        #: writes and ``close()`` touches only changed sessions.
        self.dirty = True
        self.applied = 0
        self.total_cost = 0.0
        self.health = HealthState.HEALTHY
        self.clean_streak = 0
        self.bad_streak = 0
        self.duplicates = 0
        self.rejected = 0
        self.last_timestamp: float | None = None
        self.transitions: deque = deque(maxlen=TRANSITION_HISTORY)
        self._recent_stops: deque = deque(maxlen=config.recent_window)
        self._recent_ids: deque = deque(maxlen=config.dedup_window)
        self._recent_id_set: set[str] = set()
        self.estimator = AdaptiveProposed(
            config.break_even, config.min_samples, decay=config.healthy_decay
        )
        # DURABILITY_SUSPENDED overlay (volatile; never serialized — the
        # whole point is that a healed session is indistinguishable from
        # one that never faulted, so nothing here may reach to_state()).
        self.durability_suspended = False
        self.suspend_reason: str | None = None
        self.suspensions = 0
        self.resumes = 0
        self.suspend_dropped = 0
        self._suspend_buffer: deque = deque()
        self._suspend_ids: set[str] = set()
        self._suspend_rng = None
        self._suspend_seen = 0
        self._probe_backoff = 1
        self._next_probe_at = 1
        self.rng = np.random.default_rng(vehicle_seed(config.seed, self.vehicle_id))
        self.drift = DriftDetector(
            length_delta=config.length_delta,
            length_threshold=config.length_threshold,
            split_delta=config.split_delta,
            split_threshold=config.split_threshold,
            min_count=config.drift_min_count,
        )

    # -- ingestion --------------------------------------------------------

    def submit(self, event_id: str, timestamp: float, stop_length: float):
        """Ingest one stop event; returns the decision dict, or None when
        the event was a duplicate or was rejected.

        The caller is expected to have value-validated the fields (see
        :func:`repro.validation.schemas.stop_event_findings`); this
        method performs the *stateful* checks — idempotency and clock
        monotonicity — then makes the event durable and applies it.

        While durability is suspended (disk fault) the event is served
        from the SAFE fallback and buffered instead of applied — see
        :meth:`_submit_suspended`.
        """
        event_id = str(event_id)
        self.dirty = True
        if self.durability_suspended:
            self._probe_maybe()
            if self.durability_suspended:
                return self._submit_suspended(event_id, timestamp, stop_length)
        if event_id in self._recent_id_set:
            # At-least-once delivery: a replayed event is a no-op, not an
            # error — counted, never reported per-record (a redelivery
            # storm after a restart must not flood the report).
            self.duplicates += 1
            return None
        stop_length = float(stop_length)
        if not math.isfinite(stop_length) or stop_length < 0.0:
            # Defense in depth against callers that skipped the schema
            # checks: a bad value must never reach the WAL, where its
            # replay would poison recovery.
            check = (
                "negative-duration" if math.isfinite(stop_length) else "non-finite-duration"
            )
            self._refuse(
                check, f"stop length {stop_length!r}", event_id, timestamp, stop_length
            )
            return None
        timestamp = float(timestamp)
        if not math.isfinite(timestamp):
            # Same defense for the clock: NaN would pass every later
            # staleness check and cannot be framed into the WAL.
            self._refuse(
                "non-finite-start-time",
                f"timestamp {timestamp!r}",
                event_id,
                timestamp,
                stop_length,
            )
            return None
        if self.last_timestamp is not None and timestamp < self.last_timestamp:
            self._refuse(
                "non-monotonic-timestamp",
                f"at t={timestamp!r} behind clock {self.last_timestamp!r}",
                event_id,
                timestamp,
                stop_length,
            )
            return None
        record = {
            "seq": self.applied + 1,
            "id": event_id,
            "t": timestamp,
            "v": self.vehicle_id,
            "y": float(stop_length),
        }
        if self._root is not None:
            try:
                self._root.append([record])
            except OSError as exc:
                # The append failed, so the event is NOT durable and the
                # WAL-before-apply invariant forbids applying it; park
                # it in the suspension buffer to be replayed — through
                # this very path — once the disk heals.
                self._suspend(exc, "wal-append")
                return self._submit_suspended(event_id, timestamp, stop_length)
        decision = self._apply(record)
        if self._root is not None and self._root.compaction_due:
            self.compact()
        return decision

    def _refuse(self, check: str, detail: str, event_id, timestamp, stop_length) -> None:
        """Flag, count and feed to the health machine one refused event.

        At error severity the enforcer never keeps a record: it drops
        or quarantines it, or raises under ``strict`` (before anything
        is counted).
        """
        self._enforcer.flag(
            check,
            f"vehicle {self.vehicle_id}: event {event_id} {detail}",
            record=[event_id, self.vehicle_id, repr(timestamp), repr(stop_length)],
        )
        self.rejected += 1
        self.note_invalid_event(check)

    def note_invalid_event(self, check: str) -> None:
        """Feed one event-validation failure into the health machine.

        Isolated bad records are routine telemetry noise; a *streak* of
        ``bad_event_streak`` consecutive failures without a single valid
        event in between means the feed itself is broken and the
        estimate can no longer be trusted — treated like a drift alarm.
        """
        self.dirty = True
        self.bad_streak += 1
        if self.bad_streak >= self.config.bad_event_streak:
            self.bad_streak = 0
            self._on_alarm(f"validation-streak:{check}")

    # -- disk-fault degradation (DURABILITY_SUSPENDED) --------------------
    #
    # A WAL append or snapshot publish that raises OSError (ENOSPC, EIO,
    # read-only FS) must not kill the session OR violate the
    # WAL-before-apply invariant by applying an event that was never
    # made durable.  Instead the session suspends durability:
    #
    # * incoming events are buffered verbatim (bounded) and answered
    #   with decisions from the distribution-free SAFE fallback, drawn
    #   on a dedicated side RNG so the session's own stream is untouched;
    # * no session state mutates — cost, estimator, health, clocks all
    #   freeze at the last durable event;
    # * the disk is probed on an exponential backoff schedule counted in
    #   suspended events (deterministic for tests — no wall clock), and
    #   on success the buffered tail replays through the normal
    #   :meth:`submit` path and the session re-compacts.
    #
    # Because replay uses the same apply path and the buffered events
    # arrive in original order, the healed durable state is
    # bit-identical to a run that never faulted — the same argument that
    # makes WAL recovery bit-identical.  The overlay is volatile by
    # construction: nothing here is serialized, and ``state_digest()``
    # already excludes the delivery counters suspension touches.

    def _suspend(self, exc: OSError, op: str) -> None:
        """Enter (or stay in) DURABILITY_SUSPENDED after a disk fault."""
        self.suspend_reason = f"{op}: {exc!r}"
        if self.durability_suspended:
            return
        self.durability_suspended = True
        self.suspensions += 1
        self._suspend_seen = 0
        self._probe_backoff = 1
        self._next_probe_at = 1
        ledger = active_ledger()
        if ledger is not None and not self._replaying:
            ledger.emit(
                "advisor-durability",
                vehicle=self.vehicle_id,
                state="suspended",
                op=op,
                error=repr(exc),
                applied=self.applied,
            )

    def _submit_suspended(self, event_id: str, timestamp, stop_length):
        """Serve one event while durability is suspended.

        The event cannot be made durable, so it must not mutate session
        state; it is buffered (bounded by ``config.suspend_buffer``) for
        in-order replay after the disk heals, and the decision served
        *now* comes from the SAFE fallback — the health ladder's floor,
        whose guarantee needs no estimator and no durable state.
        """
        self._suspend_seen += 1
        if event_id in self._recent_id_set or event_id in self._suspend_ids:
            self.duplicates += 1
            return None
        try:
            timestamp = float(timestamp)
            stop_length = float(stop_length)
        except (TypeError, ValueError):
            self.rejected += 1
            return None
        if len(self._suspend_buffer) >= self.config.suspend_buffer:
            # Bounded memory beats unbounded history: the drop is
            # counted and surfaced, and recovery still converges — the
            # dropped events simply never happened, exactly as if the
            # producer had shed them.
            self.suspend_dropped += 1
        else:
            self._suspend_buffer.append((event_id, timestamp, stop_length))
            self._suspend_ids.add(event_id)
        return self._suspended_decision(event_id, stop_length)

    def _suspended_decision(self, event_id: str, stop_length: float):
        if not math.isfinite(stop_length) or stop_length < 0.0:
            return None  # value-invalid: the normal path would reject it too
        if self._suspend_rng is None:
            # A dedicated stream, seeded apart from the session RNG: the
            # session stream must replay bit-identically after healing,
            # so suspension-mode draws cannot come from it.
            self._suspend_rng = np.random.default_rng(
                vehicle_seed(self.config.seed, self.vehicle_id + "\x00durability")
            )
        threshold = self._fallback.draw_threshold(self._suspend_rng)
        decision = self._controller.apply(stop_length, threshold)
        return {
            "vehicle": self.vehicle_id,
            "id": event_id,
            "seq": None,  # not durable, not applied — no sequence number
            "threshold": decision.threshold,
            "idle_seconds": decision.idle_seconds,
            "restarted": decision.restarted,
            "cost": decision.total_cost(self.config.break_even),
            "health": HealthState.SAFE.value,
            "strategy": self._fallback.name,
            "durability": "suspended",
        }

    def _probe_maybe(self) -> None:
        """Probe the disk when the backoff schedule says so.

        The schedule is counted in *suspended events* (1, 2, 4, ...
        capped at 64 events between probes), not wall time — an idle
        session costs nothing, a busy one probes promptly, and tests
        are deterministic.
        """
        if self._suspend_seen < self._next_probe_at:
            return
        if not self._try_resume():
            self._probe_backoff = min(64, self._probe_backoff * 2)
            self._next_probe_at = self._suspend_seen + self._probe_backoff

    def probe_durability(self) -> bool:
        """Force one disk probe now; True when durability is (re)active.

        The operator/close-path hook: ignores the backoff schedule.
        """
        if not self.durability_suspended:
            return True
        return self._try_resume()

    def _try_resume(self) -> bool:
        """One probe; on success replay the buffered tail and resume.

        Replay routes every buffered event through the normal
        :meth:`submit` — full validation, WAL-before-apply, RNG draws,
        cost accounting — so the healed state converges to the
        never-faulted run's.  A disk that fails again mid-replay simply
        re-suspends: the failing event re-buffers itself, and the
        not-yet-replayed remainder is queued back behind it in order.
        """
        if self._wal is not None:
            try:
                self._wal.probe()
            except OSError as exc:
                self.suspend_reason = f"wal-probe: {exc!r}"
                return False
        self.durability_suspended = False
        # Compact BEFORE replaying: the failed append may have left a
        # durable prefix of frames this session never applied in memory,
        # and replaying the buffer would append the same events again —
        # a later crash-recovery would then apply them twice.  Snapshot
        # the actual in-memory state and reset the WAL first, so any
        # orphaned frames are discarded and replay starts from a log
        # that matches memory.
        self.compact()
        if self.durability_suspended:
            return False  # the snapshot publish found the disk sick again
        buffered = list(self._suspend_buffer)
        self._suspend_buffer.clear()
        self._suspend_ids.clear()
        for position, event in enumerate(buffered):
            self.submit(*event)
            if self.durability_suspended:
                for event_id, timestamp, stop_length in buffered[position + 1:]:
                    if len(self._suspend_buffer) >= self.config.suspend_buffer:
                        self.suspend_dropped += 1
                    else:
                        self._suspend_buffer.append(
                            (event_id, timestamp, stop_length)
                        )
                        self._suspend_ids.add(event_id)
                return False
        self.resumes += 1
        self.suspend_reason = None
        ledger = active_ledger()
        if ledger is not None and not self._replaying:
            ledger.emit(
                "advisor-durability",
                vehicle=self.vehicle_id,
                state="resumed",
                replayed=len(buffered),
                applied=self.applied,
            )
        return True

    def durability_status(self) -> dict:
        """The suspension overlay, as surfaced in health snapshots."""
        return {
            "suspended": self.durability_suspended,
            "reason": self.suspend_reason,
            "buffered": len(self._suspend_buffer),
            "dropped": self.suspend_dropped,
            "suspensions": self.suspensions,
            "resumes": self.resumes,
        }

    # -- batched ingestion (the columnar serving path) --------------------

    def submit_batch(self, event_ids, timestamps, stop_lengths) -> list:
        """Ingest a batch of stop events; one decision dict (or None)
        per event, bit-identical to calling :meth:`submit` per event.

        The batch is split into maximal **clean runs** — contiguous
        events that pass every stateful admission check (dedup, value
        guards, clock monotonicity) without side effects.  Each run is
        made durable with ONE WAL group-commit (`append_many`), staged
        with vectorized estimator/drift updates, and its thresholds are
        drawn with one ``rng.uniform(size=k)`` when possible.  Any event
        a check would touch (duplicate, bad value, stale clock) falls
        back to the scalar :meth:`submit` — enforcer flags, strict-mode
        raises, and streak bookkeeping all behave exactly as today.

        Compaction is amortized: the root's compaction point is checked
        once, after the batch.
        """
        ids = [str(event_id) for event_id in event_ids]
        ts = np.asarray(timestamps, dtype=float)
        ys = np.asarray(stop_lengths, dtype=float)
        if not len(ids) == ts.size == ys.size:
            raise InvalidParameterError(
                f"batch fields disagree on length: {len(ids)} ids, "
                f"{ts.size} timestamps, {ys.size} stop lengths"
            )
        results: list = [None] * len(ids)
        if not ids:
            return results
        self.dirty = True
        if self.durability_suspended:
            self._probe_maybe()
        # Timestamps must also be finite for the run path: the WAL's
        # canonical JSON rejects NaN/inf, and a non-finite clock must
        # fail on exactly the event that carries it, not abort the run.
        clean = np.isfinite(ys) & (ys >= 0.0) & np.isfinite(ts)
        index = 0
        n = len(ids)
        while index < n:
            if self.durability_suspended:
                # Once suspended (at entry or mid-batch), every later
                # event of the batch buffers behind the failing one —
                # replay order must match arrival order exactly.
                results[index] = self._submit_suspended(
                    ids[index], float(ts[index]), float(ys[index])
                )
                index += 1
                continue
            run = self._admit_run(ids, ts, clean, index)
            if run == 0:
                # Complication event: full scalar semantics.
                results[index] = self.submit(
                    ids[index], float(ts[index]), float(ys[index])
                )
                index += 1
                continue
            self._commit_run(ids, ts, ys, index, run, results)
            index += run
        if self._root is not None and self._root.compaction_due:
            self.compact()
        return results

    def _admit_run(self, ids: list, ts, clean, start: int) -> int:
        """Length of the longest clean run starting at ``start``.

        Pure read-only scan: an event joins the run only when dedup
        (against the durable window AND the run itself), value guards,
        and clock monotonicity would all wave it through.  The first
        event that would trip any check ends the run with length 0 at
        its own position, so the caller routes it through scalar
        :meth:`submit`.
        """
        last_timestamp = self.last_timestamp
        seen = self._recent_id_set
        local: set[str] = set()
        index = start
        n = len(ids)
        while index < n:
            if not clean[index]:
                break
            event_id = ids[index]
            if event_id in seen or event_id in local:
                break
            timestamp = ts[index]
            if last_timestamp is not None and timestamp < last_timestamp:
                break
            local.add(event_id)
            last_timestamp = timestamp
            index += 1
        return index - start

    def _commit_run(self, ids, ts, ys, start: int, k: int, results: list) -> None:
        """Make one clean run durable, stage it, draw, finish.

        WAL-first ordering is load-bearing: staging emits live ledger
        events (health transitions), and the WAL-before-apply invariant
        is what guarantees every emitted transition was caused by a
        durable event (a crash redelivers it and dedups).
        """
        seq = self.applied
        frames = [
            {
                "seq": seq + j + 1,
                "id": ids[start + j],
                "t": float(ts[start + j]),
                "v": self.vehicle_id,
                "y": float(ys[start + j]),
            }
            for j in range(k)
        ]
        if self._root is not None:
            try:
                self._root.append(frames)
            except OSError as exc:
                # None of the run is durable (append_many is all-or-
                # nothing from this process's view), so none of it may
                # apply: the whole run buffers for post-heal replay.
                self._suspend(exc, "wal-append")
                for j in range(k):
                    results[start + j] = self._submit_suspended(
                        ids[start + j], float(ts[start + j]), float(ys[start + j])
                    )
                return
        staged = self._stage_run(frames)
        self._finish_run(staged, results, start)

    def _stage_run(self, frames: list) -> list:
        """Stage a committed run; vectorized in HEALTHY, scalar otherwise.

        Outside HEALTHY the ladder can climb *up* mid-run (recovery
        transitions at exact clean-streak counts, estimator rebuilds),
        so events go through the per-event :meth:`_stage`; the batch
        still benefits from the group commit and batched draws.
        """
        if self.health is not HealthState.HEALTHY:
            return [self._stage(frame) for frame in frames]
        return self._stage_run_fast(frames)

    def _stage_run_fast(self, frames: list) -> list:
        """The columnar staging path for a clean run in HEALTHY.

        Decomposition (each leg bit-identical to the scalar loop):

        1. the estimator's accumulator recurrence is sequential Python
           arithmetic (hoisted locals, same renormalization schedule),
           recording the per-event trajectory;
        2. drift verdicts come from one ``DriftDetector.update_many``
           sweep — valid through the first alarm; on an alarm the
           transition resets the detectors, wiping any post-alarm
           pollution exactly as the scalar path's reset does;
        3. per-event vertex selections come from one vectorized
           ``select_vertices`` call over the trajectory (HEALTHY's only
           downward transition is the first alarm, so selections before
           it are a pure function of the accumulators);
        4. state is committed through the alarm event (or the whole
           run), the alarm — if any — is adjudicated exactly once, and
           any remainder is staged per event under the new health.
        """
        estimator = self.estimator
        config = self.config
        break_even = config.break_even
        k = len(frames)
        ys = [frame["y"] for frame in frames]
        ys_arr = np.asarray(ys)
        # 1. Accumulator trajectories (exact observe() recurrence).
        count0 = estimator._count
        weight = estimator._weight
        short_sum = estimator._short_sum
        long_weight = estimator._long_weight
        decay = estimator.decay
        weights = []
        short_sums = []
        long_weights = []
        count = count0
        for value in ys:
            count += 1
            weight = weight * decay + 1.0
            short_sum *= decay
            long_weight *= decay
            if value >= break_even:
                long_weight += 1.0
            else:
                short_sum += value
            if count % RENORM_INTERVAL == 0:
                if 0.0 < short_sum < RENORM_FLUSH:
                    short_sum = 0.0
                if 0.0 < long_weight < RENORM_FLUSH:
                    long_weight = 0.0
            weights.append(weight)
            short_sums.append(short_sum)
            long_weights.append(long_weight)
        # 2. Drift verdicts; only those up to the first alarm are used.
        alarms = self.drift.update_many(ys_arr, ys_arr >= break_even)
        alarm_indices = np.flatnonzero(alarms)
        cut = int(alarm_indices[0]) if alarm_indices.size else -1
        limit = k if cut < 0 else cut + 1
        # 3. Per-event decision specs and post-event strategy names.
        weight_arr = np.asarray(weights)
        mu = np.asarray(short_sums) / weight_arr
        q = np.minimum(1.0, np.asarray(long_weights) / weight_arr)
        codes, vertex_thresholds = select_vertices(mu, q, break_even)
        min_samples = estimator.min_samples
        entering_spec = self._decision_spec()
        entering_name = self.active_strategy_name
        specs = []
        names = []
        for j in range(limit):
            if j == 0 or count0 + j < min_samples:
                specs.append(entering_spec)
            elif codes[j - 1] == 3:
                specs.append(("nrand", break_even))
            else:
                specs.append(("fixed", float(vertex_thresholds[j - 1])))
            if count0 + j + 1 >= min_samples:
                names.append(VERTEX_NAMES[codes[j]])
            else:
                names.append(entering_name)
        # 4. Commit state through the alarm (or the whole run).
        self.applied = int(frames[limit - 1]["seq"])
        self.last_timestamp = frames[limit - 1]["t"]
        for j in range(limit):
            self._remember_id(frames[j]["id"])
        self._recent_stops.extend(ys[:limit])
        self.bad_streak = 0
        estimator._count = count0 + limit
        estimator._weight = weights[limit - 1]
        estimator._short_sum = short_sums[limit - 1]
        estimator._long_weight = long_weights[limit - 1]
        if cut < 0:
            self.clean_streak += limit
            if estimator._count >= min_samples:
                estimator._reselect()
        else:
            self.clean_streak += cut
            # The transition resets the detectors and rebuilds the
            # estimator from the recent-stop window — exactly what the
            # scalar path does after its alarm event.
            self._on_alarm("drift")
        staged = []
        for j in range(limit):
            if j == cut:
                health = self.health.value
                name = self.active_strategy_name
            else:
                health = HealthState.HEALTHY.value
                name = names[j]
            staged.append(
                {
                    "id": frames[j]["id"],
                    "seq": frames[j]["seq"],
                    "y": ys[j],
                    "spec": specs[j],
                    "health": health,
                    "strategy": name,
                }
            )
        # Remainder after an alarm: per-event under the new health.
        for j in range(limit, k):
            staged.append(self._stage(frames[j]))
        return staged

    def _finish_run(self, staged: list, results: list, start: int) -> None:
        """Draw thresholds for a staged run in event order, then finish.

        ``rng.uniform(size=k)`` consumes the PCG64 stream exactly like
        ``k`` scalar ``rng.uniform()`` calls (the same fact
        ``Strategy.draw_thresholds`` relies on), so batching the N-Rand
        draws preserves the RNG stream bit-for-bit.  Fixed-threshold
        specs consume nothing, and any generic spec falls back to
        sequential draws for the whole run.
        """
        kinds = [item["spec"][0] for item in staged]
        if "generic" in kinds:
            thresholds = [self._draw_one(item["spec"]) for item in staged]
        else:
            n_random = sum(1 for kind in kinds if kind == "nrand")
            uniforms = self.rng.uniform(size=n_random) if n_random else None
            thresholds = []
            draw = 0
            for item in staged:
                kind, payload = item["spec"]
                if kind == "fixed":
                    thresholds.append(payload)
                else:
                    thresholds.append(
                        payload * math.log1p(float(uniforms[draw]) * (E - 1.0))
                    )
                    draw += 1
        for j, (item, threshold) in enumerate(zip(staged, thresholds)):
            results[start + j] = self._finish(item, threshold)

    # -- the deterministic apply path (live and replay) -------------------
    #
    # ``_apply`` is split into three legs so the batched ingest path can
    # interleave them differently without changing a single float:
    #
    # * ``_stage``  — every state mutation that does NOT depend on the
    #   drawn threshold (learning, drift, health, histories).  Consumes
    #   no RNG, but *captures* the decision spec active at entry — the
    #   strategy the scalar path would have drawn from.
    # * ``_draw_one`` — consume the RNG for one staged event, exactly as
    #   the captured strategy's ``draw_threshold`` would.
    # * ``_finish`` — resolve the decision and account its cost.
    #
    # The scalar path runs stage->draw->finish per event; the batched
    # path stages a whole run, then draws for the run in event order
    # (one vectorized ``rng.uniform(size=k)`` when every randomized spec
    # is N-Rand — stream-identical to k scalar draws).  Legal because
    # no staged mutation reads the RNG and no draw reads staged state:
    # the decision spec is fixed before the event mutates anything.

    def _decision_spec(self, record: dict | None = None):
        """How the *next* threshold will be drawn, frozen before the
        event's mutations: ``("fixed", x)`` for deterministic-threshold
        strategies (no RNG), ``("nrand", B)`` for the exact N-Rand
        closed form (one uniform), ``("generic", strategy)`` otherwise.

        ``record`` is the durable event about to be applied; the base
        session ignores it (its strategies depend only on session
        state), but prediction-augmented subclasses read the event's
        timestamp to look up a contextual stop-length prediction.
        """
        strategy = self.active_strategy
        if isinstance(strategy, AdaptiveProposed):
            strategy = strategy._current
        if isinstance(strategy, DeterministicThresholdStrategy):
            return ("fixed", strategy.threshold)
        if type(strategy) is NRand:
            return ("nrand", strategy.break_even)
        return ("generic", strategy)

    def _draw_one(self, spec) -> float:
        kind, payload = spec
        if kind == "fixed":
            return payload
        if kind == "nrand":
            # Inlined NRand.inverse_cdf(rng.uniform()): math.log1p, not
            # np.log1p — they can differ by 1 ulp and the batched path
            # must reproduce the scalar stream bit-for-bit.
            u = self.rng.uniform()
            return payload * math.log1p(float(u) * (E - 1.0))
        return payload.draw_threshold(self.rng)

    def _stage(self, record: dict) -> dict:
        """Mutate all threshold-independent state for one durable event.

        Returns the staged event: identity, the frozen decision spec,
        and the post-event health/strategy labels the decision dict
        reports.
        """
        stop_length = float(record["y"])
        spec = self._decision_spec(record)
        self.applied = int(record["seq"])
        self.last_timestamp = float(record["t"])
        self._remember_id(str(record["id"]))
        self._recent_stops.append(stop_length)
        self.bad_streak = 0
        alarm = self.drift.update(stop_length, stop_length >= self.config.break_even)
        degenerate = False
        try:
            self.estimator.observe(stop_length)
        except DegenerateStatisticsError:
            degenerate = True
        if degenerate:
            self._on_alarm("degenerate-statistics")
        elif alarm:
            self._on_alarm("drift")
        else:
            self._on_clean()
        return {
            "id": str(record["id"]),
            "seq": self.applied,
            "y": stop_length,
            "spec": spec,
            "health": self.health.value,
            "strategy": self.active_strategy_name,
        }

    def _finish(self, staged: dict, threshold: float) -> dict:
        """Resolve one staged event against its drawn threshold."""
        decision = self._controller.apply(staged["y"], threshold)
        cost = decision.total_cost(self.config.break_even)
        self.total_cost += cost
        return {
            "vehicle": self.vehicle_id,
            "id": staged["id"],
            "seq": staged["seq"],
            "threshold": decision.threshold,
            "idle_seconds": decision.idle_seconds,
            "restarted": decision.restarted,
            "cost": cost,
            "health": staged["health"],
            "strategy": staged["strategy"],
        }

    def _apply(self, record: dict) -> dict:
        """Apply one durable event: decide, account, learn, adjudicate.

        This is the *only* code path that mutates session state from an
        event, used identically live and during WAL replay — which is
        what makes recovery bit-identical.  (The batched path is pinned
        to it by the equivalence harness; WAL replay itself always runs
        per event through here.)
        """
        staged = self._stage(record)
        return self._finish(staged, self._draw_one(staged["spec"]))

    def _remember_id(self, event_id: str) -> None:
        if len(self._recent_ids) == self._recent_ids.maxlen:
            self._recent_id_set.discard(self._recent_ids[0])
        self._recent_ids.append(event_id)
        self._recent_id_set.add(event_id)

    # -- the state machine ------------------------------------------------

    def _on_alarm(self, reason: str) -> None:
        self.clean_streak = 0
        if self.health is HealthState.HEALTHY:
            self._transition(HealthState.DEGRADED, reason)
        elif self.health is HealthState.DEGRADED:
            self._transition(HealthState.SAFE, reason)
        else:
            # Already SAFE: stay, but restart the detectors so the clean
            # streak required to climb back out starts from scratch.
            self.drift.reset()

    def _on_clean(self) -> None:
        self.clean_streak += 1
        if (
            self.health is HealthState.DEGRADED
            and self.clean_streak >= self.config.recover_after
        ):
            self._transition(HealthState.HEALTHY, "recovered")
        elif (
            self.health is HealthState.SAFE
            and self.clean_streak >= self.config.safe_recover_after
        ):
            self._transition(HealthState.DEGRADED, "probation")

    def _transition(self, to: HealthState, reason: str) -> None:
        record = {
            "from": self.health.value,
            "to": to.value,
            "reason": reason,
            "applied": self.applied,
        }
        self.health = to
        self.clean_streak = 0
        self.drift.reset()
        self.transitions.append(record)
        if to is HealthState.DEGRADED:
            self._rebuild_estimator(
                self.config.degraded_decay, self.config.degraded_window
            )
        elif to is HealthState.HEALTHY:
            self._rebuild_estimator(
                self.config.healthy_decay, self.config.recent_window
            )
        # WAL replay re-derives transitions that were already emitted
        # before the crash; re-announcing them would duplicate ledger
        # records across restarts.
        ledger = active_ledger()
        if ledger is not None and not self._replaying:
            ledger.emit("advisor-state", vehicle=self.vehicle_id, **record)

    def _rebuild_estimator(self, decay: float, window: int) -> None:
        """Re-learn from the recent-stop buffer under a new window.

        A pure function of (buffer, decay, window), so replaying the
        same events rebuilds the same estimator — transitions included.
        """
        self.estimator = AdaptiveProposed(
            self.config.break_even, self.config.min_samples, decay=decay
        )
        tail = list(self._recent_stops)[-window:]
        if tail:
            self.estimator.observe_many(np.asarray(tail))

    # -- advising ---------------------------------------------------------

    @property
    def active_strategy(self):
        """What the vehicle should play *now*: the adaptive selection
        while estimation is trusted, the guaranteed fallback in SAFE."""
        if self.health is HealthState.SAFE:
            return self._fallback
        return self.estimator

    @property
    def active_strategy_name(self) -> str:
        if self.health is HealthState.SAFE:
            return self._fallback.name
        return self.estimator.selected_name

    # -- durability -------------------------------------------------------

    def to_state(self) -> dict:
        """The full serializable session state (snapshot payload)."""
        return {
            "version": STATE_VERSION,
            "vehicle": self.vehicle_id,
            "applied": self.applied,
            "total_cost": self.total_cost,
            "health": self.health.value,
            "clean_streak": self.clean_streak,
            "bad_streak": self.bad_streak,
            "duplicates": self.duplicates,
            "rejected": self.rejected,
            "last_timestamp": self.last_timestamp,
            "transitions": list(self.transitions),
            "recent_stops": list(self._recent_stops),
            "recent_ids": list(self._recent_ids),
            "estimator": self.estimator.to_state(),
            "rng": self.rng.bit_generator.state,
            "drift": self.drift.to_state(),
        }

    def _load_state(self, state: dict) -> None:
        if int(state.get("version", -1)) != STATE_VERSION:
            raise InvalidParameterError(
                f"unsupported session state version {state.get('version')!r}"
            )
        if "augmented" in state:
            # Loading it plainly would drop the learners, and the next
            # compaction would make the loss durable.
            raise InvalidParameterError(
                f"vehicle {self.vehicle_id!r}: the compacted state carries "
                "learning-augmented state (predictor, trust) that a plain "
                "SessionConfig cannot keep; open it with the "
                "AugmentedSessionConfig it was served with (serve/promote "
                "--predictor, --trust, --cvar-alpha, --cvar-cap)"
            )
        self.applied = int(state["applied"])
        self.total_cost = float(state["total_cost"])
        self.health = HealthState(state["health"])
        self.clean_streak = int(state["clean_streak"])
        self.bad_streak = int(state["bad_streak"])
        self.duplicates = int(state["duplicates"])
        self.rejected = int(state["rejected"])
        timestamp = state["last_timestamp"]
        self.last_timestamp = None if timestamp is None else float(timestamp)
        self.transitions = deque(state["transitions"], maxlen=TRANSITION_HISTORY)
        self._recent_stops = deque(
            (float(y) for y in state["recent_stops"]),
            maxlen=self.config.recent_window,
        )
        self._recent_ids = deque(
            (str(i) for i in state["recent_ids"]), maxlen=self.config.dedup_window
        )
        self._recent_id_set = set(self._recent_ids)
        self.estimator = AdaptiveProposed.from_state(state["estimator"])
        self.rng = np.random.default_rng(0)
        self.rng.bit_generator.state = state["rng"]
        self.drift = DriftDetector.from_state(state["drift"])

    def compact(self) -> None:
        """Compact the session's root: publish the state of every session
        changed since the root's last compaction, then reset the shared
        WAL (:meth:`SessionRoot.compact`).

        A disk fault here suspends this session's durability instead of
        propagating: the applied state is safe in memory and the WAL
        (whatever the disk retained of it), and the resume path
        re-compacts once the disk heals.
        """
        if self._root is None or self.durability_suspended:
            return  # in memory, or the disk is sick: resume re-compacts
        try:
            self._root.compact()
        except OSError as exc:
            self._suspend(exc, "compact")

    # -- observability ----------------------------------------------------

    def state_digest(self) -> str:
        """SHA-256 over the parity-relevant state.

        Delivery counters (duplicates, rejections) are *excluded*: a
        crash-recovered run legitimately sees redeliveries that the
        uninterrupted reference run never did, while everything the
        advisor computes — estimator, RNG stream, health, costs — must
        match bit-for-bit.
        """
        state = self.to_state()
        for volatile in ("duplicates", "rejected"):
            state.pop(volatile)
        body = json.dumps(state, sort_keys=True, allow_nan=False, default=str)
        return hashlib.sha256(body.encode()).hexdigest()

    def health_snapshot(self) -> dict:
        """Operator-facing view of the session (the ``serve`` dump)."""
        statistics = self.estimator.current_statistics()
        return {
            "vehicle": self.vehicle_id,
            "health": self.health.value,
            "strategy": self.active_strategy_name,
            "applied": self.applied,
            "total_cost": self.total_cost,
            "observed_stops": self.estimator.observed_stops,
            "statistics": None if statistics is None else statistics.as_dict(),
            "safe_guarantee": self.config.safe_guarantee,
            "clean_streak": self.clean_streak,
            "transitions": list(self.transitions),
            "delivery": {
                "duplicates": self.duplicates,
                "rejected": self.rejected,
            },
            "durability": self.durability_status(),
            "digest": self.state_digest(),
        }


class SessionRoot:
    """The durable state of one service root, shared by its sessions.

    A service root — a one-shard tier's state dir, each ``shard-NN/``
    of a wider tier, or a standalone session's directory — keeps one
    :class:`~repro.service.wal.WriteAheadLog`, whose frames carry the
    vehicle id next to the session's own ``seq``, and one
    :class:`~repro.service.wal.SnapshotStore`.  The file set is the same
    whatever the number of vehicles.  The root compacts each time the
    events it has appended cross a multiple of ``snapshot_every`` times
    its vehicle count, so the log holds about ``snapshot_every`` frames
    per vehicle.
    """

    def __init__(
        self, directory: str | Path, config: SessionConfig, *, fsync=False, fs=None
    ) -> None:
        directory = Path(directory)
        for name in ("vehicles", "vehicles.idx"):
            if (directory / name).exists():
                raise InvalidParameterError(
                    f"{directory / name} belongs to the older per-vehicle state "
                    "layout, which this version does not read: serve that state "
                    "dir with the version that wrote it"
                )
        self.wal = WriteAheadLog(directory / WAL_NAME, fsync=fsync, fs=fs)
        self.snapshots = SnapshotStore(directory / SNAPSHOT_NAME, fsync=fsync, fs=fs)
        self.snapshot_every = config.snapshot_every
        #: vehicle id -> session: every vehicle the root holds.
        self.sessions: dict[str, AdvisorSession] = {}
        #: Events appended, counted from the sessions' ``applied`` at
        #: recovery, and the count at the last compaction: a one-vehicle
        #: root thus compacts at each multiple of ``snapshot_every`` its
        #: session's applied count crosses.
        self.appended = 0
        self._compacted_at = 0

    def recover(self, build) -> None:
        """Rebuild every session of the root from one read of its
        snapshot and one pass over its WAL.

        ``build(vehicle_id)`` makes a fresh session; a vehicle found only
        in the log replays from its initial state.  Frames at or below a
        session's compacted ``seq`` were folded into the snapshot by a
        compaction that died before its WAL reset, and are skipped.
        After a replay (or a torn tail) the root compacts at once: the
        snapshot then equals memory and the torn bytes can never merge
        with a later append.  If that compaction fails, nothing is lost
        — the WAL still holds every event — and the next one retries.
        """
        for vehicle_id, state in self.snapshots.load().items():
            session = self._session(vehicle_id, build)
            session._load_state(state)
            session.dirty = False
        replayed = 0
        for record in self.wal.replay():
            session = self._session(record["v"], build)
            if record["seq"] <= session.applied:
                continue
            session._replaying = True
            try:
                session._apply(record)
            finally:
                session._replaying = False
            session.dirty = True
            replayed += 1
        self.appended = self._compacted_at = sum(
            session.applied for session in self.sessions.values()
        )
        if replayed or self.wal.tail_torn:
            try:
                self.compact()
            except OSError:
                pass

    def _session(self, vehicle_id: str, build) -> AdvisorSession:
        session = self.sessions.get(vehicle_id)
        if session is None:
            session = self.sessions[vehicle_id] = build(vehicle_id)
        return session

    def append(self, records: list[dict]) -> None:
        """Group-commit one session's run of frames to the shared WAL."""
        self.wal.append_many(records)
        self.appended += len(records)

    @property
    def compaction_due(self) -> bool:
        every = self.snapshot_every * len(self.sessions)
        return self.appended // every > self._compacted_at // every

    def compact(self) -> None:
        """Publish the states of the sessions changed since the last
        compaction, then reset the WAL.

        The states are appended to the snapshot's delta log, or — once
        the delta would hold as many states as the root has sessions —
        published with every other session's as a new base, so the bytes
        a compaction writes follow the vehicles it changed.  Publishing
        before the reset makes a crash between the two harmless: replay
        skips the frames the published states cover.  A disk fault
        raises ``OSError`` and leaves every changed session dirty.
        """
        changed = [session for session in self.sessions.values() if session.dirty]
        if changed:
            snapshots = self.snapshots
            if snapshots.delta_states + len(changed) >= len(self.sessions):
                snapshots.save(
                    {vehicle: s.to_state() for vehicle, s in self.sessions.items()}
                )
            else:
                snapshots.save_delta({s.vehicle_id: s.to_state() for s in changed})
        self.wal.reset()
        self._compacted_at = self.appended
        for session in changed:
            session.dirty = False
