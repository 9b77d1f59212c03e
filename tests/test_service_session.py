"""Behavioral tests for the advisor session and the multi-vehicle service.

Covers defensive ingestion (idempotency, clock monotonicity, value
guards, malformed records) and the acceptance degradation
pin: injected drift walks the health ladder HEALTHY -> DEGRADED ->
SAFE, every transition lands in the run ledger, and once SAFE the
realized competitive ratio respects the fallback's guarantee —
``e/(e-1)`` for N-Rand, 2 for DET.
"""


import numpy as np
import pytest

from repro.constants import E
from repro.engine import RunLedger, use_ledger
from repro.errors import DataValidationError
from repro.service import AdvisorService, AdvisorSession, HealthState, SessionConfig
from repro.validation import ValidationReport

B = 28.0


def _config(**overrides) -> SessionConfig:
    return SessionConfig(break_even=B, **overrides)


class TestIdempotency:
    def test_duplicate_event_id_is_a_counted_noop(self):
        session = AdvisorSession("v1", _config())
        first = session.submit("e-1", 0.0, 40.0)
        again = session.submit("e-1", 1.0, 40.0)
        assert first is not None
        assert again is None
        assert session.duplicates == 1
        assert session.applied == 1

    def test_dedup_window_eventually_forgets(self):
        session = AdvisorSession("v1", _config(dedup_window=2))
        session.submit("e-1", 0.0, 10.0)
        session.submit("e-2", 1.0, 10.0)
        session.submit("e-3", 2.0, 10.0)  # evicts e-1 from the window
        assert session.submit("e-1", 3.0, 10.0) is not None
        assert session.duplicates == 0


class TestClockMonotonicity:
    def test_stale_timestamp_rejected_under_repair(self):
        session = AdvisorSession("v1", _config(), policy="repair")
        session.submit("e-1", 10.0, 40.0)
        assert session.submit("e-2", 5.0, 40.0) is None
        assert session.rejected == 1
        assert session.applied == 1

    def test_stale_timestamp_raises_under_strict(self):
        session = AdvisorSession("v1", _config(), policy="strict")
        session.submit("e-1", 10.0, 40.0)
        with pytest.raises(DataValidationError):
            session.submit("e-2", 5.0, 40.0)

    def test_equal_timestamp_is_allowed(self):
        # Two stops in the same second are legitimate telemetry.
        session = AdvisorSession("v1", _config())
        session.submit("e-1", 10.0, 40.0)
        assert session.submit("e-2", 10.0, 40.0) is not None


class TestValueGuards:
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_stop_length_never_reaches_the_estimator(self, bad):
        session = AdvisorSession("v1", _config(), policy="repair")
        assert session.submit("e-1", 0.0, bad) is None
        assert session.rejected == 1
        assert session.estimator.observed_stops == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("durable", [False, True])
    @pytest.mark.parametrize("batched", [False, True])
    def test_non_finite_timestamp_is_rejected(self, tmp_path, bad, durable, batched):
        report = ValidationReport("repair")
        state_dir = tmp_path / "v1" if durable else None
        session = AdvisorSession("v1", _config(), state_dir, report=report)
        if batched:
            decisions = session.submit_batch(["e-1", "e-2"], [bad, 10.0], [40.0, 40.0])
        else:
            decisions = [session.submit("e-1", bad, 40.0), session.submit("e-2", 10.0, 40.0)]
        assert decisions[0] is None and decisions[1] is not None
        assert session.rejected == 1
        assert session.applied == 1
        assert report.counts_by_check() == {"non-finite-start-time": 1}
        session.state_digest()  # the clock stayed finite
        assert session.submit("e-3", 5.0, 40.0) is None  # stale-clock guard still fires
        assert session.rejected == 2

    def test_bad_event_streak_degrades_health(self):
        session = AdvisorSession("v1", _config(bad_event_streak=3), policy="repair")
        for index in range(3):
            session.submit(f"bad-{index}", float(index), -1.0)
        assert session.health is HealthState.DEGRADED
        assert session.transitions[-1]["reason"] == "validation-streak:negative-duration"

    def test_valid_event_resets_the_bad_streak(self):
        session = AdvisorSession("v1", _config(bad_event_streak=3), policy="repair")
        for index in range(2):
            session.submit(f"bad-{index}", float(index), -1.0)
        session.submit("good", 2.0, 40.0)
        session.submit("bad-2", 3.0, -1.0)
        assert session.health is HealthState.HEALTHY


class TestBackpressure:
    def test_malformed_records_do_not_create_sessions(self, tmp_path):
        service = AdvisorService(tmp_path / "state", _config(), policy="repair")
        service.process({"vehicle": "ghost", "id": "e-1"})  # no t / stop
        assert "ghost" not in service.sessions
        assert service.malformed == 1

    def test_undecodable_line_is_quarantined(self, tmp_path):
        report = ValidationReport("quarantine")
        service = AdvisorService(
            tmp_path / "state", _config(), policy="quarantine", report=report
        )
        assert service.ingest_line("{not json") is None
        assert service.malformed == 1
        service.close()
        quarantined = list((tmp_path / "state").glob("*.quarantine.csv"))
        assert len(quarantined) == 1
        assert "{not json" in quarantined[0].read_text()


def _oscillate_until_safe(session: AdvisorSession, rng) -> float:
    """Feed alternating traffic regimes until the session reaches SAFE.

    Returns the next free timestamp.  Blocks of 40 stops alternate
    between a short-stop regime (mean 10 s) and a long-stop regime
    (mean 200 s) — persistent, repeated drift, which is what the ladder
    needs: a single stable shift re-calibrates after one alarm and goes
    quiet.
    """
    t = 0.0
    for index in range(4000):
        if session.health is HealthState.SAFE:
            return t
        mean = 10.0 if (index // 40) % 2 == 0 else 200.0
        session.submit(f"osc-{index:05d}", t, abs(float(rng.normal(mean, 1.0))))
        t += 1.0
    raise AssertionError("drift injection never reached SAFE")


class TestDegradationLadder:
    def test_drift_walks_healthy_degraded_safe_and_ledger_records_it(self, rng):
        config = _config(
            drift_min_count=10,
            min_samples=5,
            recover_after=10_000,
            safe_recover_after=10_000_000,
        )
        session = AdvisorSession("v1", config)
        ledger = RunLedger()
        with use_ledger(ledger):
            _oscillate_until_safe(session, rng)
        ladder = [(t["from"], t["to"]) for t in session.transitions]
        assert ladder == [("healthy", "degraded"), ("degraded", "safe")]
        emitted = [e for e in ledger.events if e["event"] == "advisor-state"]
        assert [(e["from"], e["to"]) for e in emitted] == ladder
        assert all(e["vehicle"] == "v1" for e in emitted)

    @pytest.mark.parametrize(
        "safe_strategy,bound,tol",
        [("nrand", E / (E - 1.0), 0.05), ("det", 2.0, 1e-9)],
    )
    def test_realized_cr_in_safe_respects_the_guarantee(
        self, rng, safe_strategy, bound, tol
    ):
        config = _config(
            safe_strategy=safe_strategy,
            drift_min_count=10,
            min_samples=5,
            recover_after=10_000,
            safe_recover_after=10_000_000,
        )
        session = AdvisorSession("v1", config)
        t = _oscillate_until_safe(session, rng)
        assert session.health is HealthState.SAFE
        # Adversarial segment: every stop just over B, the worst case
        # for threshold strategies (OPT shuts off immediately, cost B).
        cost_before = session.total_cost
        offline = 0.0
        stops = 3000
        for index in range(stops):
            stop = B + 1.0
            session.submit(f"adv-{index:05d}", t, stop)
            t += 1.0
            offline += min(stop, B)
        assert session.health is HealthState.SAFE  # hysteresis held
        realized_cr = (session.total_cost - cost_before) / offline
        assert realized_cr <= bound + tol

    def test_safe_plays_the_configured_fallback(self, rng):
        for safe_strategy, name in (("nrand", "N-Rand"), ("det", "DET")):
            config = _config(
                safe_strategy=safe_strategy,
                drift_min_count=10,
                min_samples=5,
                recover_after=10_000,
                safe_recover_after=10_000_000,
            )
            session = AdvisorSession("v1", config)
            _oscillate_until_safe(session, np.random.default_rng(7))
            assert session.active_strategy_name == name

    def test_degraded_recovers_to_healthy_after_clean_streak(self, rng):
        config = _config(drift_min_count=10, min_samples=5, recover_after=30)
        session = AdvisorSession("v1", config)
        t = 0.0
        index = 0
        # One regime shift: short stops, then long stops -> DEGRADED.
        while session.health is HealthState.HEALTHY and index < 500:
            mean = 10.0 if index < 40 else 200.0
            session.submit(f"s-{index:04d}", t, abs(float(rng.normal(mean, 1.0))))
            t += 1.0
            index += 1
        assert session.health is HealthState.DEGRADED
        # The new regime is stable: a clean streak climbs back out.
        for _ in range(200):
            if session.health is HealthState.HEALTHY:
                break
            session.submit(f"r-{index:04d}", t, abs(float(rng.normal(200.0, 1.0))))
            t += 1.0
            index += 1
        assert session.health is HealthState.HEALTHY
        assert session.transitions[-1]["reason"] == "recovered"
