"""Learning-augmented session pins: recovery, SAFE parity, robustness.

Four guarantees from the serving contract:

* **crash recovery** — for ANY split point of the stream, abandoning an
  augmented session mid-run and recovering from its state directory
  restores the predictor tables and the trust accumulators (and hence
  every future λ) bit-identically — the state digest covers them;
* **SAFE parity** — a SAFE augmented session is byte-identical to the
  plain session: same decisions, same RNG stream, same cost;
* **batch == scalar** — ``submit_batch`` through the augmented staging
  path reproduces the scalar loop bit-for-bit;
* **robustness** — with adversarially corrupted predictions the
  realized cost never exceeds the PSK ``1 + 1/λ`` bound, while good
  time-of-day predictions beat the plain adaptive session.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.service import (
    AdvisorSession,
    AugmentedAdvisorSession,
    AugmentedSessionConfig,
    ConstantPredictor,
    ContextualPredictor,
    HealthState,
    SessionConfig,
    TrustLearner,
    build_predictor,
)

B = 28.0
N_EVENTS = 40

#: Base knobs shared by the plain and augmented configs; snapshot_every=3
#: lands most recovery splits near a compaction boundary.
BASE = dict(
    break_even=B,
    min_samples=3,
    snapshot_every=3,
    dedup_window=64,
    drift_min_count=5,
    seed=99,
)

#: Contextual predictor warm after 4 stops, CVaR-capped warm-up.
AUG_CONFIG = AugmentedSessionConfig(
    **BASE,
    predictor="contextual",
    predictor_min_samples=4,
    trust_floor=0.2,
    cvar_alpha=0.1,
    cvar_cap=2.0,
)


def _events() -> list[tuple[str, float, float]]:
    # 3700 s steps walk the hour-of-day buckets while staying monotone.
    rng = np.random.default_rng(2014)
    lengths = rng.lognormal(3.0, 1.2, N_EVENTS)
    return [
        (f"e-{index:04d}", float(index) * 3700.0, float(length))
        for index, length in enumerate(lengths)
    ]


EVENTS = _events()


def _reference() -> AugmentedAdvisorSession:
    session = AugmentedAdvisorSession("v1", AUG_CONFIG)  # in-memory
    for event_id, timestamp, stop_length in EVENTS:
        session.submit(event_id, timestamp, stop_length)
    return session


REFERENCE = _reference()
REFERENCE_DIGEST = REFERENCE.state_digest()


class TestRecovery:
    @settings(max_examples=25, deadline=None)
    @given(split=st.integers(min_value=0, max_value=N_EVENTS))
    def test_any_split_restores_predictor_and_trust_bit_identically(self, split):
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "v1"
            first = AugmentedAdvisorSession("v1", AUG_CONFIG, state_dir)
            for event_id, timestamp, stop_length in EVENTS[:split]:
                first.submit(event_id, timestamp, stop_length)
            del first  # crash: no close, no final compaction
            recovered = AugmentedAdvisorSession("v1", AUG_CONFIG, state_dir)
            for event_id, timestamp, stop_length in EVENTS:
                recovered.submit(event_id, timestamp, stop_length)
            assert recovered.applied == N_EVENTS
            assert recovered.duplicates == split
            # The digest covers the augmented state, but assert the
            # learner internals explicitly too — the λ every future
            # decision plays depends on exactly these floats.
            assert recovered.predictor.to_state() == REFERENCE.predictor.to_state()
            assert (
                recovered.trust_learner.to_state()
                == REFERENCE.trust_learner.to_state()
            )
            assert recovered.effective_trust() == REFERENCE.effective_trust()
            assert recovered.state_digest() == REFERENCE_DIGEST

    def test_plain_snapshot_starts_augmented_learners_cold(self):
        # Upgrading a fleet in place: an augmented session reopening a
        # plain session's state directory must not crash — the learners
        # just start cold.
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "v1"
            plain = AdvisorSession("v1", SessionConfig(**BASE), state_dir)
            for event_id, timestamp, stop_length in EVENTS[:9]:
                plain.submit(event_id, timestamp, stop_length)
            plain.compact()
            del plain
            recovered = AugmentedAdvisorSession("v1", AUG_CONFIG, state_dir)
            assert recovered.applied == 9
            assert recovered.trust_learner.to_state() == TrustLearner().to_state()

    def test_plain_config_refuses_augmented_state_naming_the_vehicle(self):
        # The reverse direction would drop the learners: a restart or a
        # promotion that forgot the augmented flags must fail instead.
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "root"
            augmented = AugmentedAdvisorSession("veh-7", AUG_CONFIG, state_dir)
            for event_id, timestamp, stop_length in EVENTS[:9]:
                augmented.submit(event_id, timestamp, stop_length)
            augmented.compact()
            del augmented
            with pytest.raises(InvalidParameterError, match="'veh-7'"):
                AdvisorSession("veh-7", SessionConfig(**BASE), state_dir)


class TestSafeParity:
    def test_safe_is_byte_identical_to_the_plain_session(self):
        plain_config = SessionConfig(**BASE, safe_recover_after=10_000_000)
        aug_config = AugmentedSessionConfig(
            **BASE,
            safe_recover_after=10_000_000,
            predictor="constant:50",
            cvar_alpha=0.25,
        )
        plain = AdvisorSession("v1", plain_config)
        augmented = AugmentedAdvisorSession("v1", aug_config)
        for session in (plain, augmented):
            session._on_alarm("forced")  # healthy -> degraded
            session._on_alarm("forced")  # degraded -> safe
            assert session.health is HealthState.SAFE
        for event_id, timestamp, stop_length in EVENTS:
            left = plain.submit(event_id, timestamp, stop_length)
            right = augmented.submit(event_id, timestamp, stop_length)
            assert left == right  # threshold, cost, labels — everything
        assert augmented.health is HealthState.SAFE
        assert plain.total_cost == augmented.total_cost
        assert plain.to_state()["rng"] == augmented.to_state()["rng"]


class TestBatchParity:
    def test_submit_batch_matches_scalar_bit_for_bit(self):
        scalar = AugmentedAdvisorSession("v1", AUG_CONFIG)
        scalar_decisions = [
            scalar.submit(event_id, timestamp, stop_length)
            for event_id, timestamp, stop_length in EVENTS
        ]
        batched = AugmentedAdvisorSession("v1", AUG_CONFIG)
        batched_decisions = []
        for start in range(0, N_EVENTS, 7):
            chunk = EVENTS[start : start + 7]
            batched_decisions.extend(
                batched.submit_batch(
                    [event_id for event_id, _, _ in chunk],
                    [timestamp for _, timestamp, _ in chunk],
                    [stop_length for _, _, stop_length in chunk],
                )
            )
        assert batched_decisions == scalar_decisions
        assert batched.state_digest() == scalar.state_digest()


class TestRobustness:
    def test_corrupted_predictions_respect_the_psk_bound(self):
        # Adversarial predictor: always claims a long stop while the
        # stream is mostly short ones.  With pinned trust λ the realized
        # cost may not exceed (1 + 1/λ) x offline optimum.
        trust = 0.4
        config = AugmentedSessionConfig(
            **BASE,
            predictor="constant:1000",
            trust=trust,
        )
        assert config.robustness_guarantee == pytest.approx(1.0 + 1.0 / trust)
        session = AugmentedAdvisorSession("v1", config)
        rng = np.random.default_rng(42)
        offline = 0.0
        for index in range(400):
            stop = float(rng.lognormal(2.5, 0.5))
            session.submit(f"c-{index:04d}", float(index), stop)
            offline += min(stop, B)
        # Stationary stream: the ladder stays out of SAFE, so the PSK
        # bound (not the safe fallback) is what's being exercised.
        assert session.health is not HealthState.SAFE
        assert session.total_cost <= config.robustness_guarantee * offline + 1e-9

    def test_good_time_of_day_predictions_beat_plain_adaptive(self):
        # Bimodal day: short stops by day, long stops by night.  The
        # contextual predictor separates the regimes by hour bucket;
        # the plain adaptive estimator must fit one mixed distribution.
        knobs = dict(BASE, length_threshold=1e9, split_threshold=1e9)
        plain = AdvisorSession("v1", SessionConfig(**knobs))
        augmented = AugmentedAdvisorSession(
            "v1",
            AugmentedSessionConfig(
                **knobs, predictor="contextual", predictor_min_samples=4
            ),
        )
        rng = np.random.default_rng(7)
        step = 1800.0  # two stops per hour
        for index in range(960):  # 20 simulated days
            timestamp = index * step
            hour = int((timestamp % 86400.0) // 3600.0)
            mean = 5.0 if hour < 12 else 200.0
            stop = float(mean * rng.lognormal(0.0, 0.1))
            for session in (plain, augmented):
                session.submit(f"d-{index:04d}", timestamp, stop)
        assert augmented.total_cost < plain.total_cost

    def test_trust_learner_tracks_the_wrong_side_rate(self):
        learner = TrustLearner(decay=1.0, floor=0.1)
        assert learner.trust == 1.0  # uninformed: fully robust (DET)
        for _ in range(9):
            learner.update(100.0, 100.0, B)  # right side
        learner.update(100.0, 1.0, B)  # wrong side
        assert learner.wrong_rate == pytest.approx(0.1)
        assert learner.trust == pytest.approx((0.1 / 0.9) ** 0.5)
        # Worse than a coin: back to DET.
        for _ in range(20):
            learner.update(100.0, 1.0, B)
        assert learner.trust == 1.0


class TestPredictors:
    def test_contextual_cold_then_bucket_then_global(self):
        predictor = ContextualPredictor(min_samples=2)
        assert predictor.predict(0.0) is None
        predictor.observe(0.0, 10.0)  # hour 0
        predictor.observe(3600.0, 20.0)  # hour 1
        # Global mean is warm (2 samples), buckets are not.
        assert predictor.predict(7200.0) == pytest.approx(15.0)
        predictor.observe(86400.0, 30.0)  # hour 0, next day
        assert predictor.predict(86400.0) == pytest.approx(20.0)  # bucket mean

    def test_build_predictor_specs(self):
        assert build_predictor("none") is None
        inline = build_predictor("contextual:7:0.9")
        assert (inline.min_samples, inline.decay) == (7, 0.9)
        defaults = build_predictor("contextual", min_samples=3, decay=0.8)
        assert (defaults.min_samples, defaults.decay) == (3, 0.8)
        constant = build_predictor("constant:42.5")
        assert isinstance(constant, ConstantPredictor)
        assert constant.predict(0.0) == 42.5
        for bad in ("bogus", "constant:x", "contextual:1", "constant:-1"):
            with pytest.raises(InvalidParameterError):
                build_predictor(bad)

    def test_mismatched_predictor_kind_in_snapshot_raises(self):
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "v1"
            first = AugmentedAdvisorSession("v1", AUG_CONFIG, state_dir)
            for event_id, timestamp, stop_length in EVENTS[:6]:
                first.submit(event_id, timestamp, stop_length)
            first.compact()
            del first
            constant = AugmentedSessionConfig(**BASE, predictor="constant:50")
            with pytest.raises(InvalidParameterError):
                AugmentedAdvisorSession("v1", constant, state_dir)
