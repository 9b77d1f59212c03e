"""Learning-augmented advisor sessions: predictions, trust, tail risk.

:class:`AugmentedAdvisorSession` promotes the offline
prediction-augmented analysis (:mod:`repro.core.prediction`) and the
CVaR-constrained strategy (:mod:`repro.core.tailrisk`) into the live
serving path.  Three pieces compose:

* a pluggable **stop-length predictor** — :class:`ContextualPredictor`
  learns per-hour-of-day decayed running means from the event stream
  itself (the time-of-day feature every stop event already carries);
  :class:`ConstantPredictor` serves tests and adversarial benchmarks;
* a **trust learner** — the PSK interpolation weight ``λ ∈ (0, 1]`` is
  fitted online from the predictor's decayed *wrong-side* rate ``p``
  (prediction and outcome on opposite sides of the break-even):
  minimizing the PSK bound mixture ``(1-p)(1+λ) + p(1+1/λ)`` gives
  ``λ* = sqrt(p/(1-p))``, clipped to ``[trust_floor, 1]`` so the
  unconditional robustness guarantee ``1 + 1/λ`` never degenerates;
* the **degradation ladder** of the base session arbitrates: HEALTHY
  plays PSK at the learned ``λ``, DEGRADED shrinks ``λ`` toward the
  robust end (``λ ← 1 - (1-λ)·degraded_trust``), and SAFE ignores the
  predictor entirely — bit-identical to the plain session's
  distribution-free ``e/(e-1)`` (or DET 2) fallback.

When no prediction is available (cold predictor) the session falls back
to the configured CVaR-α tail-risk strategy
(:class:`~repro.core.tailrisk.TailRiskRand`) if one is set, else to the
plain adaptive estimator — so the tail-cost cap also governs the
warm-up period.

Everything the augmented layer learns — predictor tables, trust
accumulators — rides in the session snapshot/WAL state and restores
bit-identically after a crash, exactly like the estimator and the RNG
stream (the recovery pins in ``tests/test_augmented.py`` enforce it).
The batched ingest path stages augmented runs per event (predictions
are per-event functions of the timestamp, so the HEALTHY columnar
staging does not apply) while keeping the group WAL commit and batched
threshold draws, and stays bit-identical to the scalar loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.prediction import psk_threshold
from ..core.tailrisk import TailRiskRand, max_nrand_weight
from ..errors import InvalidParameterError
from .session import AdvisorSession, HealthState, SessionConfig

__all__ = [
    "ContextualPredictor",
    "ConstantPredictor",
    "TrustLearner",
    "AugmentedSessionConfig",
    "AugmentedAdvisorSession",
    "build_predictor",
]

#: Hour-of-day buckets of the contextual predictor.
_HOURS = 24


class ContextualPredictor:
    """Per-hour-of-day decayed running mean of observed stop lengths.

    ``predict(t)`` answers from the event's hour bucket once that
    bucket has seen ``min_samples`` stops, falls back to the global
    running mean once *it* has ``min_samples``, and returns ``None``
    while cold — the session then plays its robust strategy instead of
    trusting a prediction that does not exist yet.

    The state is a pure fold over ``observe(t, y)`` calls in stream
    order (ints and IEEE floats, no clocks), so WAL replay rebuilds it
    bit-identically.
    """

    kind = "contextual"

    def __init__(self, min_samples: int = 5, decay: float = 1.0) -> None:
        if min_samples < 1:
            raise InvalidParameterError(
                f"predictor min_samples must be >= 1, got {min_samples}"
            )
        if not 0.0 < decay <= 1.0:
            raise InvalidParameterError(
                f"predictor decay must lie in (0, 1], got {decay!r}"
            )
        self.min_samples = int(min_samples)
        self.decay = float(decay)
        self._counts = [0] * _HOURS
        self._weights = [0.0] * _HOURS
        self._sums = [0.0] * _HOURS
        self._global_count = 0
        self._global_weight = 0.0
        self._global_sum = 0.0

    @staticmethod
    def bucket(timestamp: float) -> int:
        """Hour-of-day of an epoch timestamp (matches
        :func:`repro.core.contextual.hour_of_day_context`)."""
        return int((float(timestamp) % 86400.0) // 3600.0) % _HOURS

    def observe(self, timestamp: float, stop_length: float) -> None:
        b = self.bucket(timestamp)
        y = float(stop_length)
        decay = self.decay
        self._counts[b] += 1
        self._weights[b] = self._weights[b] * decay + 1.0
        self._sums[b] = self._sums[b] * decay + y
        self._global_count += 1
        self._global_weight = self._global_weight * decay + 1.0
        self._global_sum = self._global_sum * decay + y

    def predict(self, timestamp: float) -> float | None:
        b = self.bucket(timestamp)
        if self._counts[b] >= self.min_samples:
            return self._sums[b] / self._weights[b]
        if self._global_count >= self.min_samples:
            return self._global_sum / self._global_weight
        return None

    def to_state(self) -> dict:
        return {
            "kind": self.kind,
            "counts": list(self._counts),
            "weights": list(self._weights),
            "sums": list(self._sums),
            "global": [self._global_count, self._global_weight, self._global_sum],
        }

    def load_state(self, state: dict) -> None:
        self._counts = [int(c) for c in state["counts"]]
        self._weights = [float(w) for w in state["weights"]]
        self._sums = [float(s) for s in state["sums"]]
        count, weight, total = state["global"]
        self._global_count = int(count)
        self._global_weight = float(weight)
        self._global_sum = float(total)


class ConstantPredictor:
    """Always predicts the same stop length; learns nothing.

    The degenerate predictor the adversarial benchmarks and robustness
    tests use: pin it to the wrong side of the break-even and the
    session must still honor the ``1 + 1/λ`` PSK robustness bound.
    """

    kind = "constant"

    def __init__(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise InvalidParameterError(
                f"constant prediction must be a finite length >= 0, got {value!r}"
            )
        self.value = value

    def observe(self, timestamp: float, stop_length: float) -> None:
        pass

    def predict(self, timestamp: float) -> float | None:
        return self.value

    def to_state(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def load_state(self, state: dict) -> None:
        self.value = float(state["value"])


def build_predictor(spec: str, *, min_samples: int = 5, decay: float = 1.0):
    """Predictor factory from a config/CLI spec string.

    ``"none"`` → no predictor; ``"contextual"`` →
    :class:`ContextualPredictor` with the keyword defaults (the config's
    ``predictor_min_samples``/``predictor_decay``), or
    ``"contextual:MIN:DECAY"`` to inline them; ``"constant:VALUE"`` →
    :class:`ConstantPredictor`.
    """
    spec = str(spec).strip()
    if spec == "none":
        return None
    if spec == "contextual":
        return ContextualPredictor(min_samples, decay)
    if spec.startswith("contextual:"):
        parts = spec.split(":")[1:]
        if len(parts) != 2:
            raise InvalidParameterError(
                f"contextual predictor spec must be contextual:MIN:DECAY, got {spec!r}"
            )
        return ContextualPredictor(int(parts[0]), float(parts[1]))
    if spec.startswith("constant:"):
        try:
            value = float(spec.split(":", 1)[1])
        except ValueError:
            raise InvalidParameterError(f"bad constant predictor spec {spec!r}")
        return ConstantPredictor(value)
    raise InvalidParameterError(
        f"unknown predictor {spec!r}: expected none, contextual, "
        "contextual:MIN:DECAY or constant:VALUE"
    )


class TrustLearner:
    """Online PSK trust weight from the decayed wrong-side rate.

    A prediction is *wrong-sided* when it and the realized stop land on
    opposite sides of the break-even — the only error PSK's threshold
    choice actually cares about.  With wrong-side rate ``p``, the
    expected PSK bound ``(1-p)(1+λ) + p(1+1/λ)`` is minimized at
    ``λ* = sqrt(p/(1-p))``; clipping to ``[floor, 1]`` keeps the
    per-stop robustness guarantee at ``1 + 1/floor`` no matter how the
    rate estimate wanders.  Before the first update the learner is
    fully robust (``λ = 1``, i.e. DET).
    """

    def __init__(self, decay: float = 0.95, floor: float = 0.1) -> None:
        if not 0.0 < decay <= 1.0:
            raise InvalidParameterError(f"trust decay must lie in (0, 1], got {decay!r}")
        if not 0.0 < floor <= 1.0:
            raise InvalidParameterError(f"trust floor must lie in (0, 1], got {floor!r}")
        self.decay = float(decay)
        self.floor = float(floor)
        self._count = 0
        self._weight = 0.0
        self._wrong = 0.0

    def update(self, prediction: float, stop_length: float, break_even: float) -> None:
        wrong = (float(prediction) >= break_even) != (float(stop_length) >= break_even)
        self._count += 1
        self._weight = self._weight * self.decay + 1.0
        self._wrong = self._wrong * self.decay + (1.0 if wrong else 0.0)

    @property
    def wrong_rate(self) -> float:
        if self._count == 0:
            return 0.5  # uninformed prior: fully robust
        return min(1.0, max(0.0, self._wrong / self._weight))

    @property
    def trust(self) -> float:
        p = self.wrong_rate
        if p >= 0.5:
            return 1.0  # worse than a coin: play DET
        lam = math.sqrt(p / (1.0 - p))
        return min(1.0, max(self.floor, lam))

    def to_state(self) -> dict:
        return {"count": self._count, "weight": self._weight, "wrong": self._wrong}

    def load_state(self, state: dict) -> None:
        self._count = int(state["count"])
        self._weight = float(state["weight"])
        self._wrong = float(state["wrong"])


@dataclass(frozen=True)
class AugmentedSessionConfig(SessionConfig):
    """Session config with the learning-augmented knobs.

    ``trust=None`` learns λ online (:class:`TrustLearner`); a float in
    ``(0, 1]`` pins it.  ``cvar_alpha`` enables the CVaR-α-capped
    robust strategy for stops with no usable prediction; ``cvar_cap``
    is its tail-cost multiple τ.  Everything else inherits
    :class:`SessionConfig` — in particular the SAFE fallback, which the
    augmented session leaves byte-identical to the plain one.
    """

    predictor: str = "contextual"
    trust: float | None = None
    trust_floor: float = 0.1
    trust_decay: float = 0.95
    degraded_trust: float = 0.5
    predictor_min_samples: int = 5
    predictor_decay: float = 1.0
    cvar_alpha: float | None = None
    cvar_cap: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        # Raises on a bad spec or bad predictor knobs.
        build_predictor(
            self.predictor,
            min_samples=self.predictor_min_samples,
            decay=self.predictor_decay,
        )
        if self.trust is not None and not 0.0 < self.trust <= 1.0:
            raise InvalidParameterError(
                f"trust must lie in (0, 1] (or None to learn), got {self.trust!r}"
            )
        if not 0.0 < self.trust_floor <= 1.0:
            raise InvalidParameterError(
                f"trust_floor must lie in (0, 1], got {self.trust_floor!r}"
            )
        if not 0.0 <= self.degraded_trust <= 1.0:
            raise InvalidParameterError(
                f"degraded_trust must lie in [0, 1], got {self.degraded_trust!r}"
            )
        if not 0.0 < self.trust_decay <= 1.0:
            raise InvalidParameterError(
                f"trust_decay must lie in (0, 1], got {self.trust_decay!r}"
            )
        if self.cvar_alpha is not None:
            # Raises when (alpha, cap) is infeasible for the mixture.
            max_nrand_weight(self.cvar_alpha, self.cvar_cap)

    @property
    def robustness_guarantee(self) -> float:
        """Per-stop bound against arbitrary predictions: ``1 + 1/λ_min``
        with ``λ_min`` the pinned trust or the learner's floor."""
        lam = self.trust if self.trust is not None else self.trust_floor
        return 1.0 + 1.0 / lam

    def build_session(self, vehicle_id: str, state_dir=None, **kwargs):
        return AugmentedAdvisorSession(vehicle_id, self, state_dir, **kwargs)


class AugmentedAdvisorSession(AdvisorSession):
    """Advisor session that consumes predictions (module docstring)."""

    config: AugmentedSessionConfig

    def _init_fresh_state(self) -> None:
        config = self.config
        self.predictor = build_predictor(
            config.predictor,
            min_samples=config.predictor_min_samples,
            decay=config.predictor_decay,
        )
        self.trust_learner = TrustLearner(config.trust_decay, config.trust_floor)
        self.tail_strategy = (
            TailRiskRand(config.break_even, config.cvar_alpha, config.cvar_cap)
            if config.cvar_alpha is not None
            else None
        )
        self._spec_label: str | None = None
        super()._init_fresh_state()

    # -- trust -------------------------------------------------------------

    def effective_trust(self) -> float:
        """The λ the *next* PSK decision plays, after ladder shaping."""
        config = self.config
        lam = config.trust if config.trust is not None else self.trust_learner.trust
        if self.health is HealthState.DEGRADED:
            # Shrink toward the robust end: keep only degraded_trust of
            # the distance from DET (λ=1).
            lam = 1.0 - (1.0 - lam) * config.degraded_trust
        return min(1.0, max(config.trust_floor, lam))

    # -- the apply path ----------------------------------------------------

    def _decision_spec(self, record: dict | None = None):
        if self.health is HealthState.SAFE:
            # SAFE is the plain session's unconditional guarantee,
            # bit-identical: same strategy, same RNG consumption.
            self._spec_label = None
            return super()._decision_spec(record)
        prediction = None
        if record is not None and self.predictor is not None:
            prediction = self.predictor.predict(float(record["t"]))
        if prediction is not None:
            lam = self.effective_trust()
            self._spec_label = "PSK"
            return (
                "fixed",
                psk_threshold(prediction, self.config.break_even, lam),
            )
        if self.tail_strategy is not None:
            self._spec_label = self.tail_strategy.name
            return ("generic", self.tail_strategy)
        self._spec_label = None
        return super()._decision_spec(record)

    def _stage(self, record: dict) -> dict:
        staged = super()._stage(record)
        if self._spec_label is not None:
            # Label the decision with the strategy actually drawn from
            # (the base labels describe the estimator, which did not
            # choose this threshold).
            staged["strategy"] = self._spec_label
            self._spec_label = None
        if self.predictor is not None:
            timestamp = float(record["t"])
            stop_length = float(record["y"])
            # predict() is pure, so this is the same value the decision
            # spec saw before the event's mutations.
            prediction = self.predictor.predict(timestamp)
            if prediction is not None:
                self.trust_learner.update(
                    prediction, stop_length, self.config.break_even
                )
            self.predictor.observe(timestamp, stop_length)
        return staged

    def _stage_run(self, frames: list) -> list:
        # Predictions are per-event functions of the timestamp, so the
        # HEALTHY columnar staging does not apply; runs keep the group
        # WAL commit, and _finish_run still batches the draws.
        return [self._stage(frame) for frame in frames]

    # -- durability --------------------------------------------------------

    def to_state(self) -> dict:
        state = super().to_state()
        state["augmented"] = {
            "predictor": None if self.predictor is None else self.predictor.to_state(),
            "trust": self.trust_learner.to_state(),
        }
        return state

    def _load_state(self, state: dict) -> None:
        state = dict(state)
        augmented = state.pop("augmented", None)
        super()._load_state(state)
        if not augmented:
            return  # snapshot from a plain session: learners start cold
        predictor_state = augmented.get("predictor")
        if self.predictor is not None and predictor_state is not None:
            if predictor_state.get("kind") != self.predictor.kind:
                raise InvalidParameterError(
                    f"snapshot predictor kind {predictor_state.get('kind')!r} "
                    f"does not match configured {self.predictor.kind!r}"
                )
            self.predictor.load_state(predictor_state)
        self.trust_learner.load_state(augmented["trust"])

    # -- observability -----------------------------------------------------

    def health_snapshot(self) -> dict:
        snapshot = super().health_snapshot()
        config = self.config
        snapshot["augmented"] = {
            "predictor": "none" if self.predictor is None else self.predictor.kind,
            "trust": self.trust_learner.trust if config.trust is None else config.trust,
            "effective_trust": self.effective_trust(),
            "wrong_rate": self.trust_learner.wrong_rate,
            "trust_updates": self.trust_learner._count,
            "cvar_alpha": config.cvar_alpha,
            "cvar_cap": config.cvar_cap,
            "robustness_guarantee": config.robustness_guarantee,
        }
        return snapshot
