"""What every serving process shares, without numpy: the session config
and the vehicle a record is routed by.

The ``serve --shards N`` parent routes lines; only its shard workers
run sessions.  Both import this module (a pickled
:class:`SessionConfig` names it), so it loads no session code.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import E
from ..core.costs import validate_break_even
from ..errors import InvalidParameterError

__all__ = ["SessionConfig", "identifiable_vehicle"]


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
        from .session import AdvisorSession

        return AdvisorSession(vehicle_id, self, state_dir, **kwargs)


def identifiable_vehicle(record) -> str | None:
    """The non-blank string ``vehicle`` a record claims, if any."""
    if isinstance(record, dict):
        vehicle = record.get("vehicle")
        if isinstance(vehicle, str) and vehicle.strip():
            return vehicle
    return None

