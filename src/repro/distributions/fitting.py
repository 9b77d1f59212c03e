"""Distribution diagnostics: exponentiality tests and tail statistics.

Figure 3's caption makes a statistical claim — the observed stop-length
distributions "are different from the exponential distribution (as assumed
in [10]) according to the Kolmogorov-Smirnov test, mostly due to their
heavy tails".  This module reproduces that analysis for any stop sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError

__all__ = ["KSResult", "ks_test_exponential", "tail_weight", "moment_summary"]


def _clean(stop_lengths, policy, report, source: str) -> np.ndarray:
    """Optionally route a sample through the validation layer.

    ``policy=None`` preserves the historical contract (the checks below
    raise :class:`InvalidParameterError` on dirty data); a policy routes
    non-finite/negative values through
    :func:`repro.validation.clean_stop_lengths` first, so diagnostics can
    run directly on quarantine-grade telemetry.
    """
    y = np.asarray(stop_lengths, dtype=float).ravel()
    if policy is None:
        return y
    from ..validation import clean_stop_lengths

    return clean_stop_lengths(y, policy, report, source=source)


@dataclass(frozen=True)
class KSResult:
    """Result of a Kolmogorov-Smirnov goodness-of-fit test."""

    statistic: float
    p_value: float
    rejected: bool
    alpha: float


def ks_test_exponential(
    stop_lengths, alpha: float = 0.05, policy=None, report=None
) -> KSResult:
    """KS test of a stop sample against the exponential with matched mean.

    Note: fitting the rate from the same sample makes the plain KS p-value
    conservative only asymptotically (the Lilliefors caveat); the paper
    simply reports rejection, which heavy-tailed samples of NREL size
    produce overwhelmingly, so the plain test suffices here.
    """
    y = _clean(stop_lengths, policy, report, "ks-test")
    if y.size < 8:
        raise InvalidParameterError("need at least 8 stops for a meaningful KS test")
    if np.any(~np.isfinite(y)) or np.any(y < 0.0):
        raise InvalidParameterError("stop lengths must be non-negative and finite")
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    mean = float(y.mean())
    if mean <= 0.0:
        raise InvalidParameterError("sample mean must be positive to fit an exponential")
    from scipy import stats as sps

    statistic, p_value = sps.kstest(y, "expon", args=(0.0, mean))
    return KSResult(
        statistic=float(statistic),
        p_value=float(p_value),
        rejected=bool(p_value < alpha),
        alpha=alpha,
    )


def tail_weight(
    stop_lengths, quantile: float = 0.95, policy=None, report=None
) -> float:
    """Ratio of the tail conditional mean to the overall mean.

    ``E[y | y > Q(quantile)] / E[y]`` — equals ``(1 + ln 20) ≈ 4.0``-ish for
    an exponential at the default 0.95 quantile; substantially larger for
    heavy-tailed samples.  A cheap, robust heavy-tail indicator.
    """
    y = _clean(stop_lengths, policy, report, "tail-weight")
    if y.size < 20:
        raise InvalidParameterError("need at least 20 stops to estimate tail weight")
    if not 0.0 < quantile < 1.0:
        raise InvalidParameterError(f"quantile must lie in (0, 1), got {quantile!r}")
    cutoff = np.quantile(y, quantile)
    tail = y[y > cutoff]
    if tail.size == 0 or y.mean() <= 0.0:
        return 1.0
    return float(tail.mean() / y.mean())


def moment_summary(stop_lengths, policy=None, report=None) -> dict:
    """Mean, standard deviation, skewness and excess kurtosis of a sample."""
    y = _clean(stop_lengths, policy, report, "moment-summary")
    if y.size < 2:
        raise InvalidParameterError("need at least 2 stops for a moment summary")
    from scipy import stats as sps

    return {
        "count": int(y.size),
        "mean": float(y.mean()),
        "std": float(y.std(ddof=1)),
        "skewness": float(sps.skew(y)),
        "excess_kurtosis": float(sps.kurtosis(y)),
        "median": float(np.median(y)),
        "max": float(y.max()),
    }
