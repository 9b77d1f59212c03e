"""Parametric stop-length distributions backed by :mod:`scipy.stats`.

These cover the distributions discussed in the paper and its related work:
exponential and uniform (the assumptions of Fujiwara & Iwama's average-case
analysis that Figure 3 argues against), plus the heavy-tailed families
(lognormal, Weibull, Pareto) used to synthesize NREL-like stop data.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidParameterError
from .base import StopLengthDistribution

__all__ = [
    "ScipyDistribution",
    "Exponential",
    "Uniform",
    "LogNormal",
    "Weibull",
    "Pareto",
]


class ScipyDistribution(StopLengthDistribution):
    """Adapter around a frozen non-negative scipy continuous distribution.

    Subclasses may override :meth:`partial_expectation` / :meth:`mean` with
    closed forms; the defaults use the scipy frozen distribution directly.
    """

    def __init__(self, frozen, name: str) -> None:
        self._frozen = frozen
        self.name = name
        lower = float(frozen.support()[0])
        if lower < 0.0:
            raise InvalidParameterError(
                f"stop-length distributions must be non-negative; "
                f"{name} has support starting at {lower}"
            )

    def pdf(self, stop_length: float) -> float:
        return float(self._frozen.pdf(stop_length))

    def cdf(self, stop_length: float) -> float:
        return float(self._frozen.cdf(stop_length))

    def survival(self, stop_length: float) -> float:
        return float(self._frozen.sf(stop_length))

    def mean(self) -> float:
        return float(self._frozen.mean())

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if count < 0:
            raise InvalidParameterError(f"count must be >= 0, got {count}")
        return np.asarray(self._frozen.rvs(size=count, random_state=rng), dtype=float)

    def partial_expectation(self, upper: float) -> float:
        if upper <= 0.0:
            return 0.0
        return float(self._frozen.expect(lambda y: y, lb=0.0, ub=upper))


class Exponential(ScipyDistribution):
    """Exponential stop lengths with a given mean (rate ``1/mean``)."""

    def __init__(self, mean: float) -> None:
        m = float(mean)
        if m <= 0.0:
            raise InvalidParameterError(f"mean must be > 0, got {mean!r}")
        from scipy import stats as sps

        super().__init__(sps.expon(scale=m), name=f"Exponential(mean={m:g})")
        self._mean = m

    def partial_expectation(self, upper: float) -> float:
        # ∫₀ᵘ y e^{-y/m}/m dy = m - (u + m) e^{-u/m}
        if upper <= 0.0:
            return 0.0
        m = self._mean
        return m - (upper + m) * math.exp(-upper / m)


class Uniform(ScipyDistribution):
    """Uniform stop lengths on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        lo, hi = float(low), float(high)
        if not 0.0 <= lo < hi:
            raise InvalidParameterError(
                f"uniform support must satisfy 0 <= low < high, got [{low}, {high}]"
            )
        from scipy import stats as sps

        super().__init__(sps.uniform(loc=lo, scale=hi - lo), name=f"Uniform[{lo:g}, {hi:g}]")
        self._low, self._high = lo, hi

    def partial_expectation(self, upper: float) -> float:
        u = min(max(float(upper), self._low), self._high)
        if u <= self._low:
            return 0.0
        width = self._high - self._low
        return (u * u - self._low * self._low) / (2.0 * width)


class LogNormal(ScipyDistribution):
    """Lognormal stop lengths parameterised by the underlying normal's
    ``mu`` and ``sigma`` (i.e. ``log(y) ~ Normal(mu, sigma)``)."""

    def __init__(self, mu: float, sigma: float) -> None:
        s = float(sigma)
        if s <= 0.0:
            raise InvalidParameterError(f"sigma must be > 0, got {sigma!r}")
        from scipy import stats as sps

        super().__init__(
            sps.lognorm(s=s, scale=math.exp(float(mu))),
            name=f"LogNormal(mu={float(mu):g}, sigma={s:g})",
        )
        self._mu, self._sigma = float(mu), s

    def partial_expectation(self, upper: float) -> float:
        # E[y 1{y<=u}] = exp(mu + sigma^2/2) * Phi((ln u - mu - sigma^2)/sigma)
        if upper <= 0.0:
            return 0.0
        mu, s = self._mu, self._sigma
        z = (math.log(upper) - mu - s * s) / s
        from scipy import stats as sps

        return math.exp(mu + 0.5 * s * s) * float(sps.norm.cdf(z))


class Weibull(ScipyDistribution):
    """Weibull stop lengths with shape ``k`` and scale ``lam``."""

    def __init__(self, shape: float, scale: float) -> None:
        k, lam = float(shape), float(scale)
        if k <= 0.0 or lam <= 0.0:
            raise InvalidParameterError(
                f"Weibull shape and scale must be > 0, got shape={shape!r}, scale={scale!r}"
            )
        from scipy import stats as sps

        super().__init__(
            sps.weibull_min(c=k, scale=lam), name=f"Weibull(shape={k:g}, scale={lam:g})"
        )


class Pareto(ScipyDistribution):
    """Pareto (Lomax-shifted) stop lengths: survival
    ``(scale / (scale + y))^alpha`` — a pure power-law tail anchored at 0,
    used for the long-parking tail of the synthetic fleets."""

    def __init__(self, alpha: float, scale: float) -> None:
        a, m = float(alpha), float(scale)
        if a <= 0.0 or m <= 0.0:
            raise InvalidParameterError(
                f"Pareto alpha and scale must be > 0, got alpha={alpha!r}, scale={scale!r}"
            )
        from scipy import stats as sps

        super().__init__(sps.lomax(c=a, scale=m), name=f"Pareto(alpha={a:g}, scale={m:g})")
        self._alpha, self._scale = a, m

    def mean(self) -> float:
        if self._alpha <= 1.0:
            return math.inf
        return self._scale / (self._alpha - 1.0)
