"""Stop-length distribution interface.

Every evaluation in the paper reduces to integrals of costs against a
stop-length distribution ``q(y)`` on ``[0, ∞)``.  The library's analysis
layer (:mod:`repro.core.analysis`) talks to distributions exclusively
through this interface:

``pdf(y)`` / ``cdf(y)`` / ``survival(y)``
    the usual densities and tail probabilities;
``mean()``
    the first moment ``mu`` (used by MOM-Rand);
``partial_expectation(b)``
    ``∫₀ᵇ y q(y) dy`` — gives ``mu_B_minus`` at ``b = B`` (Eq. 10);
``sample(n, rng)``
    draw stop lengths (used by the Monte-Carlo and fleet layers).

Defaults are provided for everything except ``pdf``/``cdf`` and
``sample``: subclasses with closed forms should override for speed, but a
minimal subclass is fully functional.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import InvalidDistributionError

__all__ = ["StopLengthDistribution"]


class StopLengthDistribution(ABC):
    """A probability distribution of vehicle stop lengths (seconds)."""

    #: Human-readable label used in reports.
    name: str = "stop-length distribution"

    @abstractmethod
    def cdf(self, stop_length: float) -> float:
        """``P{y <= stop_length}``."""

    @abstractmethod
    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` independent stop lengths."""

    def pdf(self, stop_length: float) -> float:
        """Probability density at ``stop_length``.

        Discrete distributions raise :class:`InvalidDistributionError`;
        continuous subclasses must override.
        """
        raise InvalidDistributionError(
            f"{type(self).__name__} does not expose a density"
        )

    def survival(self, stop_length: float) -> float:
        """``P{y >= stop_length}``.

        For continuous distributions this equals ``1 - cdf``; discrete
        distributions override to include the atom at ``stop_length``
        itself (the paper's long-stop convention is the closed event
        ``y >= B``).
        """
        return 1.0 - self.cdf(stop_length)

    def partial_expectation(self, upper: float) -> float:
        """``∫₀ᵘ y q(y) dy`` — expectation restricted to short stops.

        The default integrates ``y * pdf(y)`` with adaptive quadrature.
        """
        if upper <= 0.0:
            return 0.0
        from scipy import integrate

        value, _ = integrate.quad(lambda y: y * self.pdf(y), 0.0, upper, limit=200)
        return value

    def mean(self) -> float:
        """First moment ``E[y]``.

        Default: ``∫₀^∞ survival(y) dy`` by quadrature — robust for
        heavy-tailed distributions with finite mean.
        """
        from scipy import integrate

        value, _ = integrate.quad(self.survival, 0.0, np.inf, limit=200)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
