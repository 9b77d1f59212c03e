"""Strategy abstractions for the ski-rental idling problem.

A *strategy* chooses the idling threshold ``x``: the engine idles until
``x`` seconds into the stop and is then shut off (paying the restart cost
``B`` when the stop outlasts the threshold).  Strategies come in three
flavours, mirroring the generic solution form of Eq. (18):

* :class:`DeterministicThresholdStrategy` — a single atom at a fixed ``x``
  (NEV, TOI, DET and b-DET are all instances);
* :class:`ContinuousRandomizedStrategy` — a continuous pdf on ``[0, B]``
  (N-Rand and MOM-Rand);
* :class:`MixedStrategy` — atoms plus a continuous component, the full
  ``P(x) = p(x) + α δ(x-ε) + β δ(x-B) + γ δ(x-b)`` form used in Section 4.

Every strategy exposes

``draw_threshold(rng)``
    sample an idling threshold (the *online decision* for one stop);
``expected_cost(y)``
    the per-stop expected online cost ``E_x[cost_online(x, y)]`` — exact,
    via closed forms where subclasses provide them;
``expected_cost_vec(ys)``
    the vectorised version used by the fleet evaluation layer.

The per-stop expected cost follows directly from Eq. (3):

.. math::

    E_x[cost(x, y)] = \\int_{x \\le y} (x + B)\\,dP(x) + y\\,P\\{x > y\\}

(thresholds no larger than the stop length pay ``x + B``; larger thresholds
mean the engine was still idling when the vehicle moved off, cost ``y``).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..errors import InvalidParameterError
from .costs import validate_break_even, validate_stop_length

__all__ = [
    "Strategy",
    "DeterministicThresholdStrategy",
    "ContinuousRandomizedStrategy",
    "MixedStrategy",
    "Atom",
]


class Strategy(ABC):
    """Abstract online strategy for a given break-even interval ``B``."""

    #: Short display name (e.g. ``"DET"``, ``"N-Rand"``); subclasses set it.
    name: str = "strategy"

    def __init__(self, break_even: float) -> None:
        self.break_even = validate_break_even(break_even)

    @abstractmethod
    def draw_threshold(self, rng: np.random.Generator) -> float:
        """Sample one idling threshold ``x`` (the online decision)."""

    @abstractmethod
    def expected_cost(self, stop_length: float) -> float:
        """Exact per-stop expected online cost ``E_x[cost_online(x, y)]``."""

    def expected_cost_squared(self, stop_length: float) -> float:
        """``E_x[cost_online(x, y)^2]`` — second moment of the per-stop
        cost over the strategy's randomization.  Deterministic strategies
        override trivially; the base implementation raises."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement expected_cost_squared"
        )

    def cost_variance(self, stop_length: float) -> float:
        """Per-stop cost variance ``Var_x[cost_online(x, y)]``.

        Zero for deterministic strategies: one practical argument for
        the deterministic vertices — same expected cost, no week-to-week
        lottery."""
        mean = self.expected_cost(stop_length)
        return max(0.0, self.expected_cost_squared(stop_length) - mean * mean)

    def expected_cost_vec(self, stop_lengths: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`expected_cost`.

        The base implementation loops; subclasses with closed forms
        override it with numpy expressions.
        """
        y = np.asarray(stop_lengths, dtype=float)
        return np.array([self.expected_cost(v) for v in y.ravel()]).reshape(y.shape)

    def draw_thresholds(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``count`` independent thresholds (one per stop).

        The base implementation loops :meth:`draw_threshold`; subclasses
        with rng-native or batched inverse-CDF sampling override it.  The
        overrides consume the generator exactly like ``count`` scalar
        draws (``rng.uniform(size=count)`` produces the same uniforms),
        so the stream stays seed-compatible; the transformed values agree
        with the scalar path to within 1 ulp (numpy vs libm rounding).
        """
        if count < 0:
            raise InvalidParameterError(f"count must be >= 0, got {count}")
        return np.array([self.draw_threshold(rng) for _ in range(count)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, B={self.break_even})"


class DeterministicThresholdStrategy(Strategy):
    """Always idle until a fixed threshold ``x`` (possibly 0 or infinite).

    ``threshold = 0`` is TOI (turn off immediately), ``threshold = B`` is
    DET, ``threshold = b < B`` is b-DET, and ``threshold = inf`` is NEV
    (never turn the engine off).
    """

    name = "fixed-threshold"

    def __init__(self, break_even: float, threshold: float) -> None:
        super().__init__(break_even)
        x = float(threshold)
        if math.isnan(x) or x < 0.0:
            raise InvalidParameterError(
                f"threshold must be >= 0 (inf allowed for NEV), got {threshold!r}"
            )
        self.threshold = x

    def draw_threshold(self, rng: np.random.Generator) -> float:
        return self.threshold

    def expected_cost(self, stop_length: float) -> float:
        y = validate_stop_length(stop_length)
        if y < self.threshold:
            return y
        return self.threshold + self.break_even

    def expected_cost_vec(self, stop_lengths: np.ndarray) -> np.ndarray:
        y = np.asarray(stop_lengths, dtype=float)
        return np.where(y < self.threshold, y, self.threshold + self.break_even)

    def expected_cost_squared(self, stop_length: float) -> float:
        cost = self.expected_cost(stop_length)
        return cost * cost

    def draw_thresholds(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if count < 0:
            raise InvalidParameterError(f"count must be >= 0, got {count}")
        return np.full(count, self.threshold)


class ContinuousRandomizedStrategy(Strategy):
    """A strategy whose threshold is drawn from a continuous pdf on
    ``[support_lo, support_hi]`` (``[0, B]`` for every strategy in the
    paper; Appendix A proves mass above ``B`` is never useful).

    Subclasses must implement :meth:`pdf`.  Closed-form :meth:`cdf`,
    :meth:`partial_cost_integral` and :meth:`expected_cost` overrides make
    the evaluation exact and fast; the defaults fall back on adaptive
    quadrature (:func:`scipy.integrate.quad`) and inverse-CDF sampling via
    Brent root finding, so a subclass providing only ``pdf`` is fully
    functional.
    """

    name = "randomized"

    support_lo: float = 0.0

    #: Node count of the cached Gauss–Legendre rule behind the vectorised
    #: quadrature fallbacks.  High enough that the smooth densities of the
    #: strategy layer integrate well below the 1e-9 kernel agreement
    #: tolerance enforced by ``tests/test_kernels.py``.
    quadrature_order: int = 96

    def __init__(self, break_even: float) -> None:
        super().__init__(break_even)
        self.support_hi = self.break_even

    @abstractmethod
    def pdf(self, threshold: float) -> float:
        """Probability density of drawing ``threshold``."""

    def pdf_vec(self, thresholds: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`pdf`; the base implementation loops,
        closed-form subclasses override with numpy expressions."""
        x = np.asarray(thresholds, dtype=float)
        return np.array([self.pdf(v) for v in x.ravel()]).reshape(x.shape)

    def cdf(self, threshold: float) -> float:
        """``P{x <= threshold}``; default integrates the pdf numerically."""
        t = float(threshold)
        if t <= self.support_lo:
            return 0.0
        if t >= self.support_hi:
            return 1.0
        from scipy import integrate

        value, _ = integrate.quad(self.pdf, self.support_lo, t)
        return min(1.0, max(0.0, value))

    def partial_cost_integral(self, stop_length: float) -> float:
        """``∫_{support_lo}^{y} (x + B) pdf(x) dx`` — the restart branch of
        the expected-cost integral; default uses quadrature."""
        y = min(float(stop_length), self.support_hi)
        if y <= self.support_lo:
            return 0.0
        from scipy import integrate

        value, _ = integrate.quad(
            lambda x: (x + self.break_even) * self.pdf(x), self.support_lo, y
        )
        return value

    def expected_cost(self, stop_length: float) -> float:
        y = validate_stop_length(stop_length)
        return self.partial_cost_integral(y) + y * (1.0 - self.cdf(y))

    def expected_cost_vec(self, stop_lengths: np.ndarray) -> np.ndarray:
        """Vectorised expected cost via a cached fixed-node Gauss–Legendre
        rule: one :meth:`pdf_vec` call on a (unique stop) × (node) grid
        replaces per-element adaptive ``integrate.quad``.  Subclasses with
        closed forms still override this entirely."""
        from .kernels import gauss_legendre_rule  # deferred; kernels imports us

        y = np.asarray(stop_lengths, dtype=float)
        if y.size == 0:
            return np.zeros_like(y)
        if np.any(~np.isfinite(y)) or np.any(y < 0.0):
            raise InvalidParameterError(
                "stop lengths must be non-negative finite numbers"
            )
        nodes, weights = gauss_legendre_rule(self.quadrature_order)
        lo, hi = self.support_lo, self.support_hi
        unique, inverse = np.unique(y.ravel(), return_inverse=True)
        span = np.clip(unique, lo, hi) - lo
        grid = lo + span[:, None] * nodes[None, :]
        scaled = span[:, None] * weights[None, :]
        density = self.pdf_vec(grid)
        restart = ((grid + self.break_even) * density * scaled).sum(axis=1)
        mass_below = (density * scaled).sum(axis=1)
        survive = np.where(
            unique >= hi, 0.0, unique * np.maximum(0.0, 1.0 - mass_below)
        )
        return (restart + survive)[inverse].reshape(y.shape)

    def expected_cost_squared(self, stop_length: float) -> float:
        y = validate_stop_length(stop_length)
        upper = min(y, self.support_hi)
        restart_part = 0.0
        if upper > self.support_lo:
            from scipy import integrate

            restart_part, _ = integrate.quad(
                lambda x: (x + self.break_even) ** 2 * self.pdf(x),
                self.support_lo,
                upper,
            )
        return restart_part + y * y * (1.0 - self.cdf(y))

    def draw_threshold(self, rng: np.random.Generator) -> float:
        u = rng.uniform()
        return self.inverse_cdf(u)

    def inverse_cdf(self, quantile: float) -> float:
        """Quantile function; default inverts :meth:`cdf` with Brent."""
        u = float(quantile)
        if not 0.0 <= u <= 1.0:
            raise InvalidParameterError(f"quantile must lie in [0, 1], got {quantile!r}")
        if u <= 0.0:
            return self.support_lo
        if u >= 1.0:
            return self.support_hi
        from scipy import optimize

        return float(
            optimize.brentq(
                lambda x: self.cdf(x) - u, self.support_lo, self.support_hi, xtol=1e-12
            )
        )

    def inverse_cdf_vec(self, quantiles: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`inverse_cdf`; base implementation loops the
        Brent inversion, closed-form subclasses override."""
        u = np.asarray(quantiles, dtype=float)
        return np.array([self.inverse_cdf(q) for q in u.ravel()]).reshape(u.shape)

    def draw_thresholds(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Batched inverse-CDF sampling: one ``rng.uniform(size=count)``
        call consuming the generator exactly like ``count`` scalar
        :meth:`draw_threshold` calls (values agree to 1 ulp)."""
        if count < 0:
            raise InvalidParameterError(f"count must be >= 0, got {count}")
        return self.inverse_cdf_vec(rng.uniform(size=count))

    def mean_threshold(self) -> float:
        """Expected threshold ``E[x]``; default uses quadrature."""
        from scipy import integrate

        value, _ = integrate.quad(
            lambda x: x * self.pdf(x), self.support_lo, self.support_hi
        )
        return value


class Atom:
    """A point mass of the mixed strategy: probability ``mass`` of choosing
    exactly ``location`` as the idling threshold."""

    __slots__ = ("location", "mass")

    def __init__(self, location: float, mass: float) -> None:
        loc = float(location)
        m = float(mass)
        if math.isnan(loc) or loc < 0.0:
            raise InvalidParameterError(f"atom location must be >= 0, got {location!r}")
        if not 0.0 <= m <= 1.0:
            raise InvalidParameterError(f"atom mass must lie in [0, 1], got {mass!r}")
        self.location = loc
        self.mass = m

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Atom(location={self.location}, mass={self.mass})"


class MixedStrategy(Strategy):
    """The generic solution form of Eq. (18): discrete atoms plus an
    optional continuous component.

    Parameters
    ----------
    break_even:
        The break-even interval ``B``.
    atoms:
        Point masses ``[Atom(location, mass), ...]``; total atom mass must
        not exceed 1.
    continuous:
        Optional :class:`ContinuousRandomizedStrategy` carrying the
        remaining probability ``1 - sum(atom masses)``.  Required whenever
        the atom masses do not sum to 1.
    """

    name = "mixed"

    def __init__(
        self,
        break_even: float,
        atoms: Sequence[Atom],
        continuous: ContinuousRandomizedStrategy | None = None,
    ) -> None:
        super().__init__(break_even)
        self.atoms = list(atoms)
        total_mass = sum(a.mass for a in self.atoms)
        if total_mass > 1.0 + 1e-12:
            raise InvalidParameterError(
                f"atom masses sum to {total_mass} > 1; not a probability distribution"
            )
        self.continuous_weight = max(0.0, 1.0 - total_mass)
        if self.continuous_weight > 1e-12 and continuous is None:
            raise InvalidParameterError(
                "atom masses sum to less than 1 but no continuous component given"
            )
        if continuous is not None and abs(continuous.break_even - self.break_even) > 1e-12:
            raise InvalidParameterError(
                "continuous component must share the strategy's break-even interval"
            )
        self.continuous = continuous

    def draw_threshold(self, rng: np.random.Generator) -> float:
        u = rng.uniform()
        acc = 0.0
        for atom in self.atoms:
            acc += atom.mass
            if u < acc:
                return atom.location
        if self.continuous is None:  # numerical corner: masses summed to ~1
            return self.atoms[-1].location
        return self.continuous.draw_threshold(rng)

    def expected_cost(self, stop_length: float) -> float:
        y = validate_stop_length(stop_length)
        cost = 0.0
        for atom in self.atoms:
            per_atom = y if y < atom.location else atom.location + self.break_even
            cost += atom.mass * per_atom
        if self.continuous is not None and self.continuous_weight > 0.0:
            cost += self.continuous_weight * self.continuous.expected_cost(y)
        return cost

    def expected_cost_vec(self, stop_lengths: np.ndarray) -> np.ndarray:
        y = np.asarray(stop_lengths, dtype=float)
        cost = np.zeros_like(y)
        for atom in self.atoms:
            cost += atom.mass * np.where(
                y < atom.location, y, atom.location + self.break_even
            )
        if self.continuous is not None and self.continuous_weight > 0.0:
            cost += self.continuous_weight * self.continuous.expected_cost_vec(y)
        return cost

    def expected_cost_squared(self, stop_length: float) -> float:
        y = validate_stop_length(stop_length)
        second = 0.0
        for atom in self.atoms:
            per_atom = y if y < atom.location else atom.location + self.break_even
            second += atom.mass * per_atom * per_atom
        if self.continuous is not None and self.continuous_weight > 0.0:
            second += self.continuous_weight * self.continuous.expected_cost_squared(y)
        return second
