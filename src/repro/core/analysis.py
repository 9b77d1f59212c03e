"""Expected-cost and competitive-ratio evaluation.

This module connects strategies (:mod:`repro.core.strategy`) with
stop-length distributions (:mod:`repro.distributions`):

* exact expected online/offline costs under analytic, discrete and
  empirical distributions;
* the expected competitive ratio ``CR`` (Eq. 5) and the alternative
  ``CR'`` (Eq. 8, used by MOM-Rand's guarantee);
* Monte-Carlo estimators (used as cross-checks in the tests and by the
  event-level simulation layer);
* the *worst-case* expected cost of an arbitrary strategy over the
  ambiguity set ``Q(mu_B_minus, q_B_plus)``, solved as a small moment LP.

Evaluation conventions
----------------------
All expectations treat a randomized strategy's threshold as drawn
independently for every stop, matching the paper's per-stop decision
model.
"""

from __future__ import annotations

import math

import numpy as np

from ..distributions.base import StopLengthDistribution
from ..distributions.discrete import DiscreteStopDistribution
from ..distributions.empirical import EmpiricalDistribution
from ..errors import DegenerateStatisticsError, InvalidParameterError, SolverError
from .costs import offline_cost_vec, online_cost_vec, validate_break_even
from .stats import StopStatistics
from .strategy import DeterministicThresholdStrategy, Strategy

__all__ = [
    "expected_offline_cost",
    "expected_online_cost",
    "expected_cr",
    "expected_cr_prime",
    "empirical_offline_cost",
    "empirical_online_cost",
    "empirical_cr",
    "monte_carlo_online_cost",
    "worst_case_expected_cost",
    "worst_case_cr",
    "worst_case_cr_prime",
]


def expected_offline_cost(
    distribution: StopLengthDistribution, break_even: float
) -> float:
    """``E[cost_offline]`` under a distribution: ``mu_B_minus + q_B_plus B``
    (Eqs. 2 and 13)."""
    b = validate_break_even(break_even)
    return distribution.partial_expectation(b) + distribution.survival(b) * b


def _atoms_of(distribution: StopLengthDistribution):
    """Return (values, probabilities) when the distribution is finitely
    supported, else None."""
    if isinstance(distribution, DiscreteStopDistribution):
        return distribution.values, distribution.probabilities
    if isinstance(distribution, EmpiricalDistribution):
        y = distribution.stop_lengths
        return y, np.full(y.size, 1.0 / y.size)
    return None


def expected_online_cost(
    strategy: Strategy,
    distribution: StopLengthDistribution,
    break_even: float | None = None,
) -> float:
    """Exact expected online cost ``J(P, q)`` (Eq. 15).

    Deterministic thresholds use the closed form
    ``∫₀ˣ y q(y) dy + (x + B) P{y >= x}``; randomized strategies integrate
    the per-stop expected cost against the distribution (exact sums for
    finitely-supported distributions, adaptive quadrature otherwise —
    the per-stop cost is constant beyond ``B`` so the tail contributes
    ``expected_cost(B) * P{y >= B}`` in closed form).
    """
    b = validate_break_even(break_even if break_even is not None else strategy.break_even)
    if abs(b - strategy.break_even) > 1e-12:
        raise InvalidParameterError(
            f"strategy was built for B={strategy.break_even}, evaluation requested B={b}"
        )
    if isinstance(strategy, DeterministicThresholdStrategy):
        x = strategy.threshold
        if math.isinf(x):  # NEV: always pay the full stop
            return distribution.mean()
        return distribution.partial_expectation(x) + distribution.survival(x) * (x + b)
    if isinstance(distribution, EmpiricalDistribution):
        # Closed forms on the cached prefix sums (one binary search per
        # threshold) instead of a per-value expected_cost_vec scan.
        from .kernels import strategy_cost

        return strategy_cost(distribution.prefix_sample, strategy)
    atoms = _atoms_of(distribution)
    if atoms is not None:
        values, probabilities = atoms
        return float((strategy.expected_cost_vec(values) * probabilities).sum())
    from scipy import integrate

    short_part, _ = integrate.quad(
        lambda y: strategy.expected_cost(y) * distribution.pdf(y), 0.0, b, limit=200
    )
    return short_part + strategy.expected_cost(b) * distribution.survival(b)


def expected_cr(
    strategy: Strategy,
    distribution: StopLengthDistribution,
    break_even: float | None = None,
) -> float:
    """Expected competitive ratio ``CR`` (Eq. 5): ratio of expected costs."""
    b = break_even if break_even is not None else strategy.break_even
    offline = expected_offline_cost(distribution, b)
    if offline <= 0.0:
        raise DegenerateStatisticsError(
            "expected offline cost is zero (all stops have zero length); CR undefined"
        )
    return expected_online_cost(strategy, distribution, b) / offline


def expected_cr_prime(
    strategy: Strategy,
    distribution: StopLengthDistribution,
    break_even: float | None = None,
) -> float:
    """The alternative metric ``CR'`` (Eq. 8):
    ``E_y[E_x[cost(x, y)] / cost_offline(y)]``.

    This is the metric MOM-Rand's ``1 + mu/(2B(e-2))`` bound refers to.
    Zero-length stops are excluded (their per-stop ratio is undefined).
    """
    b = validate_break_even(break_even if break_even is not None else strategy.break_even)
    atoms = _atoms_of(distribution)
    if atoms is not None:
        values, probabilities = atoms
        mask = values > 0.0
        if not np.any(mask):
            raise InvalidParameterError("all stops have zero length; CR' undefined")
        values, probabilities = values[mask], probabilities[mask]
        probabilities = probabilities / probabilities.sum()
        ratios = strategy.expected_cost_vec(values) / offline_cost_vec(values, b)
        return float((ratios * probabilities).sum())
    from scipy import integrate

    short_part, _ = integrate.quad(
        lambda y: strategy.expected_cost(y) / min(y, b) * distribution.pdf(y),
        0.0,
        b,
        limit=200,
    )
    return short_part + strategy.expected_cost(b) / b * distribution.survival(b)


def empirical_offline_cost(stop_lengths: np.ndarray, break_even: float) -> float:
    """Mean offline cost over an observed stop sample."""
    y = np.asarray(stop_lengths, dtype=float)
    if y.size == 0:
        raise InvalidParameterError("cannot evaluate costs on zero stops")
    return float(offline_cost_vec(y, break_even).mean())


def empirical_online_cost(strategy: Strategy, stop_lengths: np.ndarray) -> float:
    """Mean *expected* online cost over an observed stop sample.

    For randomized strategies this averages the exact per-stop expected
    cost (no sampling noise); use :func:`monte_carlo_online_cost` for the
    realized-draw estimate.
    """
    y = np.asarray(stop_lengths, dtype=float)
    if y.size == 0:
        raise InvalidParameterError("cannot evaluate costs on zero stops")
    return float(strategy.expected_cost_vec(y).mean())


def empirical_cr(
    strategy: Strategy, stop_lengths: np.ndarray, break_even: float | None = None
) -> float:
    """Per-vehicle CR on observed stops (the Figure 4 quantity):
    mean expected online cost / mean offline cost."""
    b = break_even if break_even is not None else strategy.break_even
    offline = empirical_offline_cost(stop_lengths, b)
    if offline <= 0.0:
        raise DegenerateStatisticsError("offline cost is zero over the sample; CR undefined")
    return empirical_online_cost(strategy, stop_lengths) / offline


def monte_carlo_online_cost(
    strategy: Strategy,
    stop_lengths: np.ndarray,
    rng: np.random.Generator,
) -> float:
    """Realized mean online cost with one independent threshold draw per
    stop — the event-level quantity an actual stop-start controller pays."""
    y = np.asarray(stop_lengths, dtype=float)
    if y.size == 0:
        raise InvalidParameterError("cannot evaluate costs on zero stops")
    thresholds = strategy.draw_thresholds(y.size, rng)
    finite = np.isfinite(thresholds)
    costs = np.empty(y.size, dtype=float)
    costs[finite] = online_cost_vec(thresholds[finite], y[finite], strategy.break_even)
    costs[~finite] = y[~finite]  # NEV: infinite threshold, cost is the stop itself
    return float(costs.mean())


def worst_case_expected_cost(
    strategy: Strategy,
    stats: StopStatistics,
    grid_size: int = 512,
) -> float:
    """Worst-case expected cost of an arbitrary strategy over the
    ambiguity set ``Q(mu_B_minus, q_B_plus)``.

    The adversary maximizes ``∫ h(y) q(y) dy`` where
    ``h(y) = E_x[cost(x, y)]``, subject to the two moment constraints.
    ``h`` is constant for ``y >= B`` (strategies never idle past ``B``),
    so long-stop mass contributes ``q_B_plus * h(B)`` and the short-stop
    part is a finite moment LP on a grid over ``[0, B)``:

    .. math::

        \\max_p \\sum_i p_i h(y_i)
        \\quad \\text{s.t.} \\sum_i p_i = 1 - q^+,\\;
        \\sum_i p_i y_i = \\mu^-,\\; p \\ge 0.

    NEV is special-cased: its cost is unbounded over Q whenever
    ``q_B_plus > 0`` (long stops can be arbitrarily long).
    """
    if isinstance(strategy, DeterministicThresholdStrategy) and math.isinf(
        strategy.threshold
    ):
        return math.inf if stats.q_b_plus > 0.0 else stats.mu_b_minus
    if grid_size < 3:
        raise InvalidParameterError(f"grid_size must be >= 3, got {grid_size}")
    b = stats.break_even
    # Exclude y = B itself (grid covers short stops only; B-mass is long).
    grid = np.linspace(0.0, b, grid_size, endpoint=False)
    h = strategy.expected_cost_vec(grid)
    short_mass = 1.0 - stats.q_b_plus
    long_part = stats.q_b_plus * strategy.expected_cost(b)
    if short_mass <= 1e-15:
        return long_part
    from scipy import optimize

    result = optimize.linprog(
        c=-h,  # maximize
        A_eq=np.vstack([np.ones_like(grid), grid]),
        b_eq=np.array([short_mass, stats.mu_b_minus]),
        bounds=[(0.0, None)] * grid.size,
        method="highs",
    )
    if not result.success:
        raise SolverError(f"moment LP failed: {result.message}")
    return float(-result.fun + long_part)


def worst_case_cr(
    strategy: Strategy,
    stats: StopStatistics,
    grid_size: int = 512,
) -> float:
    """Worst-case expected CR over Q: worst-case cost over the constant
    expected offline cost ``mu_B_minus + q_B_plus B``."""
    offline = stats.expected_offline_cost
    if offline <= 0.0:
        raise DegenerateStatisticsError("expected offline cost is zero; CR undefined")
    return worst_case_expected_cost(strategy, stats, grid_size) / offline


def worst_case_cr_prime(
    strategy: Strategy,
    stats: StopStatistics,
    grid_size: int = 512,
) -> float:
    """Worst-case CR' (Eq. 8's per-stop-ratio metric) over Q.

    ``CR' = E_y[h(y) / cost_offline(y)]`` is linear in q, so the same
    moment-LP machinery applies with payoff ``h(y)/min(y, B)`` per grid
    point.  Zero-length stops are excluded from the adversary's grid
    (their per-stop ratio is undefined); long stops contribute the
    constant ``h(B)/B``.  NEV's CR' is unbounded whenever long stops
    exist (matching its unbounded CR).
    """
    if isinstance(strategy, DeterministicThresholdStrategy) and math.isinf(
        strategy.threshold
    ):
        return math.inf if stats.q_b_plus > 0.0 else 1.0
    if grid_size < 3:
        raise InvalidParameterError(f"grid_size must be >= 3, got {grid_size}")
    b = stats.break_even
    grid = np.linspace(0.0, b, grid_size, endpoint=False)[1:]  # exclude y = 0
    ratios = strategy.expected_cost_vec(grid) / grid
    short_mass = 1.0 - stats.q_b_plus
    long_part = stats.q_b_plus * strategy.expected_cost(b) / b
    if short_mass <= 1e-15:
        return long_part
    from scipy import optimize

    result = optimize.linprog(
        c=-ratios,
        A_eq=np.vstack([np.ones_like(grid), grid]),
        b_eq=np.array([short_mass, stats.mu_b_minus]),
        bounds=[(0.0, None)] * grid.size,
        method="highs",
    )
    if not result.success:
        raise SolverError(f"CR' moment LP failed: {result.message}")
    return float(-result.fun + long_part)
