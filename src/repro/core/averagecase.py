"""Average-case analysis of deterministic thresholds (Fujiwara & Iwama).

The paper's related work [10] analyzes ski rental when the stop-length
distribution ``q(y)`` is *fully* known, minimizing the expected cost over
deterministic thresholds.  This module implements that analysis — both to
serve as an oracle upper baseline ("how much does knowing only
``(mu_B_minus, q_B_plus)`` cost versus knowing everything?") and to
reproduce [10]'s striking exponential-distribution result:

For exponential stops with mean ``m``, the expected cost of idling until
``x`` is ``m + (B - m) e^{-x/m}`` — *monotone* in ``x`` — so the
average-case optimum is bang-bang: never turn off when ``m < B``, turn
off immediately when ``m > B``.  Memorylessness kills every interior
threshold; heavy-tailed real traffic does not behave this way, which is
precisely the paper's motivation for distribution-robust design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..distributions.base import StopLengthDistribution
from ..errors import InvalidParameterError
from .analysis import expected_online_cost
from .costs import validate_break_even
from .strategy import DeterministicThresholdStrategy

__all__ = [
    "expected_cost_of_threshold",
    "OptimalThreshold",
    "optimal_threshold",
    "exponential_expected_cost",
    "exponential_optimal_threshold",
]


def expected_cost_of_threshold(
    threshold: float,
    distribution: StopLengthDistribution,
    break_even: float,
) -> float:
    """Expected cost of the deterministic policy "idle until threshold"
    under a fully known distribution."""
    return expected_online_cost(
        DeterministicThresholdStrategy(break_even, threshold), distribution, break_even
    )


@dataclass(frozen=True)
class OptimalThreshold:
    """The average-case-optimal deterministic threshold."""

    threshold: float  # may be math.inf (never turn off)
    expected_cost: float


def optimal_threshold(
    distribution: StopLengthDistribution,
    break_even: float,
    grid_size: int = 128,
) -> OptimalThreshold:
    """Minimize the expected cost over deterministic thresholds.

    Searches ``[0, 3B]`` on a grid, polishes the best interior candidate
    with bounded scalar minimization, and compares against the NEV
    endpoint (``threshold = inf``); unlike the worst-case setting of
    Appendix A, the average-case optimum can sit above ``B`` or at
    infinity (see the exponential example in the module docstring).
    """
    b = validate_break_even(break_even)
    if grid_size < 8:
        raise InvalidParameterError(f"grid_size must be >= 8, got {grid_size}")

    def cost(threshold: float) -> float:
        return expected_cost_of_threshold(threshold, distribution, b)

    grid = np.linspace(0.0, 3.0 * b, grid_size)
    costs = np.array([cost(x) for x in grid])
    best_index = int(costs.argmin())
    lo = grid[max(0, best_index - 1)]
    hi = grid[min(grid.size - 1, best_index + 1)]
    if hi > lo:
        from scipy import optimize

        result = optimize.minimize_scalar(cost, bounds=(lo, hi), method="bounded")
        interior_x, interior_cost = float(result.x), float(result.fun)
        if costs[best_index] < interior_cost:
            interior_x, interior_cost = float(grid[best_index]), float(costs[best_index])
    else:  # pragma: no cover - degenerate grid
        interior_x, interior_cost = float(grid[best_index]), float(costs[best_index])
    nev_cost = distribution.mean()
    if nev_cost < interior_cost:
        return OptimalThreshold(threshold=math.inf, expected_cost=nev_cost)
    return OptimalThreshold(threshold=interior_x, expected_cost=interior_cost)


def exponential_expected_cost(threshold: float, mean: float, break_even: float) -> float:
    """Closed form for exponential stops: ``m + (B - m) e^{-x/m}``."""
    if mean <= 0.0:
        raise InvalidParameterError(f"mean must be > 0, got {mean!r}")
    b = validate_break_even(break_even)
    if math.isinf(threshold):
        return mean
    if threshold < 0.0:
        raise InvalidParameterError(f"threshold must be >= 0, got {threshold!r}")
    return mean + (b - mean) * math.exp(-threshold / mean)


def exponential_optimal_threshold(mean: float, break_even: float) -> OptimalThreshold:
    """[10]'s bang-bang optimum for exponential stops.

    ``m < B`` → never turn off (cost ``m``); ``m > B`` → turn off
    immediately (cost ``B``); at ``m == B`` every threshold ties (we
    return TOI by convention).
    """
    if mean <= 0.0:
        raise InvalidParameterError(f"mean must be > 0, got {mean!r}")
    b = validate_break_even(break_even)
    if mean < b:
        return OptimalThreshold(threshold=math.inf, expected_cost=mean)
    return OptimalThreshold(threshold=0.0, expected_cost=b)
