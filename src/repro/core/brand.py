"""b-Rand: the truncated-exponential strategy the paper's ansatz misses.

**Reproduction finding.**  The paper's Section 4 restricts the strategy
space to Eq. (18): the *full-support* exponential density of N-Rand plus
atoms at ``ε``, ``b`` and ``B``, and concludes the optimum is one of four
vertices.  Solving the constrained minimax game numerically
(:mod:`repro.core.minimax`) shows this is not the true optimum: in (and
around) the paper's b-DET region, the game's optimal strategy is an
**exponential density truncated to** ``[0, β]`` with ``β < B`` — a
randomized analogue of b-DET that we call **b-Rand**.

Closed forms (with ``c = 1 / (B (e^{β/B} - 1))`` the normalizer):

* pdf ``p(x) = c e^{x/B}`` on ``[0, β]``;
* per-stop expected cost ``h(y) = (1 + cB) y`` for ``y <= β`` and the
  constant ``h(β) = cBβe^{β/B}`` for ``y >= β`` — linear then flat,
  hence *concave*, so the adversary's best response concentrates the
  short-stop mass at the conditional mean ``ȳ = μ⁻/(1-q⁺)``;
* worst-case expected cost over Q:
  ``(1-q⁺) h(min(ȳ, β-ish)) + q⁺ h(β)`` (both branches implemented);
* the unconstrained-branch optimum ``β* = B t*`` solves
  ``e^t - 1 - t = μ⁻ / (q⁺ B)``, which has a solution in ``(0, 1]`` iff
  ``μ⁻ <= (e - 2) q⁺ B``; otherwise ``β* = B`` and b-Rand *is* N-Rand.

:class:`ImprovedConstrainedSolver` adds b-Rand as a fifth candidate; its
worst-case CR provably never exceeds the paper's (b-Rand at ``β = B`` is
N-Rand) and is strictly smaller over a large region — see
``benchmarks/bench_improved.py`` and the discrepancy note in
EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import E
from ..errors import DegenerateStatisticsError, InvalidParameterError
from .constrained import ConstrainedSkiRentalSolver, Selection, VertexEvaluation
from .costs import validate_break_even, validate_stop_length
from .stats import StopStatistics
from .strategy import ContinuousRandomizedStrategy, Strategy

__all__ = [
    "BRand",
    "optimal_beta",
    "b_rand_worst_case_cost",
    "ImprovedSelection",
    "ImprovedConstrainedSolver",
]


class BRand(ContinuousRandomizedStrategy):
    """Exponential threshold density truncated to ``[0, beta]``.

    ``beta = B`` recovers N-Rand exactly (Eq. 7).
    """

    name = "b-Rand"

    def __init__(self, break_even: float, beta: float) -> None:
        super().__init__(break_even)
        b = self.break_even
        value = float(beta)
        if not 0.0 < value <= b:
            raise InvalidParameterError(
                f"beta must lie in (0, B] = (0, {b}], got {beta!r}"
            )
        self.beta = value
        self.support_hi = value
        #: Normalizer c = 1 / (B (e^{beta/B} - 1)).
        self._c = 1.0 / (b * math.expm1(value / b))

    def pdf(self, threshold: float) -> float:
        x = float(threshold)
        if not 0.0 <= x <= self.beta:
            return 0.0
        return self._c * math.exp(x / self.break_even)

    def cdf(self, threshold: float) -> float:
        x = float(threshold)
        if x <= 0.0:
            return 0.0
        if x >= self.beta:
            return 1.0
        return self._c * self.break_even * math.expm1(x / self.break_even)

    def inverse_cdf(self, quantile: float) -> float:
        u = float(quantile)
        if not 0.0 <= u <= 1.0:
            raise InvalidParameterError(f"quantile must lie in [0, 1], got {quantile!r}")
        return self.break_even * math.log1p(
            u * math.expm1(self.beta / self.break_even)
        )

    def pdf_vec(self, thresholds: np.ndarray) -> np.ndarray:
        x = np.asarray(thresholds, dtype=float)
        inside = (x >= 0.0) & (x <= self.beta)
        return np.where(
            inside,
            self._c * np.exp(np.clip(x, 0.0, self.beta) / self.break_even),
            0.0,
        )

    def inverse_cdf_vec(self, quantiles: np.ndarray) -> np.ndarray:
        u = np.asarray(quantiles, dtype=float)
        if np.any(~np.isfinite(u)) or np.any((u < 0.0) | (u > 1.0)):
            raise InvalidParameterError("quantiles must lie in [0, 1]")
        return self.break_even * np.log1p(
            u * math.expm1(self.beta / self.break_even)
        )

    def partial_cost_integral(self, stop_length: float) -> float:
        # ∫₀^y (x + B) c e^{x/B} dx = c B y e^{y/B}  (same primitive as N-Rand).
        y = min(float(stop_length), self.beta)
        if y <= 0.0:
            return 0.0
        b = self.break_even
        return self._c * b * y * math.exp(y / b)

    def expected_cost(self, stop_length: float) -> float:
        y = validate_stop_length(stop_length)
        b = self.break_even
        if y <= self.beta:
            return (1.0 + self._c * b) * y
        return self._c * b * self.beta * math.exp(self.beta / b)

    def expected_cost_vec(self, stop_lengths: np.ndarray) -> np.ndarray:
        y = np.asarray(stop_lengths, dtype=float)
        b = self.break_even
        flat = self._c * b * self.beta * math.exp(self.beta / b)
        return np.where(y <= self.beta, (1.0 + self._c * b) * y, flat)

    def expected_cost_squared(self, stop_length: float) -> float:
        # Same primitive as N-Rand: ∫ (x+B)² e^{x/B} dx = B e^{x/B}(x²+B²).
        y = validate_stop_length(stop_length)
        b = self.break_even
        yc = min(y, self.beta)
        restart_part = self._c * b * (
            math.exp(yc / b) * (yc * yc + b * b) - b * b
        )
        survive_part = y * y * (1.0 - self.cdf(y))
        return restart_part + survive_part

    def flat_cost(self) -> float:
        """The constant cost paid on every stop outlasting ``beta``."""
        b = self.break_even
        return self._c * b * self.beta * math.exp(self.beta / b)


def _worst_case_cost_at_beta(stats: StopStatistics, beta: float) -> float:
    """Exact worst-case expected cost of b-Rand(beta) over Q.

    The per-stop cost is concave (linear then flat), so the adversary
    concentrates the short-stop mass ``1 - q⁺`` at the conditional mean
    ``ȳ``; long stops pay the flat cost.
    """
    strategy = BRand(stats.break_even, beta)
    flat = strategy.flat_cost()
    short_mass = 1.0 - stats.q_b_plus
    if short_mass <= 0.0:
        return stats.q_b_plus * flat
    conditional = stats.mu_b_minus / short_mass
    return short_mass * strategy.expected_cost(min(conditional, stats.break_even)) + (
        stats.q_b_plus * flat
    )


def optimal_beta(stats: StopStatistics) -> float:
    """The cost-minimizing truncation ``β*``.

    Stationarity of the (ȳ <= β) branch gives
    ``e^t - 1 - t = μ⁻ / (q⁺ B)`` with ``t = β/B``; since
    ``g(t) = e^t - 1 - t`` increases from 0 to ``e - 2`` on (0, 1], an
    interior optimum exists iff ``μ⁻ <= (e - 2) q⁺ B`` — otherwise
    ``β* = B`` (N-Rand).  The stationary point is polished against the
    exact branch-aware worst-case cost in case the adversary's
    conditional mean exceeds it.
    """
    if stats.q_b_plus <= 0.0:
        return stats.break_even
    ratio = stats.mu_b_minus / (stats.q_b_plus * stats.break_even)
    if ratio >= E - 2.0:
        return stats.break_even
    if ratio <= 1e-200:
        # mu- ~ 0: cost(t) = q+ B t e^t/(e^t-1) -> minimized as t -> 0
        # (limit q+ B); return a tiny but valid truncation.
        return stats.break_even * 1e-9 if stats.break_even > 0 else stats.break_even
    # Bracket below the root: g(t) = e^t - 1 - t ~ t^2/2 for small t, so
    # t_lo = 0.1 sqrt(ratio) gives g(t_lo) ~ ratio/200 < ratio.
    t_lo = min(0.1 * math.sqrt(ratio), 0.5)
    from scipy import optimize

    t_star = optimize.brentq(
        lambda t: math.expm1(t) - t - ratio, t_lo, 1.0, xtol=1e-14
    )
    beta = t_star * stats.break_even
    # Branch check: if the conditional mean exceeds beta*, the concave
    # branch changes; polish numerically around the stationary point.
    conditional = stats.short_stop_conditional_mean
    if conditional > beta:
        result = optimize.minimize_scalar(
            lambda b_val: _worst_case_cost_at_beta(stats, b_val),
            bounds=(min(conditional, stats.break_even * 0.999), stats.break_even),
            method="bounded",
        )
        if result.fun < _worst_case_cost_at_beta(stats, beta):
            return float(result.x)
    return beta


def b_rand_worst_case_cost(stats: StopStatistics) -> float:
    """Worst-case expected cost of b-Rand at the optimal truncation."""
    return _worst_case_cost_at_beta(stats, optimal_beta(stats))


@dataclass(frozen=True)
class ImprovedSelection:
    """Outcome of the five-candidate (paper + b-Rand) solver."""

    stats: StopStatistics
    paper_selection: Selection
    b_rand_beta: float
    b_rand_cost: float
    chosen_name: str
    worst_case_cost: float

    @property
    def worst_case_cr(self) -> float:
        return self.worst_case_cost / self.stats.expected_offline_cost

    @property
    def improvement_over_paper(self) -> float:
        """Paper's optimal worst-case CR minus ours (>= 0)."""
        return self.paper_selection.worst_case_cr - self.worst_case_cr

    def build_strategy(self) -> Strategy:
        if self.chosen_name == "b-Rand":
            return BRand(self.stats.break_even, self.b_rand_beta)
        return self.paper_selection.build_strategy()


class ImprovedConstrainedSolver:
    """The paper's solver plus the b-Rand candidate.

    Because ``BRand(B) == N-Rand``, the improved optimum never exceeds
    the paper's; it is strictly smaller wherever a truncation ``β < B``
    helps (most of the paper's b-DET region and a band of its N-Rand and
    boundary regions).
    """

    def __init__(self, stats: StopStatistics) -> None:
        if stats.expected_offline_cost <= 0.0:
            raise DegenerateStatisticsError(
                "degenerate statistics: expected offline cost is zero"
            )
        self.stats = stats

    def select(self) -> ImprovedSelection:
        paper = ConstrainedSkiRentalSolver(self.stats).select()
        beta = optimal_beta(self.stats)
        # Clamp the degenerate mu- = 0 corner to a usable truncation.
        beta = max(beta, self.stats.break_even * 1e-9)
        cost = _worst_case_cost_at_beta(self.stats, beta)
        if cost < paper.chosen.worst_case_cost - 1e-12:
            chosen_name, chosen_cost = "b-Rand", cost
        else:
            chosen_name, chosen_cost = paper.name, paper.chosen.worst_case_cost
        return ImprovedSelection(
            stats=self.stats,
            paper_selection=paper,
            b_rand_beta=beta,
            b_rand_cost=cost,
            chosen_name=chosen_name,
            worst_case_cost=chosen_cost,
        )
