"""Numeric minimax games: independent validation of the paper's theorems.

The paper derives its optimal strategies analytically (Lagrangian → ODE →
LP).  This module re-derives the *game values* numerically, with no
analytic shortcuts: discretize the player's threshold space and the
adversary's stop-length space, and solve the resulting matrix game by LP
duality.  Two games are implemented:

:func:`solve_unconstrained_game`
    ``min_P max_q  J(P, q) / E_q[offline]`` with q ranging over *all*
    distributions.  Via the Charnes-Cooper transform (normalize the
    adversary by expected offline cost) the inner max becomes an LP, and
    the game value must converge to the Karlin et al. bound
    ``e/(e-1)`` — with the optimal ``P`` converging to the N-Rand density
    of Eq. (7).

:func:`solve_constrained_game`
    the paper's game (Eq. 16): q constrained to ``Q(mu_B_minus,
    q_B_plus)``.  The expected offline cost is then the constant
    ``μ⁻ + q⁺B``, the objective is linear in q, and the game value must
    match :class:`~repro.core.constrained.ConstrainedSkiRentalSolver`'s
    optimal worst-case CR — including in the b-DET region, numerically
    confirming Eqs. (34)-(38).

Both solve a single LP: dualize the adversary's inner maximization and
minimize the dual objective jointly over the player's mixed strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateStatisticsError, InvalidParameterError, SolverError
from .costs import validate_break_even
from .stats import StopStatistics

__all__ = [
    "GameSolution",
    "solve_unconstrained_game",
    "solve_constrained_game",
    "solve_first_moment_game",
]


@dataclass(frozen=True)
class GameSolution:
    """Solution of a discretized ski-rental minimax game."""

    value: float
    thresholds: np.ndarray
    player_distribution: np.ndarray

    def mean_threshold(self) -> float:
        return float((self.thresholds * self.player_distribution).sum())


def _grids(break_even: float, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Player thresholds on [0, B]; adversary stops interleaved so every
    threshold has a stop just below it (the adversary's best responses
    live there) plus one long stop past B."""
    if grid_size < 8:
        raise InvalidParameterError(f"grid_size must be >= 8, got {grid_size}")
    x_grid = np.linspace(0.0, break_even, grid_size)
    epsilon = break_even / (grid_size * 50.0)
    just_below = np.clip(x_grid[1:] - epsilon, 0.0, None)
    y_grid = np.unique(np.concatenate([x_grid, just_below, [2.0 * break_even]]))
    return x_grid, y_grid


def _cost_matrix(x_grid: np.ndarray, y_grid: np.ndarray, break_even: float) -> np.ndarray:
    """``C[i, j] = cost_online(x_i, y_j)`` per Eq. (3)."""
    x = x_grid[:, None]
    y = y_grid[None, :]
    return np.where(y < x, y, x + break_even)


def _solve_dual_lp(
    cost: np.ndarray,
    adversary_rows: np.ndarray,
    adversary_rhs: np.ndarray,
    x_grid: np.ndarray,
) -> GameSolution:
    """Jointly minimize over (player P, dual multipliers λ).

    Inner problem: ``max_q (Pᵀ C) q`` s.t. ``A q = b, q >= 0`` has dual
    ``min_λ bᵀ λ`` s.t. ``Aᵀ λ >= Cᵀ P``.  Embedding the dual yields one
    LP over ``[P, λ]`` with objective ``bᵀ λ``, the simplex constraint on
    P, and ``Cᵀ P - Aᵀ λ <= 0`` per adversary column.
    """
    n = cost.shape[0]
    k = adversary_rows.shape[0]
    c_vec = np.concatenate([np.zeros(n), adversary_rhs])
    # Cᵀ P - Aᵀ λ <= 0.
    a_ub = np.hstack([cost.T, -adversary_rows.T])
    b_ub = np.zeros(cost.shape[1])
    a_eq = np.concatenate([np.ones(n), np.zeros(k)])[None, :]
    b_eq = np.array([1.0])
    bounds = [(0.0, None)] * n + [(None, None)] * k
    from scipy import optimize

    result = optimize.linprog(
        c=c_vec,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise SolverError(f"minimax LP failed: {result.message}")
    player = np.clip(result.x[:n], 0.0, None)
    total = player.sum()
    if total <= 0.0:
        raise SolverError("minimax LP returned an empty player distribution")
    return GameSolution(
        value=float(result.fun),
        thresholds=x_grid,
        player_distribution=player / total,
    )


def solve_unconstrained_game(break_even: float, grid_size: int = 120) -> GameSolution:
    """The classic game: adversary unconstrained, payoff = expected CR.

    Charnes-Cooper: substitute ``q' = q / E_q[offline]``; the adversary's
    feasible set becomes ``{q' >= 0 : Σ_j offline(y_j) q'_j = 1}`` and the
    payoff ``(Pᵀ C) q'`` is linear.  Game value → e/(e-1) as the grid
    refines.
    """
    b = validate_break_even(break_even)
    x_grid, y_grid = _grids(b, grid_size)
    cost = _cost_matrix(x_grid, y_grid, b)
    offline = np.minimum(y_grid, b)
    # Guard: a zero-length stop has zero offline cost and would make the
    # transform unbounded only if its online cost were positive; for
    # y = 0 the online cost is x + B > 0 when x = 0... actually for
    # y = 0 < x every strategy pays 0 except thresholds x = 0.  Dropping
    # y = 0 is safe: it never helps the adversary in ratio terms beyond
    # stops just below tiny thresholds, which the grid retains.
    keep = offline > 0.0
    return _solve_dual_lp(
        cost[:, keep],
        adversary_rows=offline[keep][None, :],
        adversary_rhs=np.array([1.0]),
        x_grid=x_grid,
    )


def solve_first_moment_game(
    break_even: float,
    mean_stop_length: float,
    grid_size: int = 120,
    tail_factor: float = 8.0,
) -> GameSolution:
    """Appendix B's claim, checked numerically: knowing only the *first
    moment* ``E[y] = mu`` does not improve on N-Rand.

    The adversary ranges over distributions with the given mean; the
    payoff is the expected CR (Charnes-Cooper normalized by offline
    cost, with the mean constraint transformed alongside).  The game
    value should stay at ``e/(e-1)`` for any ``mu`` large enough that
    the mean constraint is non-binding on the worst case — which is the
    paper's point: mass beyond ``B`` can absorb any mean, so the first
    moment carries no useful information.

    The adversary's stop grid extends to ``tail_factor * B`` so it has
    room to satisfy large means.
    """
    b = validate_break_even(break_even)
    mu = float(mean_stop_length)
    if not 0.0 < mu <= tail_factor * b:
        raise InvalidParameterError(
            f"mean must lie in (0, {tail_factor * b}], got {mean_stop_length!r}"
        )
    x_grid, y_grid = _grids(b, grid_size)
    # Extend the adversary's support deep past B.
    tail = np.linspace(1.5 * b, tail_factor * b, max(8, grid_size // 8))
    y_grid = np.unique(np.concatenate([y_grid, tail]))
    cost = _cost_matrix(x_grid, y_grid, b)
    offline = np.minimum(y_grid, b)
    keep = offline > 0.0
    y_grid, offline, cost = y_grid[keep], offline[keep], cost[:, keep]
    # Charnes-Cooper: q' = q / (off^T q); the normalization row becomes
    # off^T q' = 1 and the mean constraint E[y] = mu becomes
    # (y - mu * 1)^T q = 0, which is invariant under the scaling.
    rows = np.vstack([offline, y_grid - mu])
    rhs = np.array([1.0, 0.0])
    return _solve_dual_lp(cost, rows, rhs, x_grid)


def solve_constrained_game(stats: StopStatistics, grid_size: int = 120) -> GameSolution:
    """The paper's constrained game (Eq. 16), returning the CR value.

    The adversary is constrained to ``Q(mu_B_minus, q_B_plus)``; since the
    expected offline cost is constant over Q, the game value divided by
    that constant is the optimal worst-case expected CR, which must match
    the analytic vertex selection.
    """
    if stats.expected_offline_cost <= 0.0:
        raise DegenerateStatisticsError("degenerate statistics: offline cost is zero")
    b = stats.break_even
    x_grid, y_grid = _grids(b, grid_size)
    cost = _cost_matrix(x_grid, y_grid, b)
    short = y_grid < b
    long_mask = ~short
    # Constraints on q: short-stop mass-weighted mean, long mass, total.
    rows = np.vstack(
        [
            np.where(short, y_grid, 0.0),  # Σ y q over short = mu-
            long_mask.astype(float),       # Σ q over long = q+
            np.ones_like(y_grid),          # Σ q = 1
        ]
    )
    rhs = np.array([stats.mu_b_minus, stats.q_b_plus, 1.0])
    solution = _solve_dual_lp(cost, rows, rhs, x_grid)
    return GameSolution(
        value=solution.value / stats.expected_offline_cost,
        thresholds=solution.thresholds,
        player_distribution=solution.player_distribution,
    )
