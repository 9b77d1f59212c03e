"""The explicit linear program of Section 4.4.

After the augmented-Lagrangian elimination (Sections 4.1-4.3), the
constrained ski-rental problem reduces to the LP of Eqs. (32)-(33) over
the atom masses ``(α, β, γ)`` of the generic strategy form:

.. math::

    \\min_{\\alpha, \\beta, \\gamma}\\;
        K_\\alpha \\alpha + K_\\beta \\beta + K_\\gamma \\gamma
        + \\tfrac{e}{e-1}(\\mu^- + q^+ B)
    \\quad \\text{s.t. } \\alpha + \\beta + \\gamma \\le 1,\\;
        \\alpha, \\beta, \\gamma \\ge 0

with the vertex-cost deltas

* ``K_α = B − e/(e−1)(μ⁻ + q⁺B)``                      (TOI minus N-Rand),
* ``K_β = (μ⁻ + 2q⁺B) − e/(e−1)(μ⁻ + q⁺B)``            (DET minus N-Rand),
* ``K_γ = (√μ⁻ + √(q⁺B))² − e/(e−1)(μ⁻ + q⁺B)``        (b-DET at the
  worst-case ``μ₁ = 0``, ``q₂ = μ⁻/b*`` — minus N-Rand); b-DET is excluded
  (``γ = 0``) when condition (36) fails.

Solving this LP with :func:`scipy.optimize.linprog` and reading the
optimal vertex off the basic solution is an independent cross-check of the
analytic selection rule in
:class:`repro.core.constrained.ConstrainedSkiRentalSolver`; the two are
asserted to agree (and the library treats disagreement as a bug via
:class:`~repro.errors.SolverError`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import E
from ..errors import SolverError
from .constrained import (
    ConstrainedSkiRentalSolver,
    Selection,
    worst_case_cost_bdet,
)
from .stats import StopStatistics

__all__ = ["LPCoefficients", "lp_coefficients", "solve_lp", "verify_against_lp"]


@dataclass(frozen=True)
class LPCoefficients:
    """The objective coefficients of Eq. (32) plus the constant term."""

    k_alpha: float
    k_beta: float
    k_gamma: float
    constant: float
    b_det_admissible: bool


def lp_coefficients(stats: StopStatistics) -> LPCoefficients:
    """Compute ``K_α``, ``K_β``, ``K_γ`` and the N-Rand constant term."""
    offline = stats.expected_offline_cost
    n_rand_cost = E / (E - 1.0) * offline
    bdet_cost = worst_case_cost_bdet(stats)
    admissible = math.isfinite(bdet_cost)
    return LPCoefficients(
        k_alpha=stats.break_even - n_rand_cost,
        k_beta=(stats.mu_b_minus + 2.0 * stats.q_b_plus * stats.break_even) - n_rand_cost,
        k_gamma=(bdet_cost - n_rand_cost) if admissible else math.inf,
        constant=n_rand_cost,
        b_det_admissible=admissible,
    )


@dataclass(frozen=True)
class LPSolution:
    """Optimal atom masses and the resulting worst-case expected cost."""

    alpha: float
    beta: float
    gamma: float
    cost: float
    vertex_name: str


def solve_lp(stats: StopStatistics) -> LPSolution:
    """Solve the Section 4.4 LP numerically with HiGHS.

    The optimum is always at a vertex of the simplex
    ``{α + β + γ <= 1, α, β, γ >= 0}``; the returned ``vertex_name`` maps
    the basic solution back to the strategy names (N-Rand for the origin).
    """
    coefficients = lp_coefficients(stats)
    if coefficients.b_det_admissible:
        c = np.array([coefficients.k_alpha, coefficients.k_beta, coefficients.k_gamma])
        bounds = [(0.0, 1.0)] * 3
    else:
        c = np.array([coefficients.k_alpha, coefficients.k_beta, 0.0])
        bounds = [(0.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
    from scipy import optimize

    result = optimize.linprog(
        c=c,
        A_ub=np.array([[1.0, 1.0, 1.0]]),
        b_ub=np.array([1.0]),
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise SolverError(f"Section 4.4 LP failed to solve: {result.message}")
    alpha, beta, gamma = (float(v) for v in result.x)
    cost = float(result.fun) + coefficients.constant
    masses = {"TOI": alpha, "DET": beta, "b-DET": gamma}
    dominant = max(masses, key=masses.get)
    vertex_name = dominant if masses[dominant] > 0.5 else "N-Rand"
    return LPSolution(alpha=alpha, beta=beta, gamma=gamma, cost=cost, vertex_name=vertex_name)


def verify_against_lp(stats: StopStatistics, tolerance: float = 1e-7) -> Selection:
    """Run both the analytic vertex selection and the numeric LP; raise
    :class:`SolverError` if their optimal costs disagree beyond tolerance.

    Returns the analytic :class:`Selection` on success.  (The *names* may
    legitimately differ on region boundaries where two vertices tie; only
    the optimal cost is asserted.)
    """
    selection = ConstrainedSkiRentalSolver(stats).select()
    lp_solution = solve_lp(stats)
    analytic_cost = selection.chosen.worst_case_cost
    scale = max(1.0, abs(analytic_cost))
    if abs(lp_solution.cost - analytic_cost) > tolerance * scale:
        raise SolverError(
            "analytic vertex selection and Section 4.4 LP disagree: "
            f"analytic cost {analytic_cost} ({selection.name}) vs "
            f"LP cost {lp_solution.cost} ({lp_solution.vertex_name}) for {stats!r}"
        )
    return selection
