"""Property-based tests (hypothesis) for the core ski-rental invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constants import E
from repro.core.analysis import empirical_cr, expected_online_cost
from repro.core.constrained import ConstrainedSkiRentalSolver, ProposedOnline
from repro.core.costs import competitive_ratio, offline_cost, online_cost
from repro.core.deterministic import (
    b_det_condition_holds,
    b_det_worst_case_cost,
    optimal_b,
)
from repro.core.lp import solve_lp
from repro.core.randomized import MOMRand, NRand
from repro.core.stats import StopStatistics
from repro.distributions import DiscreteStopDistribution

from .conftest import feasible_statistics, stop_samples

positive_b = st.floats(min_value=0.5, max_value=500.0, allow_nan=False)
lengths = st.floats(min_value=0.0, max_value=5000.0, allow_nan=False)


class TestCostInvariants:
    @given(x=lengths, y=lengths, b=positive_b)
    def test_online_dominates_offline(self, x, y, b):
        assert online_cost(x, y, b) >= offline_cost(y, b) - 1e-9

    @given(x=lengths, y=lengths, b=positive_b)
    def test_online_at_most_threshold_plus_restart(self, x, y, b):
        assert online_cost(x, y, b) <= x + b + 1e-9

    @given(y=st.floats(min_value=1e-3, max_value=5000.0), b=positive_b)
    def test_det_ratio_at_most_two(self, y, b):
        assert competitive_ratio(b, y, b) <= 2.0 + 1e-9

    @given(y=lengths, b=positive_b)
    def test_offline_capped_at_break_even(self, y, b):
        assert offline_cost(y, b) <= b


class TestNRandInvariant:
    @given(y=st.floats(min_value=1e-6, max_value=5000.0), b=positive_b)
    def test_pointwise_ratio_constant(self, y, b):
        nrand = NRand(b)
        assert nrand.expected_cost(y) / offline_cost(y, b) == pytest.approx(
            E / (E - 1), rel=1e-9
        )


class TestMOMRandInvariant:
    @given(
        y=st.floats(min_value=0.0, max_value=5000.0),
        b=positive_b,
        mu_frac=st.floats(min_value=0.0, max_value=0.83),
    )
    def test_revised_cost_closed_form_ratio(self, y, b, mu_frac):
        # In the revised regime the pointwise ratio is
        # 1 + min(y, B) / (2B(e-2)): below N-Rand's e/(e-1) for short
        # stops, above it near y = B (the trade-off that makes MOM-Rand's
        # guarantee an *expectation* bound, not a pointwise one).
        mom = MOMRand(b, mu_frac * b)
        cost = mom.expected_cost(y)
        assert cost >= offline_cost(y, b) - 1e-9
        if mom.uses_revised_pdf and y > 0:
            ratio = cost / offline_cost(y, b)
            assert ratio == pytest.approx(
                1.0 + min(y, b) / (2.0 * b * (E - 2.0)), rel=1e-9
            )
        else:
            assert cost <= NRand(b).expected_cost(y) + 1e-9


class TestStatisticsInvariants:
    @given(stops=stop_samples(), b=positive_b)
    def test_sample_statistics_always_feasible(self, stops, b):
        stats = StopStatistics.from_samples(stops, b)
        assert 0.0 <= stats.q_b_plus <= 1.0
        assert stats.mu_b_minus <= (1.0 - stats.q_b_plus) * b + 1e-9

    @given(stats=feasible_statistics())
    def test_offline_cost_at_most_break_even(self, stats):
        assert stats.expected_offline_cost <= stats.break_even + 1e-9


class TestSolverInvariants:
    @given(stats=feasible_statistics())
    @settings(max_examples=200)
    def test_proposed_cr_bounded(self, stats):
        assume(stats.expected_offline_cost > 1e-9)
        selection = ConstrainedSkiRentalSolver(stats).select()
        assert 1.0 - 1e-9 <= selection.worst_case_cr <= E / (E - 1) + 1e-9

    @given(stats=feasible_statistics())
    @settings(max_examples=200)
    def test_chosen_cost_is_min_of_vertices(self, stats):
        assume(stats.expected_offline_cost > 1e-9)
        selection = ConstrainedSkiRentalSolver(stats).select()
        finite = [
            v.worst_case_cost
            for v in selection.vertices
            if math.isfinite(v.worst_case_cost)
        ]
        assert selection.chosen.worst_case_cost == pytest.approx(min(finite))

    @given(stats=feasible_statistics())
    @settings(max_examples=100, deadline=None)
    def test_lp_agrees_with_analytic(self, stats):
        assume(stats.expected_offline_cost > 1e-9)
        selection = ConstrainedSkiRentalSolver(stats).select()
        lp_solution = solve_lp(stats)
        scale = max(1.0, selection.chosen.worst_case_cost)
        assert abs(lp_solution.cost - selection.chosen.worst_case_cost) < 1e-7 * scale

    @given(
        break_even=st.floats(min_value=1.0, max_value=100.0),
        q=st.floats(min_value=0.001, max_value=0.999),
        u=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=100)
    def test_b_star_minimizes_eq34(self, break_even, q, u):
        # mu⁻/B = u·min((1-q⁺)²/q⁺, q⁺, 1-q⁺) with u < 1 satisfies
        # condition (36), b* < B and feasibility by construction, so no
        # input is filtered.
        mu = u * break_even * min((1.0 - q) ** 2 / q, q, 1.0 - q)
        stats = StopStatistics(mu_b_minus=mu, q_b_plus=q, break_even=break_even)
        assert b_det_condition_holds(stats)
        b_star = optimal_b(stats)
        assert 0.0 < b_star < stats.break_even

        def eq34(b):
            return (b + stats.break_even) * (stats.mu_b_minus / b + stats.q_b_plus)

        assert eq34(b_star) == pytest.approx(b_det_worst_case_cost(stats), rel=1e-9)
        for factor in (0.5, 0.9, 1.1, 2.0):
            other = b_star * factor
            if 0.0 < other < stats.break_even:
                assert eq34(b_star) <= eq34(other) + 1e-9


class TestEndToEndInvariant:
    @given(stops=stop_samples(max_size=100), b=positive_b)
    @settings(max_examples=100, deadline=None)
    def test_proposed_cr_at_least_one_on_any_sample(self, stops, b):
        assume(float(np.minimum(stops, b).mean()) > 1e-9)
        proposed = ProposedOnline.from_samples(stops, b)
        assert empirical_cr(proposed, stops, b) >= 1.0 - 1e-9

    @given(
        short=st.floats(min_value=0.1, max_value=0.9),
        q=st.floats(min_value=0.01, max_value=0.99),
        b=positive_b,
    )
    @settings(max_examples=100, deadline=None)
    def test_proposed_never_worse_than_guarantee_on_two_point(self, short, q, b):
        # Evaluate the proposed strategy on an arbitrary two-point member
        # of Q: its realized expected CR never exceeds its guarantee.
        dist = DiscreteStopDistribution([short * b, 2.0 * b], [1.0 - q, q])
        stats = StopStatistics.from_distribution(dist, b)
        proposed = ProposedOnline(stats)
        realized = expected_online_cost(proposed, dist) / stats.expected_offline_cost
        assert realized <= proposed.worst_case_cr + 1e-9
