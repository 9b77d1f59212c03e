"""The paper's core contribution: ski-rental costs, baseline strategies,
and the constrained ski-rental solver (Sections 2-4)."""

from .._lazy import lazy_exports

__all__ = [
    # costs
    "offline_cost",
    "online_cost",
    "competitive_ratio",
    "offline_cost_vec",
    "online_cost_vec",
    "competitive_ratio_vec",
    # statistics
    "StopStatistics",
    "mu_b_minus_from_samples",
    "q_b_plus_from_samples",
    # strategy classes
    "Strategy",
    "DeterministicThresholdStrategy",
    "ContinuousRandomizedStrategy",
    "MixedStrategy",
    "Atom",
    # baselines
    "NeverOff",
    "TurnOffImmediately",
    "Deterministic",
    "BDet",
    "NRand",
    "MOMRand",
    "optimal_b",
    "b_det_condition_holds",
    "b_det_worst_case_cost",
    "mom_rand_uses_revised_pdf",
    "mom_rand_cr_prime_bound",
    # tail-risk control
    "TailRiskRand",
    "max_nrand_weight",
    "tail_cap_feasible",
    # constrained solver
    "ConstrainedSkiRentalSolver",
    "ProposedOnline",
    "Selection",
    "VertexEvaluation",
    "worst_case_cost_nrand",
    "worst_case_cost_toi",
    "worst_case_cost_det",
    "worst_case_cost_bdet",
    # LP cross-check
    "LPCoefficients",
    "lp_coefficients",
    "solve_lp",
    "verify_against_lp",
    # adversaries
    "worst_case_for_bdet",
    "conditional_mean_adversary",
    "appendix_a_adversary",
    # analysis
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
    # batched kernels
    "PrefixSumSample",
    "strategy_cost",
    "empirical_cr_kernel",
    "bootstrap_resample_indices",
    "bootstrap_cr_samples",
    "gauss_legendre_rule",
    "quantile_pair",
    # regions
    "RegionGrid",
    "compute_region_grid",
    "cr_slice",
    "STRATEGY_CODES",
    # extensions
    "AdaptiveProposed",
    "ContextualProposed",
    "hour_of_day_context",
    "OptimalThreshold",
    "optimal_threshold",
    "expected_cost_of_threshold",
    "exponential_expected_cost",
    "exponential_optimal_threshold",
    "Slope",
    "MultislopeProblem",
    "FollowTheEnvelope",
    "MultislopeGameSolution",
    "pure_strategy_cost",
    "solve_multislope_game",
    # minimax validation & the b-Rand improvement
    "GameSolution",
    "solve_unconstrained_game",
    "solve_constrained_game",
    "BRand",
    "optimal_beta",
    "b_rand_worst_case_cost",
    "ImprovedSelection",
    "ImprovedConstrainedSolver",
    # learning-augmented
    "psk_threshold",
    "consistency_bound",
    "robustness_bound",
    "PSKStrategy",
    "PredictedThreshold",
    "NoisyOracle",
    # misspecification sensitivity
    "perturbed_statistics",
    "misspecified_worst_case_cr",
    "robustness_margin",
    # serialization
    "strategy_to_dict",
    "strategy_from_dict",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".adaptive": ("AdaptiveProposed",),
    ".contextual": ("ContextualProposed", "hour_of_day_context"),
    ".tailrisk": ("TailRiskRand", "max_nrand_weight", "tail_cap_feasible"),
    ".adversary": (
        "appendix_a_adversary", "conditional_mean_adversary", "worst_case_for_bdet",
    ),
    ".analysis": (
        "empirical_cr", "empirical_offline_cost", "empirical_online_cost",
        "expected_cr", "expected_cr_prime", "expected_offline_cost",
        "expected_online_cost", "monte_carlo_online_cost", "worst_case_cr",
        "worst_case_cr_prime", "worst_case_expected_cost",
    ),
    ".constrained": (
        "ConstrainedSkiRentalSolver", "ProposedOnline", "Selection", "VertexEvaluation",
        "worst_case_cost_bdet", "worst_case_cost_det", "worst_case_cost_nrand",
        "worst_case_cost_toi",
    ),
    ".costs": (
        "competitive_ratio", "competitive_ratio_vec", "offline_cost",
        "offline_cost_vec", "online_cost", "online_cost_vec",
    ),
    ".kernels": (
        "PrefixSumSample", "bootstrap_cr_samples", "bootstrap_resample_indices",
        "empirical_cr_kernel", "gauss_legendre_rule", "quantile_pair", "strategy_cost",
    ),
    ".deterministic": (
        "BDet", "Deterministic", "NeverOff", "TurnOffImmediately",
        "b_det_condition_holds", "b_det_worst_case_cost", "optimal_b",
    ),
    ".averagecase": (
        "OptimalThreshold", "exponential_expected_cost",
        "exponential_optimal_threshold", "expected_cost_of_threshold",
        "optimal_threshold",
    ),
    ".prediction": (
        "NoisyOracle", "PredictedThreshold", "PSKStrategy", "consistency_bound",
        "psk_threshold", "robustness_bound",
    ),
    ".brand": (
        "BRand", "ImprovedConstrainedSolver", "ImprovedSelection",
        "b_rand_worst_case_cost", "optimal_beta",
    ),
    ".lp": ("LPCoefficients", "lp_coefficients", "solve_lp", "verify_against_lp"),
    ".minimax": ("GameSolution", "solve_constrained_game", "solve_unconstrained_game"),
    ".multislope": ("FollowTheEnvelope", "MultislopeProblem", "Slope"),
    ".multislope_game": (
        "MultislopeGameSolution", "pure_strategy_cost", "solve_multislope_game",
    ),
    ".randomized": (
        "MOMRand", "NRand", "mom_rand_cr_prime_bound", "mom_rand_uses_revised_pdf",
    ),
    ".serialize": ("strategy_from_dict", "strategy_to_dict"),
    ".sensitivity": (
        "misspecified_worst_case_cr", "perturbed_statistics", "robustness_margin",
    ),
    ".regions": ("STRATEGY_CODES", "RegionGrid", "compute_region_grid", "cr_slice"),
    ".stats": ("StopStatistics", "mu_b_minus_from_samples", "q_b_plus_from_samples"),
    ".strategy": (
        "Atom", "ContinuousRandomizedStrategy", "DeterministicThresholdStrategy",
        "MixedStrategy", "Strategy",
    ),
})
