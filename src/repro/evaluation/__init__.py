"""Competitive-analysis harness: fleet evaluation, traffic sweeps and
Monte-Carlo estimators."""

from .._lazy import lazy_exports

__all__ = [
    "STRATEGY_NAMES",
    "StrategyPlan",
    "select_vertex",
    "fleet_cr_matrix",
    "build_strategies",
    "VehicleEvaluation",
    "FleetEvaluation",
    "evaluate_vehicle",
    "evaluate_fleet",
    "SweepResult",
    "sweep_simulated",
    "sweep_analytic",
    "MonteCarloCR",
    "monte_carlo_cr",
    "bootstrap_cr_interval",
    "MeanDifference",
    "paired_bootstrap_mean_difference",
    "win_rate_interval",
    "compare_strategies",
    "HoldoutComparison",
    "holdout_evaluate_vehicle",
    "holdout_evaluate_fleet",
    "compare_in_vs_out_of_sample",
    "CostMoments",
    "weekly_cost_moments",
    "risk_report",
    "ParetoPoint",
    "pareto_frontier",
    "vehicle_pareto_report",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".batch": ("StrategyPlan", "fleet_cr_matrix", "select_vertex"),
    ".competitive": (
        "STRATEGY_NAMES", "FleetEvaluation", "VehicleEvaluation", "build_strategies",
        "evaluate_fleet", "evaluate_vehicle",
    ),
    ".holdout": (
        "HoldoutComparison", "compare_in_vs_out_of_sample", "holdout_evaluate_fleet",
        "holdout_evaluate_vehicle",
    ),
    ".montecarlo": ("MonteCarloCR", "bootstrap_cr_interval", "monte_carlo_cr"),
    ".significance": (
        "MeanDifference", "compare_strategies", "paired_bootstrap_mean_difference",
        "win_rate_interval",
    ),
    ".sweep": ("SweepResult", "sweep_analytic", "sweep_simulated"),
    ".pareto": ("ParetoPoint", "pareto_frontier", "vehicle_pareto_report"),
    ".variance": ("CostMoments", "risk_report", "weekly_cost_moments"),
})
