"""Stop-length distribution toolkit.

Everything the evaluation layers integrate against: analytic parametric
families, finite mixtures, empirical samples, adversarial discrete
constructions, mean-scaling (Figures 5-6) and goodness-of-fit diagnostics
(Figure 3).
"""

from .._lazy import lazy_exports

__all__ = [
    "StopLengthDistribution",
    "CensoredDistribution",
    "DiscreteStopDistribution",
    "two_point",
    "three_point",
    "EmpiricalDistribution",
    "MixtureDistribution",
    "Exponential",
    "Uniform",
    "LogNormal",
    "Weibull",
    "Pareto",
    "ScipyDistribution",
    "ScaledDistribution",
    "scale_to_mean",
    "KSResult",
    "ks_test_exponential",
    "tail_weight",
    "moment_summary",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".base": ("StopLengthDistribution",),
    ".censored": ("CensoredDistribution",),
    ".discrete": ("DiscreteStopDistribution", "three_point", "two_point"),
    ".empirical": ("EmpiricalDistribution",),
    ".fitting": ("KSResult", "ks_test_exponential", "moment_summary", "tail_weight"),
    ".mixture": ("MixtureDistribution",),
    ".parametric": (
        "Exponential", "LogNormal", "Pareto", "ScipyDistribution", "Uniform", "Weibull",
    ),
    ".scaled": ("ScaledDistribution", "scale_to_mean"),
})
