"""Worst-case threshold-quality estimation of location parameters.

The library asks, for an estimator e and noise law mu: over every possible
true shift theta, what is the worst-case probability that e lands within
delta of theta? It provides optimal estimator constructions for several
families, matching upper bounds (window and packing ceilings), an averaging
construction on the circle, and an exact rational counterexample on the
trivalent tree where no estimator is uniformly best.

Each public name is imported from its module on first access (PEP 562), so
`import shiftq` loads only util, and a command loads only the engines it runs.
"""

import importlib

from . import util  # noqa: F401  a missing numpy fails here (util.lazy_import), not at first use

__version__ = "0.1.0"

# The module that defines each public name.
_EXPORTS = {
    "bounds": (
        "BoundReport", "SumsetAverageBound", "applicable_bounds", "coefficient_sumset",
        "packing_bound_discrete", "packing_bound_halfline", "sumset_average_bound",
        "window_bound_log_concave", "window_bound_one_sample",
    ),
    "compact_circle": (
        "CircleAveragingReport", "CircleEstimator", "averaging_check", "biased_mean_circle_estimator",
        "circle_distance", "circle_quality_at", "constant_circle_estimator", "invariant_from_coset",
        "warped_circle_estimator",
    ),
    "config": (
        "ConfigError", "EstimatorSpec", "ExperimentConfig", "MCConfig", "OutputSpec", "parse_config",
        "serialize_config",
    ),
    "distributions": (
        "CircleDensity", "Distribution", "Exponential", "FamilyTraits", "FiniteAtoms", "Gaussian",
        "PiecewiseDensity", "ShiftedDistribution", "Uniform", "uniform_circle_density", "wrap",
    ),
    "estimators": (
        "Estimator", "RandomizedEstimator", "constant_estimator", "discrete_mle_estimator",
        "invariant_extension", "mean_estimator", "min_shift_estimator", "mixture", "window_mle_estimator",
    ),
    "group_tree": (
        "TreeDistribution", "ball", "distance", "exact_quality_tree", "inverse", "left_translate_estimator",
        "multiply", "quality_inf_ball", "reduce_word", "right_translate_estimator",
        "standard_tree_distribution", "table_estimator", "truncation_estimator",
    ),
    "quality": (
        "QualityReport", "ThetaQuality", "default_theta_grid", "exact_quality_discrete", "quality_at",
        "quality_inf", "wilson_halfwidth",
    ),
    "util": ("ConvergenceError", "EnumerationLimitError", "InvarianceError", "parse_number", "within_threshold"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
