"""Shared numeric helpers: rational-aware comparisons, parsing, formatting."""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

import numpy as np

# Half-width of the float band around a threshold treated as "on the boundary".
BOUNDARY_TOL = 1e-12
# Absolute tolerance for matching or deduplicating atom locations.
MATCH_ATOL = 1e-9
# Convergence tolerance (in the center variable) for window bisection.
BISECT_TOL = 1e-10


_PLAIN_EXACT = (int, Fraction)


class EnumerationLimitError(RuntimeError):
    """An exact enumeration would exceed its declared size cap."""


class ConvergenceError(RuntimeError):
    """An iterative solve reached its step cap with some rows unresolved."""


class InvarianceError(RuntimeError):
    """An estimator claims shift invariance but moves with the shift."""


def is_exact(*values) -> bool:
    """True when every value is an int or Fraction, so == is trustworthy.

    The plain types are tested first: the Rational ABC check is several
    times slower and this runs once per enumerated sample tuple.
    """
    return all(type(v) in _PLAIN_EXACT or isinstance(v, Rational) for v in values)


def parse_number(value):
    """Return value unchanged if numeric; parse strings ('3/4', '0.25') exactly.

    String inputs always produce a Fraction so that configs can opt in to
    exact arithmetic for atom locations, masses, and thresholds.
    """
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise TypeError(f"not a number: {value!r}")
    return value


def number_repr(value) -> str:
    """Stable text form: Fractions as 'p/q', floats via repr."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def number_doc(value):
    """JSON-ready value: Fractions as 'p/q' strings, anything else unchanged."""
    return number_repr(value) if isinstance(value, Fraction) else value


def within_threshold(
    distance, threshold, closed: bool = False, *, band: float = BOUNDARY_TOL
) -> bool:
    """Decide |estimate - shift| < threshold with a declared boundary rule.

    Exact inputs (ints, Fractions) compare exactly. Float inputs treat any
    distance within band (BOUNDARY_TOL unless the caller knows its rounding
    is coarser) of the threshold as sitting on the boundary, which counts as
    success only under the closed-interval convention.
    """
    if is_exact(distance, threshold):
        return distance <= threshold if closed else distance < threshold
    d = float(distance)
    t = float(threshold)
    if abs(d - t) <= band:
        return bool(closed)
    return d < t


def within_threshold_array(distances, threshold, closed: bool = False) -> np.ndarray:
    """Vectorized within_threshold for float arrays."""
    d = np.asarray(distances, dtype=float)
    t = float(threshold)
    boundary = np.abs(d - t) <= BOUNDARY_TOL
    return np.where(boundary, bool(closed), d < t)
