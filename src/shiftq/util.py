"""Shared numeric helpers: rational-aware comparisons, parsing, formatting, lazy numpy."""

from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction
from numbers import Rational

# Half-width of the float band around a threshold treated as "on the boundary".
BOUNDARY_TOL = 1e-12
# Absolute tolerance for matching or deduplicating atom locations.
MATCH_ATOL = 1e-9
# Convergence tolerance (in the center variable) for window bisection.
BISECT_TOL = 1e-10


_PLAIN_EXACT = (int, Fraction)


def lazy_import(name: str):
    """The module name, whose code runs on its first attribute access, not here.

    A module already in sys.modules is returned as it is. A missing one fails
    here, as `import name` would, with ModuleNotFoundError: find_spec finds
    no spec for it, also when sys.modules holds None for it. The load itself
    is importlib.util.LazyLoader's, which is not safe when two threads make
    the first access at once; shiftq runs in one thread (mc.parallelism is
    accepted and ignored).
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# numpy loads inside the first Monte Carlo call: the exact engines never need it,
# and its import is most of a cold start without it.
np = lazy_import("numpy")


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


def common_denominator(values) -> int:
    """D, the lcm of the denominators of exact values; D * v is an integer for each."""
    return math.lcm(*(v.denominator for v in values))


def lattice_ints(values, scale: int) -> list[int]:
    """The exact values times scale, as Python ints; scale is a multiple of every denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


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


def sum_columns(cols: np.ndarray) -> np.ndarray:
    """cols[0] + ... + cols[n-1] elementwise, in numpy's pairwise order.

    cols holds one sample column per entry of its first axis: an (n, rows)
    block, or x.T for an (m, n) sample matrix x. The additions follow numpy's
    pairwise summation from its identity +0.0: sequential below 8 terms,
    eight strided accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    and then the remainder up to 128 terms, halving above that. That is the
    order of x.sum(axis=1) on a C-ordered x, so the result equals it bit for
    bit; but numpy pays one inner-loop call per short row, and this pays one
    vector add per column. Minima and maxima need no such care:
    functools.reduce(np.minimum, x.T) is x.min(axis=1) exactly.
    """

    def pairwise(c):
        n = len(c)
        if n < 8:
            total = c[0].copy()
            for col in c[1:]:
                total += col
            return total
        if n <= 128:
            r = [c[j].copy() for j in range(8)]
            for i in range(8, n - n % 8, 8):
                for j in range(8):
                    r[j] += c[i + j]
            total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            for col in c[n - n % 8 :]:
                total += col
            return total
        half = n // 2 - (n // 2) % 8
        return pairwise(c[:half]) + pairwise(c[half:])

    total = pairwise(cols)
    total += 0.0  # numpy's reduction starts from +0.0, which turns a -0.0 sum into +0.0
    return total


def within_threshold_array(distances, threshold, closed: bool = False) -> np.ndarray:
    """Vectorized within_threshold for float arrays, as a bool array.

    One subtraction and one comparison: gap = t - d is below -BOUNDARY_TOL
    outside the threshold, within BOUNDARY_TOL of 0 on the boundary and above
    BOUNDARY_TOL inside it. IEEE rounding is symmetric, so gap is exactly
    -(d - t), and the result equals within_threshold's |d - t| <= band test
    followed by d < t at every input, NaN and +-inf included (a NaN gap fails
    both comparisons).
    """
    gap = float(threshold) - np.asarray(distances, dtype=float)
    return gap >= -BOUNDARY_TOL if closed else gap > BOUNDARY_TOL
