"""One-dimensional base laws, their shifts, and family classification.

Five families are supported: Gaussian, Exponential, Uniform, PiecewiseDensity
(linear interpolation between knots, zero outside), and FiniteAtoms (purely
atomic). Instances are immutable. Sampling is inverse-CDF driven for the
continuous families and cumulative-mass lookup for atoms, so a seed fully
determines every draw.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .util import MATCH_ATOL, np

__all__ = [
    "FamilyTraits",
    "Distribution",
    "ContinuousDistribution",
    "Gaussian",
    "Exponential",
    "Uniform",
    "PiecewiseDensity",
    "FiniteAtoms",
    "ShiftedDistribution",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class FamilyTraits:
    """Structural properties that decide which constructions and bounds apply.

    The flags are routing metadata, set analytically for the named families
    and numerically (from the knot table) for PiecewiseDensity. A density that
    decreases on [lo, inf) sets monotone_on_halfline. Exponential sets it
    alone, so the window rule, which needs unimodal or log_concave_strict,
    refuses it; PiecewiseDensity also sets unimodal on a decreasing table.
    FiniteAtoms sets no flag: atomic laws are told apart by their type.
    """

    unimodal: bool = False
    log_concave_strict: bool = False
    monotone_on_halfline: bool = False


class Distribution(abc.ABC):
    """Base law of the observation noise before any location shift."""

    @abc.abstractmethod
    def cdf(self, x):
        """P(X <= x); accepts scalars or arrays."""

    @abc.abstractmethod
    def ppf(self, u):
        """Generalized inverse of the CDF on u in [0, 1)."""

    @abc.abstractmethod
    def expected_value(self):
        """Mean of the base law."""

    @abc.abstractmethod
    def traits(self) -> FamilyTraits:
        """Classification flags for this law."""


class ContinuousDistribution(Distribution):
    """A law with a density; adds pdf/logpdf and support geometry."""

    @abc.abstractmethod
    def pdf(self, x): ...

    @abc.abstractmethod
    def logpdf(self, x): ...

    @abc.abstractmethod
    def support(self) -> tuple[float, float]:
        """(lo, hi) where the density can be positive; may be infinite."""

    @abc.abstractmethod
    def mode_interval(self) -> tuple[float, float]:
        """Leftmost and rightmost maximizers of the density."""

    def finite_support(self) -> tuple[float, float]:
        """Support with infinite endpoints replaced by the 1e-12 and 1 - 1e-12 quantiles."""
        lo, hi = self.support()
        if not math.isfinite(lo):
            lo = float(self.ppf(1e-12))
        if not math.isfinite(hi):
            hi = float(self.ppf(1.0 - 1e-12))
        return lo, hi


@dataclass(frozen=True)
class Gaussian(ContinuousDistribution):
    mean: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)

    def logpdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sigma
        return -0.5 * z * z - math.log(self.sigma * _SQRT_2PI)

    # scipy.special is imported on first use: it is most of a cold start, and
    # the exact paths never need it.
    def cdf(self, x):
        from scipy.special import ndtr

        return ndtr((np.asarray(x, dtype=float) - self.mean) / self.sigma)

    def ppf(self, u):
        from scipy.special import ndtri

        return self.mean + self.sigma * ndtri(np.asarray(u, dtype=float))

    def expected_value(self):
        return self.mean

    def support(self):
        return (-math.inf, math.inf)

    def mode_interval(self):
        return (self.mean, self.mean)

    def traits(self):
        return FamilyTraits(unimodal=True, log_concave_strict=True)


@dataclass(frozen=True)
class Exponential(ContinuousDistribution):
    rate: float = 1.0

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be positive")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(x >= 0.0, math.log(self.rate) - self.rate * x, -np.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        return -np.log1p(-u) / self.rate

    def expected_value(self):
        return 1.0 / self.rate

    def support(self):
        return (0.0, math.inf)

    def mode_interval(self):
        return (0.0, 0.0)

    def traits(self):
        return FamilyTraits(monotone_on_halfline=True)


@dataclass(frozen=True)
class Uniform(ContinuousDistribution):
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("hi must exceed lo")

    @property
    def _width(self):
        return self.hi - self.lo

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.lo) & (x <= self.hi), 1.0 / self._width, 0.0)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where((x >= self.lo) & (x <= self.hi), -math.log(self._width), -np.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lo) / self._width, 0.0, 1.0)

    def ppf(self, u):
        return self.lo + np.asarray(u, dtype=float) * self._width

    def expected_value(self):
        return 0.5 * (self.lo + self.hi)

    def support(self):
        return (float(self.lo), float(self.hi))

    def mode_interval(self):
        return (float(self.lo), float(self.hi))

    def traits(self):
        return FamilyTraits(unimodal=True)


class _LinearDensityTable:
    """Piecewise-linear density machinery of PiecewiseDensity.

    Holds knot positions x (strictly increasing) and nonnegative values f,
    interpreted as a density that interpolates linearly between knots and is
    zero outside [x[0], x[-1]]. No normalization is applied here.
    """

    def __init__(self, xs, fs):
        self.x = np.asarray(xs, dtype=float)
        self.f = np.asarray(fs, dtype=float)
        dx = np.diff(self.x)
        seg_mass = 0.5 * (self.f[:-1] + self.f[1:]) * dx
        self.cum = np.concatenate(([0.0], np.cumsum(seg_mass)))
        self.total = float(self.cum[-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            self.slope = np.where(dx > 0, np.diff(self.f) / dx, 0.0)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= self.x[0]) & (t <= self.x[-1])
        return np.where(inside, np.interp(t, self.x, self.f), 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, len(self.x) - 2)
        u = np.clip(t - self.x[idx], 0.0, np.diff(self.x)[idx])
        val = self.cum[idx] + self.f[idx] * u + 0.5 * self.slope[idx] * u * u
        val = np.where(t <= self.x[0], 0.0, val)
        val = np.where(t >= self.x[-1], self.total, val)
        return np.clip(val, 0.0, self.total)

    def ppf_mass(self, m):
        """Position where the accumulated mass from x[0] first reaches m."""
        m = np.clip(np.asarray(m, dtype=float), 0.0, self.total)
        idx = np.clip(np.searchsorted(self.cum, m, side="right") - 1, 0, len(self.x) - 2)
        r = m - self.cum[idx]
        b = self.f[idx]
        a = 0.5 * self.slope[idx]
        # Stable first root of a*u^2 + b*u = r on the segment.
        disc = np.sqrt(np.maximum(b * b + 4.0 * a * r, 0.0))
        denom = b + disc
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(denom > 0.0, 2.0 * r / denom, 0.0)
        return self.x[idx] + u

    def mean_unnormalized(self):
        x0, x1 = self.x[:-1], self.x[1:]
        f0, f1 = self.f[:-1], self.f[1:]
        # Integral of t*f(t) over each segment for linear f.
        return float(np.sum((x1 - x0) * (f0 * (2 * x0 + x1) + f1 * (x0 + 2 * x1)) / 6.0))


# Construction-time renormalization kicks in below this deviation; beyond it
# the table is treated as a mistake rather than roundoff.
_NORMALIZE_SLACK = 1e-3


@dataclass(frozen=True)
class PiecewiseDensity(ContinuousDistribution):
    """Density given as a table of (position, value) knots.

    The density interpolates linearly between knots and is zero outside the
    knot range. A total mass within 1e-3 of 1 is renormalized silently at
    construction; a larger deviation raises ValueError.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        knots = tuple((float(x), float(f)) for x, f in self.knots)
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        xs = [x for x, _ in knots]
        fs = [f for _, f in knots]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("knot positions must be strictly increasing")
        if any(f < 0 for f in fs):
            raise ValueError("density values must be nonnegative")
        total = sum(0.5 * (f0 + f1) * (b - a) for (a, f0), (b, f1) in zip(knots, knots[1:]))
        if total <= 0:
            raise ValueError("density integrates to zero")
        if abs(total - 1.0) >= _NORMALIZE_SLACK:
            raise ValueError(
                f"density integrates to {total:.6g}, expected 1 within {_NORMALIZE_SLACK}"
            )
        if total != 1.0:
            knots = tuple((x, f / total) for x, f in knots)
        object.__setattr__(self, "knots", knots)

    @cached_property
    def _table(self) -> _LinearDensityTable:
        return _LinearDensityTable([x for x, _ in self.knots], [f for _, f in self.knots])

    def pdf(self, x):
        return self._table.pdf(x)

    def logpdf(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self._table.pdf(x))

    def cdf(self, x):
        return self._table.cdf(x)

    def ppf(self, u):
        return self._table.ppf_mass(np.asarray(u, dtype=float) * self._table.total)

    def expected_value(self):
        return self._table.mean_unnormalized()

    def support(self):
        return (self.knots[0][0], self.knots[-1][0])

    def mode_interval(self):
        fs = [f for _, f in self.knots]
        peak = max(fs)
        idx = [i for i, f in enumerate(fs) if f == peak]
        return (self.knots[idx[0]][0], self.knots[idx[-1]][0])

    def traits(self):
        fs = [f for _, f in self.knots]
        peak = fs.index(max(fs))
        rises = all(a <= b for a, b in zip(fs[: peak + 1], fs[1 : peak + 1]))
        falls = all(a >= b for a, b in zip(fs[peak:], fs[peak + 1 :]))
        unimodal = rises and falls
        log_concave = all(f > 0 for f in fs)
        if log_concave:
            slopes = [
                (math.log(f1) - math.log(f0)) / (x1 - x0)
                for (x0, f0), (x1, f1) in zip(self.knots, self.knots[1:])
            ]
            log_concave = all(s1 < s0 for s0, s1 in zip(slopes, slopes[1:]))
        monotone = all(a >= b for a, b in zip(fs, fs[1:])) and fs[0] > 0
        return FamilyTraits(
            unimodal=unimodal,
            log_concave_strict=log_concave,
            monotone_on_halfline=monotone,
        )


@dataclass(frozen=True)
class FiniteAtoms(Distribution):
    """Purely atomic law: a finite list of (location, mass) pairs.

    Locations must be strictly increasing and separated by more than 1e-9;
    masses must be positive and sum to 1 within 1e-12. Locations and masses
    may be Fractions, in which case downstream discrete computations stay
    exact.
    """

    atoms: tuple[tuple[object, object], ...]

    def __post_init__(self):
        atoms = tuple((z, m) for z, m in self.atoms)
        if not atoms:
            raise ValueError("need at least one atom")
        locs = [z for z, _ in atoms]
        masses = [m for _, m in atoms]
        if any(float(b) - float(a) <= MATCH_ATOL for a, b in zip(locs, locs[1:])):
            raise ValueError(f"atom locations must be strictly increasing with gaps above {MATCH_ATOL}")
        if any(not (m > 0) for m in masses):
            raise ValueError("atom masses must be positive")
        total = sum(masses)
        if abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"atom masses sum to {float(total):.12g}, expected 1")
        object.__setattr__(self, "atoms", atoms)

    @property
    def locations(self) -> tuple:
        return tuple(z for z, _ in self.atoms)

    @property
    def masses(self) -> tuple:
        return tuple(m for _, m in self.atoms)

    @cached_property
    def _loc_array(self) -> np.ndarray:
        return np.array([float(z) for z in self.locations])

    @cached_property
    def _cum_array(self) -> np.ndarray:
        return np.cumsum([float(m) for m in self.masses])

    def pdf(self, x):
        raise TypeError("a finite atomic law has no density")

    def cdf(self, x):
        idx = np.searchsorted(self._loc_array, np.asarray(x, dtype=float), side="right")
        cum0 = np.concatenate(([0.0], self._cum_array))
        return cum0[idx]

    def ppf(self, u):
        # Cumulative-mass lookup: smallest atom whose cumulative mass reaches u.
        idx = np.searchsorted(self._cum_array, np.asarray(u, dtype=float), side="left")
        idx = np.minimum(idx, len(self.atoms) - 1)
        return self._loc_array[idx]

    def expected_value(self):
        return sum(z * m for z, m in self.atoms)

    def traits(self):
        return FamilyTraits()


@dataclass(frozen=True)
class ShiftedDistribution:
    """A base law translated by theta; the object the estimators never see."""

    base: Distribution
    theta: float

    def cdf(self, x):
        return self.base.cdf(x - self.theta)

    def pdf(self, x):
        return self.base.pdf(x - self.theta)

    def sample_with_rng(self, rng: np.random.Generator, shape) -> np.ndarray:
        u = rng.random(shape)
        return float(self.theta) + np.asarray(self.base.ppf(u), dtype=float)
