import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from shiftq import (
    Exponential,
    FamilyTraits,
    FiniteAtoms,
    Gaussian,
    PiecewiseDensity,
    ShiftedDistribution,
    Uniform,
    discrete_mle_estimator,
)
from shiftq.distributions import CircleDensity, wrap
from tests.conftest import KS_CRIT

# Frozen reference values (independent CDF oracles).
STD_NORMAL_PEAK = 0.3989422804014327  # 1/sqrt(2*pi)
UNIT_WINDOW_MASS = 0.6826894921370859  # Phi(1) - Phi(-1)
EXPO_HALF_MASS = 0.3934693402873666  # 1 - exp(-1/2)


def test_gaussian_matches_frozen_values():
    d = Gaussian(0.0, 1.0)
    assert d.pdf(0.0) == pytest.approx(STD_NORMAL_PEAK, abs=1e-15)
    assert d.cdf(1.0) - d.cdf(-1.0) == pytest.approx(UNIT_WINDOW_MASS, abs=1e-14)
    assert d.ppf(0.5) == pytest.approx(0.0, abs=1e-12)
    assert d.expected_value() == 0.0
    assert Gaussian(3.0, 2.0).mode_interval() == (3.0, 3.0)


def test_exponential_matches_frozen_values():
    d = Exponential(1.0)
    assert d.cdf(0.5) == pytest.approx(EXPO_HALF_MASS, abs=1e-14)
    assert d.pdf(-1.0) == 0.0
    assert d.pdf(0.0) == pytest.approx(1.0)
    assert d.expected_value() == pytest.approx(1.0)
    assert Exponential(2.0).cdf(0.25) == pytest.approx(EXPO_HALF_MASS, abs=1e-14)


def test_uniform_basics():
    d = Uniform(1.0, 3.0)
    assert d.pdf(2.0) == pytest.approx(0.5)
    assert d.pdf(0.0) == 0.0
    assert d.cdf(2.0) == pytest.approx(0.5)
    assert d.ppf(0.25) == pytest.approx(1.5)
    assert d.mode_interval() == (1.0, 3.0)
    with pytest.raises(ValueError):
        Uniform(1.0, 1.0)


@pytest.mark.parametrize(
    "d",
    [
        Gaussian(0.0, 1.0),
        Gaussian(-2.0, 0.5),
        Exponential(0.7),
        Uniform(-1.0, 2.0),
        PiecewiseDensity(knots=((0.0, 0.0), (1.0, 0.75), (2.0, 0.25), (3.0, 0.0))),
    ],
)
def test_continuous_densities_integrate_to_one(d):
    lo, hi = d.finite_support()
    mass, err = integrate.quad(lambda x: float(d.pdf(x)), lo, hi, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-6 + 10 * err)


@pytest.mark.parametrize(
    "d",
    [
        Gaussian(0.0, 1.0),
        Gaussian(5.0, 3.0),
        Exponential(2.0),
        Uniform(-1.0, 4.0),
        PiecewiseDensity(knots=((0.0, 0.0), (1.0, 0.75), (2.0, 0.25), (3.0, 0.0))),
    ],
)
def test_sampling_passes_ks_against_cdf(d):
    n = 100_000
    x = np.sort(ShiftedDistribution(d, 0.0).sample_with_rng(np.random.default_rng(9), n))
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    cdf = d.cdf(x)
    ks = max(np.max(np.abs(cdf - ecdf_hi)), np.max(np.abs(cdf - ecdf_lo)))
    assert ks < KS_CRIT / math.sqrt(n)


# The sampling kernels as plain expressions, each step on a temporary of its own.
def _gaussian_ppf(d, u):
    from scipy.special import ndtri

    return d.mean + d.sigma * ndtri(np.asarray(u, dtype=float))


def _exponential_ppf(d, u):
    u = np.asarray(u, dtype=float)
    return -np.log1p(-u) / d.rate


def _ppf_mass(t, m):
    m = np.clip(np.asarray(m, dtype=float), 0.0, t.total)
    idx = np.clip(np.searchsorted(t.cum, m, side="right") - 1, 0, len(t.x) - 2)
    r = m - t.cum[idx]
    b = t.f[idx]
    a = 0.5 * t.slope[idx]
    disc = np.sqrt(np.maximum(b * b + 4.0 * a * r, 0.0))
    denom = b + disc
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(denom > 0.0, 2.0 * r / denom, 0.0)
    return t.x[idx] + u


def _piecewise_ppf(d, u):
    return _ppf_mass(d._table, np.asarray(u, dtype=float) * d._table.total)


def _circle_ppf(d, u):
    table = d._turn._table
    return wrap(_ppf_mass(table, np.asarray(u, dtype=float) * table.total))


def _normalized(xs, fs, turn=None):
    """(x, f) knots scaled to unit mass; turn closes a circle table one turn after xs[0]."""
    ends = list(xs) + ([xs[0] + turn] if turn else [])
    vals = list(fs) + ([fs[0]] if turn else [])
    mass = sum(0.5 * (f0 + f1) * (b - a) for a, b, f0, f1 in zip(ends, ends[1:], vals, vals[1:]))
    return tuple((x, f / mass) for x, f in zip(xs, fs))


_KERNELS = [
    (Gaussian(0.3, 1.7), _gaussian_ppf),
    (Exponential(2.5), _exponential_ppf),
    # A zero-density interior segment, then a rising one.
    (PiecewiseDensity(knots=((0.0, 2.0), (0.5, 0.0), (1.0, 0.0), (1.5, 2.0))), _piecewise_ppf),
    (PiecewiseDensity(knots=_normalized([0.0, 0.7, 1.1, 1.6, 2.3, 3.0], [0.0, 1.5, 0.9, 0.2, 0.05, 0.0])),
     _piecewise_ppf),
    (PiecewiseDensity(knots=_normalized([0.1 * i + 0.01 * (i % 3) for i in range(64)],
                                        [1.0 + math.sin(i) for i in range(64)])), _piecewise_ppf),
    (CircleDensity(knots=_normalized([0.1, 0.4, 0.6, 0.8], [0.5, 2.0, 0.0, 1.0], turn=1.0)), _circle_ppf),
]


def _bits(a):
    return np.asarray(a).view(np.int64).tolist()


@pytest.mark.parametrize("d, reference", _KERNELS, ids=lambda v: type(v).__name__ if not callable(v) else "")
def test_sampling_kernels_keep_the_bits_of_the_plain_expressions(d, reference):
    u = np.random.default_rng(17).random((4000, 3))
    u[0, 0] = 0.0
    if hasattr(d, "_table") or hasattr(d, "_turn"):
        # Masses exactly at the cumulative-mass breakpoints, and at or past the total.
        table = d._table if hasattr(d, "_table") else d._turn._table
        at = table.cum / table.total
        u[1, : len(at[:3])] = at[:3]
        u[2, 0], u[2, 1] = 1.0, 1.5
        edges = np.concatenate([at, [1.0, 2.0, np.nextafter(1.0, 0.0)]])
        got = table.ppf_mass(edges * table.total)
        assert _bits(got) == _bits(_ppf_mass(table, edges * table.total))
    before = u.copy()
    got, want = d.ppf(u), reference(d, u)
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == u.shape
    assert _bits(got) == _bits(want)
    assert _bits(u) == _bits(before)  # the caller's array is not written
    for scalar in (0.0, 0.37, np.float64(0.9)):
        got, want = d.ppf(scalar), reference(d, scalar)
        assert type(got) is type(want) and _bits(got) == _bits(want)
    if hasattr(d, "finite_support"):
        lo, hi = d.finite_support()
        assert type(lo) is float and type(hi) is float
        assert (lo, hi) == tuple(
            v if math.isfinite(v) else float(reference(d, q)) for v, q in zip(d.support(), (1e-12, 1.0 - 1e-12)))


def test_shift_consistency_is_literal():
    base = Gaussian(1.0, 2.0)
    shifted = ShiftedDistribution(base, 0.3)
    for x in (-2.0, 0.0, 0.7, 5.5):
        assert shifted.cdf(x) == base.cdf(x - 0.3)
    atoms = FiniteAtoms(atoms=((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))))
    sh = ShiftedDistribution(atoms, Fraction(1, 3))
    assert sh.cdf(Fraction(1, 3)) == atoms.cdf(0)


def test_shifted_sampling_adds_theta():
    base = Uniform(0.0, 1.0)
    x0 = ShiftedDistribution(base, 0.0).sample_with_rng(np.random.default_rng(4), 100)
    x7 = ShiftedDistribution(base, 7.0).sample_with_rng(np.random.default_rng(4), 100)
    assert np.allclose(x7, x0 + 7.0)


def test_classify_routes_families():
    g = Gaussian(0.0, 1.0).traits()
    assert g.unimodal and g.log_concave_strict
    assert not g.monotone_on_halfline

    e = Exponential(1.0).traits()
    assert e.monotone_on_halfline
    assert not e.log_concave_strict and not e.unimodal

    u = Uniform(0.0, 1.0).traits()
    assert u.unimodal and not u.log_concave_strict and not u.monotone_on_halfline

    # Atoms set no flag: the constructions and bounds route them by type.
    atoms = FiniteAtoms(atoms=((0.0, 0.5), (1.0, 0.5)))
    assert atoms.traits() == FamilyTraits()
    assert discrete_mle_estimator(atoms, 0.25).evaluate((1.0,)) == pytest.approx(1.0)


def test_classify_piecewise_traits():
    triangle = PiecewiseDensity(knots=((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
    t = triangle.traits()
    assert t.unimodal and not t.monotone_on_halfline

    # Decreasing from where the support starts, wherever that is.
    for knots in (((0.0, 1.5), (1.0, 0.25), (2.0, 0.0)), ((-1.0, 4.0), (-0.5, 0.0))):
        assert PiecewiseDensity(knots=knots).traits().monotone_on_halfline


def test_piecewise_renormalizes_small_errors_only():
    # Integral 1.0001: silently renormalized.
    d = PiecewiseDensity(knots=((0.0, 0.0), (1.0, 1.0001), (2.0, 0.0)))
    lo, hi = d.finite_support()
    mass, _ = integrate.quad(lambda x: float(d.pdf(x)), lo, hi)
    assert mass == pytest.approx(1.0, abs=1e-9)
    # Integral 1.5: rejected.
    with pytest.raises(ValueError):
        PiecewiseDensity(knots=((0.0, 0.0), (1.0, 1.5), (2.0, 0.0)))
    with pytest.raises(ValueError):
        PiecewiseDensity(knots=((0.0, 1.0),))
    with pytest.raises(ValueError):
        PiecewiseDensity(knots=((0.0, 1.0), (1.0, -0.5), (2.0, 1.0)))


def test_atoms_validation_messages():
    with pytest.raises(ValueError, match="0.9"):
        FiniteAtoms(atoms=((0.0, 0.4), (1.0, 0.5)))
    with pytest.raises(ValueError, match="increasing"):
        FiniteAtoms(atoms=((0.0, 0.5), (0.0, 0.5)))
    with pytest.raises(ValueError, match="positive"):
        FiniteAtoms(atoms=((0.0, 1.5), (1.0, -0.5)))


def test_atoms_cdf_and_ppf(example_atoms):
    d = example_atoms
    assert d.cdf(-0.5) == 0.0
    assert d.cdf(0.0) == pytest.approx(0.25)
    assert d.cdf(5.0) == pytest.approx(0.6)
    assert d.cdf(10.0) == pytest.approx(1.0)
    assert d.ppf(0.1) == 0.0
    assert d.ppf(0.5) == 1.0
    assert d.ppf(0.99) == 10.0
    assert d.expected_value() == Fraction(1, 4) * 0 + Fraction(7, 20) * 1 + Fraction(2, 5) * 10
    with pytest.raises(TypeError):
        d.pdf(0.0)


def test_atoms_distinct_distance_flag(example_atoms):
    # The atom rule needs distinct pairwise distances to recover the shift
    # from several samples, and only then.
    assert discrete_mle_estimator(example_atoms, Fraction(3, 4), 2).label == "discrete_exact(n=2)"
    evenly = ((0, Fraction(3, 10)), (1, Fraction(3, 10)), (2, Fraction(2, 5)))
    as_floats = tuple((float(z), float(m)) for z, m in evenly)
    for atoms, delta in ((evenly, Fraction(1, 4)), (as_floats, 0.25)):
        d = FiniteAtoms(atoms=atoms)
        with pytest.raises(ValueError, match="distinct pairwise distances"):
            discrete_mle_estimator(d, delta, 2)
        assert discrete_mle_estimator(d, delta).n == 1


@given(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=0.1, max_value=4, allow_nan=False),
    st.floats(min_value=0.001, max_value=0.999),
)
def test_gaussian_ppf_inverts_cdf(mean, sigma, u):
    d = Gaussian(mean, sigma)
    assert d.cdf(d.ppf(u)) == pytest.approx(u, abs=1e-9)


@given(st.floats(min_value=-8, max_value=8), st.floats(min_value=-8, max_value=8))
def test_gaussian_cdf_monotone(a, b):
    d = Gaussian(0.0, 1.0)
    if a <= b:
        assert d.cdf(a) <= d.cdf(b)
