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

    ramp = PiecewiseDensity(knots=((0.0, 1.5), (1.0, 0.25), (2.0, 0.0)))
    r = ramp.traits()
    assert r.monotone_on_halfline


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
