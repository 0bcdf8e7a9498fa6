import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from shiftq import (
    CircleDensity,
    CircleEstimator,
    MCConfig,
    averaging_check,
    biased_mean_circle_estimator,
    circle_distance,
    circle_quality_at,
    constant_circle_estimator,
    invariant_from_coset,
    uniform_circle_density,
    warped_circle_estimator,
    wrap,
)
from shiftq.estimators import Estimator
from tests.conftest import KS_CRIT

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


def bump_density() -> CircleDensity:
    return CircleDensity(knots=((0.0, 0.5), (0.5, 1.5), (1.0, 0.5)))


def skewed_density() -> CircleDensity:
    return CircleDensity(knots=((0.1, 2.5), (0.3, 0.625), (0.9, 0.625)))


def test_wrap_stays_in_the_unit_interval():
    assert wrap(0.25) == 0.25
    assert wrap(1.25) == pytest.approx(0.25)
    assert wrap(-0.25) == pytest.approx(0.75)
    assert wrap(3.0) == 0.0
    # The guard keeps float round-off from returning exactly 1.0.
    assert 0.0 <= wrap(1.0 - 1e-17) < 1.0


def test_circle_distance_examples():
    assert circle_distance(0.1, 0.9) == pytest.approx(0.2)
    assert circle_distance(0.0, 0.5) == pytest.approx(0.5)
    assert circle_distance(0.3, 0.3) == 0.0


@given(unit, unit, unit)
def test_circle_distance_is_a_metric(a, b, c):
    assert circle_distance(a, b) == pytest.approx(circle_distance(b, a))
    assert 0.0 <= circle_distance(a, b) <= 0.5
    assert circle_distance(a, c) <= circle_distance(a, b) + circle_distance(b, c) + 1e-12


@given(unit, st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_circle_distance_is_rotation_invariant(a, c):
    b = 0.37
    assert circle_distance(wrap(a + c), wrap(b + c)) == pytest.approx(
        circle_distance(a, b), abs=1e-9
    )


@pytest.mark.parametrize("density", [uniform_circle_density(), bump_density(), skewed_density()])
def test_circle_density_integrates_to_one(density):
    mass, err = integrate.quad(lambda x: float(density.pdf(x)), 0.0, 1.0, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-6 + 10 * err)


def test_circle_density_validation():
    with pytest.raises(ValueError):
        CircleDensity(knots=((0.0, 1.0),))
    with pytest.raises(ValueError):
        CircleDensity(knots=((0.0, 1.0), (1.5, 1.0)))
    with pytest.raises(ValueError):
        CircleDensity(knots=((0.5, 1.0), (0.2, 1.0)))
    with pytest.raises(ValueError):
        CircleDensity(knots=((0.0, -1.0), (1.0, 3.0)))
    with pytest.raises(ValueError):
        CircleDensity(knots=((0.0, 2.0), (1.0, 2.0)))  # integrates to 2


def test_circle_density_renormalizes_small_drift():
    d = CircleDensity(knots=((0.0, 1.0005), (1.0, 1.0005)))
    mass, _ = integrate.quad(lambda x: float(d.pdf(x)), 0.0, 1.0)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_circle_density_renormalizes_over_the_unrolled_turn():
    # The knots stop short of one turn and integrate to about 1.0004.
    d = CircleDensity(knots=((0.1, 0.6002), (0.35, 1.4006), (0.6, 1.1004), (0.85, 0.9004)))
    assert d.knots[0][1] < 0.6002
    mass, _ = integrate.quad(lambda x: float(d.pdf(x)), 0.0, 1.0, points=[0.1, 0.35, 0.6, 0.85])
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert d.pdf(0.1) == d.knots[0][1]
    assert d.pdf(1.1) == pytest.approx(d.knots[0][1]) and d.pdf(-0.9) == pytest.approx(d.knots[0][1])
    assert d.ppf(0.0) == 0.1  # mass accumulates from the first knot


@pytest.mark.parametrize("density", [uniform_circle_density(), bump_density(), skewed_density()])
def test_circle_sampling_passes_ks(density):
    n = 100_000
    rng = np.random.default_rng(41)
    x = np.sort(density.sample_with_rng(rng, n))
    cdf = np.array([integrate.quad(lambda t: float(density.pdf(t)), 0.0, xi)[0] for xi in x[:: n // 50]])
    grid = x[:: n // 50]
    ecdf = np.searchsorted(x, grid, side="right") / n
    assert np.max(np.abs(cdf - ecdf)) < KS_CRIT / math.sqrt(n) + 1e-3


def test_circle_rules_are_estimators_with_guesses_reduced_mod_1():
    base = warped_circle_estimator(0.3, n=2)
    rules = (
        constant_circle_estimator(1.25, n=2),
        biased_mean_circle_estimator(0.9, 2),
        base,
        invariant_from_coset(base, 0.6),
    )
    x = np.random.default_rng(3).random((50, 2))
    for e in rules:
        assert isinstance(e, Estimator) and e.fn is None
        guesses = e.evaluate_batch(x)
        assert np.all((guesses >= 0.0) & (guesses < 1.0))
        assert [e.evaluate(row) for row in x] == guesses.tolist()
    assert [k for k, v in vars(CircleEstimator).items() if callable(v)] == ["evaluate_batch"]


def test_pinned_estimator_fixes_the_first_sample():
    e = warped_circle_estimator(0.3, n=2)
    pinned = invariant_from_coset(e, anchor=0.25)
    rng = np.random.default_rng(6)
    x = rng.random((100, 2))
    # Internally the first coordinate is rotated onto the anchor; the outputs
    # must be exactly rotation equivariant.
    c = 0.37
    moved = pinned.evaluate_batch(wrap(x + c))
    base = pinned.evaluate_batch(x)
    gap = np.abs(wrap(moved - base - c))
    gap = np.minimum(gap, 1.0 - gap)
    assert np.max(gap) < 1e-9


def test_pinning_an_equivariant_estimator_changes_nothing():
    e = biased_mean_circle_estimator(0.1, 2)
    pinned = invariant_from_coset(e, anchor=0.6)
    rng = np.random.default_rng(12)
    x = rng.random((200, 2))
    gap = np.abs(wrap(pinned.evaluate_batch(x) - e.evaluate_batch(x)))
    gap = np.minimum(gap, 1.0 - gap)
    assert np.max(gap) < 1e-9


def test_circle_quality_validates_delta(mc_fast):
    e = constant_circle_estimator(0.0, n=1)
    with pytest.raises(ValueError):
        circle_quality_at(e, uniform_circle_density(), 0.0, 0.5, mc_fast)
    with pytest.raises(ValueError):
        circle_quality_at(e, uniform_circle_density(), 0.0, 0.0, mc_fast)


def test_constant_estimator_quality_is_all_or_nothing(mc_fast):
    # A constant guess ignores the data: it succeeds deterministically.
    e = constant_circle_estimator(0.4, n=1)
    near, _ = circle_quality_at(e, uniform_circle_density(), 0.4, 0.15, mc_fast)
    assert near == 1.0
    far, _ = circle_quality_at(e, uniform_circle_density(), wrap(0.4 + 0.5), 0.15, mc_fast)
    assert far == 0.0


def test_pinned_constant_quality_is_arc_mass(mc_mid):
    # Pinning turns the constant guess into "first sample plus offset"; on
    # the uniform law that succeeds on an arc of length 2*delta.
    e = constant_circle_estimator(0.4, n=1)
    pinned = invariant_from_coset(e, anchor=0.25)
    q, ci = circle_quality_at(pinned, uniform_circle_density(), 0.8, 0.15, mc_mid)
    assert abs(q - 0.3) <= 3 * ci


def test_uniform_density_pinned_quality_is_two_delta(mc_mid):
    delta = 0.1
    e = warped_circle_estimator(0.4, n=2)
    for anchor in (0.0, 0.25, 0.7):
        pinned = invariant_from_coset(e, anchor)
        q, ci = circle_quality_at(pinned, uniform_circle_density(), 0.0, delta, mc_mid)
        assert abs(q - 2 * delta) <= 3 * ci


def test_averaging_check_on_a_non_equivariant_estimator(mc_fast):
    report = averaging_check(
        warped_circle_estimator(0.5, n=2), bump_density(), 0.1, 8, mc_fast
    )
    assert report.holds
    assert report.q_best >= report.q_e - 3 * (report.q_e_ci + report.q_best_ci)
    assert len(report.anchor_qualities) == 8
    assert report.average_pinned_quality >= report.q_e - 3 * (
        report.q_e_ci + report.q_best_ci
    )


def test_averaging_check_requires_a_reasonable_grid(mc_fast):
    with pytest.raises(ValueError):
        averaging_check(constant_circle_estimator(0.0, 1), uniform_circle_density(), 0.1, 4, mc_fast)


def test_averaging_check_matches_separate_runs():
    e = warped_circle_estimator(0.3, n=2)
    density, delta, mc = bump_density(), 0.1, MCConfig(trials=40_000, seed=4)
    report = averaging_check(e, density, delta, 8, mc)
    shifts = [i / 8 for i in range(8)]
    raw = [circle_quality_at(e, density, theta, delta, mc) for theta in shifts]
    q_e, q_e_ci = min(raw, key=lambda row: row[0])
    assert (report.q_e, report.q_e_ci) == (q_e, q_e_ci)
    assert report.theta_argmin == shifts[raw.index((q_e, q_e_ci))]
    assert report.anchor_qualities == tuple(
        (a, *circle_quality_at(invariant_from_coset(e, a), density, 0.0, delta, mc)) for a in shifts
    )
