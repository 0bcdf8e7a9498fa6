import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from shiftq import (
    CircleDensity,
    CircleEstimator,
    InvarianceError,
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
from shiftq import compact_circle
from shiftq.cli import main
from shiftq.estimators import SHIFT_INVARIANT, Estimator
from shiftq.quality import _check_invariance
from tests.conftest import KS_CRIT

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


def bump_density() -> CircleDensity:
    return CircleDensity(knots=((0.0, 0.5), (0.5, 1.5), (1.0, 0.5)))


def skewed_density() -> CircleDensity:
    return CircleDensity(knots=((0.1, 2.5), (0.3, 0.625), (0.9, 0.625)))


def _three_temporary_wrap(x):
    """wrap as it stood before it worked in one output buffer."""
    x = np.asarray(x, dtype=float)
    out = x - np.floor(x)
    return np.where(out >= 1.0, out - 1.0, out)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def test_wrap_keeps_the_bits_of_the_three_temporary_form():
    edges = [-1e-17, -5e-324, -1e-300, -0.0, 0.0, 3.0, -3.0, 1e15 + 0.5, -1e15 - 0.5,
             0.25, -0.25, float(np.nextafter(1.0, 0.0)), 1.0 - 1e-17, 1e300, -1e300, np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(4)
    x = np.concatenate([edges, rng.standard_normal(200) * 10.0 ** rng.integers(-20, 20, 200)])
    before = x.copy()
    with np.errstate(invalid="ignore"):  # inf - floor(inf)
        got, want = wrap(x), _three_temporary_wrap(x)
    assert _bits(got) == _bits(want)
    assert got is not x and _bits(x) == _bits(before)  # the input is never written
    assert 0.0 <= got[np.isfinite(x)].min() and got[np.isfinite(x)].max() < 1.0
    block = x[len(edges):].reshape(20, 10)[:, ::3]  # a strided view, as a sample block's columns are
    assert _bits(wrap(block)) == _bits(_three_temporary_wrap(block))
    ints = np.array([-3, 0, 7, -1])
    assert _bits(wrap(ints)) == _bits(_three_temporary_wrap(ints)) and ints.tolist() == [-3, 0, 7, -1]
    for value in (-1e-17, -0.0, 2.75):
        for scalar in (value, np.float64(value), np.array(value)):
            got = wrap(scalar)
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert _bits(got) == _bits(_three_temporary_wrap(scalar))


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


def test_one_sample_pinned_copy_evaluates_its_rule_once_per_batch():
    calls = []

    def first_sample(sample):
        calls.append(sample)
        return 0.9 * sample[0] + 0.35

    by_row = CircleEstimator(label="by_row", fn=first_sample, n=1)
    x = np.random.default_rng(21).random((500, 1))
    x[:3, 0] = (0.0, 0.25, np.nextafter(1.0, 0.0))
    for e in (warped_circle_estimator(0.4, n=1), constant_circle_estimator(0.85, n=1), by_row):
        for anchor in (0.0, 0.3, 0.71, 1.2):
            a = float(wrap(anchor))
            calls.clear()
            got = invariant_from_coset(e, anchor).evaluate_batch(x)
            assert len(calls) == (1 if e is by_row else 0)
            # The sum the row-by-row pinning made, on rows that are all (a,).
            want = wrap(x[:, 0] - a + e.evaluate_batch(np.full_like(x, a)))
            assert np.array_equal(got, want)


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


def test_circle_checks_refuse_a_rule_without_reduced_guesses(mc_fast):
    plain = Estimator(label="plain", n=1, batch_fn=lambda x: x[:, 0] + 0.5)
    with pytest.raises(TypeError, match="plain is not a CircleEstimator"):
        averaging_check(plain, uniform_circle_density(), 0.1, 8, mc_fast)
    with pytest.raises(TypeError, match="plain is not a CircleEstimator"):
        circle_quality_at(plain, uniform_circle_density(), 0.0, 0.1, mc_fast)


def test_circle_scores_the_noise_as_drawn_at_shift_zero():
    noise = np.random.default_rng(8).random((20, 2))
    assert compact_circle.CIRCLE.act(noise, 0.0) is noise
    assert np.array_equal(compact_circle.CIRCLE.act(noise, 0.3), wrap(0.3 + noise))


def test_circle_invariance_check_moves_each_guess_back_onto_the_circle():
    # x = 0.9 moved by 0.55 lands on 0.45, where the rule is 0.05 short: g - theta = -0.15 lies
    # off [0, 1), and only its reduction 0.85 shows the 0.05 arc to e(x) = 0.9.
    liar = CircleEstimator(
        label="short_below_half",
        n=1,
        invariance_claim=SHIFT_INVARIANT,
        batch_fn=lambda x: np.where(x[:, 0] < 0.5, x[:, 0] - 0.05, x[:, 0]),
    )

    def one_row(rng, m):
        return np.array([[0.9]])

    with pytest.raises(InvarianceError, match="short_below_half claims shift invariance"):
        _check_invariance(compact_circle.CIRCLE, liar, one_row, [0.55], MCConfig(trials=100))


@given(unit, unit, unit)
def test_circle_space_on_reduced_points_keeps_the_bits_of_wrap(u, v, theta):
    arc = compact_circle.CIRCLE.distance(np.array([u]), v)
    assert _bits(arc) == _bits(circle_distance(np.array([u]), v))
    moved = compact_circle.CIRCLE.act(np.array([u]), -theta)
    assert _bits(moved) == _bits(wrap(np.array([u]) - theta))


def test_averaging_check_requires_a_reasonable_grid(mc_fast):
    with pytest.raises(ValueError):
        averaging_check(constant_circle_estimator(0.0, 1), uniform_circle_density(), 0.1, 4, mc_fast)


def test_averaging_check_matches_separate_runs():
    # biased_mean claims invariance, so the check scores it once, at shift 0,
    # for every shift and every anchor; separate runs must still agree.
    density, delta, mc = bump_density(), 0.1, MCConfig(trials=40_000, seed=4)
    shifts = [i / 8 for i in range(8)]
    rules = (
        warped_circle_estimator(0.3, n=2),
        warped_circle_estimator(0.3, n=1),
        biased_mean_circle_estimator(0.1, 1),
        biased_mean_circle_estimator(0.1, 3),
    )
    for e in rules:
        report = averaging_check(e, density, delta, 8, mc)
        raw = [circle_quality_at(e, density, theta, delta, mc) for theta in shifts]
        q_e, q_e_ci = min(raw, key=lambda row: row[0])
        assert (report.q_e, report.q_e_ci) == (q_e, q_e_ci)
        assert report.theta_argmin == shifts[raw.index((q_e, q_e_ci))]
        assert report.anchor_qualities == tuple(
            (a, *circle_quality_at(invariant_from_coset(e, a), density, 0.0, delta, mc)) for a in shifts
        )


def test_false_invariance_claim_on_the_circle_is_refused(tmp_path, monkeypatch, capsys):
    def liar(strength, n):
        return dataclasses.replace(warped_circle_estimator(strength, n=n), invariance_claim=SHIFT_INVARIANT)

    with pytest.raises(InvarianceError, match=r"warped\(strength=0.3\) claims shift invariance"):
        averaging_check(liar(0.3, 2), bump_density(), 0.1, 8, MCConfig(trials=1000, seed=3))
    monkeypatch.setattr(compact_circle, "warped_circle_estimator", liar)
    doc = {"estimator": {"kind": "warped", "strength": 0.3}, "n": 2, "anchor_grid": 8, "mc": {"trials": 1000}}
    path = tmp_path / "liar.json"
    path.write_text(json.dumps(doc))
    assert main(["circle-avg", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invariance: warped(strength=0.3) claims shift invariance")
