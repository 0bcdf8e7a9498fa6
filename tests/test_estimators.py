import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftq import (
    ConvergenceError,
    Exponential,
    FiniteAtoms,
    Gaussian,
    PiecewiseDensity,
    Uniform,
    constant_estimator,
    discrete_mle_estimator,
    exact_quality_discrete,
    invariant_extension,
    mean_estimator,
    min_shift_estimator,
    mixture,
    window_mle_estimator,
)
from shiftq import estimators
from shiftq.estimators import SHIFT_INVARIANT, Estimator, _window_center_batch
from shiftq.util import BISECT_TOL
from tests.conftest import GOLOMB


def test_window_center_on_standard_gaussian_pair():
    e = window_mle_estimator(Gaussian(0.0, 1.0), 0.5, 2)
    assert e.evaluate((0.0, 2.0)) == pytest.approx(1.0, abs=1e-6)


def test_window_center_on_scaled_gaussian_single():
    e = window_mle_estimator(Gaussian(3.0, 2.0), 1.0, 1)
    assert e.evaluate((5.0,)) == pytest.approx(2.0, abs=1e-6)


def test_window_equals_mean_on_gaussian_inputs():
    # At n >= 2 the Gaussian window rule is the mean's batch, bit for bit; at n = 1
    # it subtracts the solved centre, the one-sample ceiling's witness.
    rng = np.random.default_rng(31)
    for sigma in (0.5, 1.0, 2.0):
        d = Gaussian(0.0, sigma)
        for n in (1, 3, 8):
            w = window_mle_estimator(d, 0.5, n)
            m = mean_estimator(d, n)
            x = rng.normal(0.0, sigma, size=(40, n))
            assert np.max(np.abs(w.evaluate_batch(x) - m.evaluate_batch(x))) < 1e-6
            if n > 1:
                assert np.array_equal(w.evaluate_batch(x), m.evaluate_batch(x))


def test_gaussian_window_rule_evaluates_no_log_density():
    calls = []

    class CountingGaussian(Gaussian):
        def logpdf(self, x):
            calls.append(x.shape)
            return super().logpdf(x)

    d = CountingGaussian(0.3, 1.2)
    x = np.random.default_rng(9).normal(0.3, 1.2, size=(500, 4))
    estimate = window_mle_estimator(d, 0.45, 4).evaluate_batch(x)
    assert calls == []
    assert np.array_equal(estimate, x.sum(axis=1) / 4 - 0.3)


def test_window_requires_suitable_traits():
    with pytest.raises(ValueError):
        window_mle_estimator(Exponential(1.0), 0.25, 1)


def test_window_on_merely_unimodal_law_is_labeled():
    e = window_mle_estimator(Uniform(0.0, 1.0), 0.1, 1)
    assert "unverified" in e.label
    # Any center on the flat stretch is optimal; the guess must stay inside it.
    guess = e.evaluate((0.5,))
    center = 0.5 - guess
    assert 0.1 - 1e-9 <= center <= 0.9 + 1e-9


def test_window_full_cover_picks_support_midpoint():
    # With 2*delta wider than the support every window covers it; the
    # positivity-interval midpoint is the canonical answer.
    e = window_mle_estimator(Uniform(0.0, 1.0), 2.0, 1)
    assert e.evaluate((0.25,)) == pytest.approx(0.25 - 0.5, abs=1e-9)


def test_window_spread_equal_to_the_support_width_is_solved():
    # Far from zero a bounded law's samples round onto both support ends; the
    # one center left is returned, and only a wider spread raises.
    d = Uniform(0.0, 1.0)
    assert _window_center_batch(d, 0.25, np.array([[0.0, 1.0], [0.0, -1.0]])).tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match="sample spread exceeds"):
        _window_center_batch(d, 0.25, np.array([[0.0, np.nextafter(1.0, 2.0)]]))


def test_window_evaluate_is_one_row_of_the_batch():
    e = window_mle_estimator(Gaussian(0.3, 1.2), 0.4, 3)
    assert e.fn is None
    x = np.random.default_rng(4).normal(size=(5, 3))
    assert [e.evaluate(row) for row in x] == e.evaluate_batch(x).tolist()


def test_one_sample_window_solve_is_shared_by_every_row():
    d = PiecewiseDensity(knots=((0.0, 0.0), (0.5, 0.34), (1.2, 0.85), (2.0, 0.226), (2.6, 0.0)))
    e = window_mle_estimator(d, 0.25, 1)
    x = d.ppf(np.random.default_rng(8).random((3000, 1)))
    per_row = x[:, 0] - _window_center_batch(d, 0.25, np.zeros_like(x))
    assert np.array_equal(e.evaluate_batch(x), per_row)


def test_window_batch_agrees_with_scalar_path():
    d = Gaussian(1.0, 1.5)
    e = window_mle_estimator(d, 0.7, 3)
    rng = np.random.default_rng(5)
    x = rng.normal(1.0, 1.5, size=(25, 3))
    batch = e.evaluate_batch(x)
    rowwise = [e.evaluate(tuple(row)) for row in x]
    assert np.allclose(batch, rowwise, atol=1e-9)


def _normalized(knots):
    mass = sum(0.5 * (f0 + f1) * (x1 - x0) for (x0, f0), (x1, f1) in zip(knots, knots[1:]))
    return PiecewiseDensity(knots=tuple((x, f / mass) for x, f in knots))


UNIMODAL = _normalized(
    [(0.0, 0.0), (0.662, 0.142), (1.256, 0.986), (1.692, 0.409), (2.106, 0.313), (3.156, 0.0)]
)
LOG_CONCAVE = _normalized([(0.0, 0.2), (1.0, 0.6), (2.0, 0.5), (3.0, 0.1)])
FLAT_TOP = PiecewiseDensity(knots=((0.0, 0.0), (1.0, 0.5), (2.0, 0.5), (3.0, 0.0)))


def _anchored_rows(d, n, rows=40, seed=11):
    x = np.asarray(d.ppf(np.random.default_rng(seed).random((rows, n))), dtype=float)
    return x - x[:, :1]


def _bisection_center(d, delta, row):
    """Plain bisection on one anchored row: the reference for the window kernel."""
    slo, shi = d.support()
    pos_lo, pos_hi = slo - min(row), shi - max(row)
    if 2.0 * delta >= pos_hi - pos_lo:  # every optimal window covers the positive stretch
        return 0.5 * (pos_lo + pos_hi)
    mlo, mhi = d.mode_interval()
    lo = max(mlo - max(row) - 2.0 * delta, pos_lo - delta)
    hi = min(mhi - min(row) + 2.0 * delta, pos_hi + delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        while hi - lo > BISECT_TOL / 4:
            mid = 0.5 * (lo + hi)
            if d.logpdf(row + mid + delta).sum() - d.logpdf(row + mid - delta).sum() > 0:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


@given(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=0.5, max_value=3),
    st.floats(min_value=0.1, max_value=2),
    st.lists(st.floats(min_value=-3, max_value=3), min_size=0, max_size=7),
)
def test_window_center_on_gaussian_is_the_recentred_mean(mu, sigma, delta, rest):
    x0 = np.array([[0.0] + [sigma * v for v in rest]])
    center = _window_center_batch(Gaussian(mu, sigma), delta, x0)[0]
    assert abs(center - (mu - x0.mean())) <= 1e-9


@pytest.mark.parametrize(
    "d, delta, n, lowest_root",
    [
        (UNIMODAL, 0.365, 1, None),
        (FLAT_TOP, 0.25, 1, lambda row: 1.25),
        (LOG_CONCAVE, 0.3, 3, None),
        (Uniform(0.0, 1.0), 0.1, 1, lambda row: 0.1),
        (Uniform(0.0, 1.0), 0.1, 3, lambda row: 0.1 - row.min()),
    ],
)
def test_window_center_matches_plain_bisection(d, delta, n, lowest_root):
    x0 = _anchored_rows(d, n)
    centers = _window_center_batch(d, delta, x0)
    for row, center in zip(x0, centers):
        assert abs(center - _bisection_center(d, delta, row)) <= 2 * BISECT_TOL
        # On a flat stretch the center is the lowest optimal one, unless the
        # window covers the whole positive stretch and takes its midpoint.
        if lowest_root is not None and 2 * delta < d.support()[1] - d.support()[0] - np.ptp(row):
            assert abs(center - lowest_root(row)) <= 2 * BISECT_TOL


def test_window_center_needs_few_log_product_evaluations():
    rows = []

    class CountingGaussian(Gaussian):
        def logpdf(self, x):
            rows.append(x.shape[-1])  # the solver passes (n, rows) blocks
            return super().logpdf(x)

    d = CountingGaussian(0.3, 1.2)
    x = np.random.default_rng(4).normal(0.3, 1.2, size=(4096, 4))
    # The Gaussian window rule takes the closed form, so the solve is called directly.
    _window_center_batch(d, 0.45, x - x[:, :1])
    # Bisection to BISECT_TOL takes about 74 per row.
    assert 0 < sum(rows) <= 10 * len(x)

    # A strictly log-concave piecewise law at n >= 2 still solves inside its rule, and no
    # benchmark operation runs that solve: 27 per row is the count this solver takes here.
    rows.clear()

    class CountingPiecewise(PiecewiseDensity):
        def logpdf(self, x):
            rows.append(x.shape[-1])
            return super().logpdf(x)

    d = CountingPiecewise(LOG_CONCAVE.knots)
    x = _anchored_rows(d, 3, rows=4096, seed=4)
    _window_center_batch(d, 0.45, x)
    assert 0 < sum(rows) <= 27 * len(x)


@pytest.mark.parametrize(
    "d, n",
    [
        (Gaussian(0.5, 2.0), 3),
        (LOG_CONCAVE, 3),
        (UNIMODAL, 1),
        (Uniform(0.0, 1.0), 3),
        (Gaussian(0.5, 2.0), 11),  # eight accumulators and a remainder in each log-product sum
    ],
)
def test_window_center_of_a_row_does_not_depend_on_its_block(monkeypatch, d, n):
    x0 = _anchored_rows(d, n, rows=50)
    whole = _window_center_batch(d, 0.3, x0)
    monkeypatch.setattr(estimators, "WINDOW_BLOCK_ROWS", 7)
    blocked = _window_center_batch(d, 0.3, x0)
    single = np.concatenate([_window_center_batch(d, 0.3, x0[i : i + 1]) for i in range(len(x0))])
    assert np.array_equal(whole, blocked) and np.array_equal(whole, single)


def test_window_center_far_from_zero_stops_at_float_resolution():
    # Near 1e6 adjacent floats are 1.2e-10 apart, wider than BISECT_TOL.
    e = window_mle_estimator(Gaussian(1e6, 1.0), 0.5, 2)
    assert e.evaluate((1e6 + 0.3, 1e6 - 0.2)) == pytest.approx(0.05, abs=1e-6)


def test_window_search_that_hits_its_step_cap_raises(monkeypatch):
    monkeypatch.setattr(estimators, "WINDOW_MAX_STEPS", 1)
    # The Gaussian window rule takes the closed form, so its solve is called directly;
    # a log-concave piecewise law still solves inside the rule.
    x = np.random.default_rng(2).normal(size=(30, 4))
    with pytest.raises(ConvergenceError, match=r"Gaussian left \d+ rows open"):
        _window_center_batch(Gaussian(0.0, 1.0), 0.5, x - x[:, :1])
    e = window_mle_estimator(LOG_CONCAVE, 0.3, 4)
    with pytest.raises(ConvergenceError, match=r"PiecewiseDensity left \d+ rows open"):
        e.evaluate_batch(np.asarray(LOG_CONCAVE.ppf(np.random.default_rng(2).random((30, 4)))))


@pytest.mark.parametrize(
    "e",
    [
        window_mle_estimator(Gaussian(0.3, 1.2), 0.4, 3),
        mean_estimator(Gaussian(0.3, 1.2), 3),
        min_shift_estimator(0.4, 3),
    ],
    ids=lambda e: e.label,
)
def test_batch_estimates_do_not_depend_on_the_input_layout(e):
    wide = np.random.default_rng(6).normal(0.3, 1.2, size=(500, 7))
    x = np.ascontiguousarray(wide[:, 2:5])
    want = e.evaluate_batch(x).tolist()
    assert e.evaluate_batch(wide[:, 2:5]).tolist() == want
    assert e.evaluate_batch(np.asfortranarray(x)).tolist() == want


def test_min_shift_evaluate():
    e = min_shift_estimator(0.25, 3)
    assert e.evaluate((1.0, 0.3, 2.0)) == pytest.approx(0.05)
    assert min_shift_estimator(0.25, 2).evaluate((Fraction(1), Fraction(3, 4))) == Fraction(1, 2)
    assert e.invariance_claim == SHIFT_INVARIANT
    # A support starting at lo moves the offset to lo + delta, exactly on exact inputs.
    started = min_shift_estimator(Fraction(1, 4), 2, lo=Fraction(-1, 2))
    assert started.label == "min_shift(delta=0.25, lo=-0.5)"
    assert started.evaluate((Fraction(1), Fraction(3, 4))) == Fraction(1)
    assert started.scaled(4).evaluate((4, 3)) == 4
    assert min_shift_estimator(0.25, 3, lo=0.0).label == e.label


def test_discrete_one_sample_snaps_to_window_center(example_atoms):
    e = discrete_mle_estimator(example_atoms, Fraction(3, 4))
    assert e.evaluate((10.5,)) == pytest.approx(10.0)
    assert e.evaluate((Fraction(21, 2),)) == Fraction(10)
    assert e.evaluate((Fraction(0),)) == Fraction(-1, 2)
    with pytest.raises(ValueError, match="delta must be positive"):
        discrete_mle_estimator(example_atoms, 0)


def test_discrete_n_sample_recovers_shift_exactly(example_atoms):
    e = discrete_mle_estimator(example_atoms, Fraction(3, 4), 2)
    rng = np.random.default_rng(17)
    locs = example_atoms.locations
    masses = [float(m) for m in example_atoms.masses]
    theta = Fraction(22, 7)
    hits = 0
    for _ in range(2000):
        idx = rng.choice(len(locs), size=2, p=masses)
        samples = tuple(locs[i] + theta for i in idx)
        guess = e.evaluate(samples)
        if idx[0] != idx[1]:
            assert guess == theta
            hits += 1
        else:
            # Identical samples fall back to the one-sample window rule.
            assert guess == samples[0] - Fraction(1, 2)
    assert hits > 1000
    # The fallback centre follows the interval convention: the closed window
    # of half-width 1/2 covers atoms 0 and 1 (centre 1/2), the open one only 0.
    d = FiniteAtoms(atoms=tuple((Fraction(z), Fraction(1, 3)) for z in (0, 1, 3)))
    delta = Fraction(1, 2)
    for closed, centre, q in ((False, 0, Fraction(7, 9)), (True, Fraction(1, 2), Fraction(8, 9))):
        e = discrete_mle_estimator(d, delta, 2, closed_interval=closed)
        assert e.evaluate((Fraction(3), Fraction(3))) == 3 - centre
        assert exact_quality_discrete(e, d, Fraction(0), delta, closed_interval=True) == q


def _recovery_reference(d, center, x):
    """The exact branch of discrete_mle at n >= 2 as it was written before the anchored-gap check.

    The first sample distinct from x_1 names a candidate shift through the
    one atom pair at that distance, and every sample minus the candidate
    must be an atom.
    """
    locs = d.locations
    loc_set = frozenset(locs)
    lower_atom = {b - a: a for a in locs for b in locs if a != b}
    first = x[0]
    other = next((v for v in x if v != first), None)
    if other is None:
        return first - center
    z = lower_atom.get(other - first)
    if z is not None:
        candidate = first - z
        if all(v - candidate in loc_set for v in x):
            return candidate
    raise ValueError("no shift places every sample on an atom of the base law")


@st.composite
def recovery_cases(draw):
    """A Golomb-mark rational law, n in 2..4, and n samples: shifted atoms, some moved off them."""
    r = draw(st.integers(2, 6))
    marks = sorted(draw(st.permutations(GOLOMB))[:r])
    scale = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    offset = Fraction(draw(st.integers(-20, 20)), 4)
    d = FiniteAtoms(atoms=tuple((offset + scale * z, Fraction(1, r)) for z in marks))
    n = draw(st.integers(2, 4))
    theta = draw(st.one_of(st.integers(-50, 50), st.fractions(-50, 50, max_denominator=12)))
    off = st.one_of(
        st.fractions(-60, 60, max_denominator=12),  # anywhere
        st.sampled_from([scale, -scale, scale / 2, Fraction(1, 7)]),  # a nudge off its atom
    )
    samples = []
    for _ in range(n):
        x = theta + d.locations[draw(st.integers(0, r - 1))]
        samples.append(x + draw(off) if draw(st.integers(0, 3)) == 0 else x)
    if draw(st.integers(0, 3)) == 0:  # a sample anywhere at all
        samples[draw(st.integers(0, n - 1))] = draw(st.fractions(-60, 60, max_denominator=12))
    return d, Fraction(draw(st.integers(1, 24)), 4), tuple(samples), draw(st.booleans())


@given(recovery_cases())
def test_anchored_gap_check_matches_the_candidate_check(case):
    d, delta, x, closed = case
    e = discrete_mle_estimator(d, delta, len(x), closed_interval=closed)
    center = -discrete_mle_estimator(d, delta, 1, closed_interval=closed).evaluate((Fraction(0),))
    try:
        want = _recovery_reference(d, center, x)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            e.evaluate(x)
        assert str(got.value) == str(exc)
    else:
        assert repr(e.evaluate(x)) == repr(want)


def _times(value, scale):
    product = Fraction(value) * scale
    assert product.denominator == 1, "scale must clear every denominator"
    return int(product)


@given(recovery_cases(), st.integers(1, 6), st.fractions(-50, 50, max_denominator=12))
def test_scaled_rule_is_the_rule_times_the_scale(case, factor, value):
    """e.scaled(D).evaluate(D * x) == D * e.evaluate(x) for every builder that sets scaled.

    D is a random multiple of every denominator in sight, so D * x are ints;
    a sample off the atoms raises the same "no shift" error on both sides.
    """
    d, delta, x, closed = case
    n = len(x)
    denominators = (Fraction(v).denominator for v in (delta, value, *d.locations, *x))
    scale = factor * math.lcm(*denominators)
    window = discrete_mle_estimator(d, delta, 1, closed_interval=closed)
    cases = [
        (mean_estimator(d, n), x),
        (min_shift_estimator(delta, n), x),
        (constant_estimator(value, n), x),
        (discrete_mle_estimator(d, delta, n, closed_interval=closed), x),
        (window, x[:1]),
    ]
    for e, sample in cases:
        s = e.scaled(scale)
        assert (s.label, s.n, s.invariance_claim, s.symmetric) == (e.label, e.n, e.invariance_claim, e.symmetric)
        lattice = tuple(_times(v, scale) for v in sample)
        try:
            want = e.evaluate(sample)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                s.evaluate(lattice)
            assert str(got.value) == str(exc)
        else:
            got = s.evaluate(lattice)
            assert type(got) in (int, Fraction) and got == scale * want


def test_scaled_recovery_refuses_samples_off_the_atoms(example_atoms):
    e = discrete_mle_estimator(example_atoms, Fraction(3, 4), 3).scaled(20)
    assert e.evaluate((20, 40, 220)) == 20  # atoms 0, 1 and 10 at shift 1, times 20
    for samples in ((0, 20, 100), (100, 20, 0), (0, 1, 200)):
        with pytest.raises(ValueError, match="no shift places every sample on an atom"):
            e.evaluate(samples)


def test_only_rules_with_exact_constants_carry_scaled(example_atoms):
    # An atom law is exact whatever its spelling, and so are a float delta, lo or constant value,
    # so every rule built on them carries scaled. A float law's mean does not.
    float_atoms = FiniteAtoms(atoms=((0.0, 0.5), (1.0, 0.5)))
    float_masses = FiniteAtoms(atoms=((Fraction(0), 0.5), (Fraction(1), 0.5)))
    with_scaled = [
        mean_estimator(example_atoms, 2),
        min_shift_estimator(Fraction(1, 4), 2),
        constant_estimator(3, 1),
        discrete_mle_estimator(example_atoms, Fraction(3, 4), 1),
        discrete_mle_estimator(float_masses, 0.25, 1),
        discrete_mle_estimator(example_atoms, Fraction(3, 4), 2),
        mean_estimator(float_masses, 2),
        discrete_mle_estimator(float_atoms, 0.25, 1),
        discrete_mle_estimator(float_atoms, 0.25, 2),
        min_shift_estimator(0.25, 2),
        min_shift_estimator(0.25, 2, lo=-0.5),
        constant_estimator(0.5, 1),
    ]
    assert all(e.scaled is not None for e in with_scaled)
    without = [
        mean_estimator(Gaussian(0.0, 1.0), 2),
        invariant_extension(lambda x0: 0, 1),
        window_mle_estimator(Gaussian(0.0, 1.0), 0.5, 1),
        mixture([(with_scaled[0], 0.5), (with_scaled[5], 0.5)]),
    ]
    assert all(e.scaled is None for e in without)


def test_mean_of_int_samples_stays_rational():
    d = FiniteAtoms(atoms=((0, Fraction(1, 3)), (1, Fraction(1, 3)), (3, Fraction(1, 3))))
    e = mean_estimator(d, 2)
    got = e.evaluate((0, 1))
    assert type(got) is Fraction and got == Fraction(-5, 6)
    assert type(e.evaluate((3, 4))) is Fraction
    # Float samples keep their float division, bit for bit.
    assert repr(e.evaluate((0.0, 1.0))) == repr(0.5 - float(Fraction(4, 3)))
    assert repr(mean_estimator(Gaussian(0.25, 1.0), 3).evaluate((1, 2, 4))) == repr(7 / 3 - 0.25)


def test_discrete_n_sample_requires_distinct_distances():
    evenly = FiniteAtoms(
        atoms=(
            (Fraction(0), Fraction(1, 3)),
            (Fraction(1), Fraction(1, 3)),
            (Fraction(2), Fraction(1, 3)),
        )
    )
    with pytest.raises(ValueError, match="distinct"):
        discrete_mle_estimator(evenly, Fraction(1, 4), 2)


def test_discrete_n_sample_rejects_impossible_samples(example_atoms):
    e = discrete_mle_estimator(example_atoms, Fraction(3, 4), 2)
    with pytest.raises(ValueError, match="atom"):
        e.evaluate((Fraction(0), Fraction(1, 3)))
    # 0 and 1 pin the shift through their difference; 5 is still off the atoms.
    e3 = discrete_mle_estimator(example_atoms, Fraction(3, 4), 3)
    off_atom = (Fraction(0), Fraction(1), Fraction(5))
    for samples in (off_atom, off_atom[::-1], tuple(map(float, off_atom))):
        with pytest.raises(ValueError, match="no shift"):
            e3.evaluate(samples)


def test_invariant_extension_reproduces_min_shift():
    delta = 0.25
    e = invariant_extension(lambda x0: delta - min(x0), n=3)
    ref = min_shift_estimator(delta, 3)
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = tuple(rng.normal(5.0, 2.0, size=3))
        assert e.evaluate(x) == pytest.approx(ref.evaluate(x), abs=1e-12)
    assert e.invariance_claim == SHIFT_INVARIANT


def test_constant_estimator_ignores_samples():
    e = constant_estimator(Fraction(7, 2), 1)
    assert e.evaluate((1.0,)) == Fraction(7, 2)
    assert constant_estimator(Fraction(7, 2), 3).evaluate((1.0, 2.0, 3.0)) == Fraction(7, 2)
    assert e.invariance_claim != SHIFT_INVARIANT


def test_mixture_validation(example_atoms):
    a = constant_estimator(0.0, 1)
    b = constant_estimator(100.0, 1)
    with pytest.raises(ValueError, match="sum"):
        mixture([(a, 0.5), (b, 0.4)])
    with pytest.raises(ValueError, match="positive"):
        mixture([(a, 1.5), (b, -0.5)])
    m = mixture([(a, 0.5), (b, 0.5)])
    values = set(m.evaluate_batch(np.ones((200, 1)), np.random.default_rng(3)).tolist())
    assert values == {0.0, 100.0}


def test_mixture_is_an_estimator_that_needs_a_generator():
    a = min_shift_estimator(0.1, 2)
    m = mixture([(a, 0.5), (constant_estimator(0.0, n=2), 0.5)])
    assert isinstance(m, Estimator) and m.n == 2 and m.invariance_claim != SHIFT_INVARIANT
    assert m.parts == m.components and a.parts == ((a, 1),)
    assert not hasattr(a, "components")
    with pytest.raises(ValueError, match="needs a generator"):
        m.evaluate((1.0, 2.0))
    with pytest.raises(ValueError, match="needs a generator"):
        m.evaluate_batch(np.ones((3, 2)))


def test_a_mixture_component_cannot_be_a_mixture():
    inner = mixture([(constant_estimator(0.0, 1), 0.5), (constant_estimator(1.0, 1), 0.5)])
    with pytest.raises(ValueError, match="cannot itself be a mixture"):
        mixture([(inner, 0.5), (constant_estimator(2.0, 1), 0.5)])
    with pytest.raises(ValueError, match="cannot itself be a mixture"):
        estimators.RandomizedEstimator(components=((inner, 1.0),), n=1)


def test_split_gives_a_plain_rule_every_row_and_draws_nothing():
    e = constant_estimator(0.0, 2)
    x = np.zeros((5, 2))
    ((part, rows, block),) = e.split(x)
    assert part is e and block is x and rows == slice(None)
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    assert e.split(x, rng)[0][2] is x and rng.bit_generator.state == state


def test_every_rule_is_built_with_its_sample_count():
    d = Gaussian(0.0, 1.0)
    for e, n in ((mean_estimator(d, 3), 3), (window_mle_estimator(d, 0.5, 1), 1),
                 (min_shift_estimator(0.1, 2), 2), (constant_estimator(0.0, 4), 4)):
        assert e.n == n
        with pytest.raises(ValueError, match=f"expects {n} samples"):
            e.evaluate_batch(np.zeros((2, n + 1)))
    for e in (mean_estimator(d, np.int64(2)), window_mle_estimator(d, 0.5, np.int64(2)),
              min_shift_estimator(0.1, np.int64(2)), constant_estimator(0.0, np.int64(2))):
        assert type(e.n) is int and e.n == 2
    for bad in (None, 0, True, "any", 2.0):
        with pytest.raises(ValueError, match="needs a sample count"):
            Estimator(label="rule", fn=lambda x: 0.0, n=bad)
    with pytest.raises(TypeError, match="'n'"):
        Estimator(label="rule", fn=lambda x: 0.0)
    with pytest.raises(ValueError, match="needs a sample count"):
        mean_estimator(d, 0)
    with pytest.raises(ValueError, match="disagree on sample count"):
        mixture([(mean_estimator(d, 1), 0.5), (mean_estimator(d, 2), 0.5)])


def test_mixture_component_split_is_weighted():
    a = constant_estimator(0.0, 1)
    b = constant_estimator(1.0, 1)
    m = mixture([(a, 0.25), (b, 0.75)])
    rng = np.random.default_rng(8)
    out = m.evaluate_batch(np.zeros((20_000, 1)), rng)
    assert out.mean() == pytest.approx(0.75, abs=0.02)


def _searchsorted_mixture(m, x, rng):
    """The mixture kernel as it stood before index lists: a search for each draw, then boolean masks."""
    x = np.asarray(x, dtype=float)
    u = rng.random(x.shape[0])
    cum = np.cumsum([float(w) for _, w in m.components])
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(m.components) - 1)
    out = np.empty(x.shape[0])
    for j, (comp, _) in enumerate(m.components):
        mask = idx == j
        if mask.any():
            out[mask] = comp.evaluate_batch(x[mask])
    return out


class _Draws:
    """A generator stand-in whose random(m) returns the first m of the given draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def random(self, m):
        return self.draws[:m].copy()


def _spy(calls, n):
    def batch(x):
        calls.append(len(x))
        return x[:, 0] * 0.5

    return Estimator(label="spy", n=n, batch_fn=batch)


_G = Gaussian(0.3, 1.2)
_MIXTURES = {
    "fractions": [(constant_estimator(0.0, 2), Fraction(1, 3)), (mean_estimator(_G, 2), Fraction(1, 3)),
                  (min_shift_estimator(0.1, 2), Fraction(1, 3))],
    "window": [(window_mle_estimator(_G, 0.4, 2), 0.2), (mean_estimator(_G, 2), 0.3),
               (constant_estimator(-1.0, 2), 0.5)],
    "tenths": [(constant_estimator(float(j), 2), 0.1) for j in range(10)],  # the cumsum ends below 1
}


@pytest.mark.parametrize("name", sorted(_MIXTURES))
def test_mixture_kernel_keeps_the_bits_of_the_search_and_mask_kernel(name):
    m = mixture(_MIXTURES[name])
    x = np.random.default_rng(9).normal(0.3, 1.2, size=(3000, 2))
    rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    got = m.evaluate_batch(x, rng)
    assert got.view(np.int64).tolist() == _searchsorted_mixture(m, x, ref_rng).view(np.int64).tolist()
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # one rng.random(m) draw
    # Draws on, and one float step either side of, every cumulative weight, and the extremes.
    cum = [float(c) for c in np.cumsum([float(w) for _, w in m.components])]
    edges = [0.0, float(np.nextafter(1.0, 0.0))]
    edges += [float(np.nextafter(c, side)) for c in cum for side in (-np.inf, np.inf)] + cum
    draws = _Draws(edges)
    rows = x[: len(edges)]
    want = _searchsorted_mixture(m, rows, draws)
    assert m.evaluate_batch(rows, draws).view(np.int64).tolist() == want.view(np.int64).tolist()


def test_mixture_scores_no_part_that_no_row_draws():
    calls = []
    m = mixture([(constant_estimator(2.0, 2), 0.5), (_spy(calls, 2), 0.25), (mean_estimator(_G, 2), 0.25)])
    x = np.random.default_rng(5).normal(size=(6, 2))
    draws = _Draws([0.1, 0.9, 0.49, 0.75, 0.8, 0.0])  # none in [0.5, 0.75)
    got = m.evaluate_batch(x, draws)
    assert calls == []
    assert got.view(np.int64).tolist() == _searchsorted_mixture(m, x, draws).view(np.int64).tolist()
    assert got[[0, 2, 5]].tolist() == [2.0] * 3
    m.evaluate_batch(x, _Draws([0.6, 0.1, 0.7, 0.2, 0.3, 0.4]))
    assert calls == [2]


def test_mixture_inherits_invariance_only_when_unanimous():
    inv = min_shift_estimator(0.1, 1)
    m_inv = mixture([(inv, 0.5), (min_shift_estimator(0.2, 1), 0.5)])
    assert m_inv.invariance_claim == SHIFT_INVARIANT
    m_plain = mixture([(inv, 0.5), (constant_estimator(0.0, 1), 0.5)])
    assert m_plain.invariance_claim != SHIFT_INVARIANT


@pytest.mark.parametrize("c", [-1e6, -3.5, 0.0, 11.25, 1e6])
def test_shift_equivariance_of_invariant_estimators(example_atoms, c):
    gauss = Gaussian(0.0, 1.0)
    estimators = [
        (mean_estimator(gauss, 3), (0.3, -0.8, 1.7)),
        (window_mle_estimator(gauss, 0.5, 3), (0.3, -0.8, 1.7)),
        (min_shift_estimator(0.25, 3), (0.3, -0.8, 1.7)),
        (discrete_mle_estimator(example_atoms, Fraction(3, 4)), (1.0,)),
    ]
    for e, x in estimators:
        base = float(e.evaluate(x))
        moved = float(e.evaluate(tuple(v + c for v in x)))
        assert moved - c == pytest.approx(base, abs=1e-9 * max(1.0, abs(c) * 1e-3))


@given(
    st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=6),
    st.floats(min_value=-100, max_value=100),
)
def test_mean_estimator_is_exactly_equivariant_in_expectation(xs, c):
    d = Gaussian(0.0, 1.0)
    e = mean_estimator(d, len(xs))
    x = tuple(xs)
    assert float(e.evaluate(tuple(v + c for v in x))) - c == pytest.approx(
        float(e.evaluate(x)), abs=1e-7
    )


@given(st.floats(min_value=-4, max_value=4), st.floats(min_value=-4, max_value=4))
def test_window_guess_lies_in_the_positive_density_region(a, b):
    d = Gaussian(0.0, 1.0)
    e = window_mle_estimator(d, 0.5, 2)
    guess = float(e.evaluate((a, b)))
    # The balanced window center never leaves the sample span by more than
    # the half-window plus the mode pull.
    assert min(a, b) - 3.0 <= guess <= max(a, b) + 3.0
