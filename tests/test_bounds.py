import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftq import (
    BoundReport,
    Exponential,
    FiniteAtoms,
    Gaussian,
    MCConfig,
    PiecewiseDensity,
    Uniform,
    coefficient_sumset,
    constant_estimator,
    discrete_mle_estimator,
    exact_quality_discrete,
    mean_estimator,
    min_shift_estimator,
    packing_bound_discrete,
    packing_bound_halfline,
    quality_at,
    sumset_average_bound,
    window_bound_log_concave,
    window_bound_one_sample,
    window_mle_estimator,
)
from shiftq.estimators import Estimator, mixture
from shiftq.util import MATCH_ATOL, EnumerationLimitError, is_exact
from tests.conftest import random_rational_atoms

UNIT_WINDOW_MASS = 0.6826894921370859
EXPO_HALF_MASS = 0.3934693402873666
EXPO_FULL_MASS = 0.6321205588285577
EXPO_FIVE_MASS = 0.9179150013761012


def brute_force_packing(d: FiniteAtoms, delta) -> Fraction:
    """Best conflict-free subset by exhaustive 2^r search (oracle)."""
    locs, masses = d.locations, d.masses
    step = 2 * delta
    r = len(locs)

    def conflict(i, j):
        ratio = (locs[j] - locs[i]) / step
        return ratio == int(ratio)

    best = Fraction(0)
    for mask in range(1, 2**r):
        chosen = [i for i in range(r) if mask >> i & 1]
        if any(conflict(i, j) for i, j in itertools.combinations(chosen, 2)):
            continue
        best = max(best, sum(masses[i] for i in chosen))
    return best


def test_gaussian_window_bound_is_centered_at_the_mode():
    r = window_bound_one_sample(Gaussian(0.0, 1.0), 1.0)
    assert r.kind == "window" and r.n == 1
    assert r.value == pytest.approx(UNIT_WINDOW_MASS, abs=1e-9)
    assert r.witness == pytest.approx(0.0, abs=1e-7)
    assert r.equality_certified
    assert r.ci_half_width == 0.0


def test_exponential_window_bound_hugs_the_left_edge():
    r = window_bound_one_sample(Exponential(1.0), 0.25)
    assert r.value == pytest.approx(EXPO_HALF_MASS, abs=1e-9)
    assert r.witness == pytest.approx(0.25, abs=1e-7)
    assert r.equality_certified


def test_uniform_window_bound_has_a_flat_optimum():
    r = window_bound_one_sample(Uniform(0.0, 1.0), 0.1)
    assert r.value == pytest.approx(0.2, abs=1e-9)
    assert 0.1 - 1e-6 <= r.witness <= 0.9 + 1e-6


def test_piecewise_window_bound_matches_grid_oracle():
    d = PiecewiseDensity(knots=((0.0, 0.0), (1.0, 0.75), (2.0, 0.25), (3.0, 0.0)))
    delta = 0.4
    r = window_bound_one_sample(d, delta)
    centers = np.linspace(-0.5, 3.5, 20_001)
    masses = d.cdf(centers + delta) - d.cdf(centers - delta)
    assert r.value == pytest.approx(float(np.max(masses)), abs=1e-6)


@pytest.mark.parametrize(
    "d, delta",
    [
        (Gaussian(0.3, 1.2), 0.4),
        (Uniform(-1.0, 2.0), 0.25),
        (PiecewiseDensity(knots=((0.0, 0.0), (1.0, 0.75), (2.0, 0.25), (3.0, 0.0))), 0.4),
        (PiecewiseDensity(knots=((-1.0, 1.5), (0.0, 0.25), (1.0, 0.0))), 0.2),
    ],
)
def test_one_sample_window_rule_centre_is_the_bound_witness(d, delta):
    # The rule is x - c, so at x = 0 it returns -c; the ceiling's witness is the same c, bit for bit.
    rule = window_mle_estimator(d, delta, 1)
    centre = -float(rule.evaluate_batch(np.zeros((1, 1)))[0])
    assert centre == window_bound_one_sample(d, delta).witness


def test_discrete_window_bound_hand_example(example_atoms):
    r = window_bound_one_sample(example_atoms, Fraction(3, 4))
    assert r.value == Fraction(3, 5)
    assert r.witness == Fraction(1, 2)
    assert isinstance(r.value, Fraction)


def test_discrete_window_leftmost_tie_break():
    d = FiniteAtoms(
        atoms=(
            (Fraction(0), Fraction(1, 2)),
            (Fraction(5), Fraction(1, 2)),
        )
    )
    r = window_bound_one_sample(d, Fraction(1, 4))
    # Both singleton windows tie at mass 1/2; the left one wins.
    assert r.value == Fraction(1, 2)
    assert r.witness == Fraction(0)


def test_discrete_packing_bound_hand_example(example_atoms):
    # Atoms 1 and 10 are 9 apart = 6 * (2 * 3/4), so they conflict.
    r = packing_bound_discrete(example_atoms, Fraction(3, 4))
    assert r.kind == "packing"
    assert r.value == Fraction(1, 4) + Fraction(2, 5)
    assert not r.equality_certified  # strictly above the window bound 3/5


def test_discrete_packing_no_conflicts_sums_to_one(example_atoms):
    r = packing_bound_discrete(example_atoms, Fraction(2, 7))
    # 2*delta = 4/7; none of the distances 1, 9, 10 is a multiple of it.
    assert r.value == 1


def test_discrete_packing_wide_step_conflicts(example_atoms):
    # 2*delta = 2/3 divides the distance 10 (15 steps), so 0 and 10 conflict.
    r = packing_bound_discrete(example_atoms, Fraction(1, 3))
    assert r.value == Fraction(2, 5) + Fraction(7, 20)


def test_packing_agrees_with_brute_force_up_to_r12():
    rng = np.random.default_rng(99)
    for r_atoms in (3, 6, 9, 12):
        for _ in range(3):
            d = random_rational_atoms(rng, r_atoms)
            delta = Fraction(int(rng.integers(1, 10)), 16)
            got = packing_bound_discrete(d, delta).value
            want = brute_force_packing(d, delta)
            assert got == want


def test_window_never_exceeds_packing_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(25):
        d = random_rational_atoms(rng, int(rng.integers(2, 6)))
        delta = Fraction(int(rng.integers(1, 12)), 16)
        s = window_bound_one_sample(d, delta).value
        t = packing_bound_discrete(d, delta).value
        assert isinstance(s, Fraction) and isinstance(t, Fraction)
        assert s <= t


def test_halfline_packing_closed_forms():
    d = Exponential(1.0)
    for n, want in ((1, EXPO_HALF_MASS), (2, EXPO_FULL_MASS), (5, EXPO_FIVE_MASS)):
        r = packing_bound_halfline(d, n, 0.25)
        assert r.value == pytest.approx(want, abs=1e-12)
        assert r.equality_certified and r.n == n
    with pytest.raises(ValueError):
        packing_bound_halfline(Gaussian(0.0, 1.0), 1, 0.25)
    # A decreasing law whose support starts at lo = 0.5: the event is "every
    # sample within 2*delta above theta + lo", which min(x) - lo - delta catches.
    ramp = PiecewiseDensity(knots=((0.5, 4.0), (1.0, 0.0)))
    window = window_bound_one_sample(ramp, 0.1).value
    assert window == pytest.approx(0.64, abs=1e-9)
    for n in (1, 3):
        r = packing_bound_halfline(ramp, n, 0.1)
        assert r.value == pytest.approx(1.0 - (1.0 - float(ramp.cdf(0.7))) ** n, abs=1e-12)
        assert r.value >= window - 1e-9
    q, ci = quality_at(min_shift_estimator(0.6, 3), ramp, 0.0, 0.1, MCConfig(trials=20_000, seed=3))
    assert abs(q - packing_bound_halfline(ramp, 3, 0.1).value) <= 4 * ci


def test_log_concave_window_bound_matches_gaussian_mass():
    mc = MCConfig(trials=150_000, seed=7)
    r = window_bound_log_concave(Gaussian(0.0, 1.0), 4, 0.5, mc)
    assert abs(r.value - UNIT_WINDOW_MASS) <= 3 * r.ci_half_width
    assert r.equality_certified and r.ci_half_width > 0.0


def test_log_concave_window_bound_is_scale_equivariant():
    mc = MCConfig(trials=100_000, seed=21)
    a = window_bound_log_concave(Gaussian(0.0, 1.0), 3, 0.5, mc)
    b = window_bound_log_concave(Gaussian(0.0, 2.0), 3, 1.0, mc)
    assert abs(a.value - b.value) <= 3 * (a.ci_half_width + b.ci_half_width)


def test_window_bound_rejects_degenerate_threshold():
    with pytest.raises(ValueError):
        window_bound_one_sample(Gaussian(0.0, 1.0), 0.0)


def test_coefficient_sumset_examples():
    assert coefficient_sumset([0, 1], 3) == [0, 1, 2]
    assert coefficient_sumset([Fraction(0), Fraction(1), Fraction(10)], 2) == [
        0,
        1,
        10,
        11,
    ]
    # Nearby floats collapse.
    assert coefficient_sumset([0.0, 1e-12], 2) == [0.0]


def test_coefficient_sumset_caps():
    with pytest.raises(EnumerationLimitError):
        coefficient_sumset(list(range(7)), 2)
    with pytest.raises(EnumerationLimitError):
        coefficient_sumset(list(range(6)), 100)
    with pytest.raises(ValueError):
        coefficient_sumset([], 2)


def _reference_sumset(points, k):
    """coefficient_sumset stage by stage: sorted Fraction sets, or floats deduplicated on MATCH_ATOL."""
    exact = is_exact(*points)
    values = [0 if exact else 0.0]
    for z in points:
        sums = [v + h * z for v in values for h in range(k)]
        if exact:
            values = sorted(set(sums))
        else:
            arr = np.sort(np.asarray([float(v) for v in sums]))
            values = arr[np.concatenate(([True], np.diff(arr) > MATCH_ATOL))].tolist()
    return values


def _reference_average_bound(e, d, delta, k, closed):
    """The averaging check shift by shift: one exact_quality_discrete call per theta of S."""
    shifts = coefficient_sumset(d.locations, k)
    total = sum(exact_quality_discrete(e, d, t, delta, closed_interval=closed) for t in shifts)
    window = window_bound_one_sample(d, delta, closed_interval=closed).value
    grown = len({t + z for t in shifts for z in d.locations})
    if is_exact(total, window):
        average = Fraction(total, len(shifts))
        bound = window * Fraction(grown, len(shifts))
        return average, bound, average <= bound
    average = float(total) / len(shifts)
    bound = float(window) * grown / len(shifts)
    return average, bound, average <= bound + 1e-12


@st.composite
def _rational_laws(draw):
    """(atoms, delta, k): r <= 5 rational atoms and k <= 5, with k^r <= 256 to keep the reference quick."""
    r = draw(st.integers(1, 5))
    den = draw(st.sampled_from([1, 2, 3, 8, 12]))
    locs = sorted(draw(st.sets(st.integers(-40, 60), min_size=r, max_size=r)))
    weights = draw(st.lists(st.integers(1, 9), min_size=r, max_size=r))
    masses = [Fraction(w, sum(weights)) for w in weights]
    d = FiniteAtoms(atoms=tuple((Fraction(z, den), m) for z, m in zip(locs, masses)))
    delta = Fraction(draw(st.integers(1, 48)), draw(st.sampled_from([1, 2, 3, 4, 16])))
    k = draw(st.integers(1, max(j for j in range(1, 6) if j**r <= 256)))
    return d, delta, k


def _table_rule(offset, modulus):
    def rule(x):
        v = x[0]
        return v - offset if (v % modulus) < modulus / 2 else v + offset

    return Estimator(label="table rule", fn=rule, n=1)


@st.composite
def _one_sample_rules(draw, d, delta, closed):
    """A one-sample rule: exact or float table rules, constants, discrete_mle, or mixtures of them."""
    kinds = ["table", "float table", "mle", "mean", "min_shift", "constant", "float constant", "mixture"]
    kind = draw(st.sampled_from(kinds))
    offset = Fraction(draw(st.integers(-40, 40)), 8)
    modulus = Fraction(draw(st.integers(2, 12)), 2)
    value = Fraction(draw(st.integers(-60, 60)), 6)
    if kind == "table":
        return _table_rule(offset, modulus)
    if kind == "float table":
        return _table_rule(float(offset), float(modulus))
    if kind == "mle":
        return discrete_mle_estimator(d, delta, closed_interval=closed)
    if kind == "mean":
        return mean_estimator(d, 1)
    if kind == "min_shift":
        return min_shift_estimator(delta, 1)
    if kind == "constant":
        return constant_estimator(value, n=1)
    if kind == "float constant":
        return constant_estimator(float(value) + 0.1, n=1)
    weight = Fraction(draw(st.integers(1, 7)), 8)
    weights = (weight, 1 - weight) if draw(st.booleans()) else (float(weight), 1 - float(weight))
    parts = (_table_rule(offset, modulus), draw(_one_sample_rules(d, delta, closed)))
    return mixture(list(zip(parts, weights)))


@given(st.data())
def test_sumset_average_bound_matches_the_shift_by_shift_reference(data):
    d, delta, k = data.draw(_rational_laws())
    closed = data.draw(st.booleans())
    e = data.draw(_one_sample_rules(d, delta, closed))
    out = sumset_average_bound(e, d, delta, k, closed_interval=closed)
    assert repr(tuple(out)) == repr(_reference_average_bound(e, d, delta, k, closed))


def test_sumset_average_stays_rational_when_the_total_is_an_int():
    # One atom of int mass 1: every shift is hit and the total is the int |S|.
    one = FiniteAtoms(atoms=((0, 1),))
    out = sumset_average_bound(discrete_mle_estimator(one, Fraction(1, 2)), one, Fraction(1, 2), 3)
    assert repr(tuple(out)) == "(Fraction(1, 1), Fraction(1, 1), True)"
    # A guess far from every shift hits nothing: the total is the int 0.
    d = FiniteAtoms(atoms=((Fraction(0), Fraction(1, 3)), (Fraction(5, 2), Fraction(2, 3))))
    out = sumset_average_bound(constant_estimator(1000, n=1), d, Fraction(3, 4), 3)
    assert repr(out.average_quality) == "Fraction(0, 1)" and out.holds


@pytest.mark.parametrize(
    "atoms",
    [((0, 1),), ((-2, Fraction(1, 4)), (3, Fraction(1, 2)), (7, Fraction(1, 4)))],
    ids=["int mass", "fraction masses"],
)
@pytest.mark.parametrize("delta", [Fraction(1, 2), 1, Fraction(9, 4)])
@pytest.mark.parametrize("closed", [False, True])
def test_int_locations_are_observed_as_ints(atoms, delta, closed):
    d = FiniteAtoms(atoms=atoms)
    seen = []

    def rule(x):
        seen.append(type(x[0]))
        v = x[0]
        return v - Fraction(1, 4) if v % 3 < 2 else v + 1

    e = Estimator(label="int table", fn=rule, n=1)
    out = sumset_average_bound(e, d, delta, 3, closed_interval=closed)
    assert seen and set(seen) == {int}
    assert repr(tuple(out)) == repr(_reference_average_bound(e, d, delta, 3, closed))


@pytest.mark.parametrize("closed", [False, True])
def test_a_rule_with_scaled_sees_the_observed_ints(closed):
    # Locations over 6 and delta 1/4: the observations are 6 * (S + Z) and
    # the scaled rule, built once, sees those ints and answers in the same units.
    atoms = ((Fraction(0), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 6)), (Fraction(5, 3), Fraction(1, 2)))
    d = FiniteAtoms(atoms=atoms)
    delta = Fraction(1, 4)
    plain = discrete_mle_estimator(d, delta, closed_interval=closed)
    built, seen = [], []

    def scaled(scale):
        built.append(scale)
        rule = plain.scaled(scale)
        return Estimator(label=rule.label, fn=lambda x: seen.extend(x) or rule.fn(x), n=1)

    e = Estimator(label=plain.label, fn=lambda x: 1 / 0, n=1, scaled=scaled)
    out = sumset_average_bound(e, d, delta, 3, closed_interval=closed)
    assert built == [6] and seen and {type(v) for v in seen} == {int}
    assert repr(tuple(out)) == repr(_reference_average_bound(plain, d, delta, 3, closed))


def test_float_guess_on_an_exact_law_takes_the_threshold_band():
    # x - 1/2 in floats: the atom at 0 lands on the boundary, within the band,
    # so it counts only under closed windows; the atom at 1/3 lands inside.
    d = FiniteAtoms(atoms=((Fraction(0), Fraction(1, 4)), (Fraction(1, 3), Fraction(3, 4))))
    e = Estimator(label="first-minus-half", n=1, batch_fn=lambda x: x[:, 0] - 0.5)
    for closed, average in ((False, Fraction(3, 4)), (True, Fraction(1, 1))):
        out = sumset_average_bound(e, d, Fraction(1, 2), 4, closed_interval=closed)
        assert repr(out.average_quality) == repr(average)
        assert repr(tuple(out)) == repr(_reference_average_bound(e, d, Fraction(1, 2), 4, closed))


@pytest.mark.parametrize("count, k", [(7, 2), (6, 15)], ids=["7 points", "15^6 sums"])
def test_sumset_average_bound_refuses_past_the_caps_before_any_evaluation(count, k):
    calls = []
    e = Estimator(label="counting", fn=lambda x: calls.append(x) or x[0], n=1)
    d = FiniteAtoms(atoms=tuple((Fraction(i), Fraction(1, count)) for i in range(count)))
    with pytest.raises(EnumerationLimitError):
        sumset_average_bound(e, d, Fraction(1, 2), k)
    assert calls == []


def test_coefficient_sumset_keeps_the_point_types_and_order():
    ints = coefficient_sumset([0, 3, 5], 3)
    assert ints == _reference_sumset([0, 3, 5], 3) and all(type(v) is int for v in ints)
    points = [Fraction(-3, 4), Fraction(1, 3), 2, Fraction(29, 6)]
    exact = coefficient_sumset(points, 4)
    assert exact == _reference_sumset(points, 4) and all(type(v) is Fraction for v in exact)
    floats = [-0.75, 0.1, 0.2, 0.30000000001, 4.8]
    assert coefficient_sumset(floats, 3) == _reference_sumset(floats, 3)
    # 0.1 + 0.2 and 0.30000000001 collapse to one element.
    assert len(coefficient_sumset(floats, 2)) < 2 ** len(floats)


def test_sumset_average_bound_on_the_optimal_estimator(example_atoms):
    delta = Fraction(3, 4)
    e = discrete_mle_estimator(example_atoms, delta)
    out = sumset_average_bound(e, example_atoms, delta, 4)
    assert out.holds
    assert out.average_quality == Fraction(3, 5)
    assert isinstance(out.bound, Fraction)
    assert out.average_quality <= out.bound
    # The ceiling is the one-sample window: the two-sample rule, which scores
    # 21/25 against a bound of 4/5 at k = 6, is refused on exact and float atoms.
    float_atoms = FiniteAtoms(atoms=tuple((float(z), float(m)) for z, m in example_atoms.atoms))
    for d, dl in ((example_atoms, delta), (float_atoms, float(delta))):
        with pytest.raises(ValueError, match="one-sample rules; discrete_exact\\(n=2\\) takes n=2"):
            sumset_average_bound(discrete_mle_estimator(d, dl, 2), d, dl, 6)


def test_sumset_average_bound_on_random_rules(example_atoms):
    rng = np.random.default_rng(31)
    delta = Fraction(3, 4)
    for _ in range(20):
        offset = Fraction(int(rng.integers(-40, 40)), 8)
        modulus = Fraction(int(rng.integers(2, 12)), 2)

        def rule(x, offset=offset, modulus=modulus):
            v = x[0]
            return v - offset if (v % modulus) < modulus / 2 else v + offset

        e = Estimator(label="table rule", fn=rule, n=1)
        out = sumset_average_bound(e, example_atoms, delta, 3)
        assert out.holds


def test_bound_report_is_frozen():
    r = window_bound_one_sample(Gaussian(0.0, 1.0), 1.0)
    assert isinstance(r, BoundReport)
    with pytest.raises(Exception):
        r.value = 0.0
