import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftq import (
    Exponential,
    FiniteAtoms,
    Gaussian,
    MCConfig,
    Uniform,
    constant_estimator,
    default_theta_grid,
    EnumerationLimitError,
    InvarianceError,
    discrete_mle_estimator,
    exact_quality_discrete,
    invariant_extension,
    mean_estimator,
    min_shift_estimator,
    mixture,
    quality_at,
    quality_inf,
    window_mle_estimator,
    wilson_halfwidth,
)
from shiftq.estimators import SHIFT_INVARIANT, Estimator
from shiftq.quality import CHUNK_TRIALS, LINE, _chunk_rng, _counter, _noise
from tests.conftest import GOLOMB, random_rational_atoms

UNIT_WINDOW_MASS = 0.6826894921370859
EXPO_HALF_MASS = 0.3934693402873666
EXPO_FULL_MASS = 0.6321205588285577


def test_wilson_halfwidth_frozen_value():
    # z = 2.5758... at 99%; reference computed once from the closed form.
    assert wilson_halfwidth(500, 1000, 0.99) == pytest.approx(0.04056, abs=2e-4)
    assert wilson_halfwidth(0, 1000, 0.99) > 0.0
    assert wilson_halfwidth(1000, 1000, 0.99) < 0.01


def test_wilson_halfwidth_shrinks_with_trials():
    widths = [wilson_halfwidth(n // 2, n, 0.99) for n in (100, 1000, 10_000, 100_000)]
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_gaussian_mean_quality_matches_normal_mass(mc_mid):
    d = Gaussian(0.0, 1.0)
    q, ci = quality_at(mean_estimator(d, 1), d, 0.0, 1.0, mc_mid)
    assert abs(q - UNIT_WINDOW_MASS) <= 3 * ci
    # Four samples halve the standard error: same mass at half the threshold.
    q4, ci4 = quality_at(mean_estimator(d, 4), d, 0.0, 0.5, mc_mid)
    assert abs(q4 - UNIT_WINDOW_MASS) <= 3 * ci4


def test_min_shift_quality_matches_closed_form(mc_mid):
    d = Exponential(1.0)
    for n, want in ((1, EXPO_HALF_MASS), (2, EXPO_FULL_MASS)):
        q, ci = quality_at(min_shift_estimator(0.25, n), d, 0.0, 0.25, mc_mid)
        assert abs(q - want) <= 3 * ci


def test_quality_is_zero_for_far_constant_guess(mc_fast):
    d = Gaussian(0.0, 1.0)
    q, ci = quality_at(constant_estimator(0.0, 1), d, 10.0, 1.0, mc_fast)
    assert q == 0.0


def test_exact_quality_hand_enumerated(example_atoms):
    delta = Fraction(3, 4)
    e = discrete_mle_estimator(example_atoms, delta)
    # Window center 1/2 covers atoms 0 and 1: mass 1/4 + 7/20 = 3/5.
    assert exact_quality_discrete(e, example_atoms, Fraction(0), delta) == Fraction(3, 5)
    assert exact_quality_discrete(e, example_atoms, Fraction(22, 7), delta) == Fraction(3, 5)

    const = constant_estimator(Fraction(0), 1)
    assert exact_quality_discrete(const, example_atoms, Fraction(0), delta) == 1
    assert exact_quality_discrete(const, example_atoms, Fraction(10), delta) == 0


def test_exact_quality_closed_interval_boundary(example_atoms):
    delta = Fraction(3, 4)
    const = constant_estimator(Fraction(0), 1)
    # |guess - theta| lands exactly on the threshold.
    open_q = exact_quality_discrete(const, example_atoms, delta, delta, closed_interval=False)
    closed_q = exact_quality_discrete(const, example_atoms, delta, delta, closed_interval=True)
    assert open_q == 0
    assert closed_q == 1


def test_exact_quality_of_mixture_is_weighted(example_atoms):
    delta = Fraction(3, 4)
    good = discrete_mle_estimator(example_atoms, delta)
    bad = constant_estimator(Fraction(-1000), 1)
    m = mixture([(good, 0.5), (bad, 0.5)])
    got = exact_quality_discrete(m, example_atoms, Fraction(0), delta)
    assert got == pytest.approx(0.5 * 0.6, abs=1e-12)


def test_mc_determinism_across_parallelism():
    # Chunks run in order, but the result must not depend on that: over three
    # chunks, the last one partial, the total must be the sum of the chunks'
    # own counts, each recomputed from (seed, chunk index) alone and visited
    # here in reverse order.
    d = Exponential(2.0)
    e = min_shift_estimator(0.2, 3)
    sizes = [CHUNK_TRIALS, CHUNK_TRIALS, 5_000]
    mc = MCConfig(trials=sum(sizes), seed=99)
    q, _ = quality_at(e, d, 1.5, 0.2, mc)
    draw, count = _noise(d, 3), _counter(LINE, e, 1.5, 0.2, False)
    hits = [count(draw(_chunk_rng(99, c), sizes[c]), None) for c in reversed(range(3))]
    assert 0 < min(hits) and q == sum(hits) / mc.trials


def test_mc_determinism_across_runs(mc_fast):
    d = Exponential(2.0)
    e = min_shift_estimator(0.3, 2)
    a = quality_at(e, d, 1.5, 0.3, mc_fast)
    b = quality_at(e, d, 1.5, 0.3, mc_fast)
    assert a == b


def test_mc_agrees_with_exact_on_random_atoms():
    rng = np.random.default_rng(55)
    mc = MCConfig(trials=40_000, seed=13)
    for _ in range(10):
        exact_d = random_rational_atoms(rng, int(rng.integers(2, 5)))
        # Same instance with float data for the sampling path.
        float_d = FiniteAtoms(
            atoms=tuple((float(z), float(m)) for z, m in exact_d.atoms)
        )
        delta = Fraction(int(rng.integers(1, 8)), 8)
        e_exact = discrete_mle_estimator(exact_d, delta)
        e_float = discrete_mle_estimator(float_d, float(delta))
        want = exact_quality_discrete(e_exact, exact_d, Fraction(0), delta)
        got, ci = quality_at(e_float, float_d, 0.0, float(delta), mc)
        assert abs(got - float(want)) <= 3 * ci + 1e-9


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(finite, finite.filter(lambda t: t != 0.0))
def test_line_moves_a_guess_back_by_subtracting_the_shift(g, theta):
    # The invariance check moves each guess back with act(g, -theta), skipping shift 0:
    # on the line that is g - theta, bit for bit.
    guess = np.array([g])
    assert LINE.act(guess, -theta).view(np.int64).tolist() == (guess - theta).view(np.int64).tolist()


def test_quality_inf_certifies_invariant_estimators(mc_fast):
    d = Exponential(1.0)
    e = min_shift_estimator(0.25, 2)
    report = quality_inf(e, d, 0.25, (-5.0, 3.0, 100.0), mc_fast)
    assert report.infimum_certified
    assert report.worst_case[1] == 0.0
    thetas = [t.theta for t in report.per_theta]
    assert 0.0 in thetas
    spread = max(t.q for t in report.per_theta) - min(t.q for t in report.per_theta)
    assert spread <= 6 * max(t.ci_half_width for t in report.per_theta)


def test_quality_inf_reports_grid_minimum_for_plain_estimators(mc_fast):
    d = Gaussian(0.0, 1.0)
    e = constant_estimator(0.0, 1)
    report = quality_inf(e, d, 1.0, (0.0, 5.0), mc_fast)
    assert not report.infimum_certified
    assert report.worst_case[1] == 5.0
    assert report.worst_case[0] == 0.0


def test_quality_inf_rejects_false_invariance_claims(mc_fast):
    d = Gaussian(0.0, 1.0)
    liar = Estimator(
        label="liar", fn=lambda x: 0.0, n=1, invariance_claim=SHIFT_INVARIANT
    )
    with pytest.raises(RuntimeError, match="invariance"):
        quality_inf(liar, d, 1.0, (0.0, 6.0), mc_fast)


@pytest.mark.parametrize("rule", ["mean", "min_shift", "window"])
def test_equivariant_rows_are_identical_at_every_shift(rule):
    d = Gaussian(0.0, 1.0)
    e = {
        "mean": mean_estimator(d, 4),
        "min_shift": min_shift_estimator(0.5, 4),
        "window": window_mle_estimator(d, 0.5, 4),
    }[rule]
    mc = MCConfig(trials=60_000, seed=3)
    report = quality_inf(e, d, 0.5, (0.0, 1e3, 1e9, 1e13, 1e15), mc)
    rows = {(t.q, t.ci_half_width) for t in report.per_theta}
    assert len(report.per_theta) == 5 and len(rows) == 1
    assert rows == {quality_at(e, d, 0.0, 0.5, mc)}


def _sly_estimator(delta, n):
    """The mean, moved by delta/10 on the rows whose first sample has fractional part below 0.01."""

    def batch(x):
        off = x[:, 0] - np.floor(x[:, 0]) < 0.01
        return x.mean(axis=1) + np.where(off, delta / 10, 0.0)

    return Estimator(
        label="sly",
        fn=lambda s: float(batch(np.asarray([s], dtype=float))[0]),
        n=n,
        invariance_claim=SHIFT_INVARIANT,
        batch_fn=batch,
    )


def test_quality_inf_catches_a_rule_off_on_one_percent_of_rows():
    # The qualities at these shifts agree within their confidence intervals,
    # so only a row-by-row comparison shows that the rule moves with the shift.
    d = Gaussian(0.0, 1.0)
    with pytest.raises(InvarianceError, match="sly claims shift invariance"):
        quality_inf(_sly_estimator(0.5, 4), d, 0.5, (0.0, 0.5, 3.0), MCConfig(trials=60_000, seed=3))


def test_invariance_check_covers_every_part_of_a_mixture(mc_fast):
    d = Gaussian(0.0, 1.0)
    m = mixture([(mean_estimator(d, 2), 0.5), (_sly_estimator(1.0, 2), 0.5)])
    assert m.invariance_claim == SHIFT_INVARIANT
    with pytest.raises(InvarianceError, match="sly"):
        quality_inf(m, d, 1.0, (0.0, 0.5), mc_fast)


def test_non_invariant_mixture_rows_match_separate_runs():
    d = Gaussian(-0.4, 1.1)
    m = mixture([(constant_estimator(0.3, 2), 0.375), (mean_estimator(d, 2), 0.625)])
    mc = MCConfig(trials=40_000, seed=9)
    grid = (-2.0, -0.25, 0.0, 0.5, 1.75)
    report = quality_inf(m, d, 0.3125, grid, mc)
    assert [(t.theta, t.q, t.ci_half_width) for t in report.per_theta] == [
        (theta, *quality_at(m, d, theta, 0.3125, mc)) for theta in grid
    ]


@pytest.mark.parametrize("n, q", [(2, 0.736328125), (3, 0.8603515625)])
def test_window_on_a_bounded_law_holds_at_a_huge_shift(n, q):
    # At 1e15 the samples round to steps of 0.125, so a row's spread can reach
    # the support width; the solve must still give the row at shift 0.
    d = Uniform(0.0, 1.0)
    report = quality_inf(
        window_mle_estimator(d, 0.25, n), d, 0.25, (0.0, 1e15), MCConfig(trials=1024, seed=5)
    )
    assert [row.q for row in report.per_theta] == [q, q]


def test_discrete_mle_on_float_atoms_holds_at_large_shifts():
    d = FiniteAtoms(atoms=((0.0, 0.25), (0.1, 0.25), (0.4, 0.5)))
    e = discrete_mle_estimator(d, 0.05, 2)
    for theta in (0.0, 1e7, 1e8, 1e9, -1e12):
        assert exact_quality_discrete(e, d, theta, 0.05) == pytest.approx(0.875, abs=1e-12)


def test_quality_inf_uses_exact_path_on_atoms(example_atoms):
    e = discrete_mle_estimator(example_atoms, Fraction(3, 4))
    mc = MCConfig(trials=1000, seed=1)
    report = quality_inf(e, example_atoms, Fraction(3, 4), (0.0, 1.5, 3.0), mc)
    assert all(t.exact and t.ci_half_width == 0.0 for t in report.per_theta)
    assert report.worst_case[0] == pytest.approx(0.6, abs=1e-15)


def test_default_theta_grid_covers_both_signs():
    # 0.3 is not dyadic: each point is rounded once from its rational value,
    # so the averaging points that coincide with the spread grid stay one shift.
    for delta, n, lo, hi, points in ((0.25, 2, -5.0, 5.0, 41), (0.3, 1, -3.0, 6.0, 46)):
        grid = default_theta_grid(delta, n)
        assert min(grid) == lo and max(grid) == hi
        assert any(t == 0.0 for t in grid)
        assert len(grid) == points and np.diff(grid).min() > 1e-12


def test_default_theta_grid_is_rational_for_a_rational_delta():
    grid = default_theta_grid(Fraction(1, 3), 2)
    assert all(isinstance(t, Fraction) for t in grid)
    # The averaging points 2*delta*i all lie on the 41-point grid here.
    assert len(grid) == 41 and grid[0] == Fraction(-20, 3) and Fraction(0) in grid
    float_grid = set(np.linspace(-5.0, 5.0, 41).tolist()) | {0.5 * i for i in range(1, 11)}
    assert default_theta_grid(0.25, 2) == tuple(sorted(float_grid))


def test_mc_config_validation():
    with pytest.raises(ValueError):
        MCConfig(trials=10)
    with pytest.raises(ValueError):
        MCConfig(ci_level=1.0)
    with pytest.raises(ValueError, match="seed must be at least 0"):
        MCConfig(seed=-1)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"trials": 1000, "seed": 1.5}, "seed must be an int, got 1.5"),
        ({"trials": 1000.5}, "trials must be an int, got 1000.5"),
        ({"trials": 1000.0}, "trials must be an int, got 1000.0"),
        ({"seed": True}, "seed must be an int, got True"),
        ({"trials": True}, "trials must be an int, got True"),
        ({"seed": "7"}, "seed must be an int, got '7'"),
        ({"ci_level": "0.9"}, "ci_level must be a real number, got '0.9'"),
        ({"ci_level": None}, "ci_level must be a real number, got None"),
        ({"ci_level": False}, "ci_level must be a real number, got False"),
    ],
)
def test_mc_config_refuses_a_field_of_the_wrong_type(fields, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        MCConfig(**fields)


def test_mc_config_takes_any_integral_seed_and_real_ci_level():
    d, mc = Gaussian(0.0, 1.0), MCConfig(trials=1000, seed=5)
    e = mean_estimator(d, 2)
    numpy_ints = MCConfig(trials=np.int64(1000), seed=np.int64(5), ci_level=Fraction(99, 100))
    assert quality_at(e, d, 0.0, 0.5, numpy_ints) == quality_at(e, d, 0.0, 0.5, mc)


def test_randomized_estimator_mc_quality(example_atoms, mc_mid):
    # Mixing in a hopeless component halves the quality.
    float_d = FiniteAtoms(atoms=tuple((float(z), float(m)) for z, m in example_atoms.atoms))
    good = discrete_mle_estimator(float_d, 0.75)
    bad = constant_estimator(-1000.0, 1)
    m = mixture([(good, 0.5), (bad, 0.5)])
    q, ci = quality_at(m, float_d, 0.0, 0.75, mc_mid)
    assert abs(q - 0.3) <= 3 * ci + 1e-9


def _ordered_reference(e, d, theta, delta, n, closed):
    """Plain walk over every ordered sample tuple, with the threshold rule written out.

    An exact distance and delta compare exactly. A float one sits on the
    boundary within a band of 1e-12, widened on a float law to 4*n float
    spacings of |theta| + max|z|, and counts there only when closed. Masses
    are multiplied in tuple order and summed in walk order.
    """
    if hasattr(e, "components"):
        return sum(w * _ordered_reference(c, d, theta, delta, n, closed) for c, w in e.components)
    exact = all(isinstance(v, (int, Fraction)) for v in (theta, delta, *d.locations, *d.masses))
    band = 1e-12
    if not exact:
        band = max(band, 4 * n * math.ulp(abs(float(theta)) + max(abs(float(z)) for z in d.locations)))
    total = 0
    for combo in itertools.product(d.atoms, repeat=n):
        dist = abs(e.evaluate(tuple(theta + z for z, _ in combo)) - theta)
        if isinstance(dist, (int, Fraction)) and isinstance(delta, (int, Fraction)):
            hit = dist <= delta if closed else dist < delta
        elif abs(float(dist) - float(delta)) <= band:
            hit = closed
        else:
            hit = float(dist) < float(delta)
        if hit:
            total += math.prod(m for _, m in combo)
    return total


@st.composite
def rational_cases(draw):
    r = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4 if r <= 4 else 3))
    marks = sorted(draw(st.permutations(GOLOMB))[:r])
    scale = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    offset = Fraction(draw(st.integers(-20, 20)), 4)
    weights = draw(st.lists(st.integers(1, 9), min_size=r, max_size=r))
    masses = [Fraction(w, sum(weights)) for w in weights]
    d = FiniteAtoms(atoms=tuple((offset + scale * z, m) for z, m in zip(marks, masses)))
    delta = Fraction(draw(st.integers(1, 24)), 4)
    theta = Fraction(draw(st.integers(-300, 300)), draw(st.sampled_from((1, 3, 7))))
    return d, n, delta, theta, draw(st.booleans())


def _first_sample_batch_rule(n):
    """x_1 - 1/2 as a rule with only a batch_fn: its guesses are floats, even on rational samples."""
    return Estimator(label="first-minus-half", n=n, batch_fn=lambda x: x[:, 0] - 0.5)


@given(rational_cases())
def test_multiset_enumeration_matches_the_ordered_walk(case):
    d, n, delta, theta, closed = case
    rules = [
        mean_estimator(d, n),
        min_shift_estimator(delta, n),
        discrete_mle_estimator(d, delta, n),
        constant_estimator(theta + Fraction(1, 3), n=n),
    ]
    assert all(e.symmetric for e in rules)
    rules.append(mixture([(rules[0], Fraction(1, 3)), (rules[2], Fraction(2, 3))]))
    rules.append(_first_sample_batch_rule(n))
    for e in rules:
        got = exact_quality_discrete(e, d, theta, delta, closed_interval=closed)
        assert repr(got) == repr(_ordered_reference(e, d, theta, delta, n, closed))


@pytest.mark.parametrize("mass", [Fraction(1), 1])
def test_one_atom_law_keeps_the_type_of_its_mass(mass):
    d = FiniteAtoms(atoms=((Fraction(5, 2), mass),))
    theta, delta = Fraction(-7, 3), Fraction(1, 4)
    for n in (1, 2, 3):
        e = mean_estimator(d, n)
        got = exact_quality_discrete(e, d, theta, delta)
        assert repr(got) == repr(_ordered_reference(e, d, theta, delta, n, False))
        assert repr(got) == ("Fraction(1, 1)" if isinstance(mass, Fraction) else "1")


def test_nothing_hit_is_the_int_zero(example_atoms):
    delta = Fraction(3, 4)
    for n in (1, 2):
        for e in (constant_estimator(Fraction(100), n), invariant_extension(lambda x0: Fraction(50), n=n)):
            for closed in (False, True):
                got = exact_quality_discrete(e, example_atoms, Fraction(1, 3), delta, closed_interval=closed)
                assert repr(got) == "0"


def test_float_guess_on_rational_atoms_takes_the_band():
    # x_1 - 1/2 at theta = 1/3 lands exactly delta = 1/2 from theta on atoms 0
    # and 1, but its float guess rounds just outside: only the band test puts
    # it on the boundary, where it counts under the closed convention alone.
    d = FiniteAtoms(atoms=tuple((Fraction(z), Fraction(1, 3)) for z in (0, 1, 2)))
    e = _first_sample_batch_rule(2)
    theta, delta = Fraction(1, 3), Fraction(1, 2)
    assert float(theta) - 0.5 < theta - delta
    assert repr(exact_quality_discrete(e, d, theta, delta)) == "0"
    assert repr(exact_quality_discrete(e, d, theta, delta, closed_interval=True)) == "Fraction(2, 3)"


@given(
    marks=st.lists(st.sampled_from(GOLOMB), min_size=1, max_size=4, unique=True),
    weights=st.lists(st.integers(1, 16), min_size=4, max_size=4),
    tenths=st.integers(1, 30),
    n=st.integers(1, 3),
    theta=st.one_of(st.integers(-40, 40).map(lambda k: k / 10), st.floats(-1e6, 1e6)),
    rational_locations=st.booleans(),
    closed=st.booleans(),
)
def test_float_masses_sum_bit_for_bit_as_the_ordered_walk(marks, weights, tenths, n, theta, rational_locations, closed):
    # Float masses (and, on the rational-location laws, a rational theta and
    # delta too) keep the float products and the walk-order sum.
    r = len(marks)
    total = sum(weights[:r])
    locs = [Fraction(z, 10) if rational_locations else z / 10 for z in sorted(marks)]
    d = FiniteAtoms(atoms=tuple((z, w / total) for z, w in zip(locs, weights)))
    delta = Fraction(tenths, 10) if rational_locations else tenths / 10
    if rational_locations:
        theta = Fraction(theta).limit_denominator(1000)
    rules = [
        mean_estimator(d, n),
        min_shift_estimator(delta, n),
        discrete_mle_estimator(d, delta, n),
        constant_estimator(theta + 0.25, n),
        _first_sample_batch_rule(n),
    ]
    rules.append(mixture([(rules[0], 0.25), (rules[1], 0.75)]))
    for e in rules:
        got = exact_quality_discrete(e, d, theta, delta, closed_interval=closed)
        assert repr(got) == repr(_ordered_reference(e, d, theta, delta, n, closed))


@given(rational_cases(), st.floats(-1e4, 1e4))
def test_rational_masses_under_a_float_shift_sum_as_fractions(case, theta):
    d, n, delta, _, closed = case
    for e in (mean_estimator(d, n), min_shift_estimator(delta, n), _first_sample_batch_rule(n)):
        got = exact_quality_discrete(e, d, theta, delta, closed_interval=closed)
        assert repr(got) == repr(_ordered_reference(e, d, theta, delta, n, closed))


@st.composite
def lattice_cases(draw):
    """A rational case whose shift may be huge: 10**9 + 1/11 and the like."""
    d, n, delta, _, closed = draw(rational_cases())
    base = draw(st.sampled_from((0, 10**9, -(10**12), 10**18)))
    theta = base + Fraction(draw(st.integers(-300, 300)), draw(st.sampled_from((1, 3, 7, 11, 13))))
    return d, n, delta, theta, closed


@given(lattice_cases())
def test_lattice_enumeration_matches_the_plain_fraction_walk(case):
    d, n, delta, theta, closed = case
    mean = mean_estimator(d, n)
    anchored = invariant_extension(lambda x0: Fraction(sum(x0), len(x0)), n=n)  # no scaled: Fractions
    rules = [
        mean,
        min_shift_estimator(delta, n),
        discrete_mle_estimator(d, delta, n, closed_interval=closed),
        constant_estimator(theta + Fraction(1, 3), n=n),
        constant_estimator(float(theta) + 0.5, n=n),
        anchored,
        _first_sample_batch_rule(n),
    ]
    rules.append(mixture([(mean, Fraction(1, 3)), (anchored, Fraction(1, 6)), (rules[1], Fraction(1, 2))]))
    for e in rules:
        got = exact_quality_discrete(e, d, theta, delta, closed_interval=closed)
        assert repr(got) == repr(_ordered_reference(e, d, theta, delta, n, closed))


def test_a_rule_with_scaled_is_enumerated_on_ints_and_built_once_per_call():
    d = FiniteAtoms(atoms=((Fraction(0), Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 4))))
    theta, delta = Fraction(1, 3), Fraction(1, 4)
    built, seen = [], []

    def scaled(scale):
        built.append(scale)

        def fn(x):
            seen.extend(x)
            return min(x) - scale * delta

        return Estimator(label="min", fn=fn, n=2, symmetric=True)

    e = Estimator(label="min", fn=lambda x: 1 / 0, n=2, symmetric=True, scaled=scaled)
    # Every guess min(x) - delta lies exactly delta from theta: at -1/4 when
    # some sample sits on atom 0, at +1/4 when both sit on atom 1/2.
    assert exact_quality_discrete(e, d, theta, delta) == 0
    assert exact_quality_discrete(e, d, theta, delta, closed_interval=True) == 1
    assert built == [12, 12]  # the lcm of 3, 4 and 2, once per call
    assert {type(v) for v in seen} == {int} and set(seen) == {4, 10}  # 12 * (1/3 + 0), 12 * (1/3 + 1/2)


def test_ordered_walk_streams_its_tuples():
    # 10^5 ordered tuples of a rule that reads only its first sample: a list
    # of the cases would hold some megabytes, the stream a few tuples.
    d = FiniteAtoms(atoms=tuple((z, Fraction(1, 10)) for z in range(10)))
    e = Estimator(label="first", fn=lambda x: x[0], n=5)
    assert not e.symmetric
    tracemalloc.start()
    try:
        got = exact_quality_discrete(e, d, 0, Fraction(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == Fraction(1, 10)
    assert peak < 256 * 1024, peak


def test_order_dependent_rule_walks_ordered_tuples(example_atoms):
    # First sample minus 1/2: only the first sample matters, so its quality is
    # the one-sample window mass 3/5. Over multisets the sorted first sample
    # would be the smallest one, which gives 21/25 instead.
    e = invariant_extension(lambda x0: Fraction(1, 2), n=2)
    assert not e.symmetric
    delta = Fraction(3, 4)
    for theta in (Fraction(0), Fraction(-22, 7)):
        assert exact_quality_discrete(e, example_atoms, theta, delta) == Fraction(3, 5)


def test_enumeration_cap_counts_multisets_for_symmetric_rules():
    locs = (0, 1, 3, 7)
    d = FiniteAtoms(atoms=tuple((Fraction(z), Fraction(1, 4)) for z in locs))
    n, delta = 10, Fraction(1, 2)
    assert len(locs) ** n > 1_000_000 and math.comb(len(locs) + n - 1, n) == 286
    # The mean hits when the sum of the ten samples lands within n*delta of n*mu.
    sums = {0: Fraction(1)}
    for _ in range(n):
        step = {}
        for s, p in sums.items():
            for z in locs:
                step[s + z] = step.get(s + z, 0) + p / 4
        sums = step
    mu = Fraction(sum(locs), 4)
    want = sum(p for s, p in sums.items() if abs(s - n * mu) < n * delta)
    assert exact_quality_discrete(mean_estimator(d, n), d, Fraction(5, 3), delta) == want
    ordered = invariant_extension(lambda x0: -x0[1], n=n)
    with pytest.raises(EnumerationLimitError, match="4\\^10"):
        exact_quality_discrete(ordered, d, Fraction(0), delta)


@pytest.mark.parametrize("rule", ["min_shift", "mean", "window"])
@given(
    marks=st.lists(st.integers(0, 30), min_size=1, max_size=4, unique=True),
    weights=st.lists(st.integers(1, 16), min_size=4, max_size=4),
    tenths=st.integers(1, 10),
    n=st.integers(1, 3),
)
def test_float_quality_does_not_depend_on_the_shift(rule, marks, weights, tenths, n):
    # Locations and delta on a grid of tenths put many true distances exactly
    # on the threshold; masses of k/64 keep the rest far from it.
    r = len(marks)
    total = 64 * sum(weights[:r])
    d = FiniteAtoms(atoms=tuple((z / 10, 64 * w / total) for z, w in zip(sorted(marks), weights)))
    delta = tenths / 10
    if rule == "min_shift":
        e = min_shift_estimator(delta, n)
    elif rule == "mean":
        e = mean_estimator(d, n)
    else:
        e = discrete_mle_estimator(d, delta)
    for closed in (False, True):
        qs = {
            exact_quality_discrete(e, d, theta, delta, closed_interval=closed)
            for theta in (0.0, 1e3, -1e3, 1e6, -1e6, 1e9, -1e9)
        }
        assert len(qs) == 1, (closed, qs)
