"""End-to-end acceptance battery.

One test per acceptance criterion, run at full Monte Carlo budgets; each
pytest -v line is the verdict for one criterion. Slower than the unit
suites by design, but every test keeps an explicit runtime budget where
the criterion states one.
"""

import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

from shiftq import (
    CircleDensity,
    Exponential,
    FiniteAtoms,
    Gaussian,
    MCConfig,
    PiecewiseDensity,
    ShiftedDistribution,
    averaging_check,
    ball,
    biased_mean_circle_estimator,
    coefficient_sumset,
    constant_circle_estimator,
    constant_estimator,
    discrete_mle_estimator,
    exact_quality_discrete,
    exact_quality_tree,
    inverse,
    left_translate_estimator,
    mean_estimator,
    min_shift_estimator,
    mixture,
    multiply,
    packing_bound_discrete,
    packing_bound_halfline,
    quality_at,
    quality_inf,
    quality_inf_ball,
    reduce_word,
    right_translate_estimator,
    standard_tree_distribution,
    sumset_average_bound,
    truncation_estimator,
    uniform_circle_density,
    warped_circle_estimator,
    wilson_halfwidth,
    window_bound_log_concave,
    window_bound_one_sample,
    window_mle_estimator,
    wrap,
)
from shiftq.estimators import Estimator
from shiftq.quality import CHUNK_TRIALS, LINE, _chunk_rng, _counter, _noise
from tests.conftest import KS_CRIT, random_rational_atoms


def worst_row(report):
    q, theta = report.worst_case
    row = next(r for r in report.per_theta if r.theta == theta)
    return q, row.ci_half_width


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


def random_delta(rng) -> Fraction:
    return Fraction(int(rng.integers(1, 16)), int(rng.choice([4, 8, 16])))


def test_a1_tree_qualities_are_exact_rationals():
    start = time.perf_counter()
    mu = standard_tree_distribution()
    delta = Fraction(1, 2)
    trunc = truncation_estimator()
    for theta in ball(8):
        want = Fraction(1) if theta in ("", "a") else Fraction(2, 3)
        assert exact_quality_tree(trunc, mu, theta, delta) == want
    global_q, _ = quality_inf_ball(trunc, mu, delta, 8)
    assert global_q == Fraction(2, 3)
    for word in ball(4):
        for make in (left_translate_estimator, right_translate_estimator):
            q, _ = quality_inf_ball(make(word), mu, delta, 8)
            assert q <= Fraction(1, 3)
    assert time.perf_counter() - start < 5.0


def test_a2_exponential_min_shift_matches_closed_form_at_1e6_trials():
    start = time.perf_counter()
    d = Exponential(1.0)
    delta = 0.25
    grid = (-5.0, 0.0, 3.0, 100.0)
    mc = MCConfig(trials=1_000_000, seed=424242)
    for n, want in ((1, 0.3934693402873666), (2, 0.6321205588285577), (5, 0.9179150013761012)):
        report = quality_inf(min_shift_estimator(delta, n), d, delta, grid, mc)
        q, ci = worst_row(report)
        assert abs(q - want) <= 3.0 * ci
    assert time.perf_counter() - start < 30.0


def test_a3_gaussian_window_estimator_equals_recentred_mean():
    rng = np.random.default_rng(7)
    delta = 0.5
    for _ in range(1000):
        sigma = float(rng.choice([0.5, 1.0, 2.0]))
        n = int(rng.integers(1, 9))
        d = Gaussian(0.0, sigma)
        x = tuple(rng.normal(rng.uniform(-3, 3), sigma, size=n).tolist())
        window = window_mle_estimator(d, delta, n).evaluate(x)
        mean = mean_estimator(d, n).evaluate(x)
        assert abs(window - mean) < 1e-6
    d = Gaussian(0.0, 1.0)
    mc = MCConfig(trials=300_000, seed=33)
    q, ci = quality_at(window_mle_estimator(d, delta, 4), d, 0.0, delta, mc)
    assert abs(q - 0.6826894921370859) <= 3.0 * ci


def test_a4_window_bound_packing_bound_and_estimator_agree():
    rng = np.random.default_rng(404)
    for _ in range(25):
        d = random_rational_atoms(rng, int(rng.integers(2, 6)))
        delta = random_delta(rng)
        window = window_bound_one_sample(d, delta)
        packing = packing_bound_discrete(d, delta)
        assert window.value <= packing.value
        e = discrete_mle_estimator(d, delta)
        worst = min(
            exact_quality_discrete(e, d, theta, delta)
            for theta in coefficient_sumset(d.locations, 6)
        )
        assert worst == window.value
    for r in (3, 5, 8, 10, 12):
        for _ in range(2):
            d = random_rational_atoms(rng, r)
            delta = random_delta(rng)
            assert packing_bound_discrete(d, delta).value == brute_force_packing(d, delta)


def test_a5_sumset_average_bound_holds_for_random_table_rules():
    rng = np.random.default_rng(505)
    for _ in range(10):
        d = random_rational_atoms(rng, int(rng.integers(2, 5)))
        delta = random_delta(rng)
        k = int(rng.integers(2, 6))
        for _ in range(10):
            offset = Fraction(int(rng.integers(-40, 40)), 8)
            modulus = Fraction(int(rng.integers(2, 12)), 2)

            def rule(x, offset=offset, modulus=modulus):
                v = x[0]
                return v - offset if (v % modulus) < modulus / 2 else v + offset

            e = Estimator(label="table rule", fn=rule, n=1)
            out = sumset_average_bound(e, d, delta, k)
            assert out.holds


def test_a6_circle_averaging_beats_worst_case_for_every_estimator():
    start = time.perf_counter()
    delta = 0.1
    mc = MCConfig(trials=100_000, seed=606)
    estimators = [
        constant_circle_estimator(0.3),
        constant_circle_estimator(0.8, n=2),
        biased_mean_circle_estimator(0.0, n=2),
        biased_mean_circle_estimator(0.15, n=1),
        warped_circle_estimator(0.3, n=1),
    ]
    densities = [
        uniform_circle_density(),
        CircleDensity(knots=((0.0, 0.5), (0.5, 1.5), (1.0, 0.5))),
        CircleDensity(knots=((0.1, 2.5), (0.3, 0.625), (0.9, 0.625))),
    ]
    for density in densities:
        uniform = density is densities[0]
        for e in estimators:
            report = averaging_check(e, density, delta, anchor_grid=8, mc=mc)
            assert report.holds
            worst_ci = max(ci for _, _, ci in report.anchor_qualities)
            assert report.average_pinned_quality >= report.q_e - 3.0 * (report.q_e_ci + worst_ci)
            if uniform:
                for _, q, ci in report.anchor_qualities:
                    assert abs(q - 2.0 * delta) <= 3.0 * ci
    assert time.perf_counter() - start < 60.0


def test_a7a_no_estimator_beats_the_applicable_bound():
    mc = MCConfig(trials=200_000, seed=707)
    expo = Exponential(1.0)
    delta = 0.25
    grid = (-2.0, 0.0, 1.5)
    blend = mixture(
        ((min_shift_estimator(delta, 1), 0.5), (constant_estimator(0.5, n=1), 0.5))
    )
    for e in (min_shift_estimator(delta, 1), min_shift_estimator(delta, 2),
              min_shift_estimator(delta, 5), constant_estimator(0.5, n=1), blend):
        bound = packing_bound_halfline(expo, e.n, delta)
        q, ci = worst_row(quality_inf(e, expo, delta, grid, mc))
        assert q <= float(bound.value) + 3.0 * ci

    gauss = Gaussian(0.0, 1.0)
    delta = 0.5
    one_sample_bound = window_bound_one_sample(gauss, delta)
    for e in (mean_estimator(gauss, 1), window_mle_estimator(gauss, delta, 1),
              constant_estimator(0.3, n=1)):
        q, ci = worst_row(quality_inf(e, gauss, delta, (-1.0, 0.0, 2.0), mc))
        assert q <= one_sample_bound.value + 3.0 * ci
    four_bound = window_bound_log_concave(gauss, 4, delta, mc)
    q, ci = worst_row(quality_inf(mean_estimator(gauss, 4), gauss, delta, (0.0, 1.0), mc))
    assert q <= four_bound.value + 3.0 * (four_bound.ci_half_width + ci)

    atoms = FiniteAtoms(
        atoms=((Fraction(0), Fraction(1, 4)), (Fraction(1), Fraction(7, 20)),
               (Fraction(10), Fraction(2, 5)))
    )
    delta = Fraction(3, 4)
    ceiling = packing_bound_discrete(atoms, delta).value
    shifts = coefficient_sumset(atoms.locations, 4)
    for e in (discrete_mle_estimator(atoms, delta), constant_estimator(0, n=1)):
        worst = min(exact_quality_discrete(e, atoms, theta, delta) for theta in shifts)
        assert worst <= ceiling


def test_a7b_equivariant_estimators_certify_their_infimum():
    mc = MCConfig(trials=50_000, seed=17)
    report = quality_inf(
        mean_estimator(Gaussian(0.0, 1.0), 3), Gaussian(0.0, 1.0), 0.5,
        (-8.0, -1.0, 0.0, 3.0, 50.0), mc,
    )
    assert report.infimum_certified
    q0 = next(r for r in report.per_theta if r.theta == 0.0)
    for row in report.per_theta:
        assert abs(row.q - q0.q) <= 3.0 * (row.ci_half_width + q0.ci_half_width)


def test_a7c_results_are_bit_identical_across_parallelism():
    # Each chunk's count depends only on (seed, chunk index), so counting the
    # chunks on any number of workers and summing gives the engine's
    # in-order (q, ci) bit for bit.
    d = Exponential(2.0)
    e = min_shift_estimator(0.2, 3)
    mc = MCConfig(trials=150_000, seed=99)
    draw, count = _noise(d, 3), _counter(LINE, e, 1.5, 0.2, False)
    starts = range(0, mc.trials, CHUNK_TRIALS)

    def chunk_hits(c):
        return count(draw(_chunk_rng(mc.seed, c), min(CHUNK_TRIALS, mc.trials - starts[c])), None)

    expected = quality_at(e, d, 1.5, 0.2, mc)
    for workers in (1, 2, 8):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(chunk_hits, range(len(starts))))
        assert (hits / mc.trials, wilson_halfwidth(hits, mc.trials, mc.ci_level)) == expected


def test_a7d_sampling_passes_a_ks_check():
    rng = np.random.default_rng(4242)
    m = 40_000
    for d in (Gaussian(0.5, 2.0), Exponential(1.5),
              PiecewiseDensity(knots=((0.0, 1.5), (1.0, 0.25), (2.0, 0.0)))):
        x = np.sort(ShiftedDistribution(d, 0.0).sample_with_rng(rng, (m,)))
        cdf = np.array([float(d.cdf(v)) for v in x])
        hi = np.abs(np.arange(1, m + 1) / m - cdf).max()
        lo = np.abs(np.arange(0, m) / m - cdf).max()
        assert max(hi, lo) < KS_CRIT / math.sqrt(m)


def test_a7e_word_algebra_invariants_hold_on_random_words():
    rng = np.random.default_rng(888)
    letters = "abc"

    def rand_word():
        return reduce_word("".join(rng.choice(list(letters), size=int(rng.integers(0, 12)))))

    for g in letters:
        assert multiply(g, g) == ""
    for _ in range(500):
        u, v, w = rand_word(), rand_word(), rand_word()
        assert multiply(u, inverse(u)) == ""
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
        assert len(multiply(inverse(u), v)) <= len(u) + len(v)
