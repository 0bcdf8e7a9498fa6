"""Threshold quality of estimators: Monte Carlo and exact discrete evaluation.

The quality of an estimator at shift theta and threshold delta is the
probability that its estimate lands strictly within delta of theta when the
samples are drawn from the shifted base law. The worst case over shifts is
the figure of merit; for shift-equivariant estimators it equals the value at
shift zero.

One Monte Carlo harness serves the line and the circle. A space is two
functions (Space): act(noise, theta) moves noise to a shift and
distance(guess, theta) is the metric of the threshold test; both spaces
share the noise draw, the hit counter, the invariance check and the grid
policy here. Runs work in noise coordinates and are deterministic: trials
are split into fixed-size chunks, chunk c's noise block is drawn once from a
generator seeded from (seed, c), and every requested (rule, shift) is scored
against that block before the next chunk is drawn, so each chunk's count
depends only on the seed and its index, not on the order the chunks run in.
A rule that claims shift invariance is scored once, at shift zero, and every
grid row reports that value; the claim itself is checked row by row on a
fixed block of chunk-0 rows at each shift of the grid, and a failed check
raises InvarianceError.

Mixtures take the same path as every rule: a counter hands the chunk's
generator to evaluate_batch, which only a mixture reads, and exact
enumeration and the invariance check walk the rule's weighted parts.
MCConfig, the run parameters, lives in config and is re-exported here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .config import MCConfig
from .distributions import Distribution, FiniteAtoms
from .estimators import SHIFT_INVARIANT
from .util import (
    BISECT_TOL,
    BOUNDARY_TOL,
    _PLAIN_EXACT,
    EnumerationLimitError,
    InvarianceError,
    common_denominator,
    is_exact,
    lattice_ints,
    np,
    within_threshold,
    within_threshold_array,
)

__all__ = [
    "MCConfig",
    "QualityReport",
    "ThetaQuality",
    "wilson_halfwidth",
    "quality_at",
    "exact_quality_discrete",
    "quality_inf",
    "default_theta_grid",
]

# Fixed chunk size; changing it changes the sampled streams, so treat it as
# part of the determinism contract.
CHUNK_TRIALS = 32768
# Rows of chunk 0 on which a shift-invariance claim is checked at each shift.
INVARIANCE_CHECK_ROWS = 1024

_EXACT_ENUM_CAP = 1_000_000


@dataclass(frozen=True)
class ThetaQuality:
    """Quality at one shift; theta and q are Fractions when both are exact."""

    theta: float | Fraction
    q: float | Fraction
    ci_half_width: float
    exact: bool


@dataclass(frozen=True)
class QualityReport:
    """Per-shift qualities plus the worst case over the evaluated shifts.

    infimum_certified is True when the estimator is shift equivariant, in
    which case the value at shift zero is the quality at every shift; for
    other estimators the grid minimum is only an upper bound on the true
    worst case.
    """

    delta: float
    per_theta: tuple[ThetaQuality, ...]
    worst_case: tuple  # (q, argmin theta), Fractions when the rows are exact
    infimum_certified: bool


def wilson_halfwidth(successes: int, trials: int, ci_level: float) -> float:
    """Half-width of the Wilson score interval for a binomial proportion."""
    from scipy.special import ndtri  # deferred: the exact paths never need it

    z = float(ndtri(0.5 + 0.5 * ci_level))
    p = successes / trials
    denom = 1.0 + z * z / trials
    return (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


# A counter scores one (rule, shift) pair: counter(noise, rng) -> hits in the block.
HitCounter = Callable[["np.ndarray", "np.random.Generator"], int]


class Space(NamedTuple):
    """A continuous space as the Monte Carlo harness sees it.

    act(noise, theta) moves a noise block to shift theta, and
    distance(guess, theta) is the metric the threshold is tested in.
    """

    act: Callable[[np.ndarray, float], np.ndarray]
    distance: Callable[[np.ndarray, float], np.ndarray]


# At shift zero the noise block is scored as it is, without a copy.
LINE = Space(act=lambda noise, theta: noise + theta if theta else noise, distance=lambda g, t: np.abs(g - t))


def _mc_counts(draw, counters: Sequence[HitCounter], mc: MCConfig) -> list[tuple[float, float]]:
    """Monte Carlo (q, ci_half_width) for each counter, all scored on the same noise.

    Chunk c's generator is seeded from (seed, c) and draw(rng, m) takes the
    chunk's m noise rows from it. Every counter then scores that block, with
    the generator restored to its state right after the draw, so a
    randomized rule draws the same components whatever else is scored. Only
    one chunk's block is held at a time.
    """
    totals = [0] * len(counters)
    for idx, start in enumerate(range(0, mc.trials, CHUNK_TRIALS)):
        rng = _chunk_rng(mc.seed, idx)
        noise = draw(rng, min(CHUNK_TRIALS, mc.trials - start))
        noise.flags.writeable = False  # shared by every counter of the chunk
        state = rng.bit_generator.state
        for i, counter in enumerate(counters):
            rng.bit_generator.state = state
            totals[i] += counter(noise, rng)
    return [(t / mc.trials, wilson_halfwidth(t, mc.trials, mc.ci_level)) for t in totals]


def _noise(d, n: int):
    """draw(rng, m): m rows of n inverse-CDF samples of the unshifted law, on either space.

    Adding 0.0 turns any -0.0 into 0.0, so the block is exactly the samples
    at shift zero and a counter at that shift can score it without a copy.
    """

    def draw(rng, m):
        return np.asarray(d.ppf(rng.random((m, n))), dtype=float) + 0.0

    return draw


def _counter(space: Space, e, theta, delta, closed: bool = False) -> HitCounter:
    """Hits of e on the noise moved to theta: distance(e(act(noise, theta)), theta) within delta."""
    theta_f = float(theta)
    delta_f = float(delta)

    def count(noise, rng):
        est = e.evaluate_batch(space.act(noise, theta_f), rng)
        return int(np.count_nonzero(within_threshold_array(space.distance(est, theta_f), delta_f, closed)))

    return count


def _mc_grid(space: Space, e, d, thetas, delta, mc: MCConfig, closed: bool = False, paired=()) -> list:
    """Monte Carlo (q, ci_half_width) of e at each shift, then of each counter in paired.

    Everything is scored on one noise draw of e.n samples a row. A rule that
    claims shift invariance is checked at every shift (see _check_invariance)
    and then scored once, at shift zero, and that row is every shift's row.
    """
    draw = _noise(d, e.n)
    if e.invariance_claim == SHIFT_INVARIANT:
        _check_invariance(space, e, draw, thetas, mc)
        rows = _mc_counts(draw, [_counter(space, e, 0.0, delta, closed), *paired], mc)
        return rows[:1] * len(thetas) + rows[1:]
    return _mc_counts(draw, [*(_counter(space, e, t, delta, closed) for t in thetas), *paired], mc)


def _check_invariance(space: Space, e, draw, thetas, mc: MCConfig) -> None:
    """Raise InvarianceError unless e(act(x, theta)) - theta = e(x) row by row.

    x is the first INVARIANCE_CHECK_ROWS noise rows of chunk 0, theta runs
    over the grid, each guess is moved back with act(guess, -theta), and the
    gap is measured in the space's distance. A row passes within 4*e.n float
    spacings of |theta| + max|x_row|, the rounding of adding theta and taking
    it away again (n times over for a rule that sums its samples), plus
    BISECT_TOL, the stopping width of a window solve. The rule is checked
    part by part, so a mixture draws nothing.
    """
    x = draw(_chunk_rng(mc.seed, 0), min(INVARIANCE_CHECK_ROWS, mc.trials))
    reach = functools.reduce(np.maximum, np.abs(x).T)
    for part, _ in e.parts:
        base = part.evaluate_batch(x)
        for theta in thetas:
            theta_f = float(theta)
            if theta_f == 0.0:
                continue
            gap = space.distance(space.act(part.evaluate_batch(space.act(x, theta_f)), -theta_f), base)
            bad = ~(gap <= 4 * e.n * np.spacing(abs(theta_f) + reach) + BISECT_TOL)
            if bad.any():
                raise InvarianceError(
                    f"{part.label} claims shift invariance but e(x + {theta_f:g}) - {theta_f:g} "
                    f"differs from e(x) by up to {gap[bad].max():.6g} "
                    f"on {int(bad.sum())} of {len(x)} rows"
                )


def quality_at(
    e, d: Distribution, theta, delta, mc: MCConfig, *, closed_interval: bool = False
) -> tuple[float, float]:
    """Monte Carlo estimate (q, ci_half_width) of the quality at one shift; e.n samples a trial."""
    return _mc_counts(_noise(d, e.n), [_counter(LINE, e, theta, delta, closed_interval)], mc)[0]


def exact_quality_discrete(e, d: FiniteAtoms, theta, delta, *, closed_interval: bool = False):
    """Exact quality for an atomic base law by enumerating tuples of e.n samples.

    Cases are tuples of atom indices, streamed from itertools, and each one
    costs the rule's evaluation on the shifted atoms and one threshold test.
    A symmetric rule on an exact law (theta, delta, locations and masses all
    ints or Fractions) is evaluated once per multiset of atoms, weighted by
    its n!/prod(c_i!) orderings, counted from the runs of the sorted indices,
    and the enumeration cap counts multisets; any other rule, and every float
    law, walks the ordered tuples. Float sums depend on their order, which
    is why float laws keep the ordered walk.

    When theta, delta and the locations are exact, a part that carries
    scaled (see estimators.Estimator) is evaluated on the integer lattice:
    D is the lcm of the denominators of theta, delta and the locations, the
    points are the ints D*(theta + z), the part's scaled(D) is built once
    per call, and its guess, in lattice units, hits when D*(theta - delta) <
    g < D*(theta + delta) (<= under closed_interval), both ends ints. A part
    without scaled (invariant_extension, a float constant, a batch-only
    rule) sees the Fraction points theta + z and the ends theta -+ delta.

    Exact masses are held as integer numerators over M, the lcm of their
    denominators: a hit adds ways * prod(M * m_i) as an int, and the sum is
    divided once, by M^n. Nothing hit gives the int 0; otherwise the value is
    a Fraction (an int if every mass is an int). Any other masses are
    multiplied and summed as they are, in enumeration order.

    A float guess goes through within_threshold. On a float law its boundary
    band is widened from BOUNDARY_TOL to 4*n float spacings of the largest
    |sample|: adding theta to the samples and taking it away again rounds at
    that scale (n times over for a rule that sums its samples), so a
    narrower band would let a decision on the boundary depend on theta.

    A rule's quality is the weighted sum of its parts' qualities.
    """
    if not isinstance(d, FiniteAtoms):
        raise TypeError("exact evaluation needs a finite atomic law")
    n = e.n
    locs, masses = d.locations, d.masses
    r = len(locs)
    exact = is_exact(theta, delta, *locs, *masses)
    points = tuple(theta + z for z in locs)
    band = BOUNDARY_TOL
    if not exact:
        reach = abs(float(theta)) + max(abs(float(z)) for z in locs)
        band = max(band, 4 * n * math.ulp(reach))
    interval = is_exact(theta, delta)
    lo = hi = None
    if interval:
        lo, hi = theta - delta, theta + delta
    lattice = interval and is_exact(*locs)
    if lattice:
        scale = common_denominator((theta, delta, *locs))
        lattice_points = lattice_ints(points, scale)
        lattice_lo, lattice_hi = lattice_ints((lo, hi), scale)
    numerators = all(type(m) in _PLAIN_EXACT for m in masses)
    if numerators:
        mass_scale = common_denominator(masses)
        weight = lattice_ints(masses, mass_scale)
    else:
        weight = masses
    # A Fraction only when some mass is one: int masses (one atom of mass 1) sum to an int.
    fraction_sum = numerators and Fraction in map(type, masses)

    def hit_mass(part):
        multisets = exact and part.symmetric
        if multisets:
            count = math.comb(r + n - 1, n)
            if count > _EXACT_ENUM_CAP:
                raise EnumerationLimitError(
                    f"{count} multisets of {n} samples from {r} atoms exceed the cap of {_EXACT_ENUM_CAP}"
                )
            cases = itertools.combinations_with_replacement(range(r), n)
        else:
            if r**n > _EXACT_ENUM_CAP:
                raise EnumerationLimitError(f"{r}^{n} sample tuples exceed the cap of {_EXACT_ENUM_CAP}")
            cases = itertools.product(range(r), repeat=n)
        if lattice and part.scaled is not None:
            rule, at, low, high = part.scaled(scale), lattice_points, lattice_lo, lattice_hi
        else:
            rule, at, low, high = part, points, lo, hi
        total = 0
        for idx in cases:
            g = rule.evaluate(tuple([at[i] for i in idx]))
            if interval and type(g) in _PLAIN_EXACT:
                hit = low <= g <= high if closed_interval else low < g < high
            else:
                hit = within_threshold(abs(g - theta), delta, closed_interval, band=band)
            if hit:
                ways = _orderings(idx) if multisets else 1
                total += math.prod([weight[i] for i in idx], start=ways)
        return Fraction(total, mass_scale**n) if total and fraction_sum else total

    return sum(w * hit_mass(part) for part, w in e.parts)


def _orderings(idx) -> int:
    """n!/prod(c_i!) for a sorted index tuple: equal indices are adjacent, so each c_i is a run length.

    Dividing by 2, 3, ..., c at the steps of a run divides by c!, and every
    partial quotient is a multinomial count times a factorial, so // is exact.
    """
    ways = math.factorial(len(idx))
    run = 1
    for a, b in zip(idx, idx[1:]):
        run = run + 1 if a == b else 1
        ways //= run
    return ways


def _exact_pair(theta, q) -> tuple:
    """(theta, q) as Fractions when both are exact, else as floats."""
    if is_exact(theta, q):
        return Fraction(theta), Fraction(q)
    return float(theta), float(q)


def default_theta_grid(delta, n: int) -> tuple:
    """41 shifts spread over +-10*delta*n plus the averaging points 2*delta*i, i = 1..10.

    The points are built in rationals from delta's exact value. A Fraction
    delta keeps them as Fractions, so an exact law is evaluated exactly over
    its default grid; any other delta gets each point rounded once to a
    float, so points that coincide in exact arithmetic stay one shift.
    """
    exact = isinstance(delta, Fraction)
    step = delta if exact else Fraction(float(delta))
    span = 10 * step * n
    grid = {span * Fraction(i - 20, 20) for i in range(41)}
    grid.update(2 * step * i for i in range(1, 11))
    return tuple(sorted(grid if exact else {float(t) for t in grid}))


def quality_inf(
    e, d: Distribution, delta, theta_grid: Sequence, mc: MCConfig, *, closed_interval: bool = False
) -> QualityReport:
    """Worst-case quality over a shift grid, each shift seen through e.n samples.

    An atomic law is enumerated shift by shift; any other law is scored by
    Monte Carlo, every shift on the same noise. Shift-equivariant estimators
    report the value at shift zero, which is then every row's value; their
    claim is first checked row by row at every shift of the grid (see
    _check_invariance), and a rule that fails raises InvarianceError. Other
    estimators report the grid minimum, which is an upper bound on the true
    infimum.
    """
    thetas = list(theta_grid)
    if not thetas:
        raise ValueError("theta_grid must be nonempty")
    invariant = e.invariance_claim == SHIFT_INVARIANT
    if invariant and not any(float(t) == 0.0 for t in thetas):
        thetas.insert(0, 0)  # an int, so a rational law stays exact at this shift

    if isinstance(d, FiniteAtoms):
        entries = [
            ThetaQuality(
                *_exact_pair(t, exact_quality_discrete(e, d, t, delta, closed_interval=closed_interval)),
                0.0,
                True,
            )
            for t in thetas
        ]
    else:
        rows = _mc_grid(LINE, e, d, thetas, delta, mc, closed_interval)
        entries = [ThetaQuality(float(t), q, ci, False) for t, (q, ci) in zip(thetas, rows)]

    if invariant:
        # Monte Carlo rows agree by construction; exact rows must agree exactly.
        base = next(t for t in entries if t.theta == 0)
        for t in entries:
            if t.q != base.q:
                raise InvarianceError(
                    f"{e.label} claims shift invariance but quality moved from "
                    f"{float(base.q):.6g} at shift 0 to {float(t.q):.6g} "
                    f"at shift {float(t.theta):g}"
                )
        worst = (base.q, Fraction(0) if isinstance(base.theta, Fraction) else 0.0)
    else:
        best = min(entries, key=lambda t: t.q)
        worst = (best.q, best.theta)
    return QualityReport(
        delta=float(delta),
        per_theta=tuple(entries),
        worst_case=worst,
        infimum_certified=invariant,
    )
