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
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .distributions import Distribution, FiniteAtoms
from .estimators import SHIFT_INVARIANT
from .util import (
    BISECT_TOL,
    BOUNDARY_TOL,
    EnumerationLimitError,
    InvarianceError,
    is_exact,
    number_doc,
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
    "quality_report_rows",
    "quality_report_dict",
]

# Fixed chunk size; changing it changes the sampled streams, so treat it as
# part of the determinism contract.
CHUNK_TRIALS = 32768
# Rows of chunk 0 on which a shift-invariance claim is checked at each shift.
INVARIANCE_CHECK_ROWS = 1024

_EXACT_ENUM_CAP = 1_000_000


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run parameters; equal configs give bit-identical results."""

    trials: int = 100_000
    seed: int = 42
    ci_level: float = 0.99

    def __post_init__(self):
        if self.trials < 100:
            raise ValueError("trials must be at least 100")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie in (0, 1)")


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
HitCounter = Callable[[np.ndarray, np.random.Generator], int]


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
    over the grid, and the gap is measured in the space's distance. A row
    passes within 4*e.n float spacings of |theta| + max|x_row|, the rounding
    of adding theta and taking it away again (n times over for a rule that
    sums its samples), plus BISECT_TOL, the stopping width of a window
    solve. The rule is checked part by part, so a mixture draws nothing.
    """
    x = draw(_chunk_rng(mc.seed, 0), min(INVARIANCE_CHECK_ROWS, mc.trials))
    reach = functools.reduce(np.maximum, np.abs(x).T)
    for part, _ in e.parts:
        base = part.evaluate_batch(x)
        for theta in thetas:
            theta_f = float(theta)
            if theta_f == 0.0:
                continue
            gap = space.distance(part.evaluate_batch(space.act(x, theta_f)) - theta_f, base)
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

    Stays in rational arithmetic when the atoms, theta, and delta are exact,
    so boundary cases are decided without float tolerance. A symmetric rule
    on such a law is evaluated once per multiset of atoms, weighted by its
    multinomial count, and the enumeration cap counts multisets; any other
    rule, and every float law, walks the ordered tuples. Float sums depend on
    their order, which is why float laws keep the ordered walk.

    On a float law the boundary band is widened from BOUNDARY_TOL to 4*n
    float spacings of the largest |sample|: adding theta to the samples and
    taking it away again rounds at that scale (n times over for a rule that
    sums its samples), so a narrower band would let a decision on the
    boundary depend on theta.

    A rule's quality is the weighted sum of its parts' qualities.
    """
    if not isinstance(d, FiniteAtoms):
        raise TypeError("exact evaluation needs a finite atomic law")
    n = e.n
    r = len(d.atoms)
    exact = is_exact(theta, delta, *d.locations, *d.masses)
    shifted = tuple((theta + z, m) for z, m in d.atoms)
    band = BOUNDARY_TOL
    if not exact:
        reach = abs(float(theta)) + max(abs(float(z)) for z in d.locations)
        band = max(band, 4 * n * math.ulp(reach))

    def hit_mass(part):
        if exact and part.symmetric:
            count = math.comb(r + n - 1, n)
            if count > _EXACT_ENUM_CAP:
                raise EnumerationLimitError(
                    f"{count} multisets of {n} samples from {r} atoms exceed the cap of {_EXACT_ENUM_CAP}"
                )
            cases = _multisets(shifted, n)
        else:
            if r**n > _EXACT_ENUM_CAP:
                raise EnumerationLimitError(f"{r}^{n} sample tuples exceed the cap of {_EXACT_ENUM_CAP}")
            cases = zip(itertools.product(shifted, repeat=n), itertools.repeat(1))
        total = 0
        for combo, ways in cases:
            samples, masses = zip(*combo)
            if within_threshold(abs(part.evaluate(samples) - theta), delta, closed_interval, band=band):
                total += math.prod(masses, start=ways)
        return total

    return sum(w * hit_mass(part) for part, w in e.parts)


def _multisets(atoms, n: int):
    """Each multiset of n atoms once, with the number of orderings it has.

    combinations_with_replacement keeps equal atoms adjacent, so the
    multiplicities c_i are run lengths and the count is n!/prod(c_i!).
    """
    factorial = [math.factorial(k) for k in range(n + 1)]
    for combo in itertools.combinations_with_replacement(atoms, n):
        ways = factorial[n]
        for _, run in itertools.groupby(combo):
            ways //= factorial[len(tuple(run))]
        yield combo, ways


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


def quality_report_rows(report: QualityReport) -> list[tuple]:
    """CSV-ready rows: (theta, q, ci_half_width, exact)."""
    return [(t.theta, t.q, t.ci_half_width, t.exact) for t in report.per_theta]


def quality_report_dict(report: QualityReport) -> dict:
    """JSON-ready form; exact values are written as 'p/q' strings."""
    return {
        "delta": report.delta,
        "per_theta": [
            {
                "theta": number_doc(t.theta),
                "q": number_doc(t.q),
                "ci_half_width": t.ci_half_width,
                "exact": t.exact,
            }
            for t in report.per_theta
        ],
        "worst_case": {
            "q": number_doc(report.worst_case[0]),
            "theta": number_doc(report.worst_case[1]),
        },
        "infimum_certified": report.infimum_certified,
    }
