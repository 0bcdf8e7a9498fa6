"""Threshold quality of estimators: Monte Carlo and exact discrete evaluation.

The quality of an estimator at shift theta and threshold delta is the
probability that its estimate lands strictly within delta of theta when the
samples are drawn from the shifted base law. The worst case over shifts is
the figure of merit; for shift-equivariant estimators it equals the value at
shift zero.

Monte Carlo runs work in noise coordinates and are deterministic: trials are
split into fixed-size chunks, chunk c's noise block is drawn once from a
generator seeded from (seed, c), and every requested (rule, shift) is scored
against that block before the next chunk is drawn, so each chunk's count
depends only on the seed and its index, not on the order the chunks run in.
A rule that claims shift invariance is scored once, at shift zero, and every
grid row reports that value; the claim itself is checked row by row on a
fixed block of chunk-0 rows at each shift of the grid, and a failed check
raises InvarianceError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .distributions import Distribution, FiniteAtoms
from .estimators import SHIFT_INVARIANT, RandomizedEstimator
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
    "AveragedPerformance",
    "wilson_halfwidth",
    "quality_at",
    "exact_quality_discrete",
    "quality_inf",
    "averaged_performance_bound",
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


class AveragedPerformance(NamedTuple):
    """Average and minimum quality over the averaging shifts; Fractions when exact."""

    average: float | Fraction
    minimum: float | Fraction
    per_theta: tuple  # (theta, q, ci_half_width) per shift


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


def _line_noise(d: Distribution, n: int):
    """draw(rng, m): m rows of n inverse-CDF samples of the unshifted law.

    Adding 0.0 turns any -0.0 into 0.0, so the block is exactly the samples
    at shift zero and a counter at that shift can score it without a copy.
    """

    def draw(rng, m):
        return np.asarray(d.ppf(rng.random((m, n))), dtype=float) + 0.0

    return draw


def _line_counter(e, theta, delta, closed_interval: bool) -> HitCounter:
    """Hits of e on the noise shifted by theta: |e(theta + noise) - theta| within delta."""
    theta_f = float(theta)
    delta_f = float(delta)
    randomized = isinstance(e, RandomizedEstimator)

    def count(noise, rng):
        x = noise + theta_f if theta_f else noise
        est = e.evaluate_batch(x, rng) if randomized else e.evaluate_batch(x)
        return int(within_threshold_array(np.abs(est - theta_f), delta_f, closed_interval).sum())

    return count


def _resolve_n(e, n):
    fixed = e.n
    if n is None:
        if fixed == "any":
            raise ValueError(f"{e.label} accepts any sample count; pass n explicitly")
        return int(fixed)
    n = int(n)
    if fixed != "any" and n != fixed:
        raise ValueError(f"{e.label} expects n={fixed}, got n={n}")
    if n < 1:
        raise ValueError("n must be at least 1")
    return n


def quality_at(
    e,
    d: Distribution,
    theta,
    delta,
    mc: MCConfig,
    *,
    n: int | None = None,
    closed_interval: bool = False,
) -> tuple[float, float]:
    """Monte Carlo estimate (q, ci_half_width) of the quality at one shift."""
    n = _resolve_n(e, n)
    return _mc_counts(_line_noise(d, n), [_line_counter(e, theta, delta, closed_interval)], mc)[0]


def _grid_rows(e, d: Distribution, thetas, delta, mc: MCConfig, n, closed_interval: bool) -> list:
    """(theta, q, ci_half_width, exact) at each shift.

    An atomic law is enumerated shift by shift. Otherwise every shift is
    scored on the same Monte Carlo noise; a rule that claims shift
    invariance is checked at every shift and then scored once, at shift
    zero, and that value is every shift's row.
    """
    if isinstance(d, FiniteAtoms):
        return [
            (
                *_exact_pair(t, exact_quality_discrete(e, d, t, delta, n=n, closed_interval=closed_interval)),
                0.0,
                True,
            )
            for t in thetas
        ]
    n = _resolve_n(e, n)
    draw = _line_noise(d, n)
    if e.invariance_claim == SHIFT_INVARIANT:
        _check_invariance(e, d, n, thetas, mc)
        rows = _mc_counts(draw, [_line_counter(e, 0.0, delta, closed_interval)], mc) * len(thetas)
    else:
        rows = _mc_counts(draw, [_line_counter(e, t, delta, closed_interval) for t in thetas], mc)
    return [(float(t), q, ci, False) for t, (q, ci) in zip(thetas, rows)]


def _check_invariance(e, d: Distribution, n: int, thetas, mc: MCConfig) -> None:
    """Raise InvarianceError unless e(x + theta) - theta = e(x) row by row.

    x is the first INVARIANCE_CHECK_ROWS noise rows of chunk 0 and theta runs
    over the grid. A row passes within 4*n float spacings of |theta| +
    max|x_row|, the rounding of adding theta and taking it away again (n
    times over for a rule that sums its samples), plus BISECT_TOL, the
    stopping width of a window solve. A mixture is checked part by part.
    """
    x = _line_noise(d, n)(_chunk_rng(mc.seed, 0), min(INVARIANCE_CHECK_ROWS, mc.trials))
    reach = np.abs(x).max(axis=1)
    parts = [c for c, _ in e.components] if isinstance(e, RandomizedEstimator) else [e]
    for part in parts:
        base = part.evaluate_batch(x)
        for theta in thetas:
            theta_f = float(theta)
            if theta_f == 0.0:
                continue
            gap = np.abs(part.evaluate_batch(theta_f + x) - theta_f - base)
            bad = ~(gap <= 4 * n * np.spacing(abs(theta_f) + reach) + BISECT_TOL)
            if bad.any():
                raise InvarianceError(
                    f"{part.label} claims shift invariance but e(x + {theta_f:g}) - {theta_f:g} "
                    f"differs from e(x) by up to {gap[bad].max():.6g} "
                    f"on {int(bad.sum())} of {len(x)} rows"
                )


def exact_quality_discrete(
    e,
    d: FiniteAtoms,
    theta,
    delta,
    *,
    n: int | None = None,
    closed_interval: bool = False,
):
    """Exact quality for an atomic base law by enumerating sample tuples.

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
    """
    if not isinstance(d, FiniteAtoms):
        raise TypeError("exact evaluation needs a finite atomic law")
    n = _resolve_n(e, n)
    if isinstance(e, RandomizedEstimator):
        return sum(
            w * exact_quality_discrete(comp, d, theta, delta, n=n, closed_interval=closed_interval)
            for comp, w in e.components
        )
    r = len(d.atoms)
    exact = is_exact(theta, delta, *d.locations, *d.masses)
    shifted = tuple((theta + z, m) for z, m in d.atoms)
    if exact and e.symmetric:
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
    band = BOUNDARY_TOL
    if not exact:
        reach = abs(float(theta)) + max(abs(float(z)) for z in d.locations)
        band = max(band, 4 * n * math.ulp(reach))
    total = 0
    for combo, ways in cases:
        samples, masses = zip(*combo)
        if within_threshold(abs(e.evaluate(samples) - theta), delta, closed_interval, band=band):
            total += math.prod(masses, start=ways)
    return total


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


def default_theta_grid(delta, n: int, k: int = 10) -> tuple:
    """41 shifts spread over +-10*delta*n plus the averaging points 2*delta*i.

    A Fraction delta gives the same points as Fractions, so an exact law is
    evaluated exactly over its default grid.
    """
    if isinstance(delta, Fraction):
        span = 10 * delta * n
        grid = {span * Fraction(i - 20, 20) for i in range(41)}
        grid.update(2 * delta * i for i in range(1, k + 1))
        return tuple(sorted(grid))
    delta_f = float(delta)
    span = 10.0 * delta_f * n
    grid = set(np.linspace(-span, span, 41).tolist())
    grid.update(2.0 * delta_f * i for i in range(1, k + 1))
    return tuple(sorted(grid))


def quality_inf(
    e,
    d: Distribution,
    delta,
    theta_grid: Sequence,
    mc: MCConfig,
    *,
    n: int | None = None,
    closed_interval: bool = False,
) -> QualityReport:
    """Worst-case quality over a shift grid.

    Shift-equivariant estimators report the value at shift zero, which is
    then every row's value; their claim is first checked row by row at every
    shift of the grid (see _check_invariance), and a rule that fails raises
    InvarianceError. Other estimators report the grid minimum, which is an
    upper bound on the true infimum.
    """
    thetas = list(theta_grid)
    if not thetas:
        raise ValueError("theta_grid must be nonempty")
    invariant = e.invariance_claim == SHIFT_INVARIANT
    if invariant and not any(float(t) == 0.0 for t in thetas):
        thetas.insert(0, 0)  # an int, so a rational law stays exact at this shift

    entries = [ThetaQuality(*row) for row in _grid_rows(e, d, thetas, delta, mc, n, closed_interval)]

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


def averaged_performance_bound(
    e,
    d: Distribution,
    delta,
    k: int,
    mc: MCConfig,
    *,
    n: int | None = None,
    closed_interval: bool = False,
) -> AveragedPerformance:
    """Average quality over the shifts 2*delta*i, i = 1..k.

    The average dominates the worst-case quality, so it is a cheap upper
    bound; the minimum over the same shifts is reported as well since it is
    sharper in practice. An exact law at an exact delta keeps Fractions
    throughout, as in quality_inf; a Monte Carlo run scores every shift on
    the same noise, as quality_inf does.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    thetas = [2 * delta * i for i in range(1, k + 1)]
    per_theta = [row[:3] for row in _grid_rows(e, d, thetas, delta, mc, n, closed_interval)]
    values = [q for _, q, _ in per_theta]
    return AveragedPerformance(
        average=sum(values) / k,
        minimum=min(values),
        per_theta=tuple(per_theta),
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
