"""Threshold quality of estimators: Monte Carlo and exact discrete evaluation.

The quality of an estimator at shift theta and threshold delta is the
probability that its estimate lands strictly within delta of theta when the
samples are drawn from the shifted base law. The worst case over shifts is
the figure of merit; for shift-equivariant estimators it equals the value at
shift zero.

Monte Carlo runs are deterministic: trials are split into fixed-size chunks
and chunk c is driven by a generator seeded from (seed, c), so results are
bit-identical regardless of the parallelism setting.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import ndtri

from .distributions import Distribution, FiniteAtoms, ShiftedDistribution
from .estimators import SHIFT_INVARIANT, Estimator, RandomizedEstimator
from .util import (
    BOUNDARY_TOL,
    EnumerationLimitError,
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

_EXACT_ENUM_CAP = 1_000_000


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run parameters; equal configs give bit-identical results."""

    trials: int = 100_000
    seed: int = 42
    parallelism: int = 1
    ci_level: float = 0.99

    def __post_init__(self):
        if self.trials < 100:
            raise ValueError("trials must be at least 100")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie in (0, 1)")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")


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
    z = float(ndtri(0.5 + 0.5 * ci_level))
    p = successes / trials
    denom = 1.0 + z * z / trials
    return (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _bernoulli_mc(count_fn, mc: MCConfig) -> tuple[float, float]:
    """Estimate a success probability; count_fn(rng, m) counts hits in m trials."""
    jobs = []
    start = 0
    index = 0
    while start < mc.trials:
        size = min(CHUNK_TRIALS, mc.trials - start)
        jobs.append((index, size))
        start += size
        index += 1

    def run(job):
        idx, m = job
        return count_fn(_chunk_rng(mc.seed, idx), m)

    if mc.parallelism > 1:
        with ThreadPoolExecutor(max_workers=mc.parallelism) as pool:
            counts = list(pool.map(run, jobs))
    else:
        counts = [run(job) for job in jobs]
    total = int(sum(counts))
    return total / mc.trials, wilson_halfwidth(total, mc.trials, mc.ci_level)


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
    theta_f = float(theta)
    delta_f = float(delta)
    shifted = ShiftedDistribution(d, theta_f)
    randomized = isinstance(e, RandomizedEstimator)

    def count(rng, m):
        x = shifted.sample_with_rng(rng, (m, n))
        est = e.evaluate_batch(x, rng) if randomized else e.evaluate_batch(x)
        return int(within_threshold_array(np.abs(est - theta_f), delta_f, closed_interval).sum())

    return _bernoulli_mc(count, mc)


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

    Shift-equivariant estimators get their grid values cross-checked (they
    must agree within three combined CI half-widths) and report the value at
    shift zero; others report the grid minimum, which is an upper bound on
    the true infimum.
    """
    thetas = list(theta_grid)
    if not thetas:
        raise ValueError("theta_grid must be nonempty")
    invariant = e.invariance_claim == SHIFT_INVARIANT
    if invariant and not any(float(t) == 0.0 for t in thetas):
        thetas.insert(0, 0)  # an int, so a rational law stays exact at this shift

    discrete = isinstance(d, FiniteAtoms)
    entries = []
    for theta in thetas:
        if discrete:
            q = exact_quality_discrete(e, d, theta, delta, n=n, closed_interval=closed_interval)
            entries.append(ThetaQuality(*_exact_pair(theta, q), 0.0, True))
        else:
            q, ci = quality_at(e, d, theta, delta, mc, n=n, closed_interval=closed_interval)
            entries.append(ThetaQuality(float(theta), q, ci, False))

    if invariant:
        base = next(t for t in entries if t.theta == 0)
        for t in entries:
            if abs(t.q - base.q) > 3.0 * (t.ci_half_width + base.ci_half_width):
                raise RuntimeError(
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
    throughout, as in quality_inf.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    discrete = isinstance(d, FiniteAtoms)
    per_theta = []
    for i in range(1, k + 1):
        theta = 2 * delta * i
        if discrete:
            q = exact_quality_discrete(e, d, theta, delta, n=n, closed_interval=closed_interval)
            per_theta.append((*_exact_pair(theta, q), 0.0))
        else:
            q, ci = quality_at(e, d, theta, delta, mc, n=n, closed_interval=closed_interval)
            per_theta.append((float(theta), q, ci))
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
