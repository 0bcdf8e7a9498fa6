"""Location estimators: constructions, invariance metadata, mixtures.

An Estimator wraps a plain evaluation function together with the sample count
it is built for and the invariance it claims; it is the one rule type of the
line, the circle (compact_circle.CircleEstimator) and the tree (group_tree's
builders), and a mixture (RandomizedEstimator) is one too. Constructions
that admit a vectorized form also carry a batch evaluator, which is what
keeps the Monte Carlo loops fast; anything else falls back to a per-row
Python loop.

A rule built on an exact law may also carry scaled, the same rule rebuilt
on the law scaled by an integer D, so that the exact engines can evaluate it
on Python ints instead of Fractions.

Shift equivariance is the load-bearing property here: e(x + c) = e(x) + c
means the estimator's success probability does not depend on the unknown
shift, so it can be measured once at shift zero.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Sequence

from .distributions import ContinuousDistribution, Distribution, FiniteAtoms, Gaussian
from .util import (
    BISECT_TOL, ConvergenceError, exact_number, exact_weights, is_exact, np, sum_columns, within_threshold,
)

__all__ = [
    "Estimator",
    "RandomizedEstimator",
    "mean_estimator",
    "window_mle_estimator",
    "min_shift_estimator",
    "discrete_mle_estimator",
    "invariant_extension",
    "constant_estimator",
    "mixture",
]

SHIFT_INVARIANT = "shift_invariant"
NO_CLAIM = "none"


@dataclass(frozen=True)
class Estimator:
    """A location estimator.

    n is the sample count the rule sees, an int >= 1 fixed when the rule is
    built; the quality functions read it from the rule and take no n of
    their own. fn maps a length-n sample sequence to an estimate: a real
    number on the line and the circle, a reduced word on the tree. batch_fn,
    when present, maps an (m, n) float array to m estimates and must agree
    with fn row by row; a rule with a batch_fn may leave fn out, and then
    evaluate is one row of evaluate_batch. symmetric declares that fn's value
    does not depend on the order of the samples, so exact enumeration may
    visit each multiset of samples once instead of every ordering of it.

    scaled, when present, rebuilds the rule on the law scaled by an integer
    D: scaled(D) is an Estimator of the same n whose value at D*x is
    D*evaluate(x), with the locations, delta and constants multiplied by D.
    On int samples it returns an int or a Fraction, the guess in lattice
    units. mean on a law with an exact mean, min_shift with an exact
    lo + delta, discrete_mle on exact locations and constant with an exact
    value set it; every other rule leaves it None and the exact engines
    evaluate it on Fractions. A mixture has none of its own: each of its
    parts carries its own.

    parts are the deterministic rules it is made of, with their weights:
    ((self, 1),) for a plain rule, the components for a mixture.
    """

    label: str
    fn: Callable[[Sequence], object] | None = None
    n: int = field(kw_only=True)
    invariance_claim: str = NO_CLAIM
    batch_fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    symmetric: bool = False
    scaled: Callable[[int], Estimator] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"{self.label} needs a sample count n >= 1, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def parts(self) -> tuple:
        return ((self, 1),)

    def evaluate(self, samples):
        samples = tuple(samples)
        if len(samples) != self.n:
            raise ValueError(f"{self.label} expects {self.n} samples, got {len(samples)}")
        if self.fn is None:
            return float(self.evaluate_batch(np.asarray([samples], dtype=float))[0])
        return self.fn(samples)

    def split(self, x: np.ndarray, rng: np.random.Generator | None = None) -> tuple:
        """The rows of x that each part scores: (part, rows, block) triples, block = x[rows].

        A plain rule is one part that takes every row, with the block x
        itself, and draws nothing; a mixture overrides this and draws each
        row's component from rng.
        """
        return ((self, slice(None), x),)

    def evaluate_batch(self, x: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Estimates for the rows of x; only a mixture reads rng, to split the rows among its parts."""
        x = np.asarray(x, dtype=float)
        if x.shape[1] != self.n:
            raise ValueError(f"{self.label} expects {self.n} samples, got {x.shape[1]}")
        if self.batch_fn is not None:
            return np.asarray(self.batch_fn(x), dtype=float)
        return np.array([float(self.fn(tuple(row))) for row in x])


@dataclass(frozen=True)
class RandomizedEstimator(Estimator):
    """A finite mixture of estimators; evaluation first draws a component.

    Every component sees the mixture's n and is a deterministic rule, not a
    mixture itself; invariance_claim is set from the components. The weights
    are held exactly and sum to exactly 1 (see util.exact_weights). Each
    row's component is drawn by split from the generator it is given, which
    is required. evaluate_batch scores each part on its own rows, and the
    Monte Carlo harness splits a chunk once and scores every shift on the
    same blocks (see quality._mc_counts).
    """

    label: str = "mixture"
    components: tuple[tuple[Estimator, object], ...] = ()

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        if any(isinstance(e, RandomizedEstimator) for e, _ in self.components):
            raise ValueError("a mixture component cannot itself be a mixture; list its parts, weights multiplied")
        weights = exact_weights(w for _, w in self.components)
        object.__setattr__(self, "components", tuple(zip((e for e, _ in self.components), weights)))
        super().__post_init__()
        if any(e.n != self.n for e, _ in self.components):
            raise ValueError("mixture components disagree on sample count")
        unanimous = all(e.invariance_claim == SHIFT_INVARIANT for e, _ in self.components)
        object.__setattr__(self, "invariance_claim", SHIFT_INVARIANT if unanimous else NO_CLAIM)

    @property
    def parts(self) -> tuple:
        return self.components

    def split(self, x: np.ndarray, rng: np.random.Generator | None = None) -> tuple:
        """One rng.random(m) draw picks each row's component; one triple per component drawn.

        The cut points are the float sums of float(w), and float(w) is the
        float a weight was written as. A row takes the first component whose
        cumulative weight exceeds its draw, the last one if none does (the
        float sum of the weights may end below 1). The count of cumulative
        weights at or below the draw gives that index without a search: the
        weights are positive, so the sums never decrease, and the count
        equals searchsorted(side="right") clamped to the last index. Each
        component's rows are an index list in their original order, and its
        block is gathered by it, the same block a boolean mask would select,
        so every estimate keeps its bits. A component that no row draws gets
        no triple.
        """
        if rng is None:
            raise ValueError(f"{self.label} draws a component for each row and needs a generator")
        u = rng.random(x.shape[0])
        idx = np.zeros(x.shape[0], dtype=np.intp)
        for c in np.cumsum([float(w) for _, w in self.components])[:-1]:
            idx += u >= c
        blocks = []
        for j, (comp, _) in enumerate(self.components):
            rows = np.flatnonzero(idx == j)
            if rows.size:
                blocks.append((comp, rows, x.take(rows, axis=0)))
        return tuple(blocks)

    def evaluate_batch(self, x: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Each part's estimates on the rows that split gives it, put back in row order."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[0])
        for part, rows, block in self.split(x, rng):
            out[rows] = part.evaluate_batch(block)
        return out


def _times(value, scale: int):
    """value * scale for an exact value: an int when the product is whole, else a Fraction."""
    product = Fraction(value) * scale
    return product.numerator if product.denominator == 1 else product


def _lattice_rule(label: str, n: int, claim: str, make_fn) -> Callable[[int], Estimator]:
    """A builder's scaled: scaled(D) is the symmetric rule with fn make_fn(D) and this label, n and claim."""
    return lambda scale: Estimator(label=label, fn=make_fn(scale), n=n, invariance_claim=claim, symmetric=True)


def mean_estimator(d: Distribution, n: int) -> Estimator:
    """Mean of n samples recentred by the base law's mean. Shift equivariant.

    An int sum is divided as a Fraction, so int samples keep an exact mean;
    float samples keep their float division. With an exact mean mu the rule
    on the scale-D lattice is (sum(X) * q - n * p) / (n * q), where
    D * mu = p / q: one Fraction per evaluation.
    """
    mu = d.expected_value()
    mu_f = float(mu)

    def fn(x):
        total = sum(x)
        return Fraction(total, len(x)) - mu if type(total) is int else total / len(x) - mu

    def on_lattice(scale):
        shift = Fraction(mu) * scale
        p, q = shift.numerator, shift.denominator
        return lambda x: Fraction(sum(x) * q - len(x) * p, len(x) * q)

    return Estimator(
        label="mean",
        fn=fn,
        n=n,
        invariance_claim=SHIFT_INVARIANT,
        batch_fn=lambda x: sum_columns(x.T) / x.shape[1] - mu_f,
        symmetric=True,
        scaled=_lattice_rule("mean", n, SHIFT_INVARIANT, on_lattice) if is_exact(mu) else None,
    )


# Rows solved together by _window_center_batch. One block's (n, rows)
# temporaries stay in the CPU cache, so a step neither streams through memory
# nor maps fresh pages; timed from 1 024 to 32 768 rows on Gaussian,
# piecewise and uniform laws (see CHANGES.md).
WINDOW_BLOCK_ROWS = 8192
# Steps a block may take; rows still open after that raise ConvergenceError.
WINDOW_MAX_STEPS = 200


def _window_center_batch(d: ContinuousDistribution, delta: float, x0: np.ndarray) -> np.ndarray:
    """Centers t maximizing the window integral of prod_i f(x0_i + t).

    x0 has first column zero. The derivative of the window integral changes
    sign where g(t) = sum log f(x0 + t + delta) - sum log f(x0 + t - delta)
    crosses zero, which is monotone for strictly log-concave laws and
    single-crossing for one-sample inputs of a unimodal law or one that
    decreases on a half-line, so a bracketed root
    solve applies: g > 0 moves the lower end, anything else (NaN included)
    the upper end, so flat stretches resolve to the lowest root.

    Each step takes the Illinois false-position point of the bracket, held
    at least half the stopping width inside it, and falls back to the
    midpoint when an end value is not finite or the bracket did not halve
    over the last two steps. On a strictly log-concave law g is smooth and
    monotone, so false position closes the bracket in a handful of steps;
    for the Gaussian g is exactly linear and the first point is the root.
    The stopping width is BISECT_TOL, or four float spacings of the bracket
    ends where those are coarser. Each row stops on its own width and only
    open rows are evaluated, so a row's result does not depend on the other
    rows of the batch; rows are solved in blocks of WINDOW_BLOCK_ROWS so the
    temporaries of a step stay in cache. A block still open after
    WINDOW_MAX_STEPS steps raises ConvergenceError.

    Each block is held transposed, as a contiguous (n, rows) array: g then
    sums the n sample rows of a log-density block with util.sum_columns,
    one vector add per sample, where a sum over the short rows of an
    (rows, n) array pays numpy's per-row reduce. The order of the additions
    is numpy's pairwise one, so the centres are the same bits either way.
    The one copy of a block is the open rows that _solve_block gathers; a
    transposed copy of the whole batch, or a second one of the block, would
    raise the peak memory of a Monte Carlo chunk.
    """
    slo, shi = d.support()
    xmin = reduce(np.minimum, x0.T)
    xmax = reduce(np.maximum, x0.T)
    span = xmax - xmin
    width = shi - slo
    # Far from zero a bounded law's samples can round onto both support ends;
    # a spread equal to the width shrinks the positive stretch to one point,
    # which the full-cover rule below returns.
    if np.any(span > width):
        raise ValueError("sample spread exceeds the support width; every window has zero mass")
    pos_lo = slo - xmin  # window centers below this give a zero product
    pos_hi = shi - xmax
    mlo, mhi = d.mode_interval()
    lo = np.maximum(mlo - xmax - 2.0 * delta, pos_lo - delta)
    hi = np.minimum(mhi - xmin + 2.0 * delta, pos_hi + delta)

    if math.isfinite(width):
        full_cover = 2.0 * delta >= (pos_hi - pos_lo)
        # Any center whose window contains the whole positive stretch is optimal.
        lo = np.where(full_cover, 0.5 * (pos_lo + pos_hi), lo)
        hi = np.where(full_cover, 0.5 * (pos_lo + pos_hi), hi)
    tol = np.maximum(BISECT_TOL, 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    center = 0.5 * (lo + hi)

    def crossing(x, t):
        upper = sum_columns(d.logpdf(x + (t + delta)))
        return upper - sum_columns(d.logpdf(x + (t - delta)))

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for start in range(0, len(center), WINDOW_BLOCK_ROWS):
            rows = slice(start, start + WINDOW_BLOCK_ROWS)
            still_open = _solve_block(crossing, x0[rows].T, lo[rows], hi[rows], tol[rows], center[rows])
            if still_open:
                raise ConvergenceError(
                    f"window search on {type(d).__name__} left {still_open} rows open "
                    f"after {WINDOW_MAX_STEPS} steps"
                )
    return center


def _solve_block(crossing, x, lo, hi, tol, out) -> int:
    """Narrow each row's bracket to its tolerance; write the midpoints into out.

    x is the (n, rows) block, one column per row, which may be a transposed
    view. Returns the number of rows still open after WINDOW_MAX_STEPS steps.
    The open columns are kept with take and compress, which write C-ordered
    copies (x[:, idx] would keep a transposed layout), so each sample of the
    block is one contiguous row.
    """
    idx = np.flatnonzero(hi - lo > tol)
    x, lo, hi, tol = x.take(idx, axis=1), lo[idx], hi[idx], tol[idx]
    # Later steps keep g(lo) > 0 and g(hi) <= 0 or NaN; an initial end value
    # of the wrong sign is stored as unusable, like a non-finite one.
    glo = crossing(x, lo)
    glo = np.where(glo > 0, glo, np.inf)
    ghi = crossing(x, hi)
    ghi = np.where(ghi <= 0, ghi, np.nan)
    width1 = width2 = np.full(len(idx), np.inf)  # bracket widths before the last two steps
    side = None  # per row: +1 / -1 after a false-position step moved lo / hi, else 0; None: all 0
    for step in range(WINDOW_MAX_STEPS + 1):
        width = hi - lo
        done = width <= tol
        if done.any():
            out[idx[done]] = 0.5 * (lo[done] + hi[done])
            keep = ~done
            x = x.compress(keep, axis=1)
            idx, lo, hi, tol, glo, ghi, width, width1, width2 = (
                a[keep] for a in (idx, lo, hi, tol, glo, ghi, width, width1, width2)
            )
            side = None if side is None else side[keep]
        if not len(idx) or step == WINDOW_MAX_STEPS:
            break
        t = 0.5 * (lo + hi)
        secant = None
        if glo.min() < np.inf:
            secant = (glo < np.inf) & (ghi > -np.inf) & (width <= 0.5 * width2)
            if secant.any():
                point = lo + width * (glo / (glo - ghi))
                t = np.where(secant, np.clip(point, lo + 0.5 * tol, hi - 0.5 * tol), t)
            else:
                secant = None
        g = crossing(x, t)
        up = g > 0
        if secant is None:
            glo = np.where(up, g, glo)
            ghi = np.where(up, ghi, g)
            side = None
        else:
            # Illinois: an end kept by two false-position steps in a row has its value halved.
            last, side = side, secant * np.where(up, 1, -1)
            scale = 1.0 if last is None else np.where(side * last > 0, 0.5, 1.0)
            glo = np.where(up, g, scale * glo)
            ghi = np.where(up, scale * ghi, g)
        lo = np.where(up, t, lo)
        hi = np.where(up, hi, t)
        width2, width1 = width1, width
    return len(idx)


def window_mle_estimator(d: ContinuousDistribution, delta: float, n: int) -> Estimator:
    """Estimator on n samples that centers the best fixed-width likelihood window.

    Anchored at the first sample, it slides a window of half-width delta over
    the product density of the anchored samples and returns first sample minus
    the best center. For strictly log-concave laws this is the optimal
    shift-equivariant estimator at threshold delta; for laws that are only
    unimodal the same search is exposed but its optimality beyond one sample
    is unverified.

    The best center is the root of the difference of the log product density
    at the two window edges, found by bracketed Illinois false-position steps
    with a midpoint fallback (see _window_center_batch). That difference is
    smooth and monotone on strictly log-concave laws, so a batch row settles
    in a handful of steps; flat or truncated stretches fall back to
    bisection. The solver holds each block of anchored rows as an (n, rows)
    array, so the log product is summed one sample column at a time in
    numpy's pairwise order, bit for bit the (rows, n) row sum without its
    per-row cost. At n=1 every anchored sample is [0], so the centre c is
    solved once, when the rule is built, and the rule is x - c: the witness
    of the one-sample ceiling, bit for bit.

    On a Gaussian at n >= 2 nothing is solved: the best center of the
    anchored row x0 is mu - mean(x0), so the rule is the sample mean minus
    mu, and it takes mean_estimator's batch as it is.
    """
    traits = d.traits()
    if not (traits.log_concave_strict or traits.unimodal):
        raise ValueError("window estimator needs a log-concave or unimodal density")
    delta = float(delta)
    if not delta > 0:
        raise ValueError("delta must be positive")
    suffix = "" if traits.log_concave_strict else ", optimality unverified beyond n=1"
    if n == 1:
        center = _window_center_batch(d, delta, np.zeros((1, 1)))[0]

        def batch(x):
            return x[:, 0] - center

    elif isinstance(d, Gaussian):
        batch = mean_estimator(d, n).batch_fn
    else:

        def batch(x):
            x1 = x[:, 0]
            return x1 - _window_center_batch(d, delta, x - x1[:, None])

    return Estimator(
        label=f"window(delta={delta:g}{suffix})",
        n=n,
        invariance_claim=SHIFT_INVARIANT,
        batch_fn=batch,
    )


def min_shift_estimator(delta, n: int, *, lo=0) -> Estimator:
    """Smallest of n samples minus (lo + delta); matched to laws decreasing on [lo, inf).

    lo is where the law's support starts. At lo = 0 the offset lo + delta is
    delta itself, and the label names lo only when it is not 0. lo and delta
    are read as exact numbers (see util.exact_number), so on exact samples
    every guess is exact; the batch kernel subtracts lo + delta as given.
    """
    offset = exact_number(lo) + exact_number(delta)
    offset_f = float(lo + delta)
    start = "" if lo == 0 else f", lo={float(lo):g}"
    label = f"min_shift(delta={float(delta):g}{start})"

    def fn(x):
        return min(x) - offset

    def on_lattice(scale):
        shift = _times(offset, scale)
        return lambda x: min(x) - shift

    return Estimator(
        label=label,
        fn=fn,
        n=n,
        invariance_claim=SHIFT_INVARIANT,
        batch_fn=lambda x: reduce(np.minimum, x.T) - offset_f,
        symmetric=True,
        scaled=_lattice_rule(label, n, SHIFT_INVARIANT, on_lattice),
    )


def _discrete_window_best(d: FiniteAtoms, delta, closed_interval: bool):
    """(mass, center) of the heaviest width-2*delta window over the atoms.

    A window can cover a run of consecutive atoms whose span stays below
    2*delta (boundary spans count only under the closed convention); ties go
    to the leftmost run, and the center is the midpoint of the feasible
    center interval.
    """
    locs = d.locations
    masses = d.masses
    two_delta = 2 * delta
    prefix = [0]
    for m in masses:
        prefix.append(prefix[-1] + m)
    best_mass = None
    best_center = None
    j = 0
    for i in range(len(locs)):
        if j < i:
            j = i
        while j + 1 < len(locs) and within_threshold(locs[j + 1] - locs[i], two_delta, closed_interval):
            j += 1
        mass = prefix[j + 1] - prefix[i]
        if best_mass is None or mass > best_mass:
            best_mass = mass
            best_center = Fraction(locs[i] + locs[j], 2)
    return best_mass, best_center


def _shift_recovery(locs: Sequence, center):
    """The exact recovery rule on exact atom locations with distinct pairwise distances.

    The gaps v - x_1 are taken once. The first nonzero gap equals z_j - z_i
    for exactly one atom pair, so x_1 sits on atom z_i and the estimate is
    x_1 - z_i; every gap must then be one of the b - z_i, a set built per
    atom here. All-equal samples give x_1 - center.
    """
    lower_atom = {b - a: a for a in locs for b in locs if a != b}
    # offsets[z]: every b - z, the gap from a sample on atom z to one on atom b.
    offsets = {z: frozenset(b - z for b in locs) for z in locs}

    def recover(x):
        first = x[0]
        gaps = [v - first for v in x[1:]]
        step = next((g for g in gaps if g), None)
        if step is None:
            return first - center
        z = lower_atom.get(step)
        if z is not None and all(g in offsets[z] for g in gaps):
            return first - z
        raise ValueError("no shift places every sample on an atom of the base law")

    return recover


def discrete_mle_estimator(d: FiniteAtoms, delta, n: int = 1, *, closed_interval: bool = False) -> Estimator:
    """The atom rule: the window rule on one sample, exact shift recovery on several.

    The window rule is sample minus the centre of the heaviest width-2*delta
    atom window (the discrete window bound under closed_interval's
    convention), so at n=1 its exact quality equals that bound at every shift.

    At n >= 2 the atom locations must have distinct pairwise distances, and
    two distinct sample values pin the shift uniquely: subtracting a
    candidate atom from the first sample must land every sample back on an
    atom. All-equal samples fall back to the window rule. The locations are
    exact (see FiniteAtoms), so the signed differences of distinct atoms are
    distinct, and the first nonzero gap names the atom under x_1 (see
    _shift_recovery): n subtractions per tuple in all. delta is read as an
    exact number (see util.exact_number).

    The rule carries scaled: both branches rebuilt on the locations and the
    centre times D, the recovery maps keyed by those ints.
    """
    if not isinstance(d, FiniteAtoms):
        raise TypeError("discrete_mle needs a finite atomic law")
    if n < 1:
        raise ValueError("n must be at least 1")
    delta = exact_number(delta)
    if not delta > 0:
        raise ValueError("delta must be positive")
    center = _discrete_window_best(d, delta, closed_interval)[1]
    center_f = float(center)
    locs = d.locations
    if n == 1:
        label = f"discrete_window(center={center_f:g})"

        def window_on_lattice(scale):
            shift = _times(center, scale)
            return lambda x: x[0] - shift

        return Estimator(
            label=label,
            fn=lambda x: x[0] - center,
            n=1,
            invariance_claim=SHIFT_INVARIANT,
            batch_fn=lambda x: x[:, 0] - center_f,
            symmetric=True,
            scaled=_lattice_rule(label, 1, SHIFT_INVARIANT, window_on_lattice),
        )

    pairs = [b - a for i, a in enumerate(locs) for b in locs[i + 1 :]]
    if len(set(pairs)) < len(pairs):
        raise ValueError("atom locations must have distinct pairwise distances")
    label = f"discrete_exact(n={n})"

    def recovery_on_lattice(scale):
        return _shift_recovery([_times(z, scale) for z in locs], _times(center, scale))

    return Estimator(
        label=label,
        fn=_shift_recovery(locs, center),
        n=n,
        invariance_claim=SHIFT_INVARIANT,
        symmetric=True,
        scaled=_lattice_rule(label, n, SHIFT_INVARIANT, recovery_on_lattice),
    )


def invariant_extension(f0: Callable[[tuple], object], n: int) -> Estimator:
    """Extend a rule defined on first-coordinate-zero vectors equivariantly.

    f0 sees the samples anchored so the first coordinate is zero and returns
    the negated estimate there; the extension is first sample minus f0 of the
    anchored vector, which is shift equivariant by construction.
    """

    def fn(x):
        first = x[0]
        return first - f0(tuple(v - first for v in x))

    def batch(x):
        anchored = x - x[:, :1]
        return x[:, 0] - np.array([float(f0(tuple(row))) for row in anchored])

    return Estimator(
        label="invariant_extension",
        fn=fn,
        n=n,
        invariance_claim=SHIFT_INVARIANT,
        batch_fn=batch,
    )


def constant_estimator(value, n: int) -> Estimator:
    """Always guesses the same point from n samples; the canonical non-equivariant baseline.

    value is read as an exact number (see util.exact_number).
    """
    value = exact_number(value)
    value_f = float(value)
    label = f"constant({value_f:g})"

    def on_lattice(scale):
        guess = _times(value, scale)
        return lambda x: guess

    return Estimator(
        label=label,
        fn=lambda x: value,
        n=n,
        invariance_claim=NO_CLAIM,
        batch_fn=lambda x: np.full(x.shape[0], value_f),
        symmetric=True,
        scaled=_lattice_rule(label, n, NO_CLAIM, on_lattice),
    )


def mixture(components: Sequence[tuple[Estimator, float]]) -> RandomizedEstimator:
    """Weighted randomization over estimators, labelled "mixture"; weights as util.exact_weights reads them."""
    components = tuple(components)
    n = components[0][0].n if components else 1  # RandomizedEstimator refuses an empty list
    return RandomizedEstimator(components=components, n=n)
