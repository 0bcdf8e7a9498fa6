"""Shift estimation on the circle and the coset-pinning averaging argument.

Points live on [0, 1) with arithmetic mod 1 and the wrap-around distance.
Because the circle is a compact group, any estimator can be converted into a
shift-equivariant one that agrees with it on the coset where the first sample
equals a chosen anchor; averaging over anchors shows the best pinned copy is
at least as good as the original estimator's worst case. The checker here
measures that numerically on a grid of anchors, through the Monte Carlo
harness of quality with CIRCLE as the space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .distributions import PiecewiseDensity
from .estimators import NO_CLAIM, SHIFT_INVARIANT, Estimator
from .quality import MCConfig, Space, _counter, _mc_counts, _mc_grid, _noise
from .util import np, sum_columns

__all__ = [
    "wrap",
    "circle_distance",
    "CircleDensity",
    "uniform_circle_density",
    "CircleEstimator",
    "constant_circle_estimator",
    "biased_mean_circle_estimator",
    "warped_circle_estimator",
    "invariant_from_coset",
    "circle_quality_at",
    "averaging_check",
    "CircleAveragingReport",
]


def wrap(x):
    """Reduce to the fundamental domain [0, 1), as a new array (0-d for a scalar).

    x - floor(x), less 1.0 where that rounds up to 1.0 (tiny negatives such
    as -1e-17 do). Both steps run in one output buffer; each is the same
    rounded operation as on a temporary of its own, so the bits are those of
    the plain expression. x itself is never written.
    """
    x = np.asarray(x, dtype=float)
    out = np.floor(x, out=np.empty_like(x))
    np.subtract(x, out, out=out)
    np.subtract(out, 1.0, out=out, where=out >= 1.0)
    return out


def circle_distance(u, v):
    """Shorter arc between two points; at most 1/2."""
    d = np.abs(wrap(u) - wrap(v))
    return np.minimum(d, 1.0 - d)


# The circle for the Monte Carlo harness: rotate by theta, measure the shorter arc.
CIRCLE = Space(act=lambda noise, theta: wrap(theta + noise), distance=circle_distance)


@dataclass(frozen=True)
class CircleDensity:
    """Piecewise-linear density on the circle given by (position, value) knots.

    Positions must be strictly increasing within [0, 1]; the gap between the
    last knot and the first one (one turn later) is interpolated linearly, so
    the table always covers the full circle. The knots are validated,
    normalized and tabulated as one PiecewiseDensity over that unrolled turn,
    with its rules: total mass within 1e-3 of 1 is renormalized, larger
    deviations raise ValueError. Atomic laws on the circle are out of scope
    by construction.
    """

    knots: tuple[tuple[float, float], ...]
    _turn: PiecewiseDensity = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        knots = tuple((float(x), float(f)) for x, f in self.knots)
        if any(x < 0.0 or x > 1.0 for x, _ in knots):
            raise ValueError("knot positions must lie in [0, 1]")
        # Unroll one full turn starting at the first knot.
        unrolled = knots
        if len(knots) > 1 and knots[-1][0] - knots[0][0] < 1.0:
            unrolled += ((knots[0][0] + 1.0, knots[0][1]),)
        turn = PiecewiseDensity(unrolled)
        object.__setattr__(self, "knots", turn.knots[: len(knots)])
        object.__setattr__(self, "_turn", turn)

    def pdf(self, x):
        t = wrap(x)
        start = self.knots[0][0]
        t = np.where(t < start, t + 1.0, t)
        return self._turn.pdf(t)

    def ppf(self, u):
        # The turn's table directly, not PiecewiseDensity.ppf, so a traced run
        # counts circle draws apart from the line's piecewise draws.
        table = self._turn._table
        return wrap(table.ppf_mass(np.asarray(u, dtype=float) * table.total))

    def sample_with_rng(self, rng: np.random.Generator, shape) -> np.ndarray:
        return self.ppf(rng.random(shape))


def uniform_circle_density() -> CircleDensity:
    return CircleDensity(knots=((0.0, 1.0), (1.0, 1.0)))


class CircleEstimator(Estimator):
    """An Estimator on circle samples whose guesses are reduced mod 1."""

    def evaluate_batch(self, x: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        return wrap(super().evaluate_batch(x, rng))


def constant_circle_estimator(value: float, n: int = 1) -> CircleEstimator:
    value = float(wrap(value))
    return CircleEstimator(
        label=f"constant({value:g})",
        n=n,
        invariance_claim=NO_CLAIM,
        batch_fn=lambda x: np.full(x.shape[0], value),
    )


def biased_mean_circle_estimator(bias: float, n: int) -> CircleEstimator:
    """First sample plus the mean signed offset of the rest, plus a bias.

    Offsets are taken in (-1/2, 1/2], so the rule is equivariant under
    rotation; the bias shifts every guess by the same arc.
    """

    def batch(x):
        offsets = wrap(x - x[:, :1]) if x.shape[1] > 1 else np.zeros_like(x)
        signed = np.where(offsets > 0.5, offsets - 1.0, offsets)
        return x[:, 0] + sum_columns(signed.T) / x.shape[1] + bias

    return CircleEstimator(
        label=f"biased_mean(bias={bias:g})",
        n=n,
        invariance_claim=SHIFT_INVARIANT,
        batch_fn=batch,
    )


def warped_circle_estimator(strength: float = 0.25, n: int = 1) -> CircleEstimator:
    """Deliberately non-equivariant: warps the first sample quadratically."""

    def batch(x):
        v = x[:, 0]
        return v + strength * v * (1.0 - v)

    return CircleEstimator(
        label=f"warped(strength={strength:g})",
        n=n,
        invariance_claim=NO_CLAIM,
        batch_fn=batch,
    )


def invariant_from_coset(e: CircleEstimator, anchor: float) -> CircleEstimator:
    """Equivariant copy of e that agrees with it when the first sample is anchor.

    The samples are rotated so the first one lands on the anchor, e is
    evaluated there, and the guess is rotated back. The copy is equivariant
    for every anchor; if e already was, the copy coincides with it.
    """
    anchor = float(wrap(anchor))

    def batch(x):
        pinned = wrap(x - x[:, :1] + anchor)
        pinned[:, 0] = anchor  # exact, not through wrap roundoff
        return x[:, 0] - anchor + e.evaluate_batch(pinned)

    return CircleEstimator(
        label=f"pinned(anchor={anchor:g}, base={e.label})",
        n=e.n,
        invariance_claim=SHIFT_INVARIANT,
        batch_fn=batch,
    )


def _check_delta(delta) -> float:
    delta = float(delta)
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie strictly between 0 and 1/2")
    return delta


def circle_quality_at(
    e: CircleEstimator,
    density: CircleDensity,
    theta: float,
    delta: float,
    mc: MCConfig,
) -> tuple[float, float]:
    """Monte Carlo (q, ci): probability the guess lands within arc delta of theta."""
    delta = _check_delta(delta)
    return _mc_counts(_noise(density, e.n), [_counter(CIRCLE, e, wrap(theta), delta)], mc)[0]


@dataclass(frozen=True)
class CircleAveragingReport:
    """Outcome of the anchor-averaging comparison for one estimator."""

    q_e: float
    q_e_ci: float
    theta_argmin: float
    anchor_qualities: tuple[tuple[float, float, float], ...]  # (anchor, q, ci)
    best_anchor: float
    q_best: float
    q_best_ci: float
    average_pinned_quality: float
    holds: bool


def averaging_check(
    e: CircleEstimator,
    density: CircleDensity,
    delta: float,
    anchor_grid: int,
    mc: MCConfig,
) -> CircleAveragingReport:
    """Compare the best coset-pinned copy of e against e's own worst case.

    The worst case of e is measured over a uniform shift grid of the same
    granularity as the anchor grid, under the grid policy of quality_inf: a
    rule that claims shift invariance is checked row by row at every shift
    (InvarianceError if the claim is false) and scored once, at shift zero.
    Each pinned copy is equivariant, so it is scored once at shift zero; a
    pinned copy of an equivariant rule is the rule itself, so it takes e's
    shift-zero row. Every shift of e and every pinned copy is scored on the
    same noise, chunk by chunk, so the comparison is paired. holds records
    whether the best pinned copy is at least e's worst case, within three
    combined CI half-widths.
    """
    if anchor_grid < 8:
        raise ValueError("anchor_grid must be at least 8")
    delta = _check_delta(delta)
    shifts = [i / anchor_grid for i in range(anchor_grid)]
    invariant = e.invariance_claim == SHIFT_INVARIANT
    pinned = [] if invariant else [_counter(CIRCLE, invariant_from_coset(e, a), 0.0, delta) for a in shifts]
    rows = _mc_grid(CIRCLE, e, density, shifts, delta, mc, paired=pinned)
    raw_rows = rows[:anchor_grid]
    pinned_rows = raw_rows if invariant else rows[anchor_grid:]
    # min keeps the first minimiser, as a strict < scan over the shifts does.
    (q_e, q_e_ci), theta_argmin = min(zip(raw_rows, shifts), key=lambda row: row[0][0])
    anchor_rows = [(anchor, q, ci) for anchor, (q, ci) in zip(shifts, pinned_rows)]
    best_anchor, q_best, q_best_ci = max(anchor_rows, key=lambda row: row[1])
    average = sum(q for _, q, _ in anchor_rows) / len(anchor_rows)
    holds = q_best >= q_e - 3.0 * (q_e_ci + q_best_ci)
    return CircleAveragingReport(
        q_e=q_e,
        q_e_ci=q_e_ci,
        theta_argmin=theta_argmin,
        anchor_qualities=tuple(anchor_rows),
        best_anchor=best_anchor,
        q_best=q_best,
        q_best_ci=q_best_ci,
        average_pinned_quality=average,
        holds=holds,
    )
