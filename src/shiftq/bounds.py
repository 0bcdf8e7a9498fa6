"""Ceilings on achievable worst-case quality, per family.

Two kinds of bound are computed. The window bound caps every shift-equivariant
estimator: it is the largest probability a width-2*delta window can capture
(best single window of the density or of the atom masses for one sample, and
a Monte Carlo evaluation of the optimal window estimator for strictly
log-concave laws with several samples). The packing bound caps all estimators,
randomized included: it is the largest mass of a set disjoint from its own
translates by nonzero multiples of 2*delta. applicable_bounds decides which
of these ceilings apply to a law.

The one-sample window centre is found by the window rules' own searches in
estimators: the atom window, and on a density that is unimodal or decreasing
on a half-line the n = 1 window solve. So the one-sample window rule and the
witness of its ceiling are one number, except on the Gaussian, whose rule
subtracts its mean in closed form and whose witness is the solved centre,
equal to that mean within the solve's stopping width. Densities with no shape
guarantee get a grid refinement of the window mass instead.

The discrete sumset checker ties the two together: averaging an arbitrary
estimator's exact quality over a sumset of shifts can exceed the one-sample
window bound only by the sumset growth factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .config import MCConfig
from .distributions import ContinuousDistribution, Distribution, FiniteAtoms
from .estimators import _discrete_window_best, _window_center_batch, window_mle_estimator
from .quality import exact_quality_discrete, quality_at
from .util import (
    _PLAIN_EXACT,
    EnumerationLimitError,
    MATCH_ATOL,
    common_denominator,
    is_exact,
    lattice_ints,
    np,
    within_threshold,
)

__all__ = [
    "BoundReport",
    "SumsetAverageBound",
    "applicable_bounds",
    "window_bound_one_sample",
    "packing_bound_discrete",
    "packing_bound_halfline",
    "window_bound_log_concave",
    "coefficient_sumset",
    "sumset_average_bound",
]

WINDOW = "window"  # ceiling for shift-equivariant estimators
PACKING = "packing"  # ceiling for all estimators, randomized included

_SUMSET_POINT_CAP = 6
_SUMSET_SIZE_CAP = 10_000_000


@dataclass(frozen=True)
class BoundReport:
    """One computed ceiling.

    kind is "window" or "packing". equality_certified records whether the two
    ceilings are known to coincide for this family and sample count (proven
    for the continuous one-sample and registered n-sample classes; checked by
    direct computation for atoms). witness carries the achieving object:
    a window center, the selected atoms, or a set description. ci_half_width
    is nonzero only for Monte Carlo backed values.
    """

    kind: str
    n: int
    delta: object
    value: object
    method: str
    equality_certified: bool
    witness: object = None
    ci_half_width: float = 0.0


class SumsetAverageBound(NamedTuple):
    average_quality: object
    bound: object
    holds: bool


def _conflict_multiple(z_a, z_b, delta) -> bool:
    """True when the two locations differ by a nonzero multiple of 2*delta."""
    if is_exact(z_a, z_b, delta):
        ratio = Fraction(z_b - z_a) / (2 * Fraction(delta))
        return ratio != 0 and ratio.denominator == 1
    ratio = (float(z_b) - float(z_a)) / (2.0 * float(delta))
    k = round(ratio)
    return k != 0 and abs(ratio - k) <= 1e-9 * max(1.0, abs(ratio))


def _discrete_packing_best(d: FiniteAtoms, delta):
    """(mass, selected atoms) for the best translate-disjoint atom subset.

    Atoms conflict when their distance is a nonzero multiple of 2*delta;
    conflicts are transitive (exactly so under rational arithmetic), so the
    best subset keeps the heaviest atom of each conflict class.
    """
    atoms = d.atoms
    parent = list(range(len(atoms)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            if _conflict_multiple(atoms[i][0], atoms[j][0], delta):
                parent[find(j)] = find(i)

    best_by_class: dict[int, tuple] = {}
    for i, (z, m) in enumerate(atoms):
        root = find(i)
        current = best_by_class.get(root)
        if current is None or m > current[1]:
            best_by_class[root] = (z, m)
    selected = sorted(best_by_class.values(), key=lambda zm: float(zm[0]))
    total = sum(m for _, m in selected)
    return total, tuple(selected)


def _grid_refine_center(d: ContinuousDistribution, delta: float) -> float:
    """Best window center for an arbitrary continuous law by grid refinement."""
    lo, hi = d.finite_support()
    lo -= delta
    hi += delta

    def mass(c):
        return d.cdf(c + delta) - d.cdf(c - delta)

    center = 0.5 * (lo + hi)
    span = hi - lo
    for _ in range(4):
        grid = np.linspace(max(lo, center - span), min(hi, center + span), 801)
        center = float(grid[int(np.argmax(mass(grid)))])
        span = span / 200.0
    return center


def window_bound_one_sample(d: Distribution, delta, *, closed_interval: bool = False) -> BoundReport:
    """Largest probability captured by one width-2*delta window.

    This is the quality ceiling for every shift-equivariant estimator seeing
    a single sample, and it is attained: the witness is an optimal window
    center, the one the one-sample window rule subtracts (on the Gaussian the
    rule subtracts the mean, which the solved witness equals within the
    solve's stopping width).
    """
    if not float(delta) > 0:
        raise ValueError("delta must be positive")
    if isinstance(d, FiniteAtoms):
        return _atom_bounds(d, delta, closed_interval)[0]
    traits = d.traits()
    delta_f = float(delta)
    if traits.unimodal or traits.monotone_on_halfline:
        center = float(_window_center_batch(d, delta_f, np.zeros((1, 1)))[0])
        method = "density bisection"
        certified = True
    else:
        center = _grid_refine_center(d, delta_f)
        method = "grid refinement (no shape guarantee)"
        certified = False
    value = float(d.cdf(center + delta_f) - d.cdf(center - delta_f))
    return BoundReport(
        kind=WINDOW,
        n=1,
        delta=delta,
        value=value,
        method=method,
        equality_certified=certified,
        witness=center,
    )


def packing_bound_discrete(d: FiniteAtoms, delta) -> BoundReport:
    """Ceiling for arbitrary estimators on an atomic law, one sample, open windows.

    Exact: keeps the heaviest atom from each class of atoms linked by
    2*delta-multiple distances. The window bound can sit strictly below this
    value; equality is certified only when the two computations agree.
    """
    if not isinstance(d, FiniteAtoms):
        raise TypeError("packing bound over atoms needs a finite atomic law")
    if not float(delta) > 0:
        raise ValueError("delta must be positive")
    return _atom_bounds(d, delta, False)[1]


def _atom_bounds(d: FiniteAtoms, delta, closed_interval: bool) -> list[BoundReport]:
    """The one-sample window row of an atomic law, then its packing row, each computed once.

    The packing argument needs open windows: a closed window of width
    2*delta catches two atoms 2*delta apart, which the packing classes keep
    apart. So under the closed convention there is no packing row and the
    window row is not certified.
    """
    value, center = _discrete_window_best(d, delta, closed_interval)
    if closed_interval:
        return [BoundReport(WINDOW, 1, delta, value, "atom sliding window", False, center)]
    packing_value, selected = _discrete_packing_best(d, delta)
    if is_exact(value, packing_value):
        certified = value == packing_value
    else:
        certified = abs(float(value) - float(packing_value)) <= 1e-12
    return [
        BoundReport(WINDOW, 1, delta, value, "atom sliding window", certified, center),
        BoundReport(
            PACKING, 1, delta, packing_value, "heaviest atom per translate-conflict class", certified, selected
        ),
    ]


def packing_bound_halfline(d: Distribution, n: int, delta) -> BoundReport:
    """Ceiling for arbitrary estimators when the density decreases on [lo, inf).

    lo is where the support starts. The event "every sample lies within
    2*delta above the shift plus lo" is disjoint from its translates by
    multiples of 2*delta and no estimator can beat its probability
    1 - (1 - F(lo + 2*delta))^n; the minimum-based rule min(x) - lo - delta
    attains it, so the window and packing ceilings coincide for this family.
    """
    traits = d.traits()
    if not traits.monotone_on_halfline:
        raise ValueError("halfline packing bound needs a density decreasing on [lo, inf)")
    if n < 1:
        raise ValueError("n must be at least 1")
    lo = d.support()[0]
    tail = 1.0 - float(d.cdf(lo + 2.0 * float(delta)))
    value = 1.0 - tail**n
    return BoundReport(
        kind=PACKING,
        n=n,
        delta=delta,
        value=value,
        method="closed form from the minimum statistic",
        equality_certified=True,
        witness="samples with smallest value within 2*delta of the shift",
    )


def window_bound_log_concave(
    d: ContinuousDistribution,
    n: int,
    delta,
    mc: MCConfig,
    *,
    closed_interval: bool = False,
) -> BoundReport:
    """Attained ceiling for equivariant estimators, strictly log-concave laws.

    The optimal window estimator achieves the ceiling, so its Monte Carlo
    quality at shift zero is reported as the bound value (ci_half_width
    carries the statistical error). On a Gaussian that estimator is the
    sample mean, so the row costs only its sampling.
    """
    traits = d.traits()
    if not traits.log_concave_strict:
        raise ValueError("this bound needs a strictly log-concave density")
    estimator = window_mle_estimator(d, delta, n)
    q, ci = quality_at(estimator, d, 0.0, delta, mc, closed_interval=closed_interval)
    return BoundReport(
        kind=WINDOW,
        n=n,
        delta=delta,
        value=q,
        method="Monte Carlo quality of the optimal window estimator at shift zero",
        equality_certified=True,
        witness=None,
        ci_half_width=ci,
    )


def applicable_bounds(
    d: Distribution, n: int, delta, mc: MCConfig, *, closed_interval: bool
) -> list[BoundReport]:
    """Every ceiling that applies to d at n samples, in report order.

    Atoms get their one-sample window row and, under open windows, their
    packing row, from one computation. A continuous law gets the one-sample
    window row, the half-line packing row when its density decreases on
    [lo, inf), and the Monte Carlo n-sample window row when it is strictly
    log-concave and n > 1.
    """
    if isinstance(d, FiniteAtoms):
        return _atom_bounds(d, delta, closed_interval)
    traits = d.traits()
    reports = [window_bound_one_sample(d, delta, closed_interval=closed_interval)]
    if traits.monotone_on_halfline:
        reports.append(packing_bound_halfline(d, n, delta))
    if traits.log_concave_strict and n > 1:
        reports.append(window_bound_log_concave(d, n, delta, mc, closed_interval=closed_interval))
    return reports


def _float_sumset(a: Sequence, b: Sequence) -> list:
    """Sorted sums x + y; a sum is kept when it lies more than MATCH_ATOL above the sum before it.

    One pass over the sorted list, so the float-atom lemma-check never loads numpy.
    """
    sums = sorted(float(x + y) for x in a for y in b)
    return sums[:1] + [v for prev, v in zip(sums, sums[1:]) if v - prev > MATCH_ATOL]


def _lattice_sumset(points: list, k: int) -> tuple[list[int], int] | None:
    """D * S as sorted ints and D, for S the sums of the points with integer coefficients in [0, k).

    D is the lcm of the points' denominators. The caps and k are checked
    first, for float points too; those give None, with no sumset built.
    """
    if not points:
        raise ValueError("need at least one point")
    if len(points) > _SUMSET_POINT_CAP:
        raise EnumerationLimitError(f"more than {_SUMSET_POINT_CAP} generating points")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k ** len(points) > _SUMSET_SIZE_CAP:
        raise EnumerationLimitError(f"{k}^{len(points)} combinations exceed the cap")
    if not is_exact(*points):
        return None
    scale = common_denominator(points)
    values = [0]
    for z in lattice_ints(points, scale):
        values = sorted({v + h * z for v in values for h in range(k)})
    return values, scale


def _sumset_values(values: list[int], scale: int, points: list) -> list:
    """The sumset elements values / scale: ints when every point is an int, Fractions otherwise."""
    if all(type(z) is int for z in points):
        return values
    return [Fraction(v, scale) for v in values]


def coefficient_sumset(points: Sequence, k: int) -> list:
    """All sums of the points with integer coefficients in [0, k).

    Exact points are summed as integers over D, the lcm of their
    denominators, and come back as Fractions (as ints when every point is an
    int). Nearby floats (within 1e-9) collapse to one element.
    """
    points = list(points)
    lattice = _lattice_sumset(points, k)
    if lattice is None:
        values = [0.0]
        for z in points:
            values = _float_sumset(values, [h * z for h in range(k)])
        return values
    return _sumset_values(*lattice, points)


def _lattice_window(p: int, q: int, a: int, b: int, closed: bool) -> tuple[int, int]:
    """The integers t with |p / q - t| < a / b (<= when closed), as lo <= t <= hi.

    p / q is a guess and a / b is delta, both in lattice units. The
    window's ends are (p * b -+ a * q) / (q * b), so floor and ceil are
    integer divisions.
    """
    centre = p * b
    reach = a * q
    den = q * b
    if closed:
        return -((reach - centre) // den), (centre + reach) // den
    return (centre - reach) // den + 1, -((-centre - reach) // den) - 1


def _observed_total(e, d: FiniteAtoms, delta, closed: bool, index: dict, observed: list, scale: int):
    """Exact one-sample quality summed over the shifts of S, from one guess per observation.

    index maps scale * theta to theta's position in S, and observed is
    scale * (S + Z) as sorted ints. The guess g at an observation x credits
    the mass of atom z to theta = x - z when theta is in S and lies within
    delta of g. A part that carries scaled is built once as
    part.scaled(scale) and evaluated on the observed ints, so its guess is
    already in lattice units; any other part sees x / scale as a Fraction
    (as an int when every location is one) and its guess is multiplied by
    scale. An exact guess makes the test an integer range on scale * theta,
    with delta * scale = a / b read once per call; any other guess keeps
    the within_threshold decision of exact_quality_discrete, against theta
    made a Fraction (an int when every location is one) for that test only.

    Masses are held as integer numerators over M, the lcm of their
    denominators, so a credit is an int addition. A plain rule divides its
    hit total once, by M. A mixture divides each shift's hits of each part by
    M, which is that part's exact quality there, and combines the parts as
    exact_quality_discrete does, so float weights keep their bits.
    """
    mass_scale = common_denominator(d.masses)
    atoms = list(zip(lattice_ints(d.locations, scale), lattice_ints(d.masses, mass_scale)))
    as_int = all(type(z) is int for z in d.locations)
    delta_scaled = Fraction(delta * scale)
    a, b = delta_scaled.numerator, delta_scaled.denominator
    qualities = [0] * len(index)
    for part, w in e.parts:
        q = [0] * len(index)
        on_lattice = part.scaled is not None
        rule = part.scaled(scale) if on_lattice else part
        unit = 1 if on_lattice else scale  # lattice units per unit of the guess
        for x in observed:
            g = rule.evaluate((x if on_lattice or as_int else Fraction(x, scale),))
            if type(g) in _PLAIN_EXACT:
                lo, hi = _lattice_window(g.numerator * unit, g.denominator, a, b, closed)
                for z, m in atoms:
                    theta = x - z
                    if lo <= theta <= hi and theta in index:
                        q[index[theta]] += m
            else:
                for z, m in atoms:
                    i = index.get(x - z)
                    if i is None:
                        continue
                    theta = x - z if as_int else Fraction(x - z, scale)
                    if within_threshold(abs(g - theta), delta, closed):
                        q[i] += m
        if part is e:
            return Fraction(sum(q), mass_scale)
        qualities = [t + w * Fraction(v, mass_scale) for t, v in zip(qualities, q)]
    return sum(qualities)


def sumset_average_bound(e, d: FiniteAtoms, delta, k: int, *, closed_interval: bool = False) -> SumsetAverageBound:
    """Check the averaging ceiling for an arbitrary one-sample estimator on atoms.

    The average of the exact quality over shifts in the coefficient sumset S
    of the atom locations Z cannot exceed the one-sample window bound scaled
    by |S + Z| / |S|. That ceiling holds for rules that see one sample, so a
    rule with e.n != 1 is refused. Exact inputs are decided exactly; float
    inputs allow 1e-12 slack.

    The check runs the way the averaging argument does when delta, the
    locations and the masses are exact: S and S + Z are built once in
    integers over the lcm of the location denominators, the rule is
    evaluated once per observation x in S + Z, and its guess credits each
    shift x - z in S that it lands within delta of. Masses are held as
    integer numerators over M, the lcm of their denominators, and each part
    of the rule divides its hits once by M (see _observed_total). Float laws
    are evaluated shift by shift with exact_quality_discrete, whose float
    band the pairing by x would not reproduce; only that path turns S into
    Fractions (or floats). When the total and the window bound are exact,
    the average is the rational total / |S|, a Fraction even when the total
    is an int.
    """
    if not isinstance(d, FiniteAtoms):
        raise TypeError("the averaging check needs a finite atomic law")
    if e.n != 1:
        raise ValueError(f"the averaging check bounds one-sample rules; {e.label} takes n={e.n}")
    locs = list(d.locations)
    lattice = _lattice_sumset(locs, k)
    if lattice is None:
        shifts = coefficient_sumset(locs, k)
        size, grown = len(shifts), len(_float_sumset(shifts, locs))
    else:
        scaled_shifts, scale = lattice
        points = lattice_ints(locs, scale)
        observed = sorted({s + z for s in scaled_shifts for z in points})
        size, grown = len(scaled_shifts), len(observed)
    if is_exact(delta, *locs, *d.masses):
        index = {s: i for i, s in enumerate(scaled_shifts)}
        total = _observed_total(e, d, delta, closed_interval, index, observed, scale)
    else:
        if lattice is not None:
            shifts = _sumset_values(scaled_shifts, scale, locs)
        total = sum(exact_quality_discrete(e, d, theta, delta, closed_interval=closed_interval) for theta in shifts)
    window_value = window_bound_one_sample(d, delta, closed_interval=closed_interval).value
    if is_exact(total, window_value):
        average = Fraction(total, size)
        bound = window_value * Fraction(grown, size)
        holds = average <= bound
    else:
        average = float(total) / size
        bound = float(window_value) * grown / size
        holds = average <= bound + 1e-12
    return SumsetAverageBound(average_quality=average, bound=bound, holds=holds)
