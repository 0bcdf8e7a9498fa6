"""Independent oracles for every report the benchmark checks.

Nothing here imports shiftq, numpy or scipy. Closed forms use math.erf and
math.exp; piecewise-linear laws are integrated exactly segment by segment;
atomic laws are enumerated tuple by tuple in Fraction arithmetic; window and
packing ceilings are found by brute force over atom subsets; the tree uses
its own reduced-word multiply.

Run this file to self-test the oracles against hand values.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# --- closed forms on the line -----------------------------------------------


def phi(x: float) -> float:
    """Standard normal CDF through math.erf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def gaussian_mean_quality(delta: float, n: int, sigma: float) -> float:
    """Quality of the recentred mean on N(mu, sigma^2) noise: 2 Phi(delta sqrt(n) / sigma) - 1.

    It is also the quality of the window estimator on Gaussian noise, and
    with n = 1 the mass of the best width-2*delta window.
    """
    return 2.0 * phi(delta * math.sqrt(n) / sigma) - 1.0


def exponential_min_quality(delta: float, n: int, rate: float) -> float:
    """Quality of min(x) - delta on Exp(rate) noise: 1 - exp(-2 delta n rate)."""
    return 1.0 - math.exp(-2.0 * delta * n * rate)


# --- piecewise-linear densities, integrated exactly -------------------------


class LinearLaw:
    """Density interpolating linearly between knots, zero outside, mass one."""

    def __init__(self, knots):
        self.x = [float(x) for x, _ in knots]
        raw = [float(f) for _, f in knots]
        total = sum(0.5 * (f0 + f1) * (x1 - x0) for x0, x1, f0, f1 in self._segments(raw))
        self.f = [v / total for v in raw]
        self.cum = [0.0]
        for x0, x1, f0, f1 in self._segments(self.f):
            self.cum.append(self.cum[-1] + 0.5 * (f0 + f1) * (x1 - x0))

    def _segments(self, f):
        return zip(self.x, self.x[1:], f, f[1:])

    def cdf(self, t: float) -> float:
        if t <= self.x[0]:
            return 0.0
        if t >= self.x[-1]:
            return self.cum[-1]
        i = max(k for k in range(len(self.x) - 1) if self.x[k] <= t)
        x0, x1, f0, f1 = self.x[i], self.x[i + 1], self.f[i], self.f[i + 1]
        u = t - x0
        return self.cum[i] + f0 * u + 0.5 * (f1 - f0) / (x1 - x0) * u * u

    def mass(self, a: float, b: float) -> float:
        return self.cdf(b) - self.cdf(a)

    def best_window(self, delta: float) -> float:
        """Largest mass of (c - delta, c + delta) over every centre c.

        The window mass is quadratic in c between the breakpoints x_k +- delta,
        so its maximum is at a breakpoint or at the vertex of one piece.
        """
        cuts = sorted({x + s * delta for x in self.x for s in (-1.0, 1.0)})

        def m(c):
            return self.mass(c - delta, c + delta)

        best = max(m(c) for c in cuts)
        for c0, c1 in zip(cuts, cuts[1:]):
            h = 0.5 * (c1 - c0)
            mid = c0 + h
            m0, m1, m2 = m(c0), m(mid), m(c1)
            curv = m0 - 2.0 * m1 + m2
            if curv < 0.0:
                vertex = mid + h * (m0 - m2) / (2.0 * curv)
                if c0 < vertex < c1:
                    best = max(best, m(vertex))
        return best


class CircleLaw:
    """Piecewise-linear density on the circle R/Z, mass one, arcs integrated exactly."""

    def __init__(self, knots):
        knots = [(float(x), float(f)) for x, f in knots]
        if knots[-1][0] - knots[0][0] < 1.0:
            knots.append((knots[0][0] + 1.0, knots[0][1]))
        self.start = knots[0][0]
        self.turn = LinearLaw(knots)

    def _cum(self, t: float) -> float:
        k = math.floor(t - self.start)
        return k + self.turn.cdf(t - k)

    def arc_mass(self, a: float, b: float) -> float:
        """Mass of the arc from a to b (b > a, b - a < 1) taken modulo one."""
        return self._cum(b) - self._cum(a)

    def shifted_window(self, bias: float, delta: float) -> float:
        """Quality of x + bias on this noise: the mass of (-bias - delta, -bias + delta)."""
        return self.arc_mass(-bias - delta, -bias + delta)


def unwarp(y: float, strength: float) -> float:
    """Inverse of v -> v + strength * v * (1 - v), an increasing bijection of [0, 1) for 0 < strength < 1."""
    b = 1.0 + strength
    return (b - math.sqrt(b * b - 4.0 * strength * y)) / (2.0 * strength)


def warped_quality(law: CircleLaw, theta: float, delta: float, strength: float) -> float:
    """Quality at shift theta of the warped rule, one sample.

    The guess warp(v) with v = theta + z lands within delta of theta exactly
    when v lies in the warp-preimage of the arc (theta - delta, theta + delta).
    """
    lo = unwarp((theta - delta) % 1.0, strength)
    hi = unwarp((theta + delta) % 1.0, strength)
    if hi < lo:
        hi += 1.0
    return law.arc_mass(lo - theta, hi - theta)


# --- atomic laws, brute force in Fraction arithmetic -------------------------


def _windows(atoms, delta) -> list[tuple[Fraction, tuple]]:
    """(mass, subset) for every nonempty subset that fits strictly inside a width-2*delta window."""
    out = []
    for size in range(1, len(atoms) + 1):
        for subset in itertools.combinations(atoms, size):
            locs = [z for z, _ in subset]
            if max(locs) - min(locs) < 2 * delta:
                out.append((sum(m for _, m in subset), subset))
    return out


def window_subset(atoms, delta) -> tuple[Fraction, tuple]:
    """(mass, atoms) of the heaviest subset that fits strictly inside a width-2*delta window."""
    return max(_windows(atoms, delta), key=lambda w: w[0])


def window_is_unique(atoms, delta) -> bool:
    """True when exactly one subset reaches the heaviest window mass."""
    masses = [mass for mass, _ in _windows(atoms, delta)]
    return masses.count(max(masses)) == 1


def packing_subset_mass(atoms, delta) -> Fraction:
    """Heaviest subset with no two locations a nonzero multiple of 2*delta apart."""

    def clash(a, b):
        ratio = (b - a) / (2 * delta)
        return ratio != 0 and ratio.denominator == 1

    best = Fraction(0)
    for size in range(1, len(atoms) + 1):
        for subset in itertools.combinations(atoms, size):
            if not any(clash(a, b) for (a, _), (b, _) in itertools.combinations(subset, 2)):
                best = max(best, sum(m for _, m in subset))
    return best


def mean_rule_quality(atoms, delta, n: int) -> Fraction:
    """Exact quality of the recentred sample mean, enumerated at shift zero."""
    mu = sum(z * m for z, m in atoms)
    total = Fraction(0)
    for combo in itertools.product(atoms, repeat=n):
        if abs(Fraction(sum(z for z, _ in combo), n) - mu) < delta:
            total += math.prod(m for _, m in combo)
    return total


def recovery_rule_quality(atoms, delta, n: int) -> Fraction:
    """Exact quality of the n-sample recovery rule, enumerated at shift zero.

    Locations with distinct pairwise differences let any two distinct samples
    name the pair of atoms they came from, hence the shift. A tuple of equal
    samples falls back to the centre of the heaviest one-sample window.
    """
    _, covered = window_subset(atoms, delta)
    centre = (min(z for z, _ in covered) + max(z for z, _ in covered)) / 2
    first_atom = {a - b: a for (a, _), (b, _) in itertools.permutations(atoms, 2)}
    total = Fraction(0)
    for combo in itertools.product(atoms, repeat=n):
        xs = [z for z, _ in combo]
        other = next((x for x in xs if x != xs[0]), None)
        if other is None:
            estimate = xs[0] - centre
        else:
            estimate = xs[0] - first_atom[xs[0] - other]
        if abs(estimate) < delta:
            total += math.prod(m for _, m in combo)
    return total


def coefficient_sumset(locs, k: int) -> set:
    """Every sum of h_i * z_i with integer coefficients 0 <= h_i < k."""
    return {sum(h * z for h, z in zip(hs, locs)) for hs in itertools.product(range(k), repeat=len(locs))}


def lemma_values(atoms, delta, k: int) -> tuple[Fraction, Fraction]:
    """(average quality, scaled bound) of the one-sample window rule over the sumset.

    The rule's guess is x minus the centre of the heaviest window, so its
    exact quality is that window's mass at every shift, and the average over
    the sumset S equals it. The bound is the window mass times |S + A| / |S|.
    """
    window, _ = window_subset(atoms, delta)
    locs = [z for z, _ in atoms]
    shifts = coefficient_sumset(locs, k)
    grown = {s + z for s in shifts for z in locs}
    return window, window * Fraction(len(grown), len(shifts))


# --- the trivalent tree ------------------------------------------------------


def tree_mul(u: str, v: str) -> str:
    """Product of reduced words: drop the longest suffix of u that mirrors a prefix of v."""
    k = 0
    while k < min(len(u), len(v)) and u[len(u) - 1 - k] == v[k]:
        k += 1
    return u[: len(u) - k] + v[k:]


def tree_ball(radius: int) -> list[str]:
    words = [""]
    for length in range(1, radius + 1):
        words += ["".join(w) for w in itertools.product("abc", repeat=length) if all(x != y for x, y in zip(w, w[1:]))]
    return words


def tree_quality(rule, theta: str) -> Fraction:
    """Exact quality at theta under mass 1/3 on each letter; success is an exact hit."""
    return Fraction(sum(rule(tree_mul(theta, z)) == theta for z in "abc"), 3)


def truncate(x: str) -> str:
    return x[:-1] if x else "a"


def tree_tables(radius: int, translate_radius: int = 4) -> dict:
    """Truncation quality per shift, its minimum, and the best translate rule's worst case."""
    ball = tree_ball(radius)
    rows = {theta: tree_quality(truncate, theta) for theta in ball}
    translate = []
    for w in tree_ball(translate_radius):
        translate.append(min(tree_quality(lambda x, w=w: tree_mul(x, w), t) for t in ball))
        translate.append(min(tree_quality(lambda x, w=w: tree_mul(w, x), t) for t in ball))
    return {
        "rows": rows,
        "truncation": min(rows.values()),
        "translate_max": max(translate),
        "translate_count": len(translate),
    }


def self_test() -> None:
    """Check the oracles against hand values; raise AssertionError on a mismatch."""
    assert abs(gaussian_mean_quality(0.5, 4, 1.0) - 0.6826894921370859) < 1e-15
    assert abs(exponential_min_quality(0.25, 2, 1.0) - (1.0 - math.exp(-1.0))) < 1e-15
    atoms = [(Fraction(0), Fraction(1, 4)), (Fraction(1), Fraction(7, 20)), (Fraction(10), Fraction(2, 5))]
    assert window_subset(atoms, Fraction(3, 4))[0] == Fraction(3, 5)
    assert recovery_rule_quality(atoms, Fraction(3, 4), 2) == Fraction(21, 25)
    triangle = LinearLaw([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
    assert abs(triangle.best_window(0.5) - 0.75) < 1e-12
    uniform = CircleLaw([(0.0, 1.0), (1.0, 1.0)])
    assert abs(uniform.shifted_window(0.3, 0.1) - 0.2) < 1e-12
    assert abs(warped_quality(uniform, 0.7, 0.1, 0.25) - (unwarp(0.8, 0.25) - unwarp(0.6, 0.25))) < 1e-12
    assert tree_mul("abc", "cba") == "" and tree_mul("ab", "ca") == "abca"
    tables = tree_tables(4, translate_radius=2)
    assert tables["truncation"] == Fraction(2, 3) and tables["translate_max"] <= Fraction(1, 3)
    assert tables["rows"]["a"] == 1 and tables["rows"]["ab"] == Fraction(2, 3)


if __name__ == "__main__":
    self_test()
    print("oracle self-test passed")
