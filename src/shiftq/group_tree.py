"""Word algebra and exact estimation on the trivalent tree.

The sample space is the group generated by three involutive letters a, b, c
with no further relations; elements are reduced words (no letter appears
twice in a row) and the empty word is the identity. Its Cayley graph is the
trivalent tree, and the graph distance plays the role the threshold plays on
the line: with a threshold below 1, success means guessing the shifted point
exactly.

Rules are one-sample estimators.Estimator objects: fn maps a 1-tuple of
reduced words to a word. Everything here is exact; qualities are Fractions.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .estimators import Estimator
from .util import EnumerationLimitError, common_denominator, lattice_ints

__all__ = [
    "GENERATORS",
    "IDENTITY",
    "reduce_word",
    "multiply",
    "inverse",
    "distance",
    "ball",
    "TreeDistribution",
    "standard_tree_distribution",
    "truncation_estimator",
    "left_translate_estimator",
    "right_translate_estimator",
    "table_estimator",
    "evaluate_tree_estimator",
    "exact_quality_tree",
    "quality_inf_ball",
]

GENERATORS = "abc"
IDENTITY = ""

_BALL_CAP = 1_000_000


_NOT_A_LETTER = re.compile(f"[^{GENERATORS}]")
_REPEATED_LETTER = re.compile(r"(.)\1")


def _check_word(w: str) -> str:
    """w itself when it is a reduced word; raises what reduce_word raises on a stray letter.

    Two scans and no rebuilt word: the first letter outside GENERATORS, then
    any letter written twice in a row.
    """
    stray = _NOT_A_LETTER.search(w)
    if stray:
        raise ValueError(f"letter {stray.group()!r} is not one of {GENERATORS!r}")
    if _REPEATED_LETTER.search(w):
        raise ValueError(f"word {w!r} is not reduced")
    return w


def reduce_word(letters: str) -> str:
    """Cancel adjacent equal letters until none remain."""
    out: list[str] = []
    for ch in letters:
        if ch not in GENERATORS:
            raise ValueError(f"letter {ch!r} is not one of {GENERATORS!r}")
        if out and out[-1] == ch:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _mul(u: str, v: str) -> str:
    """Product of two words already known to be reduced; the result is reduced.

    Only the seam can cancel: the tail of u against the head of v, for as
    long as they mirror each other.
    """
    k = 0
    n = min(len(u), len(v))
    while k < n and u[-1 - k] == v[k]:
        k += 1
    return u[: len(u) - k] + v[k:]


def multiply(u: str, v: str) -> str:
    """Concatenate two reduced words and cancel across the seam."""
    return _mul(_check_word(u), _check_word(v))


def inverse(u: str) -> str:
    """Each letter is its own inverse, so reversal inverts the word."""
    return _check_word(u)[::-1]


def distance(u: str, v: str) -> int:
    """Graph distance on the tree: length of u^-1 v."""
    return len(_mul(inverse(u), _check_word(v)))


@functools.cache
def ball(radius: int) -> tuple[str, ...]:
    """All reduced words of length at most radius, in breadth-first order.

    Each radius is built once per process; the result is a tuple, so the
    cached ball cannot be changed by a caller. The cap keeps the cache small:
    radii past it raise, and errors are not cached.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    words = [IDENTITY]
    frontier = [IDENTITY]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for ch in GENERATORS:
                if not w or w[-1] != ch:
                    nxt.append(w + ch)
        words.extend(nxt)
        frontier = nxt
        if len(words) > _BALL_CAP:
            raise EnumerationLimitError(f"ball exceeds {_BALL_CAP} words")
    return tuple(words)


@dataclass(frozen=True)
class TreeDistribution:
    """Finitely supported law on reduced words; masses are exact Fractions."""

    atoms: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        atoms = tuple((w, Fraction(m)) for w, m in self.atoms)
        words = [w for w, _ in atoms]
        for w in words:
            _check_word(w)
        if len(set(words)) != len(words):
            raise ValueError("atom words must be distinct")
        if any(m <= 0 for _, m in atoms):
            raise ValueError("atom masses must be positive")
        total = sum(m for _, m in atoms)
        if total != 1:
            raise ValueError(f"atom masses sum to {total}, expected 1")
        object.__setattr__(self, "atoms", atoms)

    @functools.cached_property
    def _numerators(self) -> tuple[tuple[tuple[str, int], ...], int]:
        """((word, M * mass), ...) and M, the lcm of the mass denominators."""
        words, masses = zip(*self.atoms)
        scale = common_denominator(masses)
        return tuple(zip(words, lattice_ints(masses, scale))), scale


def standard_tree_distribution() -> TreeDistribution:
    """Equal mass 1/3 on each single-letter word."""
    third = Fraction(1, 3)
    return TreeDistribution(atoms=(("a", third), ("b", third), ("c", third)))


def truncation_estimator() -> Estimator:
    """Drop the last letter; the empty word maps to its neighbour "a"."""
    return Estimator(label="truncation", fn=lambda x: x[0][:-1] if x[0] else "a", n=1)


def left_translate_estimator(word: str) -> Estimator:
    """x -> x * word, the general form of a rule constant on left cosets."""
    _check_word(word)
    return Estimator(label=f"left_translate({word})", fn=lambda x: _mul(x[0], word), n=1)


def right_translate_estimator(word: str) -> Estimator:
    """x -> word * x."""
    _check_word(word)
    return Estimator(label=f"right_translate({word})", fn=lambda x: _mul(word, x[0]), n=1)


def table_estimator(table: Mapping[str, str], default: str = IDENTITY) -> Estimator:
    """Look x up in a finite table, with a default for unmapped words.

    Every key and guess is checked to be reduced when the rule is built: one
    that is not could never match a shift. The rule keeps its own copy.
    """
    table = dict(table)
    for word in (*table, *table.values(), default):
        _check_word(word)
    return Estimator(label="table", fn=lambda x: table.get(x[0], default), n=1)


def evaluate_tree_estimator(e: Estimator, x: str) -> str:
    return e.evaluate((_check_word(x),))


def exact_quality_tree(e: Estimator, mu: TreeDistribution, theta: str, delta: Fraction) -> Fraction:
    """Exact success probability at one shift.

    e is a one-sample rule on reduced words, as the builders above make; its
    words were checked when it was built. delta must lie strictly between 0
    and 1; distances are integers, so success is exact equality with the
    shift. The masses of the atoms that hit are added as integer numerators
    over M, the lcm of their denominators (cached on mu), and divided once.
    """
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    _check_word(theta)
    atoms, scale = mu._numerators
    total = 0
    for z, m in atoms:
        if e.fn((_mul(theta, z),)) == theta:
            total += m
    return Fraction(total, scale)


def quality_inf_ball(
    e: Estimator, mu: TreeDistribution, delta: Fraction, radius: int
) -> tuple[Fraction, str]:
    """Minimum exact quality over all shifts in the radius ball, and its first shift.

    For the truncation and translate rules the per-shift quality depends
    only on the shift's length and last letter, so the ball minimum for
    radius >= 2 already equals the infimum over the whole group.

    The sweep goes through the ball in breadth-first order and stops at the
    first shift whose quality is 0. A quality is a sum of positive atom
    masses, so no later shift can go lower, and since only a strictly lower
    quality replaces the minimiser, the result is the one the full sweep
    gives.
    """
    if radius < 2:
        raise ValueError("radius must be at least 2")
    best_q = None
    best_theta = IDENTITY
    for theta in ball(radius):
        q = exact_quality_tree(e, mu, theta, delta)
        if best_q is None or q < best_q:
            best_q = q
            best_theta = theta
            if q == 0:
                break
    return best_q, best_theta
