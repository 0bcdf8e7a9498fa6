from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from shiftq import FiniteAtoms, MCConfig

settings.register_profile(
    "repo",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")

# Marks of a Golomb ruler: every subset has distinct pairwise distances, as
# the shift-recovery rule needs.
GOLOMB = (0, 1, 4, 10, 12, 17)

# Critical value for the Kolmogorov-Smirnov statistic at alpha ~ 0.01.
KS_CRIT = 1.63


@pytest.fixture
def example_atoms() -> FiniteAtoms:
    """Three-atom law with masses 1/4, 7/20, 2/5; window bound 3/5 at delta 3/4."""
    return FiniteAtoms(
        atoms=(
            (Fraction(0), Fraction(1, 4)),
            (Fraction(1), Fraction(7, 20)),
            (Fraction(10), Fraction(2, 5)),
        )
    )


@pytest.fixture
def mc_fast() -> MCConfig:
    return MCConfig(trials=20_000, seed=101)


@pytest.fixture
def mc_mid() -> MCConfig:
    return MCConfig(trials=100_000, seed=202)


def random_rational_atoms(rng: np.random.Generator, r: int) -> FiniteAtoms:
    """Random exact instance: locations on the grid i/8, masses with denominator 64."""
    locs = sorted(rng.choice(np.arange(0, 48), size=r, replace=False).tolist())
    weights = rng.integers(1, 12, size=r)
    total = int(weights.sum())
    masses = [Fraction(int(w), total) for w in weights]
    masses[-1] = 1 - sum(masses[:-1])
    return FiniteAtoms(
        atoms=tuple((Fraction(int(z), 8), m) for z, m in zip(locs, masses))
    )
