import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import shiftq
from shiftq.util import (
    BOUNDARY_TOL,
    is_exact,
    number_repr,
    parse_number,
    sum_columns,
    within_threshold,
    within_threshold_array,
)


def test_exact_comparison_has_no_tolerance_band():
    assert not within_threshold(Fraction(1, 2), Fraction(1, 2), closed=False)
    assert within_threshold(Fraction(1, 2), Fraction(1, 2), closed=True)
    assert within_threshold(Fraction(1, 3), Fraction(1, 2), closed=False)
    # Exact values a hair below the threshold succeed even in the open case.
    assert within_threshold(Fraction(10**15 - 1, 10**15), 1, closed=False)


def test_float_boundary_band_is_decided_by_the_flag():
    assert not within_threshold(0.5, 0.5, closed=False)
    assert within_threshold(0.5, 0.5, closed=True)
    # Inside the band around the threshold the flag still decides.
    assert not within_threshold(0.5 - BOUNDARY_TOL / 2, 0.5, closed=False)
    assert within_threshold(0.5 - BOUNDARY_TOL / 2, 0.5, closed=True)
    # Clearly inside or outside is unambiguous.
    assert within_threshold(0.4, 0.5)
    assert not within_threshold(0.6, 0.5, closed=True)


def test_vectorized_threshold_matches_scalar():
    d = np.array([0.1, 0.5, 0.5 + 1e-14, 0.9])
    for closed in (False, True):
        got = within_threshold_array(d, 0.5, closed)
        want = [within_threshold(float(x), 0.5, closed) for x in d]
        assert got.tolist() == want


def _two_step_threshold(d, t, closed):
    """The threshold test as it stood before the one-subtraction form: a band test, then d < t."""
    d = np.asarray(d, dtype=float)
    return np.where(np.abs(d - t) <= BOUNDARY_TOL, closed, d < t)


def _threshold_edges(t: float) -> list[float]:
    """t, t - BOUNDARY_TOL and t + BOUNDARY_TOL with a float step either side, and the special values."""
    centres = [t, t - BOUNDARY_TOL, t + BOUNDARY_TOL]
    steps = [float(np.nextafter(c, side)) for c in centres for side in (-np.inf, np.inf)]
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.nan, np.inf, -np.inf]
    return centres + steps + special


@given(
    t=st.floats(allow_nan=False, allow_infinity=False, min_value=0.0, max_value=1e6)
    | st.sampled_from([0.0, 5e-324, 1e-310, BOUNDARY_TOL, 0.5, 1e300, np.inf, np.nan]),
    extra=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20),
    closed=st.booleans(),
)
def test_threshold_predicate_equals_the_band_test_at_every_input(t, extra, closed):
    d = np.array(_threshold_edges(t) + extra)
    with np.errstate(invalid="ignore"):  # inf - inf
        got = within_threshold_array(d, t, closed)
        want = _two_step_threshold(d, t, closed)
    assert got.dtype == bool and got.shape == d.shape
    assert got.tolist() == want.tolist()
    assert got.tolist() == [within_threshold(float(v), t, closed) for v in d]


@pytest.mark.parametrize("n", [*range(1, 41), 127, 128, 129, 200, 300])
def test_column_helpers_equal_numpy_row_reductions_bit_for_bit(n):
    # Magnitudes over 24 decades and both signs: any other summation order
    # than numpy's pairwise one changes the low bits of some row.
    rng = np.random.default_rng(n)
    x = rng.standard_normal((400, n)) * 10.0 ** rng.integers(-12, 12, (400, n))
    x[0] = -0.0  # numpy's sum starts from +0.0 and returns it here
    x[1, ::2] = 0.0
    x[1, 1::2] = -0.0
    cols = x.T

    def bits(a):
        return np.asarray(a, dtype=float).view(np.int64).tolist()

    assert bits(sum_columns(cols)) == bits(x.sum(axis=1))
    assert bits(sum_columns(cols) / n) == bits(x.mean(axis=1))
    assert bits(reduce(np.minimum, cols)) == bits(x.min(axis=1))
    assert bits(reduce(np.maximum, cols)) == bits(x.max(axis=1))
    assert bits(sum_columns(np.ascontiguousarray(cols))) == bits(x.sum(axis=1))


def test_parse_number():
    assert parse_number("3/4") == Fraction(3, 4)
    assert parse_number("0.25") == Fraction(1, 4)
    assert parse_number(0.25) == 0.25 and isinstance(parse_number(0.25), float)
    assert parse_number(3) == 3 and isinstance(parse_number(3), int)
    with pytest.raises(TypeError):
        parse_number(True)
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_number("not a number")


def test_number_repr_round_trips():
    assert number_repr(Fraction(3, 4)) == "3/4"
    assert parse_number(number_repr(Fraction(-7, 3))) == Fraction(-7, 3)
    assert float(number_repr(0.1)) == 0.1
    assert number_repr(5) == "5"


def test_is_exact():
    assert is_exact(1, Fraction(1, 2))
    assert not is_exact(1, 0.5)
    assert is_exact()


@given(st.fractions(), st.fractions(min_value=0))
def test_exact_threshold_agrees_with_direct_comparison(d, t):
    assert within_threshold(d, t, closed=False) == (d < t)
    assert within_threshold(d, t, closed=True) == (d <= t)


@pytest.mark.parametrize(
    "hide",
    [
        "sys.modules['numpy'] = None",
        "sys.path[:] = [p for p in sys.path if not os.path.isdir(os.path.join(p, 'numpy'))]",
    ],
    ids=["none-in-sys-modules", "no-spec"],
)
def test_missing_numpy_fails_when_shiftq_is_imported(hide):
    # numpy loads on first use, but a missing one must still fail the import, not a later call.
    code = (
        "import importlib.util, os, sys\n"
        f"{hide}\n"
        "assert importlib.util.find_spec('numpy') is None\n"
        "try:\n"
        "    import shiftq\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name, exc)\n"
        "else:\n"
        "    print('imported')\n"
    )
    src = os.path.dirname(os.path.dirname(shiftq.__file__))
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout == "numpy No module named 'numpy'\n"
