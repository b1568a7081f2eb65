"""The CSV kernel of cli: every float it writes is repr's bytes.

cli._csv_rows forms the shortest round-trip digits of whole columns in
numpy (cli._shortest) and leaves to repr the values it cannot certify.
These tests compare its rows with repr where the digits or the layout
change: powers of two and ten and their neighbours, the switches between
repr's positional and exponent forms, the ends of the kernel's range, the
special values, random bit patterns and any floats hypothesis draws.  And
they check that the kernel, not repr, formats nearly all of a sample and a
spectrum table.
"""

import math
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from bidisk import cli
from bidisk.spectral import TABLE_COLUMNS, SpectralTable, WeightSpec, mc_sample


def assert_like_repr(values):
    """The CSV rows of a column of values are repr's, one a line.  Two
    values are appended so that the column is never one bit pattern, which
    takes another path."""
    x = np.concatenate([np.asarray(values, dtype=np.float64), [0.5, 1.5]])
    got = cli._csv_rows([x], 0, len(x)).split("\r\n")
    want = [repr(v) for v in x.tolist()] + [""]
    assert got == want, [(g, w) for g, w in zip(got, want) if g != w][:5]


def neighbours(x, ulps=1):
    """x and the floats up to `ulps` steps below and above it."""
    x = np.asarray(x, dtype=np.float64)
    near = [x]
    lo = hi = x
    with np.errstate(over="ignore"):
        for _ in range(ulps):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            near += [lo, hi]
    return np.concatenate(near)


def test_powers_of_two_and_their_neighbours():
    # every binade's edge, where the lower half-gap of the rounding interval
    # is half the upper one, subnormals included
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_like_repr(neighbours(np.concatenate([powers, -powers])))


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
    with np.errstate(over="ignore"):
        scaled = np.concatenate([tens, tens * 5, tens * 9.999999999999999])
    scaled = scaled[np.isfinite(scaled)]
    assert_like_repr(neighbours(np.concatenate([scaled, -scaled])))


def test_integers_around_two_to_the_53_and_1e16():
    steps = np.arange(-300.0, 301.0)
    values = np.concatenate([2.0**53 + steps, 2.0**54 + 2 * steps, 1e16 + 2 * steps, 1e17 + 16 * steps])
    assert_like_repr(np.concatenate([values, -values]))


@pytest.mark.parametrize(
    "edge", [1e-4, 1e-5, 9999999999999998.0, 1e16, cli._FAST[0], cli._FAST[1]], ids=str
)
def test_form_switches_and_range_ends(edge):
    # repr switches to the exponent form below 1e-4 and from 1e16 on; the
    # kernel hands values outside _FAST to repr
    assert_like_repr(neighbours([edge, -edge], ulps=3))


def test_special_values_in_both_signs():
    nan = math.nan
    values = [0.0, -0.0, nan, -nan, math.copysign(nan, -1.0), math.inf, -math.inf]
    values += [5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, sys.float_info.min]
    assert_like_repr(values)


def test_random_bit_patterns():
    bits = np.random.default_rng(20101).integers(0, 2**64, 200000, dtype=np.uint64, endpoint=False)
    assert_like_repr(bits.view(np.float64))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40))
def test_any_floats_match_repr(values):
    assert_like_repr(values)


def repr_share(column) -> float:
    """The share of a column's values that the kernel leaves to repr."""
    ok = cli._shortest(np.asarray(column, dtype=np.float64))[0]
    return float(np.mean(~ok))


def test_kernel_formats_nearly_all_of_a_sample_and_a_table():
    # a kernel that sent every value to repr would keep the bytes and lose
    # the speed; in practice repr takes a few values in a million
    batch = mc_sample(200000, 7, WeightSpec("exp"))
    assert repr_share(batch.omega) <= 1e-4
    assert repr_share(batch.weight) <= 1e-4
    table = SpectralTable.build(np.geomspace(1e-3, 1e4, 10000))
    for name in TABLE_COLUMNS:
        assert repr_share(getattr(table, name)) <= 1e-4, name
