"""Property tests of the closed-form core and the quadrature kernel
against 50-digit arithmetic.

F(x) and 1 - F(x) from ``spectral._cdf_and_tail``, and F, 1 - F, the
density and the error estimates of the quadrature kernel, are compared with
the closed form evaluated in mpmath (reference.cdf_tail_pdf) over
log-uniform x in [1e-300, 1e300], plus 0, the switch x = 8 and inf.  The
sampler's rotation numbers are checked the same way, at the double points
it draws.  The tolerances are those of the export table.
"""

import math
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bidisk.disk import BidiskPoint, schwarz_distance
from bidisk.moment import omega_of_pair
from bidisk.spectral import (
    _CHUNK,
    _cdf_and_tail,
    _cdf_tail_quadrature,
    _panel_count,
    _quarter_square_log,
    _stream_sizes,
    mc_sample,
    cdf_closed_paper_prop,
    cdf_quadrature,
    cdf_quadrature_batch,
    one_minus_cdf,
    pdf_closed_paper,
    pdf_quadrature,
)
from reference import cdf_tail_pdf, rescaled_candidates, sampled_omega
from test_exports import EXPORTS

# relative tolerances set from the rounding analysis: just above the series
# cut F = 1 - (1 - F) inherits the ~6/u^4 cancellation of the closed form
# (u = 1/4: ~1.5e3 ulp), while 1 - F loses at most ~2/u^2 ulp there
F_RTOL = EXPORTS["cdf_closed_derived"].tol["relative (F)"]
TAIL_RTOL = EXPORTS["cdf_closed_derived"].tol["relative (1 - F)"]
PROP_RTOL = EXPORTS["cdf_closed_paper_prop"].tol["relative (x~ >= 1e20)"]
PAPER_PDF_RTOL = EXPORTS["pdf_closed_paper"].tol["relative (x~ >= 1e20)"]
# below the smallest normal double only absolute accuracy is meaningful
ABS_FLOOR = sys.float_info.min


log_uniform = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_uniform)
@example(0.0)
@example(math.inf)
@example(4.0 * 0.25 / math.sqrt(1.0 - 0.25**2))  # the series cut u = 1/4
def test_core_matches_fifty_digit_closed_form(x):
    cdf, tail = _cdf_and_tail(np.array([x]))
    ref_cdf, ref_tail, _ = cdf_tail_pdf(x)
    assert math.isclose(cdf[0], ref_cdf, rel_tol=F_RTOL, abs_tol=ABS_FLOOR)
    assert math.isclose(tail[0], ref_tail, rel_tol=TAIL_RTOL, abs_tol=ABS_FLOOR)


def test_rescaled_candidates_far_out_match_fifty_digits():
    # spans the switch to the leading terms at x~ = 1e50 and the overflow
    # of x~^3 (~6e102) and x~^2 (~1.3e154)
    t = np.geomspace(1e20, 1e300, 57)
    prop, pdf = cdf_closed_paper_prop(t), pdf_closed_paper(t)
    for i, v in enumerate(t):
        ref_prop, ref_pdf = rescaled_candidates(float(v))
        assert math.isclose(prop[i], ref_prop, rel_tol=PROP_RTOL, abs_tol=ABS_FLOOR)
        assert math.isclose(pdf[i], ref_pdf, rel_tol=PAPER_PDF_RTOL, abs_tol=ABS_FLOOR)


# the quadrature kernel: 1 - F to 1e-13 relative wherever the tail is above
# 1e-300, and the density, from its own integral, to 1e-13 relative wherever
# it is a normal double
KERNEL_TAIL_RTOL = EXPORTS["cdf_quadrature"].tol["relative (1 - F, where it is >= 1e-300)"]
KERNEL_PDF_RTOL = EXPORTS["pdf_quadrature"].tol["relative (where f is a normal double)"]
TAIL_FLOOR = 1e-300
EPS = sys.float_info.epsilon


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_uniform)
@example(0.0)
@example(8.0)  # the switch from F to 1 - F
@example(math.inf)
@example(1e-200)  # (x/4)^2 underflows; f = x/24 is a normal double
@example(4.0 * math.sqrt(math.expm1(4.0)))  # Y = 4: the widest single panel
def test_kernel_matches_fifty_digit_closed_form(x):
    cdf, tail, err = (float(v) for v in _cdf_tail_quadrature(x))
    pdf, pdf_err = (float(v) for v in _cdf_tail_quadrature(x, density=True))
    # the density pass returns f and its estimate alone: pdf_quadrature's f
    assert pdf == pdf_quadrature(x)
    assert [cdf, tail] == [cdf_quadrature(x), one_minus_cdf(x)]
    ref_cdf, ref_tail, ref_pdf = cdf_tail_pdf(x, exact=True)
    if ref_tail >= TAIL_FLOOR:
        assert abs(tail - ref_tail) <= KERNEL_TAIL_RTOL * ref_tail
    else:
        assert abs(tail - ref_tail) <= TAIL_FLOOR
    assert cdf <= 1.0 and tail >= 0.0
    assert pdf >= 0.0
    if ref_pdf >= ABS_FLOOR:
        assert abs(pdf - ref_pdf) <= KERNEL_PDF_RTOL * ref_pdf
    assert abs(pdf - ref_pdf) <= pdf_err + ABS_FLOOR
    # the estimate covers the integrated value (F up to x = 8, 1 - F above);
    # the complement adds one rounding
    if x <= 8.0:
        (value, ref), (other, ref_other) = (cdf, ref_cdf), (tail, ref_tail)
    else:
        (value, ref), (other, ref_other) = (tail, ref_tail), (cdf, ref_cdf)
    assert abs(value - ref) <= err + ABS_FLOOR
    assert abs(other - ref_other) <= err + EPS * abs(other) + ABS_FLOOR


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(log_uniform | st.sampled_from([0.0, 8.0, math.inf]), min_size=1, max_size=12))
def test_kernel_array_call_equals_scalar_calls(xs):
    arr = np.array(xs)
    for fn in (cdf_quadrature, one_minus_cdf, pdf_quadrature):
        scalars = [fn(v) for v in xs]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(fn(arr), scalars)
    assert np.array_equal(cdf_quadrature_batch(arr), [cdf_quadrature_batch(v) for v in xs])
    for density in (False, True):
        assert np.array_equal(
            np.stack(_cdf_tail_quadrature(arr, density)),
            np.array([_cdf_tail_quadrature(v, density) for v in xs]).T,
        )


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_kernel_value_does_not_depend_on_its_neighbours_at_scale():
    # sparse over the whole double range, dense where the panel counts k <= 16
    # repeat by the thousand, so a batch of one k runs over more than one
    # chunk, k >= 8 included, with and without the density
    xs = np.concatenate(
        (
            np.geomspace(1e-300, 1e300, 4001),
            np.geomspace(1.0, 1e14, 3 * _CHUNK // 15),
            [0.0, 8.0, math.inf],
        )
    )
    k = _panel_count(_quarter_square_log(xs[xs < math.inf])[1])
    for kv in (8, 12):
        assert np.sum(k == kv) > _CHUNK // (15 * kv)
    rng = np.random.default_rng(20261018)
    perm = rng.permutation(xs.size)
    subset = np.sort(rng.choice(xs.size, xs.size // 3, replace=False))
    for density in (False, True):
        ref = np.stack(_cdf_tail_quadrature(xs, density))
        got = np.stack(_cdf_tail_quadrature(xs[perm], density))
        assert np.array_equal(bits(got), bits(ref[:, perm]))
        got = np.stack(_cdf_tail_quadrature(xs[subset], density))
        assert np.array_equal(bits(got), bits(ref[:, subset]))


def test_sampled_omegas_match_fifty_digits_at_the_drawn_points():
    seed, n = 7, 16 * 2000
    batch = mc_sample(n, seed)
    m = _stream_sizes(n)[0]
    # stream 0's four draws, in mc_sample's order
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(16)[0])
    rz = np.sqrt(rng.random(m))
    az = rng.uniform(0.0, 2.0 * np.pi, m)
    rw = np.sqrt(rng.random(m))
    aw = rng.uniform(0.0, 2.0 * np.pi, m)
    omega = batch.omega[:m]
    rtol = EXPORTS["mc_sample"].tol["relative (omega)"]
    with mpmath.workdps(50):  # each difference is taken at the reference's precision
        for i in range(m):
            ref = sampled_omega(rz[i], az[i], rw[i], aw[i])
            assert abs(omega[i] - ref) <= rtol * ref, i
    # the checked draws come close to the boundary, where 1 - q cancels
    assert np.max(np.maximum(rz, rw)) > 1.0 - 1e-3
    z, w = rz * np.exp(1j * az), rw * np.exp(1j * aw)
    far = 1.0 - schwarz_distance(z, w) > 1e-3
    assert np.sum(far) > m // 2
    np.testing.assert_allclose(omega[far], omega_of_pair(BidiskPoint(z, w))[far], rtol=1e-12)
