"""Property test of the closed-form core against 50-digit arithmetic.

F(x) and 1 - F(x) from ``spectral._cdf_and_tail`` are compared with the
closed form evaluated in mpmath over log-uniform x in [1e-300, 1e300],
plus 0 and inf.  The working precision grows as x shrinks, to cover the
cancellation of the closed form near 0, so every reference value carries
50 significant digits.
"""

import math
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bidisk.spectral import _cdf_and_tail, cdf_closed_paper_prop, pdf_closed_paper

# relative tolerances set from the rounding analysis: just above the series
# cut F = 1 - (1 - F) inherits the ~6/u^4 cancellation of the closed form
# (u = 1/4: ~1.5e3 ulp), while 1 - F loses at most ~2/u^2 ulp there
F_RTOL = 2e-12
TAIL_RTOL = 1e-13
# below the smallest normal double only absolute accuracy is meaningful
ABS_FLOOR = sys.float_info.min


def reference(x: float) -> tuple[float, float]:
    """F and 1 - F of the closed form in u^2 = s / (1 + s), s = (x/4)^2."""
    if x == 0.0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
    xm = mpmath.mpf(x)
    # the closed form cancels ~ 6 log10(4/x) digits as x -> 0
    extra = 8 * max(0, -int(mpmath.floor(mpmath.log10(xm))))
    with mpmath.workdps(50 + extra):
        s = (xm / 4) ** 2
        u2 = s / (1 + s)
        delta = 1 / (1 + s)
        y = mpmath.log1p(s)
        cdf = 2 / u2 - 1 - 2 * delta * y / u2**2
        tail = 2 * delta * (y - u2) / u2**2
        return float(cdf), float(tail)


log_uniform = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_uniform)
@example(0.0)
@example(math.inf)
@example(4.0 * 0.25 / math.sqrt(1.0 - 0.25**2))  # the series cut u = 1/4
def test_core_matches_fifty_digit_closed_form(x):
    cdf, tail = _cdf_and_tail(np.array([x]))
    ref_cdf, ref_tail = reference(x)
    assert math.isclose(cdf[0], ref_cdf, rel_tol=F_RTOL, abs_tol=ABS_FLOOR)
    assert math.isclose(tail[0], ref_tail, rel_tol=TAIL_RTOL, abs_tol=ABS_FLOOR)


def test_rescaled_candidates_far_out_match_fifty_digits():
    # spans the switch to the leading terms at x~ = 1e50 and the overflow
    # of x~^3 (~6e102) and x~^2 (~1.3e154)
    t = np.geomspace(1e20, 1e300, 57)
    prop, pdf = cdf_closed_paper_prop(t), pdf_closed_paper(t)
    with mpmath.workdps(50):
        for i, v in enumerate(t):
            tm = mpmath.mpf(float(v))
            ref_prop = -2 * mpmath.log1p(tm**2) / tm**2 + 1 / (1 + tm**2)
            ref_pdf = 4 * mpmath.log1p(tm**2) / tm**3 - (6 * tm**2 + 4) / (tm * (1 + tm**2) ** 2)
            assert math.isclose(prop[i], float(ref_prop), rel_tol=1e-14, abs_tol=ABS_FLOOR)
            assert math.isclose(pdf[i], float(ref_pdf), rel_tol=1e-14, abs_tol=ABS_FLOOR)
