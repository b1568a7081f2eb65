"""Spectral distribution: quadrature routes, closed forms, moments,
Monte-Carlo sampling, and reweighting.

Reference values marked "frozen" were computed with independent
high-precision quadrature (40-digit arithmetic) of the defining fiber
integral and are pinned here as constants; the composite-Simpson oracle
embedded below provides a second in-test route to the same integral.
"""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from bidisk.spectral import (
    MEAN_CLAIMED,
    MOMENT_CUTS,
    UNIFORM_WEIGHT,
    SpectralTable,
    WeightSpec,
    cdf_closed_derived,
    cdf_closed_paper_prop,
    cdf_closed_paper_u,
    cdf_quadrature,
    cdf_quadrature_batch,
    discrepancy_ledger,
    ks_distance,
    mc_mean,
    mc_sample,
    mean_quadrature,
    one_minus_cdf,
    pdf_closed_paper,
    pdf_quadrature,
    reweight_density,
    rho_of_omega,
    second_moment_growth,
    second_moment_tail_model,
    series_coefficient,
    truncated_second_moment,
    weighted_mean,
    weighted_truncated_second_moment,
)
from bidisk.spectral import (
    _KS_BLOCK,
    SampleBatch,
    _cached_distribution,
    _cdf_and_tail,
    _mean_tail_quadrature,
    _panel_count,
    _quarter_square_log,
    _sample_stream,
    _schwarz_radius,
)

# frozen distribution values F(x)
CDF_REFERENCE = {
    0.1: 0.00020826825357056118,
    1.0: 0.020205731859445636,
    4.0: 0.22741127776021876,
    10.0: 0.58465225475672424,
    100.0: 0.98256110933857965,
    2.3094010767585031: 0.095630261157257741,  # the point with u = 1/2
}

# frozen derived closed form in the Schwarz radius u
CDF_DERIVED_REFERENCE = {
    0.2: 0.013606575693844535,
    0.3: 0.03142757559762779,
    0.7: 0.22111018605147473,
    0.9: 0.5072734970397389,
    0.99: 0.8783150944166245,
}

# frozen density values f(x)
PDF_REFERENCE = {
    0.001: 4.1666664062500146e-05,
    1.0: 0.03920127631038753,
    5.0: 0.074466316994109732,
    10.0: 0.039355004089848966,
    100.0: 0.00028543720270640761,
}

MEAN_REFERENCE = 16.755160819145564
E2_REFERENCE = {1e2: 366.923238235126, 1e3: 1361.016011413405, 1e4: 3032.964367872835}

# frozen exp-weighted distribution
Z_EXP_REFERENCE = 0.1167208520395281
CDF_EXP_REFERENCE = {
    1.0: 0.12541383062665,
    2.0: 0.34578871371386,
    4.0: 0.68151968385194,
    8.0: 0.91617158396828,
    16.0: 0.98705873289173,
    64.0: 0.99986687479549,
}
MEAN_EXP_REFERENCE = 3.7215727845173
E2_GAUSS_PLATEAU = 4.301216426817734


def simpson_cdf(x: float, n: int = 4001) -> float:
    # independent in-test oracle: composite Simpson on the fiber areas
    u = x / math.sqrt(16.0 + x * x)
    s = np.linspace(0.0, 1.0, n)
    r = u * (1.0 - s**2) / (1.0 - (s * u) ** 2)
    y = 2.0 * r * r * s
    h = s[1] - s[0]
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


# ---------------------------------------------------------------------------
# parametrization and quadrature routes


def test_schwarz_threshold_huge_argument():
    # the slice root is taken by hypot, so x^2 never overflows
    from bidisk.moment import mu_slice_invert

    for x in (1e154, 1e200, 1e300, 1.7e308):
        assert abs(mu_slice_invert(x) - 1.0) < 1e-15
        assert abs(_schwarz_radius(x) - 1.0) < 1e-15


def test_rho_of_omega_matches_slice_distance():
    from bidisk.disk import poincare_distance
    from bidisk.moment import mu_slice_invert

    for x in (0.5, 2.0, 10.0, 200.0):
        t = mu_slice_invert(x)
        assert abs(rho_of_omega(x) - poincare_distance(t, -t)) < 1e-12


@pytest.mark.parametrize("omega", [math.nan, -1.0, -math.inf, [1.0, math.nan]])
def test_rho_of_omega_rejects_nan_and_negative(omega):
    with pytest.raises(ValueError):
        rho_of_omega(omega)


def test_cdf_quadrature_frozen_values():
    for x, ref in CDF_REFERENCE.items():
        assert abs(cdf_quadrature(x) - ref) < 1e-12


def test_cdf_quadrature_vs_embedded_simpson():
    for x in (0.5, 2.3094010767585031, 10.0):
        assert abs(cdf_quadrature(x) - simpson_cdf(x)) < 1e-10


def test_cdf_quadrature_edges():
    assert cdf_quadrature(0.0) == 0.0
    with pytest.raises(ValueError):
        cdf_quadrature(-1.0)
    assert cdf_quadrature(1e6) > 1.0 - 1e-4


def test_cdf_batch_matches_scalar():
    xs = np.geomspace(1e-3, 1e5, 40)
    batch = cdf_quadrature_batch(xs)
    scalar = np.array([cdf_quadrature(float(v)) for v in xs])
    assert np.max(np.abs(batch - scalar)) < 1e-9


def test_cdf_batch_monotone_and_bounded():
    xs = np.geomspace(1e-3, 1e6, 200)
    f = cdf_quadrature_batch(xs)
    assert np.all(np.diff(f) > 0.0)
    assert f[0] > 0.0 and f[-1] < 1.0
    assert np.array_equal(cdf_quadrature_batch([]), np.array([]))


def test_cdf_batch_extreme_inputs():
    # F = x^2/48 to double precision for tiny x; below x ~ 1e-154 it is
    # itself below the smallest normal double
    tiny = np.array([1e-150, 1e-100, 1e-80, 1e-77, 1e-50])
    assert np.max(np.abs(cdf_quadrature_batch(tiny) / (tiny * tiny / 48.0) - 1.0)) < 1e-12
    assert np.all(cdf_quadrature_batch([1e-300, 1e-200]) < 1e-300)
    huge = np.array([1e10, 1e155, 1e200, 1e300, 1.7e308])
    assert np.max(np.abs(cdf_quadrature_batch(huge) - 1.0)) < 1e-12
    assert np.array_equal(cdf_quadrature_batch([0.0, np.inf]), [0.0, 1.0])


def test_cdf_batch_rejects_nan_and_negative():
    for bad in ([1.0, np.nan], [-1.0], [2.0, -1e-300]):
        with pytest.raises(ValueError):
            cdf_quadrature_batch(bad)


def test_closed_form_core_matches_quadrature_batch():
    xs = np.geomspace(1e-3, 1e5, 2000)
    cdf, tail = _cdf_and_tail(xs)
    assert np.max(np.abs(cdf - cdf_quadrature_batch(xs))) < 1e-13
    assert np.max(np.abs(cdf + tail - 1.0)) < 1e-15


def test_one_minus_cdf_complements_frozen_values():
    for x in (4.0, 10.0, 100.0):
        assert abs(one_minus_cdf(x) - (1.0 - CDF_REFERENCE[x])) < 1e-12


def test_one_minus_cdf_far_tail_keeps_relative_accuracy():
    v6 = one_minus_cdf(1e6)
    assert 0.0 < v6 < 1e-8
    # two-point consistency deep in the tail where 1 - F would cancel
    v7 = one_minus_cdf(1e7)
    assert 0.0 < v7 < v6
    assert abs(cdf_quadrature(1e6) + v6 - 1.0) < 1e-9
    assert one_minus_cdf(0.0) == 1.0
    # out to the largest exponents and inf, against 50-digit arithmetic;
    # below the smallest normal double only absolute accuracy is meaningful
    mpmath = pytest.importorskip("mpmath")
    for x in (1e8, 1e12, 1e154, 1e200, 1e300, math.inf):
        got = one_minus_cdf(x)
        if x == math.inf:
            assert got == 0.0
            continue
        with mpmath.workdps(50):
            s = (mpmath.mpf(x) / 4) ** 2
            ref = float(2 * ((1 + s) * mpmath.log1p(s) - s) / s**2)
        assert math.isclose(got, ref, rel_tol=1e-13, abs_tol=2.2250738585072014e-308)
        assert 0.0 <= got < v7


# ---------------------------------------------------------------------------
# closed forms


def test_cdf_closed_derived_frozen_values():
    for u, ref in CDF_DERIVED_REFERENCE.items():
        assert abs(cdf_closed_derived(u) - ref) < 1e-13


def test_cdf_closed_derived_matches_quadrature_everywhere():
    xs = np.geomspace(1e-2, 1e3, 100)
    sup = max(
        abs(cdf_closed_derived(_schwarz_radius(float(x))) - cdf_quadrature(float(x)))
        for x in xs
    )
    assert sup < 1e-8


def test_cdf_closed_derived_series_matches_direct_formula():
    # just below the cut the series branch must agree with the closed form
    for u in (0.2, 0.2499999):
        u2 = u * u
        direct = 2.0 / u2 - 1.0 + 2.0 * (1.0 - u2) * math.log1p(-u2) / (u2 * u2)
        assert abs(cdf_closed_derived(u) - direct) < 1e-12


def test_cdf_closed_derived_domain():
    assert cdf_closed_derived(0.0) == 0.0
    with pytest.raises(ValueError):
        cdf_closed_derived(1.0)
    with pytest.raises(ValueError):
        cdf_closed_derived(-0.1)


def test_cdf_closed_paper_u_frozen_value():
    assert abs(cdf_closed_paper_u(0.5) - 0.023907565289314592) < 1e-15


def test_cdf_closed_paper_u_is_u2_times_derived():
    for u in np.linspace(0.05, 0.95, 19):
        u = float(u)
        lhs = cdf_closed_paper_u(u)
        rhs = u * u * cdf_closed_derived(u)
        assert abs(lhs - rhs) < 1e-14


def test_cdf_closed_paper_u_disagrees_with_quadrature():
    # the transcribed u-form is NOT the distribution: 0.0239 vs 0.0956
    x_half = 4.0 * 0.5 / math.sqrt(0.75)
    assert abs(cdf_quadrature(x_half) - 0.0957) < 1e-3
    assert abs(cdf_quadrature(x_half) - cdf_closed_paper_u(0.5)) > 0.07


def test_cdf_closed_paper_prop_frozen_tail_value():
    got = cdf_closed_paper_prop(1e4)
    assert abs(got - (-3.584136151790473e-07)) < 1e-15 + 1e-9 * abs(got)


def test_cdf_closed_paper_prop_limits():
    assert cdf_closed_paper_prop(0.0) == -1.0
    assert abs(cdf_closed_paper_prop(1e-5) + 1.0) < 1e-12
    # tends to 0, not to the distribution-function limit 1
    assert abs(cdf_closed_paper_prop(1e8)) < 1e-7


def test_cdf_closed_paper_prop_is_paper_u_minus_one():
    for xt in (0.05, 0.3, 1.0, 3.0, 30.0):
        u = xt / math.sqrt(1.0 + xt * xt)
        assert abs(cdf_closed_paper_prop(xt) - (cdf_closed_paper_u(u) - 1.0)) < 1e-12


def test_pdf_closed_paper_leading_term():
    # (4/3) x~^3 near zero
    xt = 1e-3
    assert abs(pdf_closed_paper(xt) / ((4.0 / 3.0) * xt**3) - 1.0) < 1e-5
    assert pdf_closed_paper(0.0) == 0.0


def test_pdf_closed_paper_series_matches_direct_formula():
    for xt in (0.2, 0.2499999):
        z = xt * xt
        direct = 4.0 * math.log1p(z) / (xt * z) - (6.0 * z + 4.0) / (xt * (1.0 + z) ** 2)
        assert abs(pdf_closed_paper(xt) - direct) < 1e-12


def test_closed_forms_accept_arrays():
    u = np.linspace(0.0, 0.95, 39)  # spans the series cut at 1/4
    xt = np.concatenate(([0.0], np.geomspace(1e-3, 30.0, 40)))
    for fn, arg in (
        (cdf_closed_derived, u),
        (cdf_closed_paper_u, u),
        (cdf_closed_paper_prop, xt),
        (pdf_closed_paper, xt),
    ):
        vec = fn(arg)
        assert isinstance(vec, np.ndarray) and vec.shape == arg.shape
        scalars = [fn(float(v)) for v in arg]
        assert all(type(v) is float for v in scalars)
        np.testing.assert_allclose(vec, scalars, rtol=1e-15, atol=0.0)
    with pytest.raises(ValueError):
        cdf_closed_derived(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        cdf_closed_paper_u(np.array([np.nan]))
    with pytest.raises(ValueError):
        cdf_closed_paper_prop(np.array([1.0, -1e-3]))
    with pytest.raises(ValueError):
        pdf_closed_paper(np.array([-1.0]))


def test_series_coefficients_exact_fractions():
    assert series_coefficient(1) == 0.0
    assert series_coefficient(2) == 1.0 / 192.0
    assert series_coefficient(3) == -3.0 / 4096.0
    with pytest.raises(ValueError):
        series_coefficient(0)


@pytest.mark.parametrize("k", [1.5, math.inf, -math.inf, math.nan])
def test_series_coefficient_rejects_bad_index(k):
    with pytest.raises(ValueError):
        series_coefficient(k)


@pytest.mark.parametrize(
    "k", [270, 271, 10**6, 1e300, 10**400], ids=["270", "271", "1e6", "1e300", "10**400"]
)
def test_series_coefficient_huge_index_underflows_to_signed_zero(k):
    got = series_coefficient(k)
    assert got == 0.0 and math.copysign(1.0, got) == (-1.0 if int(k) % 2 else 1.0)


def test_series_coefficient_last_nonzero_index():
    # (1/4)^{2k-1} = 2^-1074 at k = 269, the smallest subnormal, times ~134
    got = series_coefficient(269)
    assert got < 0.0 and got == -0.5 * (269 * 268.0 / 270.0) * 4.0**-537
    assert series_coefficient(4.0) == series_coefficient(4)


def test_series_matches_rescaled_density():
    # sum_k c_k x^{2k-1} is the small-x expansion of pdf_closed_paper(x/4)/4
    x = 0.4
    acc = sum(series_coefficient(k) * x ** (2 * k - 1) for k in range(1, 40))
    assert abs(acc - pdf_closed_paper(x / 4.0) / 4.0) < 1e-15


# ---------------------------------------------------------------------------
# density by quadrature


def test_pdf_quadrature_frozen_values():
    for x, ref in PDF_REFERENCE.items():
        assert abs(pdf_quadrature(x) - ref) < 2e-8


def test_pdf_quadrature_vanishes_off_support():
    assert pdf_quadrature(0.0) == 0.0
    assert pdf_quadrature(-1.0) == 0.0
    # the array stencil agrees at 0, and the zero entry leaves the others alone
    batch = pdf_quadrature(np.array([0.0, 1.0]))
    assert batch[0] == 0.0
    assert batch[1] == pdf_quadrature(np.array([1.0]))[0]


def test_quadrature_views_at_extreme_arguments():
    tiny, huge = 5e-324, sys.float_info.max
    assert pdf_quadrature(tiny) == 0.0  # f = x/24 underflows
    assert pdf_quadrature(huge) == 0.0  # f ~ 128 log(x) / x^3 underflows
    assert pdf_quadrature(math.inf) == 0.0
    # (x/4)^2 underflows, but f = x/24 is a normal double
    assert pdf_quadrature(1e-200) == 1e-200 / 24.0
    assert one_minus_cdf(huge) == 0.0 and cdf_quadrature(huge) == 1.0
    for fn in (cdf_quadrature, one_minus_cdf, pdf_quadrature):
        assert type(fn(2.0)) is float
        with pytest.raises(ValueError):
            fn(math.nan)
        with pytest.raises(ValueError):
            fn(np.array([1.0, math.nan]))
    for fn in (cdf_quadrature, one_minus_cdf):
        with pytest.raises(ValueError):
            fn(-1e-300)


def test_pdf_quadrature_small_x_is_linear():
    # measured leading behavior f(x) ~ x/24, not the claimed cubic
    x = 1e-3
    assert abs(pdf_quadrature(x) * 24.0 / x - 1.0) < 1e-5


def test_pdf_is_derivative_of_cdf():
    for x in (1.0, 5.0, 10.0):
        h = 1e-4 * x
        fd = (cdf_quadrature(x + h) - cdf_quadrature(x - h)) / (2.0 * h)
        assert abs(fd - pdf_quadrature(x)) < 1e-6 * max(1.0, pdf_quadrature(x))


def test_pdf_batch_column_matches_scalar():
    xs = np.geomspace(0.1, 50.0, 12)
    table = SpectralTable.build(xs)
    scalar = np.array([pdf_quadrature(float(v)) for v in xs])
    assert np.array_equal(table.f_quad, scalar)
    assert np.array_equal(table.F_quad, cdf_quadrature_batch(xs))


def test_kernel_mean_panel_count_on_sampled_draws():
    # a timing-free guard of the kernel's cost on the criterion-1 draws:
    # panels of width <= 4/Y give 1.12 panels per point (width 1/Y: 2.53)
    omega = mc_sample(10**5, 20260814).omega
    assert np.mean(_panel_count(_quarter_square_log(omega)[1])) <= 1.2


# ---------------------------------------------------------------------------
# moments


def test_mean_quadrature_frozen_value():
    value, bound = mean_quadrature()
    assert abs(value - MEAN_REFERENCE) < 1e-6
    assert abs(value - MEAN_REFERENCE) <= bound
    assert bound < 1e-5


@pytest.mark.parametrize("rel_tol", [1e-7, 1e-8, 1e-9, 1e-10])
def test_mean_quadrature_bound_covers_exact_error(rel_tol):
    # 20 * 1e-8 is the tolerance mean_quadrature() uses
    value, bound = _mean_tail_quadrature(rel_tol * 20.0)
    assert abs(value - 16.0 * math.pi / 3.0) <= bound
    if rel_tol == 1e-8:
        assert (value, bound) == mean_quadrature()


def test_mean_disagrees_with_claimed_constant():
    value, _ = mean_quadrature()
    assert abs(value - MEAN_CLAIMED) > 10.0
    assert abs(MEAN_CLAIMED - 3.0 * math.pi / 2.0) == 0.0


def test_truncated_second_moment_frozen_values():
    for cut, ref in E2_REFERENCE.items():
        got = truncated_second_moment(cut)
        assert abs(got / ref - 1.0) < 1e-9
    assert truncated_second_moment(0.0) == 0.0


def exact_second_moment(cut: float) -> float:
    """E2(c) = 32 G(c^2/16) - c^2 (1 - F(c)) with
    G(T) = 1 - log(1+T)/T - log(1+T) - Li2(-T), in 50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        c = mpmath.mpf(float(cut))
        t = c * c / 16
        lg = mpmath.log1p(t)
        g = 1 - lg / t - lg - mpmath.polylog(2, -t)
        tail = 2 * ((1 + t) * lg - t) / t**2
        return float(32 * g - c * c * tail)


def test_truncated_second_moment_matches_exact_form():
    for cut in (1e2, 1e3, 1e4, 1e6):
        assert abs(truncated_second_moment(cut) / exact_second_moment(cut) - 1.0) <= 1e-10


def test_truncated_second_moment_on_log_spaced_cuts():
    # 56 cuts across [1e-3, 1e8]: 4.3e-9 relative at 1e8, the closest to the
    # bound; 3e-8 relative at 1e-3, where E2 ~ 1e-14 and the floor applies
    for cut in np.geomspace(1e-3, 1e8, 56):
        exact = exact_second_moment(cut)
        assert abs(truncated_second_moment(cut) - exact) <= max(1e-8 * exact, 1e-20)


@pytest.mark.parametrize("cut", [1.0000001e8, 1e12, 1e300, math.inf, math.nan])
def test_truncated_second_moment_rejects_cuts_it_cannot_resolve(cut):
    with pytest.raises(ValueError):
        truncated_second_moment(cut)


def test_second_moment_grows_like_log_squared():
    e2 = [truncated_second_moment(c) for c in (1e2, 1e3, 1e4)]
    assert e2[0] < e2[1] < e2[2]
    ratio = (e2[2] - e2[1]) / (e2[1] - e2[0])
    model_ratio, pure_ratio = second_moment_tail_model(1e2, 1e3, 1e4)
    # the one computation behind the ledger entry and `moments`
    assert MOMENT_CUTS == (1e2, 1e3, 1e4)
    assert second_moment_growth() == (e2, ratio, model_ratio, pure_ratio)
    assert abs(ratio / model_ratio - 1.0) < 0.01
    # the pure log^2 ratio alone is visibly off; the subleading term matters
    assert abs(model_ratio - 1.6832255363138722) < 1e-12
    assert abs(pure_ratio - 1.4) < 1e-12
    assert abs(ratio / pure_ratio - 1.0) > 0.15


# ---------------------------------------------------------------------------
# Monte-Carlo sampling


def test_mc_sample_is_deterministic():
    a = mc_sample(5000, seed=1729)
    b = mc_sample(5000, seed=1729)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.weight, b.weight)
    c = mc_sample(5000, seed=1730)
    assert not np.array_equal(a.omega, c.omega)


def test_mc_sample_stream_partition():
    batch = mc_sample(10007, seed=9, streams=16)
    assert len(batch.stream_sizes) == 16
    assert sum(batch.stream_sizes) == 10007
    assert np.all(batch.omega > 0.0)
    with pytest.raises(ValueError):
        mc_sample(0, seed=1)


@pytest.mark.parametrize("streams", [0, -3])
def test_mc_sample_rejects_nonpositive_streams(streams):
    with pytest.raises(ValueError, match="streams"):
        mc_sample(10, seed=1, streams=streams)


def test_mc_sample_caps_streams_at_n():
    assert mc_sample(3, seed=1, streams=16).stream_sizes == (1, 1, 1)


def test_mc_sample_weights_follow_spec():
    batch = mc_sample(2000, seed=12, weight=WeightSpec("exp"))
    expect = np.exp(-rho_of_omega(batch.omega))
    assert np.max(np.abs(batch.weight - expect)) < 1e-15


def test_weights_equal_their_direct_expressions_bit_for_bit():
    omega = mc_sample(5000, seed=13).omega
    rho = 2.0 * np.arcsinh(omega / 4.0)
    grid, values = (0.0, 2.0, 5.0, 40.0), (1.0, 0.5, 0.25, 0.0)
    expect = {
        "uniform": np.ones_like(omega),
        "exp": np.exp(-rho),
        "gauss": np.exp(-rho * rho),
        "table": np.interp(rho, np.asarray(grid), np.asarray(values)),
    }
    for kind, want in expect.items():
        spec = WeightSpec(kind, grid, values) if kind == "table" else WeightSpec(kind)
        assert np.array_equal(spec.weight_of_omega(omega), want)
        rho_in = rho.copy()
        assert np.array_equal(spec.weight_of_rho(rho_in), want)
        assert np.array_equal(rho_in, rho)  # the caller's array is left alone


@pytest.mark.parametrize("kind", ["uniform", "exp"])
def test_mc_sample_memory_is_the_draws_and_their_weights(kind):
    n = 2**20
    mc_sample(16, seed=8)  # numpy.random's first use allocates its own state
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mc_sample(n, seed=8, weight=WeightSpec(kind))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # omega and weight, plus a few kB of per-stream objects that do not grow
    # with n; computing rho and exp(-rho) out of place would add 8n bytes each
    assert peak - start <= 2 * 8 * n + 2**16


def test_ks_distance_synthetic_uniform():
    n = 1000
    batch = SampleBatch(
        omega=(np.arange(n) + 0.5) / n,
        weight=np.ones(n),
        seed=0,
        stream_sizes=(n,),
    )
    d = ks_distance(batch, lambda xs: xs)
    assert abs(d - 0.5 / n) < 1e-12
    # a cdf that is identically wrong gives the full distance
    assert ks_distance(batch, lambda xs: np.zeros_like(xs)) == pytest.approx(1.0)


def test_ks_distance_does_not_depend_on_the_order_of_ties():
    omega = np.array([0.3, 0.1, 0.3, 0.7, 0.1, 0.3, 0.9])
    # integer weights sum exactly in any order
    weight = np.array([1.0, 4.0, 2.0, 3.0, 5.0, 7.0, 6.0])

    def cdf(xs):
        return xs * xs

    # the collapsed empirical distribution: one jump per distinct omega
    ux, inverse = np.unique(omega, return_inverse=True)
    cum = np.cumsum(np.bincount(inverse, weights=weight)) / weight.sum()
    below = np.concatenate(([0.0], cum[:-1]))
    expect = max(np.max(cum - cdf(ux)), np.max(cdf(ux) - below))
    for perm in itertools.permutations(range(omega.size)):
        idx = list(perm)
        batch = SampleBatch(omega=omega[idx], weight=weight[idx], seed=0, stream_sizes=(7,))
        assert ks_distance(batch, cdf) == expect


def test_mc_sample_concatenates_its_streams():
    n, seed, streams = 10007, 9, 16  # 10007 = 16 * 625 + 7
    batch = mc_sample(n, seed=seed, streams=streams)
    sizes = [626] * 7 + [625] * 9
    assert batch.stream_sizes == tuple(sizes)
    children = np.random.SeedSequence(seed).spawn(streams)
    expect = np.concatenate([_sample_stream(sq, m) for sq, m in zip(children, sizes)])
    assert np.array_equal(batch.omega, expect)


def _ks_whole_array(batch, cdf):
    """ks_distance's statistic from one cdf call on all sorted points."""
    order = np.argsort(batch.omega)
    xs = batch.omega[order]
    cum = np.cumsum(batch.weight[order])
    cum /= cum[-1]
    fv = cdf(xs)
    cum_prev = np.concatenate(([0.0], cum[:-1]))
    return float(max(np.max(cum - fv), np.max(fv - cum_prev)))


def _tied_batch(n, seed):
    """Weighted draws with long runs of tied omegas and some zero weights."""
    rng = np.random.default_rng(seed)
    omega = rng.choice(mc_sample(max(2, n // 300), seed=seed).omega, size=n)
    weight = np.exp(-rho_of_omega(omega))
    weight[rng.random(n) < 0.1] = 0.0
    return SampleBatch(omega=omega, weight=weight, seed=seed, stream_sizes=(n,))


@pytest.mark.parametrize("n", [1, 1000, 3 * _KS_BLOCK + 17])
@pytest.mark.parametrize("route", ["quadrature", "reweighted"])
def test_ks_distance_blocks_equal_one_whole_array_call(n, route):
    batch = _tied_batch(n, seed=n)
    if n > _KS_BLOCK:
        xs = np.sort(batch.omega)
        # a run of ties straddles every block boundary
        assert all(xs[k - 1] == xs[k] for k in range(_KS_BLOCK, n, _KS_BLOCK))
    cdf = cdf_quadrature_batch if route == "quadrature" else _cached_distribution(WeightSpec("exp")).cdf
    assert ks_distance(batch, cdf) == _ks_whole_array(batch, cdf)


def test_ks_distance_calls_cdf_on_sorted_blocks():
    batch = mc_sample(3 * _KS_BLOCK + 5, seed=4)
    calls = []

    def cdf(xs):
        calls.append(xs.copy())
        return cdf_quadrature_batch(xs)

    ks_distance(batch, cdf)
    assert max(c.size for c in calls) <= _KS_BLOCK
    assert np.array_equal(np.concatenate(calls), np.sort(batch.omega))


def test_ks_distance_memory_does_not_grow_with_the_cdf():
    n = 2**20
    weight = WeightSpec("exp")
    dist = _cached_distribution(weight)
    batch = mc_sample(n, seed=8, weight=weight)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ks_distance(batch, dist.cdf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sorted omegas, the running sum and the sort's index array
    assert peak - start < 5 * 8 * n


def test_ks_distance_uniform_sampling_against_quadrature():
    batch = mc_sample(20000, seed=5)
    d = ks_distance(batch, cdf_quadrature_batch)
    assert d < 0.012


def test_mc_mean_agrees_with_quadrature():
    batch = mc_sample(200000, seed=3)
    m, se = mc_mean(batch)
    assert 0.0 < se < 0.5
    assert abs(m - MEAN_REFERENCE) < 4.0 * se


# ---------------------------------------------------------------------------
# reweighting


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec("pareto")
    with pytest.raises(ValueError):
        WeightSpec("table", (0.0,), (1.0,))
    with pytest.raises(ValueError):
        WeightSpec("table", (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        WeightSpec("table", (0.0, 1.0), (1.0, -1.0))
    with pytest.raises(ValueError):
        WeightSpec("table", (0.0, math.nan, 2.0), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        WeightSpec("table", (0.0, 1.0), (1.0, math.inf))


def test_weight_spec_table_interpolates():
    w = WeightSpec("table", (0.0, 1.0, 2.0), (1.0, 0.5, 0.25))
    assert w.weight_of_rho(1.0) == 0.5
    assert abs(w.weight_of_rho(0.5) - 0.75) < 1e-15
    assert w.weight_of_omega(0.0) == 1.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: reweight_density(WeightSpec("exp"), -math.inf),
        lambda: weighted_mean(WeightSpec("exp"), math.nan),
        lambda: weighted_truncated_second_moment(WeightSpec("exp"), math.nan),
        lambda: WeightSpec("exp").weight_of_omega(np.array([1.0, -1.0])),
        lambda: UNIFORM_WEIGHT.weight_of_omega(math.nan),
    ],
    ids=["reweight_density", "weighted_mean", "weighted_E2", "exp_weight", "uniform_weight"],
)
def test_reweighting_rejects_nan_and_negative_arguments(call):
    with pytest.raises(ValueError):
        call()


def test_uniform_reweight_is_bitwise_identity():
    for x in (0.7, 3.0, 25.0):
        assert reweight_density(UNIFORM_WEIGHT, x) == pdf_quadrature(x)


@pytest.mark.parametrize(
    "weight",
    [
        UNIFORM_WEIGHT,
        WeightSpec("exp"),
        WeightSpec("gauss"),
        WeightSpec("table", (0.0, 9.0), (1.0, 0.0)),
    ],
    ids=["uniform", "exp", "gauss", "table"],
)
def test_reweight_density_array_call_equals_scalar_calls(weight):
    xs = np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 97)))
    vec = reweight_density(weight, xs)
    scalars = [reweight_density(weight, float(v)) for v in xs]
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(vec, scalars)


def test_exp_reweight_normalizer_frozen_value():
    dist = _cached_distribution(WeightSpec("exp"))
    assert abs(dist.normalizer / Z_EXP_REFERENCE - 1.0) < 1e-5


def test_exp_reweight_cdf_frozen_values():
    dist = _cached_distribution(WeightSpec("exp"))
    xs = np.array(sorted(CDF_EXP_REFERENCE))
    got = dist.cdf(xs)
    for x, v in zip(xs, got):
        assert abs(v / CDF_EXP_REFERENCE[float(x)] - 1.0) < 1e-5


def test_exp_reweight_density_consistent_with_cdf():
    # Simpson integral of the reweighted density against the cdf increment
    dist = _cached_distribution(WeightSpec("exp"))
    xs = np.linspace(1.0, 8.0, 401)
    ys = reweight_density(WeightSpec("exp"), xs)
    h = xs[1] - xs[0]
    integral = h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())
    increment = float(dist.cdf(np.array([8.0]))[0] - dist.cdf(np.array([1.0]))[0])
    assert abs(integral - increment) < 2e-6


def test_exp_weighted_mean_frozen_value():
    assert abs(weighted_mean(WeightSpec("exp")) / MEAN_EXP_REFERENCE - 1.0) < 1e-4


def test_gauss_weighted_second_moment_plateaus():
    # the gauss weight truncates the tail: E2 converges instead of diverging
    w = WeightSpec("gauss")
    a = weighted_truncated_second_moment(w, 1e2)
    b = weighted_truncated_second_moment(w, 1e3)
    assert abs(a / E2_GAUSS_PLATEAU - 1.0) < 1e-4
    assert abs(b - a) < 1e-6 * a


def test_exp_reweight_ks_against_importance_sampling():
    w = WeightSpec("exp")
    batch = mc_sample(50000, seed=6, weight=w)
    dist = _cached_distribution(w)
    assert ks_distance(batch, dist.cdf) < 0.009


# ---------------------------------------------------------------------------
# table and ledger


def test_spectral_table_build():
    xs = np.geomspace(0.5, 50.0, 9)
    table = SpectralTable.build(xs)
    assert np.array_equal(table.x_tilde, xs / 4.0)
    assert np.all(np.diff(table.F_quad) > 0.0)
    assert np.all((table.F_quad > 0.0) & (table.F_quad < 1.0))
    assert np.max(np.abs(table.F_derived - table.F_quad)) < 1e-8
    assert np.all(table.f_quad > 0.0)


def test_spectral_table_derived_column_is_the_reweighting_closed_form():
    # one closed form: F_derived is what the reweighting table evaluates,
    # also above x ~ 3e8, where u rounds to 1
    xs = np.concatenate((np.geomspace(1e-3, 1e12, 500), [1e300]))
    assert np.array_equal(SpectralTable.build(xs).F_derived, _cdf_and_tail(xs)[0])


def test_spectral_table_rejects_bad_grid():
    with pytest.raises(ValueError):
        SpectralTable.build([])
    with pytest.raises(ValueError):
        SpectralTable.build([0.0, 1.0])


def test_discrepancy_ledger_statuses():
    ledger = discrepancy_ledger()
    assert set(ledger) == {
        "ledger_cdf_derived_vs_quadrature",
        "ledger_cdf_paper_u_vs_quadrature",
        "ledger_cdf_paper_prop_tail",
        "ledger_pdf_paper_internal_consistency",
        "ledger_mean_vs_claimed",
        "ledger_small_x_exponent",
        "ledger_second_moment_growth",
    }
    assert ledger["ledger_cdf_derived_vs_quadrature"]["status"] == "pass"
    assert ledger["ledger_pdf_paper_internal_consistency"]["status"] == "pass"
    assert ledger["ledger_second_moment_growth"]["status"] == "pass"
    assert ledger["ledger_cdf_paper_u_vs_quadrature"]["status"] == "discrepancy"
    assert ledger["ledger_cdf_paper_prop_tail"]["status"] == "discrepancy"
    assert ledger["ledger_mean_vs_claimed"]["status"] == "discrepancy"
    assert ledger["ledger_small_x_exponent"]["status"] == "discrepancy"


def test_discrepancy_ledger_measured_values():
    ledger = discrepancy_ledger()
    u_entry = ledger["ledger_cdf_paper_u_vs_quadrature"]["value"]
    assert abs(u_entry["F_quad_at_u_half"] - 0.0957) < 1e-3
    assert abs(u_entry["F_paper_u_at_u_half"] - 0.0239) < 1e-3
    mean_entry = ledger["ledger_mean_vs_claimed"]["value"]
    assert abs(mean_entry["mean_quadrature"] - MEAN_REFERENCE) < 1e-5
    assert abs(mean_entry["claimed"] - MEAN_CLAIMED) == 0.0
    assert mean_entry["exact"] == 16.0 * math.pi / 3.0
    assert mean_entry["exact_error"] == abs(mean_entry["mean_quadrature"] - mean_entry["exact"])
    assert mean_entry["exact_error"] <= mean_entry["quadrature_bound"]
    slope = ledger["ledger_small_x_exponent"]["value"]["measured_slope"]
    assert abs(slope - 1.0) < 0.01


def test_scipy_quad_cross_check():
    # belt-and-braces third route when scipy is available
    scipy_integrate = pytest.importorskip("scipy.integrate")
    for x in (1.0, 10.0):
        u = x / math.sqrt(16.0 + x * x)
        val, err = scipy_integrate.quad(
            lambda s: 2.0 * (u * (1 - s * s) / (1 - (s * u) ** 2)) ** 2 * s, 0.0, 1.0
        )
        assert abs(cdf_quadrature(x) - val) < max(1e-10, 10.0 * err)
