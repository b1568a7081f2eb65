"""Spectral distribution: quadrature routes, closed forms, moments,
Monte-Carlo sampling, and reweighting.

Reference values marked "frozen" were computed with independent
high-precision quadrature (40-digit arithmetic) of the defining fiber
integral and are pinned here as constants; the composite-Simpson oracle
embedded below provides a second in-test route to the same integral.
"""

import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from bidisk import quadrature, spectral
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
    _KS_EDGE,
    _KS_SLACK,
    _X_END,
    SampleBatch,
    _cached_distribution,
    _cdf_and_tail,
    _panel_count,
    _quarter_square_log,
    _sample_stream,
    _schwarz_radius,
    _stream_sizes,
)
from reference import (
    cdf_tail_pdf,
    ks_whole_array,
    reweighted_cdf_bins,
    reweighted_density,
    second_moment,
    stream_omega,
    weighted_integral,
)
from test_exports import EXPORTS, WEIGHTS

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
E2_GAUSS_PLATEAU = 4.3012164268213199


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
    for x in (1e8, 1e12, 1e154, 1e200, 1e300, math.inf):
        got = one_minus_cdf(x)
        if x == math.inf:
            assert got == 0.0
            continue
        ref = cdf_tail_pdf(x)[1]
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


@pytest.mark.parametrize("x", [1 + 2j, 3j, "1", None], ids=["complex", "imaginary", "str", "none"])
def test_density_views_take_the_inputs_of_cdf_quadrature(x):
    """pdf_quadrature and reweight_density raise the exception type that
    cdf_quadrature raises on x, or all three return finite values."""
    views = (pdf_quadrature, lambda v: reweight_density(WeightSpec("exp"), v))
    try:
        expect = cdf_quadrature(x)
    except (TypeError, ValueError) as err:
        for fn in views:
            with pytest.raises(type(err)) as got:
                fn(x)
            assert got.type is type(err)
    else:
        assert math.isfinite(expect)
        for fn in views:
            assert math.isfinite(fn(x))


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


def test_each_kernel_pass_integrates_one_row_per_point(monkeypatch):
    # 1e-100 is integrated for F but is x/24 for the density; 0 and inf are
    # integrated by neither pass
    xs = np.array([0.0, 1e-100, 0.5, 3.0, 8.0, 9.0, 1e5, 1e200, math.inf])
    rows = []

    def counting(f, k):
        def recording(v):
            out = f(v)
            rows.append(out.shape[-1])
            return out

        return quadrature.composite_k15(recording, k)

    monkeypatch.setattr(spectral, "composite_k15", counting)
    pdf_quadrature(xs)
    assert sum(rows) == 6
    rows.clear()
    cdf_quadrature_batch(xs)
    assert sum(rows) == 7


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
    # the fixed rule certifies the mean at every relative tolerance the
    # adaptive route was once asked for, with no tolerance to choose
    value, bound = mean_quadrature()
    error = abs(value - 16.0 * math.pi / 3.0)
    assert error <= EXPORTS["mean_quadrature"].tol["absolute (against 16 pi / 3)"]
    assert error <= bound <= 1e-11
    assert bound <= rel_tol * value


def test_mean_quadrature_runs_on_the_fixed_rule(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mean_quadrature called quadrature.adaptive")

    monkeypatch.setattr(spectral, "adaptive", refuse)
    monkeypatch.setattr(quadrature, "adaptive", refuse)
    value, _ = mean_quadrature()
    assert abs(value - 16.0 * math.pi / 3.0) <= 1e-14


def _t_polynomial(x):
    """g(x) with g(4 sinh t) 4 cosh t = t^5 + 1."""
    return (np.arcsinh(x / 4.0) ** 5 + 1.0) / np.hypot(x, 4.0)


def _counting_rule(monkeypatch) -> list[int]:
    """The panel counts of spectral's outermost composite_k15 calls, one per
    call; the kernel's calls inside an integrand are not counted."""
    counts: list[int] = []
    depth = 0

    def counting(f, k):
        nonlocal depth
        if not depth:
            counts.append(k)
        depth += 1
        try:
            return quadrature.composite_k15(f, k)
        finally:
            depth -= 1

    monkeypatch.setattr(spectral, "composite_k15", counting)
    return counts


@pytest.mark.parametrize(
    "end, knots, panels",
    [
        (50.0, (), 100),
        # the cut inside a panel is an edge of its own
        (1.3, (), 3),
        # a knot on the cut adds no panel; knots outside (0, T) are dropped
        (1.3, (-1.0, 0.0, 0.7, "end", 7.0), 4),
    ],
    ids=["whole_rule", "cut_inside_a_panel", "cut_on_a_knot"],
)
def test_integrate_t_is_exact_on_polynomials_in_t(monkeypatch, end, knots, panels):
    counts = _counting_rule(monkeypatch)
    cut = 4.0 * math.sinh(end)
    t_end = math.asinh(cut / 4.0)
    knots = tuple(t_end if t == "end" else t for t in knots)
    (value,), (estimate,) = spectral._integrate_t(_t_polynomial, cut, knots)
    exact = t_end**6 / 6.0 + t_end
    assert counts == [panels]
    assert value == pytest.approx(exact, rel=8 * np.finfo(float).eps)
    assert estimate <= 1e-14 * exact


def test_integrate_t_makes_one_call_for_a_thousand_knot_table(monkeypatch):
    # 1000 knots on one line in rho: the same weight as the table of its ends
    rho = np.linspace(0.0, 40.0, 1000)
    line = WeightSpec("table", (0.0, 40.0), (1.0, 0.0))
    table = WeightSpec("table", tuple(rho.tolist()), tuple((1.0 - rho / 40.0).tolist()))
    expect = spectral._weighted_integral(line, 0, _X_END)
    counts = _counting_rule(monkeypatch)
    got = spectral._weighted_integral(table, 0, _X_END)
    assert len(counts) == 1 and counts[0] >= 1000
    assert got == pytest.approx(expect, rel=1e-14)


def test_uniform_weighted_mean_is_the_mean_quadrature():
    value, bound = mean_quadrature()
    assert abs(weighted_mean(UNIFORM_WEIGHT, _X_END) - value) <= bound


def test_mean_disagrees_with_claimed_constant():
    value, _ = mean_quadrature()
    assert abs(value - MEAN_CLAIMED) > 10.0
    assert abs(MEAN_CLAIMED - 3.0 * math.pi / 2.0) == 0.0


def test_truncated_second_moment_frozen_values():
    for cut, ref in E2_REFERENCE.items():
        got = truncated_second_moment(cut)
        assert abs(got / ref - 1.0) < 1e-9
    assert truncated_second_moment(0.0) == 0.0


def test_truncated_second_moment_matches_exact_form():
    for cut in (1e2, 1e3, 1e4, 1e6):
        assert abs(truncated_second_moment(cut) / second_moment(cut) - 1.0) <= 1e-10


def test_truncated_second_moment_on_log_spaced_cuts():
    # 56 cuts across [1e-3, 1e8]: 4.3e-9 relative at 1e8, the closest to the
    # bound; 3e-8 relative at 1e-3, where E2 ~ 1e-14 and the floor applies
    tol = EXPORTS["truncated_second_moment"].tol
    rel, floor = tol["relative"], tol["absolute"]
    for cut in np.geomspace(1e-3, 1e8, 56):
        exact = second_moment(cut)
        assert abs(truncated_second_moment(cut) - exact) <= max(rel * exact, floor)


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


def _counting_streams(monkeypatch) -> list:
    """Count mc_sample's calls of _sample_stream: one per stream of a miss,
    none for a hit."""
    calls = []
    stream = spectral._sample_stream

    def counted(seq, out, scratch):
        calls.append(seq)
        stream(seq, out, scratch)

    monkeypatch.setattr(spectral, "_sample_stream", counted)
    return calls


def test_mc_sample_is_deterministic(monkeypatch):
    calls = _counting_streams(monkeypatch)
    a = mc_sample(5000, seed=1729)
    omega, weight = a.omega.copy(), a.weight.copy()
    del a  # the next call draws again rather than returning the recorded draw
    b = mc_sample(5000, seed=1729)
    assert len(calls) == 32
    assert np.array_equal(omega, b.omega)
    assert np.array_equal(weight, b.weight)
    c = mc_sample(5000, seed=1730)
    assert not np.array_equal(omega, c.omega)


def test_mc_sample_stream_partition():
    batch = mc_sample(10007, seed=9)
    assert len(_stream_sizes(10007)) == 16
    assert sum(_stream_sizes(10007)) == 10007
    assert np.all(batch.omega > 0.0)
    with pytest.raises(ValueError):
        mc_sample(0, seed=1)


@pytest.mark.parametrize(
    "kwargs,what",
    [
        ({"n": 2.7}, "sample size"),
        ({"n": math.inf}, "sample size"),
        ({"n": math.nan}, "sample size"),
        ({"n": "10"}, "sample size"),
        ({"seed": 1.0}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": "1"}, "seed"),
    ],
    ids=["n-fraction", "n-inf", "n-nan", "n-str", "seed-float", "seed-negative", "seed-str"],
)
def test_mc_sample_rejects_arguments_outside_their_domain(kwargs, what):
    args = {"n": 10, "seed": 1, **kwargs}
    with pytest.raises(ValueError, match=what):
        mc_sample(**args)


def test_mc_sample_accepts_integral_floats():
    a = mc_sample(2000.0, seed=np.int64(3))
    b = mc_sample(2000, seed=3)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.weight, b.weight)


def test_mc_sample_caps_streams_at_n(monkeypatch):
    assert _stream_sizes(3) == (1, 1, 1)
    monkeypatch.setattr(spectral, "_drawn", weakref.WeakValueDictionary())  # no recorded draw to return
    calls = _counting_streams(monkeypatch)
    assert mc_sample(3, seed=1).omega.size == 3
    assert len(calls) == 3


def test_mc_sample_weights_follow_spec():
    batch = mc_sample(2000, seed=12, weight=WeightSpec("exp"))
    expect = np.exp(-rho_of_omega(batch.omega))
    assert np.max(np.abs(batch.weight - expect)) < 1e-15


# a weight of every kind; the table's knot at rho = 2 (omega = 4 sinh 1, about
# 4.7) lies inside the drawn range
SPECS = {
    "uniform": UNIFORM_WEIGHT,
    "exp": WeightSpec("exp"),
    "gauss": WeightSpec("gauss"),
    "table": WeightSpec("table", (0.0, 2.0, 40.0), (1.0, 0.5, 0.0)),
}


@pytest.mark.parametrize("kind", list(SPECS))
def test_mc_sample_records_its_spec_and_its_weights_are_the_spec_of_omega(kind):
    spec = SPECS[kind]
    batch = mc_sample(10007, seed=14, weight=spec)
    assert batch.spec is spec
    assert batch.weight.tobytes() == spec.weight_of_omega(batch.omega).tobytes()


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
    n = 10**6
    mc_sample(16, seed=8)  # numpy.random's first use allocates its own state
    peak = _peak(mc_sample, n, 8, WeightSpec(kind))
    if kind == "uniform":
        # omega and the streams' scratch, a quarter of it, with no array of
        # ones: the weights are a broadcast of 1.0
        assert peak < 1.3 * 8 * n
    else:
        # omega and weight, plus a few kB of per-stream objects that do not
        # grow with n; computing rho and exp(-rho) out of place would add 8n
        # bytes each
        assert peak <= 2 * 8 * n + 2**16


def test_ks_distance_synthetic_uniform():
    n = 1000
    batch = SampleBatch((np.arange(n) + 0.5) / n, np.ones(n))
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
        batch = SampleBatch(omega[idx], weight[idx])
        assert ks_distance(batch, cdf) == expect


def test_mc_sample_concatenates_its_streams():
    n, seed, streams = 10007, 9, 16  # 10007 = 16 * 625 + 7
    batch = mc_sample(n, seed=seed)
    sizes = [626] * 7 + [625] * 9
    assert _stream_sizes(n) == tuple(sizes)
    children = np.random.SeedSequence(seed).spawn(streams)
    parts = [np.empty(m) for m in sizes]
    scratch = np.empty((4, sizes[0]))
    for sq, part in zip(children, parts):
        _sample_stream(sq, part, scratch)
    expect = np.concatenate(parts)
    assert np.array_equal(batch.omega, expect)


@pytest.mark.parametrize("n, seed", [(1, 0), (5, 3), (10007, 9), (2**16 + 3, 1)])
def test_sample_stream_in_place_equals_the_expression(n, seed):
    streams = min(16, n)
    sizes = [n // streams + (i < n % streams) for i in range(streams)]
    for sq, m in zip(np.random.SeedSequence(seed).spawn(streams), sizes):
        out = np.empty(m)
        _sample_stream(sq, out, np.empty((4, m)))
        assert np.array_equal(out, stream_omega(sq, m))


def test_sample_stream_with_a_dirty_oversized_scratch_equals_the_expression():
    sq = np.random.SeedSequence(17)
    m = 1001
    out = np.full(m, np.nan)
    scratch = np.full((4, m + 37), -np.inf)
    scratch[:, ::3] = np.nan
    _sample_stream(sq, out, scratch)
    assert np.array_equal(out, stream_omega(sq, m))


@pytest.mark.parametrize("bad", [0, 5, 15])
def test_mc_sample_raises_a_failed_stream_after_joining(bad, monkeypatch):
    """A failing stream raises out of mc_sample, and the draw it broke off
    is not recorded and leaves the recorded draws in place."""
    stream = spectral._sample_stream
    children = np.random.SeedSequence(4).spawn(16)

    def failing(seq, out, scratch):
        if seq.spawn_key == children[bad].spawn_key:
            raise RuntimeError(f"stream {bad}")
        stream(seq, out, scratch)

    kept = mc_sample(1000, seed=3)
    ids = set(spectral._sorted)
    monkeypatch.setattr(spectral, "_sample_stream", failing)
    with pytest.raises(RuntimeError, match=f"stream {bad}$"):
        mc_sample(1000, seed=4)
    assert (1000, 4) not in spectral._drawn
    assert set(spectral._sorted) <= ids
    assert spectral._drawn[1000, 3] is kept.omega


def test_mc_sample_returns_the_recorded_draw_with_the_bits_of_a_new_one(monkeypatch):
    calls = _counting_streams(monkeypatch)
    uniform = mc_sample(10007, seed=22)
    weighted = mc_sample(10007, seed=22, weight=WeightSpec("exp"))
    assert len(calls) == 16  # the second call drew nothing
    assert weighted.omega is uniform.omega
    assert weighted.spec == WeightSpec("exp")
    bits = uniform.omega.tobytes(), weighted.weight.tobytes()
    del uniform, weighted
    fresh = mc_sample(10007, seed=22, weight=WeightSpec("exp"))
    assert len(calls) == 32
    assert (fresh.omega.tobytes(), fresh.weight.tobytes()) == bits


def test_mc_sample_omegas_are_read_only():
    batch = mc_sample(100, seed=23)
    assert not batch.omega.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        batch.omega[0] = 1.0
    assert not mc_sample(100, seed=23, weight=WeightSpec("exp")).omega.flags.writeable


def test_mc_sample_draws_afresh_once_every_batch_is_gone(monkeypatch):
    calls = _counting_streams(monkeypatch)
    a = mc_sample(1000, seed=24)
    b = mc_sample(1000, seed=24, weight=WeightSpec("gauss"))
    del a
    assert mc_sample(1000, seed=24).omega is b.omega  # b still holds the draw
    assert len(calls) == 16
    ks_distance(b, _cached_distribution(b.spec).cdf)
    key = id(b.omega)
    kept = weakref.ref(spectral._sorted[key])
    del b
    # the record went with the draw
    assert (1000, 24) not in spectral._drawn and key not in spectral._sorted
    assert kept() is None  # and so did its sorted copy
    mc_sample(1000, seed=24)
    assert len(calls) == 32


def test_mc_sample_records_every_live_draw(monkeypatch):
    calls = _counting_streams(monkeypatch)
    a = mc_sample(1000, seed=1)
    b = mc_sample(1000, seed=2)
    assert mc_sample(1000, seed=1).omega is a.omega
    assert mc_sample(1000, seed=2).omega is b.omega
    assert len(calls) == 32  # two draws, each drawn once
    ks_distance(a, cdf_quadrature_batch)
    # a's KS, taken after b was drawn, kept a's sorted copy for later ones
    xs = spectral._sorted_omegas(a.omega)
    assert not xs.flags.writeable and np.array_equal(xs, np.sort(a.omega))
    assert spectral._sorted_omegas(a.omega) is xs
    assert spectral._sorted_omegas(b.omega) is not xs


def test_threads_racing_on_one_draw_get_equal_bits():
    n, seed, racers = 10007, 25, 8
    expect = mc_sample(n, seed=seed).omega.copy()
    kinds = list(SPECS) * (racers // len(SPECS))
    barrier = threading.Barrier(racers)
    got = [None] * racers

    def draw(k):
        barrier.wait(timeout=60)
        got[k] = mc_sample(n, seed=seed, weight=SPECS[kinds[k]])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads interleave as often as they can
    try:
        threads = [threading.Thread(target=draw, args=(k,)) for k in range(racers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for kind, batch in zip(kinds, got):
        assert np.array_equal(batch.omega, expect)
        assert np.array_equal(batch.weight, SPECS[kind].weight_of_omega(expect))


@pytest.mark.parametrize("order", [("uniform", "exp"), ("exp", "uniform")])
def test_ks_distance_on_a_shared_draw_equals_one_whole_array_call(order):
    n, seed = 3 * _KS_BLOCK + 17, 26
    batches = [mc_sample(n, seed=seed, weight=SPECS[kind]) for kind in order]
    assert batches[0].omega is batches[1].omega
    kept = []
    for kind, batch in zip(order, batches):
        cdf = cdf_quadrature_batch if kind == "uniform" else _cached_distribution(batch.spec).cdf
        assert ks_distance(batch, cdf) == ks_whole_array(batch, cdf)
        kept.append(spectral._sorted[id(batch.omega)])
    # sorted by the first KS, reused by the second
    assert kept[0] is kept[1] and not kept[0].flags.writeable
    assert np.array_equal(kept[0], np.sort(batches[0].omega))


def _tied_batch(n, seed):
    """Weighted draws with long runs of tied omegas and some zero weights."""
    rng = np.random.default_rng(seed)
    omega = rng.choice(mc_sample(max(2, n // 300), seed=seed).omega, size=n)
    weight = np.exp(-rho_of_omega(omega))
    weight[rng.random(n) < 0.1] = 0.0
    return SampleBatch(omega, weight)


@pytest.mark.parametrize("n", [1, 1000, 3 * _KS_BLOCK + 17])
@pytest.mark.parametrize("route", ["quadrature", "reweighted"])
def test_ks_distance_blocks_equal_one_whole_array_call(n, route):
    batch = _tied_batch(n, seed=n)
    if n > _KS_BLOCK:
        xs = np.sort(batch.omega)
        # a run of ties straddles every block boundary
        assert all(xs[k - 1] == xs[k] for k in range(_KS_BLOCK, n, _KS_BLOCK))
    cdf = cdf_quadrature_batch if route == "quadrature" else _cached_distribution(WeightSpec("exp")).cdf
    assert ks_distance(batch, cdf) == ks_whole_array(batch, cdf)


@pytest.mark.parametrize("n", [1, 1000, 3 * _KS_BLOCK + 17])
@pytest.mark.parametrize("kind", list(SPECS))
def test_ks_distance_spec_batches_equal_one_whole_array_call(kind, n):
    spec = SPECS[kind]
    tied = SampleBatch(_tied_batch(n, seed=n).omega, spec=spec)
    drawn = mc_sample(n, seed=n, weight=spec)
    for batch in (tied, drawn):
        # without its spec the batch takes the sort index, to the same bits
        bare = dataclasses.replace(batch, spec=None)
        for cdf in (cdf_quadrature_batch, _cached_distribution(spec).cdf):
            assert ks_distance(batch, cdf) == ks_whole_array(batch, cdf)
            assert ks_distance(bare, cdf) == ks_distance(batch, cdf)


def test_ks_distance_spec_check_holds_for_subnormal_weights():
    # the spec's weights on the sorted omegas, all of them subnormal
    spec = WeightSpec("table", (0.0, 2.0, 40.0), (3e-320, 1e-320, 0.0))
    batch = SampleBatch(_tied_batch(10**5, seed=2).omega, spec=spec)
    assert 0.0 < np.sum(batch.weight) < 1e-300
    assert ks_distance(batch, cdf_quadrature_batch) == ks_whole_array(batch, cdf_quadrature_batch)


def test_ks_distance_rejects_weights_replaced_under_a_spec():
    batch = mc_sample(1000, seed=6, weight=WeightSpec("exp"))
    # a batch whose weights are not those of its spec cannot be built
    with pytest.raises(ValueError, match="spec=None"):
        dataclasses.replace(batch, weight=batch.weight**2)
    with pytest.raises(ValueError, match="spec=None"):
        dataclasses.replace(batch, omega=batch.omega[::-1])
    fresh = dataclasses.replace(batch, weight=batch.weight**2, spec=None)
    cdf = _cached_distribution(batch.spec).cdf
    assert ks_distance(fresh, cdf) == ks_whole_array(fresh, cdf)


def _recording(cdf, calls):
    def recorded(xs):
        calls.append(xs.copy())
        return cdf(xs)

    return recorded


def test_ks_distance_calls_cdf_on_ascending_batch_points():
    batch = mc_sample(3 * _KS_BLOCK + 5, seed=4)
    calls = []
    ks_distance(batch, _recording(cdf_quadrature_batch, calls))
    for c in calls:
        assert 0 < c.size <= _KS_BLOCK
        assert np.all(np.diff(c) >= 0.0)
        assert np.all(np.isin(c, batch.omega))


def test_ks_distance_evaluates_cdf_on_a_fraction_of_the_batch():
    n = 2**18
    batch = mc_sample(n, seed=4)
    calls = []
    ks_distance(batch, _recording(cdf_quadrature_batch, calls))
    assert sum(c.size for c in calls) < n / 4


@pytest.mark.parametrize(
    "estimate",
    [
        lambda b: ks_distance(b, cdf_quadrature_batch),
        lambda b: ks_distance(b, _cached_distribution(WeightSpec("exp")).cdf),
        mc_mean,
    ],
    ids=["ks", "ks_reweighted", "mean"],
)
@pytest.mark.parametrize(
    "omega, weight, spec",
    [
        ([], [], None),
        ([1.0, 2.0, 3.0], [1.0, 1.0], None),
        ([1.0, math.nan, 3.0], [1.0, 1.0, 1.0], None),
        ([1.0, -2.0, 3.0], [1.0, 1.0, 1.0], None),
        ([1.0, math.inf, 3.0], [1.0, 1.0, 1.0], None),
        ([1.0, 2.0, 3.0], [1.0, math.nan, 1.0], None),
        ([1.0, 2.0, 3.0], [1.0, -0.5, 1.0], None),
        ([1.0, 2.0, 3.0], [1.0, math.inf, 1.0], None),
        ([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], None),
        ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], UNIFORM_WEIGHT),
        ([1.0, 2.0, 3.0], None, None),
        ([1.0, 2.0, 3.0], [1e308, 1e308, 1.0], None),
    ],
    ids=[
        "empty",
        "lengths",
        "nan_omega",
        "negative_omega",
        "inf_omega",
        "nan_weight",
        "negative_weight",
        "inf_weight",
        "no_positive_weight",
        "weight_and_spec",
        "neither",
        "infinite_sum",
    ],
)
def test_batch_estimates_reject_malformed_batches(estimate, omega, weight, spec):
    # a malformed batch fails when it is built, so no estimate receives it
    with pytest.raises(ValueError):
        estimate(SampleBatch(omega, weight, spec))


def test_sample_batches_compare_by_identity():
    a, b = mc_sample(10, 1), mc_sample(10, 2)
    assert a == a and not a == b and a != b
    assert a != SampleBatch(a.omega, a.weight)


def test_sample_batch_arrays_are_read_only():
    omega, weight = np.array([1.0, 2.0]), np.array([0.5, 0.25])
    batch = SampleBatch(omega, weight)
    # writeable inputs are copied, so the caller's arrays stay theirs
    assert batch.omega is not omega and batch.weight is not weight
    assert not batch.omega.flags.writeable and not batch.weight.flags.writeable
    # read-only float arrays are kept, and a spec's weights are made read-only
    assert SampleBatch(batch.omega, batch.weight).weight is batch.weight
    drawn = mc_sample(100, seed=7, weight=WeightSpec("exp"))
    assert SampleBatch(drawn.omega, spec=drawn.spec).omega is drawn.omega
    assert not drawn.weight.flags.writeable
    assert SampleBatch([1, 2], [3, 4]).weight.dtype == float
    # the uniform spec's weights: a read-only broadcast of 1.0
    uniform = mc_sample(100, seed=7).weight
    assert uniform.strides == (0,) and not uniform.flags.writeable
    assert not UNIFORM_WEIGHT.weight_of_omega([1.0, 2.0]).flags.writeable


def test_ks_distance_rejects_a_nan_cdf_value():
    batch = mc_sample(1000, seed=2)
    with pytest.raises(ValueError, match="NaN"):
        ks_distance(batch, lambda xs: np.where(xs > np.median(batch.omega), math.nan, 0.5))


def test_ks_distance_rejects_a_decreasing_cdf():
    batch = mc_sample(1000, seed=2)
    with pytest.raises(ValueError, match="decreases"):
        ks_distance(batch, lambda xs: 1.0 - cdf_quadrature_batch(xs))


def test_ks_distance_forgives_a_decrease_within_the_slack():
    batch = SampleBatch(np.arange(1.0, 5.0), np.ones(4))
    # F steps down by half the slack between the two middle points
    fv = {1.0: 0.1, 2.0: 0.5, 3.0: 0.5 - _KS_SLACK / 2, 4.0: 0.9}

    def cdf(xs):
        return np.array([fv[x] for x in xs])

    assert ks_distance(batch, cdf) == ks_whole_array(batch, cdf)


def test_ks_distance_rejects_a_drift_down_between_open_blocks():
    # three blocks: F is flat on the first and the last, whose gaps are the
    # largest, so they are open, and steps down by 1/64 of the slack from
    # the last point of the first block to the first point of the last
    n, step = 3 * _KS_EDGE, _KS_SLACK / 64
    batch = SampleBatch(np.arange(n), np.ones(n))
    drift = step * np.clip(batch.omega - (_KS_EDGE - 1), 0, _KS_EDGE + 1)
    fv = (0.5 + drift[-1] / 2) - drift

    def cdf(xs):
        return fv[xs.astype(int)]

    # each step, and the drift across the middle block, is within the slack
    assert np.diff(fv).min() > -_KS_SLACK and fv[_KS_EDGE] - fv[2 * _KS_EDGE - 1] < _KS_SLACK
    assert fv[_KS_EDGE - 1] - fv[2 * _KS_EDGE] > _KS_SLACK
    with pytest.raises(ValueError, match="decreases"):
        ks_distance(batch, cdf)


def _peak(fn, *args) -> int:
    """The tracemalloc peak of fn(*args) above what was allocated before, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_ks_distance_memory_does_not_grow_with_the_cdf():
    n = 2**20
    weight = WeightSpec("exp")
    dist = _cached_distribution(weight)
    batch = mc_sample(n, seed=8, weight=weight)
    # the sorted omegas and the running sum, without a sort index
    assert _peak(ks_distance, batch, dist.cdf) < 3 * 8 * n


def test_ks_distance_hand_built_unequal_weights_keep_the_index():
    n = 2**20
    weight = WeightSpec("exp")
    dist = _cached_distribution(weight)
    batch = dataclasses.replace(mc_sample(n, seed=8, weight=weight), spec=None)
    # the sorted omegas, the running sum and the sort's index array
    assert 3 * 8 * n <= _peak(ks_distance, batch, dist.cdf) < 5 * 8 * n


@pytest.mark.parametrize("w", [1.0, 0.3, 5e-324])
@pytest.mark.parametrize("n", [1, 1000, 3 * _KS_BLOCK + 17])
def test_ks_distance_equal_weights_equal_one_whole_array_call(w, n):
    # hand-built, without a spec: the sort index path
    batch = _tied_batch(n, seed=n)
    batch = SampleBatch(batch.omega, np.full(n, w))
    assert ks_distance(batch, cdf_quadrature_batch) == ks_whole_array(batch, cdf_quadrature_batch)


def test_ks_distance_equal_weights_make_no_index():
    n = 10**6
    batch = mc_sample(n, seed=8)
    assert spectral._sorted[id(batch.omega)] is None  # a fresh draw, sorted by this KS
    # the uniform spec: the sorted omegas alone, without a sort index or a
    # running sum, plus O(n / 64) block values and the cdf's temporaries on
    # at most 2^14 points a call
    assert _peak(ks_distance, batch, cdf_quadrature_batch) < 2 * 8 * n


def test_ks_distance_block_bookkeeping_is_a_fraction_of_the_draw():
    n = 10**6
    batch = mc_sample(n, seed=9)

    def cdf(xs):
        return np.minimum(xs / 100.0, 1.0)  # allocates only its output

    ks_distance(batch, cdf)
    assert spectral._sorted[id(batch.omega)] is not None  # the sorted copy is taken
    # the block ends, the open blocks' points and their gaps, with no merge
    # of the two by a sort
    assert _peak(ks_distance, batch, cdf) < 0.3 * 8 * n


@pytest.mark.parametrize("kind", ["uniform", "exp"])
def test_mc_mean_copies_no_weights(kind):
    n = 10**6
    batch = mc_sample(n, seed=8, weight=WeightSpec(kind))
    if kind == "exp":
        # the largest weight needs no scaling into [0.5, 1)
        assert 0.5 <= batch.weight.max() < 1.0
    # the weighted deviations alone: no scaled copy of the weights
    assert _peak(mc_mean, batch) < 1.2 * 8 * n


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


# omegas of the extreme batches above: tiny, huge and at the largest double
EXTREME_OMEGAS = [
    [1.0, 2.0],
    [5e-324, 1e-320, 0.0, 5e-324],
    [1e200, 2e200],
    [1e300, 1e-300],
    [1.7e308] * 3,
    [sys.float_info.max] * 5,
    [1.7e308, 1.2e308, 0.3e308],
]


def test_uniform_batches_equal_the_own_weights_path_bit_for_bit():
    sizes = (1, 1000, 3 * _KS_BLOCK + 17)
    batches = [mc_sample(n, seed) for seed in range(4) for n in sizes]
    tied = [_tied_batch(n, seed=n).omega for n in sizes[1:]]
    batches += [SampleBatch(omega, spec=UNIFORM_WEIGHT) for omega in tied + EXTREME_OMEGAS]
    for batch in batches:
        assert batch.weight.strides == (0,)  # a broadcast of 1.0
        ones = SampleBatch(batch.omega, np.ones(batch.omega.size))
        assert _bits(mc_mean(batch)) == _bits(mc_mean(ones))
        cdf = cdf_quadrature_batch
        assert _bits(ks_distance(batch, cdf)) == _bits(ks_distance(ones, cdf))


@pytest.mark.parametrize("kind", ["exp", "gauss"])
def test_weighted_mc_mean_equals_the_own_weights_path_bit_for_bit(kind):
    batches = [mc_sample(n, seed, SPECS[kind]) for seed in range(4) for n in (1, 1000, 20000)]
    # a zero omega has weight 1, which is scaled to 0.5
    batches.append(SampleBatch(np.append(batches[-1].omega, 0.0), spec=SPECS[kind]))
    for batch in batches:
        own = SampleBatch(batch.omega, np.array(batch.weight))
        assert _bits(mc_mean(batch)) == _bits(mc_mean(own))


def test_ks_distance_uniform_sampling_against_quadrature():
    batch = mc_sample(20000, seed=5)
    d = ks_distance(batch, cdf_quadrature_batch)
    assert d < 0.012


@pytest.mark.parametrize(
    "omega, weight, expect, stderr",
    [
        # subnormal weights give the stderr of unit weights
        ([1.0, 2.0], [5e-324, 5e-324], 1.5, math.sqrt(0.5) / 2.0),
        # and omegas near the largest double keep a finite one
        ([1e200, 2e200], [1.0, 1.0], 1.5e200, math.sqrt(0.5) / 2.0 * 1e200),
        # weighted deviations of ~1e-300 keep their squares
        ([1e300, 1e-300], [1e-300, 1.0], 1.0, math.sqrt(2.0)),
    ],
    ids=["subnormal_weights", "huge_omegas", "tiny_weighted_deviations"],
)
def test_mc_mean_stderr_at_the_ends_of_the_double_range(omega, weight, expect, stderr):
    mean, se = mc_mean(SampleBatch(omega, weight))
    # the same sample with its largest weight at 1
    unit_mean, unit_se = mc_mean(SampleBatch(omega, np.divide(weight, max(weight))))
    assert (mean, se) == (unit_mean, unit_se)
    assert se == pytest.approx(stderr, rel=4e-16)
    assert mean == pytest.approx(expect, rel=4e-16)


def test_mc_mean_of_omegas_at_the_largest_double():
    # unscaled, the weighted sums would overflow; the scaled sum leaves the
    # mean of equal omegas a few ulp off them, and the clip puts it back
    for omega in (np.full(3, 1.7e308), np.full(5, sys.float_info.max)):
        assert mc_mean(SampleBatch(omega, np.ones(omega.size))) == (omega[0], 0.0)
    omega = np.array([1.7e308, 1.2e308, 0.3e308])
    mean, se = mc_mean(SampleBatch(omega, np.ones(3)))
    unit_mean, unit_se = mc_mean(SampleBatch(np.ldexp(omega, -1024), np.ones(3)))
    assert (mean, se) == (math.ldexp(unit_mean, 1024), math.ldexp(unit_se, 1024))


def test_mc_mean_keeps_the_bits_of_the_unscaled_sums():
    # where nothing overflows or underflows, the power-of-two scalings are exact
    for weight in (UNIFORM_WEIGHT, WeightSpec("exp"), WeightSpec("gauss")):
        batch = mc_sample(20000, seed=7, weight=weight)
        w, omega = batch.weight, batch.omega
        total = float(np.sum(w))
        mean = float(np.sum(w * omega)) / total
        stderr = math.sqrt(float(np.sum((w * (omega - mean)) ** 2))) / total
        assert mc_mean(batch) == (mean, stderr)


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
    with pytest.raises(ValueError, match="zero"):
        WeightSpec("table", (0.0, 1.0), (0.0, 0.0))
    with pytest.raises(ValueError, match="1-d"):
        WeightSpec("table", [[0.0, 1.0]], [[1.0, 1.0]])
    # complex, string and bytes entries are not parsed as floats
    for column in ([0j, 1j], ["0", "1"], [b"0", b"1"], np.array(["0.5", "1"])):
        with pytest.raises(ValueError, match="real numbers"):
            WeightSpec("table", column, [1, 1])
        with pytest.raises(ValueError, match="real numbers"):
            WeightSpec("table", [0, 1], column)
    for kind in ("uniform", "exp", "gauss"):
        with pytest.raises(ValueError, match="no table columns"):
            WeightSpec(kind, (0.3, 7.0), (5.0, 5.0))


def test_weight_spec_table_columns_of_any_sequence_are_one_spec():
    # tuples, lists and arrays give equal specs with equal hashes, and the
    # calls that look a spec up in a cache take each of them
    grid, values = (0.0, 2.0, 40.0), (1.0, 0.5, 0.0)
    specs = [
        WeightSpec("table", grid, values),
        WeightSpec("table", list(grid), list(values)),
        WeightSpec("table", np.array(grid), np.array(values)),
    ]
    assert specs[0].rho_grid == grid and specs[0].values == values
    for spec in specs:
        assert spec == specs[0] and hash(spec) == hash(specs[0])
        assert type(spec.rho_grid) is tuple and type(spec.values) is tuple
        assert all(type(v) is float for v in spec.rho_grid + spec.values)
    results = [
        (
            reweight_density(spec, 1.0),
            weighted_mean(spec),
            _cached_distribution(spec).cdf(3.0),
            mc_sample(100, seed=9, weight=spec).weight.tolist(),
        )
        for spec in specs
    ]
    assert results[1] == results[0] and results[2] == results[0]


def test_weight_spec_table_interpolates():
    w = WeightSpec("table", (0.0, 1.0, 2.0), (1.0, 0.5, 0.25))
    assert w.weight_of_rho(1.0) == 0.5
    assert abs(w.weight_of_rho(0.5) - 0.75) < 1e-15
    assert w.weight_of_omega(0.0) == 1.0


# the end of the rule in t = rho/2, x = 4 sinh 50
RULE_END = "1.03694e\\+22"


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: weighted_mean(WeightSpec("exp"), math.nan), "NaN"),
        (lambda: weighted_truncated_second_moment(WeightSpec("exp"), math.nan), "NaN"),
        (lambda: weighted_mean(UNIFORM_WEIGHT, math.inf), RULE_END),
        (lambda: weighted_truncated_second_moment(UNIFORM_WEIGHT, math.inf), RULE_END),
        (
            lambda: weighted_truncated_second_moment(UNIFORM_WEIGHT, math.nextafter(_X_END, math.inf)),
            RULE_END,
        ),
        (lambda: weighted_mean(WeightSpec("exp"), 1.0369411057175e22), RULE_END),
        (lambda: weighted_mean(WeightSpec("exp"), [1.0, 2.0]), "real number"),
        (lambda: weighted_mean(WeightSpec("exp"), np.array([1.0, 2.0])), "real number"),
        (lambda: weighted_mean(WeightSpec("exp"), None), "real number"),
        (lambda: weighted_mean(WeightSpec("exp"), 1 + 2j), "real number"),
        (lambda: weighted_mean(WeightSpec("exp"), "100"), "real number"),
        (lambda: weighted_truncated_second_moment(WeightSpec("exp"), [1.0, 2.0]), "real number"),
        (lambda: weighted_truncated_second_moment(WeightSpec("exp"), np.array([1.0, 2.0])), "real number"),
        (lambda: weighted_truncated_second_moment(WeightSpec("exp"), None), "real number"),
        (lambda: weighted_truncated_second_moment(WeightSpec("exp"), 1 + 2j), "real number"),
        (lambda: weighted_truncated_second_moment(WeightSpec("exp"), "100"), "real number"),
    ],
    ids=[
        "weighted_mean",
        "weighted_E2",
        "mean_inf",
        "E2_inf",
        "E2_past_end",
        "mean_past_end",
        "mean_list",
        "mean_array",
        "mean_none",
        "mean_complex",
        "mean_str",
        "E2_list",
        "E2_array",
        "E2_none",
        "E2_complex",
        "E2_str",
    ],
)
def test_reweighting_rejects_nan_and_negative_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_weighted_moments_up_to_the_rule_end():
    # cuts up to the end of the rule, 1e12 and the end itself among them
    assert weighted_mean(WeightSpec("exp"), -1.0) == 0.0
    assert weighted_truncated_second_moment(WeightSpec("exp"), 0.0) == 0.0
    # the smallest subnormal cut, where cut / 4 rounds to 0
    assert weighted_mean(WeightSpec("exp"), 5e-324) == 0.0
    assert 0.0 < weighted_mean(UNIFORM_WEIGHT, 1e-100) < 1e-300
    e2 = [weighted_truncated_second_moment(UNIFORM_WEIGHT, c) for c in (1e4, 1e12, _X_END)]
    assert e2[0] == pytest.approx(E2_REFERENCE[1e4], rel=1e-13)
    assert e2[1] == pytest.approx(second_moment(1e12), rel=1e-13)
    assert e2[2] == pytest.approx(second_moment(_X_END), rel=1e-13)


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


@pytest.mark.parametrize("weight", WEIGHTS, ids=lambda w: w.kind)
def test_reweight_density_against_fifty_digits(weight):
    # f w / Z against f and w at 50 digits over the 50-digit Z, on a log grid
    # and the point of the largest gauss error measured on a denser one
    normal_rtol, gauss_rtol = EXPORTS["reweight_density"].tol.values()
    rtol = gauss_rtol if weight.kind == "gauss" else normal_rtol
    z = weighted_integral(weight, 0, _X_END)
    xs = np.append(np.geomspace(1e-3, 1e8, 221), 535396.4964079459)
    got = reweight_density(weight, xs)
    normal = sys.float_info.min
    for x, v in zip(xs.tolist(), got.tolist()):
        ref = reweighted_density(weight, x, z)
        assert abs(v - ref) <= (rtol * ref if ref >= normal else normal), x


def test_exp_reweight_normalizer_frozen_value():
    dist = _cached_distribution(WeightSpec("exp"))
    assert abs(dist.normalizer / Z_EXP_REFERENCE - 1.0) < 1e-14


def test_exp_reweight_cdf_frozen_values():
    dist = _cached_distribution(WeightSpec("exp"))
    xs = np.array(sorted(CDF_EXP_REFERENCE))
    got = dist.cdf(xs)
    for x, v in zip(xs, got):
        assert abs(v / CDF_EXP_REFERENCE[float(x)] - 1.0) < 1e-5


def test_reweighted_cdf_takes_a_float():
    dist = _cached_distribution(WeightSpec("exp"))
    xs = np.array([0.0, 1.0, 30.0, math.inf])
    vec = dist.cdf(xs)
    scalars = [dist.cdf(float(x)) for x in xs]
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(vec, scalars)
    assert dist.cdf(xs.reshape(2, 2)).shape == (2, 2)


@pytest.mark.parametrize("x", [math.nan, -1.0, [1.0, math.nan], [-1.0]])
def test_reweighted_cdf_rejects_nan_and_negative_x(x):
    with pytest.raises(ValueError):
        _cached_distribution(WeightSpec("exp")).cdf(x)


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


WEIGHTED = {
    "exp": WeightSpec("exp"),
    "gauss": WeightSpec("gauss"),
    "table": WeightSpec("table", (0.0, 3.0, 9.0), (1.0, 0.2, 0.0)),
}


@pytest.mark.parametrize("kind", WEIGHTED)
def test_weighted_moments_against_fifty_digits(kind):
    # Z, the mean at its default cut 1e6 and E2 at cuts that are no
    # panel edges, each against the same integral at 50 digits
    weight = WEIGHTED[kind]
    z = weighted_integral(weight, 0, _X_END)
    assert _cached_distribution(weight).normalizer == pytest.approx(z, rel=1e-13)
    assert weighted_mean(weight) == pytest.approx(weighted_integral(weight, 1, 1e6) / z, rel=1e-13)
    for cut in (7.3, 55.5, 1e2, 1e4):
        got = weighted_truncated_second_moment(weight, cut)
        assert got == pytest.approx(weighted_integral(weight, 2, cut) / z, rel=1e-13), cut


# a 61-point log grid in [1e-2, 1e4], and the index of the point where the
# reweighted cdf is furthest from its 50-digit value: x = 1, 1.26 and 5.01
CDF_GRID = np.logspace(-2, 4, 61)
CDF_WORST = {"exp": 20, "gauss": 21, "table": 27}


@pytest.mark.parametrize("kind", WEIGHTED)
def test_reweighted_cdf_against_fifty_digits(kind):
    # the table's cdf against int_0^x f w dx / Z at every fifth grid point
    # and the worst one; measured 2.1e-7 (exp), 5.2e-7 (gauss), 9.1e-8 (table)
    weight = WEIGHTED[kind]
    z = weighted_integral(weight, 0, _X_END)
    xs = CDF_GRID[sorted({*range(0, CDF_GRID.size, 5), CDF_WORST[kind]})]
    expect = [weighted_integral(weight, 0, float(x)) / z for x in xs]
    got = _cached_distribution(weight).cdf(xs)
    assert np.max(np.abs(got - expect)) < 1e-6


@pytest.mark.parametrize("kind", WEIGHTED)
def test_reweighted_cdf_equals_the_bin_formula(kind):
    # linear interpolation in F through the nodes (F_j, cum_j) is the old
    # phi-bin formula up to rounding: on a sorted seed-7 draw and the grid
    weight = WEIGHTED[kind]
    dist = _cached_distribution(weight)
    xs = np.concatenate((np.sort(mc_sample(100_000, seed=7).omega), CDF_GRID))
    assert np.max(np.abs(dist.cdf(xs) - reweighted_cdf_bins(weight, xs))) <= 4.4e-16
    assert dist.cdf(0.0) == 0.0
    for x in (1e10, 1e300, math.inf):
        assert dist.cdf(x) == 1.0, x


def test_reweighted_cdf_on_more_points_than_nodes_does_not_warn():
    # with more points than nodes np.interp takes every bin's slope first,
    # 0/0 on the runs of equal F far in the tail; under the suite's
    # filterwarnings = error any warning from that would fail this call
    dist = _cached_distribution(WeightSpec("exp"))
    assert np.any(np.diff(dist.f_nodes) == 0.0)
    xs = np.append(np.geomspace(1e-3, 1e12, 2 * dist.f_nodes.size), math.inf)
    got = dist.cdf(xs)
    assert np.all(np.isfinite(got)) and np.all(np.diff(got) >= 0.0)
    assert got[0] > 0.0 and got[-1] == 1.0


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


def test_spectral_tables_compare_by_identity():
    a, b = SpectralTable.build([1.0, 2.0]), SpectralTable.build([1.0, 3.0])
    assert a == a and not a == b and a != b


def test_spectral_table_rejects_bad_grid():
    with pytest.raises(ValueError):
        SpectralTable.build([])
    with pytest.raises(ValueError):
        SpectralTable.build([0.0, 1.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="grid values must be finite and positive"):
            SpectralTable.build([1.0, bad])


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
