"""Spectral distribution: quadrature routes, closed forms, moments,
Monte-Carlo sampling, and reweighting.

Reference values marked "frozen" were computed with independent
high-precision quadrature (40-digit arithmetic) of the defining fiber
integral and are pinned here as constants; the composite-Simpson oracle
embedded below provides a second in-test route to the same integral.
"""

import math

import numpy as np
import pytest

from bidisk.spectral import (
    MEAN_CLAIMED,
    TABLE_COLUMNS,
    UNIFORM_WEIGHT,
    SpectralTable,
    WeightSpec,
    cdf_closed_derived,
    cdf_closed_paper_prop,
    cdf_closed_paper_u,
    cdf_quadrature,
    cdf_quadrature_batch,
    discrepancy_ledger,
    fiber_radius,
    ks_distance,
    mc_mean,
    mc_sample,
    mean_quadrature,
    one_minus_cdf,
    pdf_closed_paper,
    pdf_quadrature,
    reweight_density,
    rho_of_omega,
    schwarz_threshold,
    second_moment_tail_model,
    series_coefficient,
    truncated_second_moment,
    weighted_mean,
    weighted_truncated_second_moment,
)
from bidisk.spectral import SampleBatch, _cached_distribution, _cdf_and_tail, _pdf_batch

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


def test_schwarz_threshold_closed_form():
    for x in np.geomspace(1e-6, 1e6, 40):
        x = float(x)
        assert abs(schwarz_threshold(x) - x / math.sqrt(16.0 + x * x)) < 1e-15


def test_schwarz_threshold_huge_argument():
    # the slice root is taken by hypot, so x^2 never overflows
    from bidisk.moment import mu_slice_invert

    for x in (1e154, 1e200, 1e300, 1.7e308):
        assert abs(mu_slice_invert(x) - 1.0) < 1e-15
        assert abs(schwarz_threshold(x) - 1.0) < 1e-15


def test_rho_of_omega_matches_slice_distance():
    from bidisk.disk import poincare_distance
    from bidisk.moment import mu_slice_invert

    for x in (0.5, 2.0, 10.0, 200.0):
        t = mu_slice_invert(x)
        assert abs(rho_of_omega(x) - poincare_distance(t, -t)) < 1e-12


def test_fiber_radius_matches_hyperbolic_disk():
    from bidisk.disk import hyperbolic_disk_euclidean

    for s in (0.0, 0.3, 0.8):
        for x in (0.5, 2.3094010767585031, 40.0):
            u = schwarz_threshold(x)
            _, r = hyperbolic_disk_euclidean(s, u)
            assert abs(fiber_radius(s, x) - r) < 1e-14


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


# ---------------------------------------------------------------------------
# closed forms


def test_cdf_closed_derived_frozen_values():
    for u, ref in CDF_DERIVED_REFERENCE.items():
        assert abs(cdf_closed_derived(u) - ref) < 1e-13


def test_cdf_closed_derived_matches_quadrature_everywhere():
    xs = np.geomspace(1e-2, 1e3, 100)
    sup = max(
        abs(cdf_closed_derived(schwarz_threshold(float(x))) - cdf_quadrature(float(x)))
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
    # the batch stencil agrees at 0, and the zero entry leaves the others alone
    batch = _pdf_batch(np.array([0.0, 1.0]))
    assert batch[0] == 0.0
    assert batch[1] == _pdf_batch(np.array([1.0]))[0]


def test_pdf_quadrature_small_x_is_linear():
    # measured leading behavior f(x) ~ x/24, not the claimed cubic
    x = 1e-3
    assert abs(pdf_quadrature(x) * 24.0 / x - 1.0) < 1e-5


def test_pdf_is_derivative_of_cdf():
    for x in (1.0, 5.0, 10.0):
        h = 1e-4 * x
        fd = (cdf_quadrature(x + h, 1e-12) - cdf_quadrature(x - h, 1e-12)) / (2.0 * h)
        assert abs(fd - pdf_quadrature(x)) < 1e-6 * max(1.0, pdf_quadrature(x))


def test_pdf_batch_column_matches_scalar():
    xs = np.geomspace(0.1, 50.0, 12)
    table = SpectralTable.build(xs)
    scalar = np.array([pdf_quadrature(float(v)) for v in xs])
    assert np.max(np.abs(table.f_quad - scalar)) < 1e-7


# ---------------------------------------------------------------------------
# moments


def test_mean_quadrature_frozen_value():
    value, bound = mean_quadrature()
    assert abs(value - MEAN_REFERENCE) < 1e-6
    assert abs(value - MEAN_REFERENCE) <= bound
    assert bound < 1e-5


def test_mean_disagrees_with_claimed_constant():
    value, _ = mean_quadrature()
    assert abs(value - MEAN_CLAIMED) > 10.0
    assert abs(MEAN_CLAIMED - 3.0 * math.pi / 2.0) == 0.0


def test_truncated_second_moment_frozen_values():
    for cut, ref in E2_REFERENCE.items():
        got = truncated_second_moment(cut)
        assert abs(got / ref - 1.0) < 1e-9
    assert truncated_second_moment(0.0) == 0.0


def test_second_moment_grows_like_log_squared():
    e2 = [truncated_second_moment(c) for c in (1e2, 1e3, 1e4)]
    assert e2[0] < e2[1] < e2[2]
    ratio = (e2[2] - e2[1]) / (e2[1] - e2[0])
    model_ratio, pure_ratio = second_moment_tail_model(1e2, 1e3, 1e4)
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


def test_mc_sample_weights_follow_spec():
    batch = mc_sample(2000, seed=12, weight=WeightSpec("exp"))
    expect = np.exp(-rho_of_omega(batch.omega))
    assert np.max(np.abs(batch.weight - expect)) < 1e-15


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


def test_uniform_reweight_is_bitwise_identity():
    for x in (0.7, 3.0, 25.0):
        assert reweight_density(UNIFORM_WEIGHT, x) == pdf_quadrature(x)


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
    ys = np.array([dist.density(float(v)) for v in xs])
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
    rows = list(table.rows())
    assert len(rows) == 9
    assert all(len(r) == len(TABLE_COLUMNS) for r in rows)


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
