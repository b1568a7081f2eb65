"""Moment-map layer: slice profile, reduction to the slice, cone preimages."""

import math

import numpy as np
import pytest

from bidisk.disk import (
    BidiskPoint,
    act_bidisk,
    poincare_distance,
    random_mobius,
    random_point,
    schwarz_distance,
    translate,
)
from bidisk.liealg import (
    ELLIPTIC_POSITIVE,
    ETA,
    XI,
    LieVector,
    adjoint,
    classify,
    random_vector,
)
from bidisk.moment import (
    cone_preimage,
    moment_vector,
    mu_slice,
    mu_slice_invert,
    omega_of_pair,
    slice_point,
    slice_reduce,
)
from bidisk.spectral import rho_of_omega
from reference import legs, moment
from test_exports import EXPORTS

EPS = np.finfo(float).eps


def test_mu_slice_examples():
    assert mu_slice(0.0) == 0.0
    assert abs(mu_slice(0.5) - 16.0 / 3.0) < 1e-15
    assert abs(mu_slice(0.3) - 2.4 / 0.91) < 1e-15


def test_mu_slice_invert_roundtrip():
    for x in np.geomspace(1e-8, 1e3, 60):
        t = mu_slice_invert(float(x))
        assert 0.0 <= t < 1.0
        assert abs(mu_slice(t) / x - 1.0) < 1e-12
    for t in np.linspace(0.0, 0.999, 40):
        assert abs(mu_slice_invert(mu_slice(float(t))) - t) < 1e-13


def test_mu_slice_invert_small_argument_is_linear():
    # rationalized form must agree with the x/8 leading behaviour
    assert mu_slice_invert(0.0) == 0.0
    assert abs(mu_slice_invert(1e-9) / (1.25e-10) - 1.0) < 1e-10


def test_slice_point_and_reduction_identity_on_slice():
    red = slice_reduce(BidiskPoint(0.3, -0.3))
    assert abs(red.t - 0.3) < 1e-14


def test_slice_reduce_example():
    red = slice_reduce(BidiskPoint(0.0, 0.8))
    assert abs(red.t - 0.5) < 1e-14
    q = act_bidisk(red.g, slice_point(red.t))
    assert abs(q.z - 0.0) < 1e-14
    assert abs(q.w - 0.8) < 1e-14


def test_slice_reduce_diagonal_branch():
    red = slice_reduce(BidiskPoint(0.2 + 0.1j, 0.2 + 0.1j))
    assert red.t == 0.0
    q = act_bidisk(red.g, slice_point(0.0))
    assert abs(q.z - (0.2 + 0.1j)) < 1e-14
    assert abs(q.w - (0.2 + 0.1j)) < 1e-14


def test_slice_reduce_property():
    rng = np.random.default_rng(31)
    for _ in range(500):
        p = BidiskPoint(random_point(rng), random_point(rng))
        red = slice_reduce(p)
        assert 0.0 <= red.t < 1.0
        q = act_bidisk(red.g, slice_point(red.t))
        assert abs(q.z - p.z) < 1e-10
        assert abs(q.w - p.w) < 1e-10


def test_moment_vector_on_slice_is_xi_ray():
    for t in np.linspace(0.0, 0.95, 20):
        v = moment_vector(BidiskPoint(float(t), float(-t)))
        scale = max(1.0, abs(v.a))
        assert abs(v.a - mu_slice(float(t))) < 1e-12 * scale
        assert abs(v.b) < 1e-12 * scale
        assert abs(v.c) < 1e-12 * scale


def test_moment_vector_example():
    v = moment_vector(BidiskPoint(0.3, -0.3))
    assert abs(v.a - 2.4 / 0.91) < 1e-12


def test_moment_vector_diagonal_is_zero():
    rng = np.random.default_rng(32)
    for _ in range(100):
        z = random_point(rng)
        assert moment_vector(BidiskPoint(z, z)).norm_inf() < 1e-12


def test_omega_of_pair_dual_route():
    # direct cross-ratio formula vs reduction to the slice
    rng = np.random.default_rng(33)
    for _ in range(500):
        p = BidiskPoint(random_point(rng), random_point(rng))
        if p.is_diagonal:
            continue
        direct = omega_of_pair(p)
        via_slice = mu_slice(slice_reduce(p).t)
        assert abs(direct - via_slice) < 1e-10 * max(1.0, direct)


def test_omega_of_pair_on_slice_value():
    p = BidiskPoint(0.3, -0.3)
    q = 0.6 / 1.09
    expect = 4.0 * q / math.sqrt((1.0 - q) * (1.0 + q))
    assert abs(omega_of_pair(p) - expect) < 1e-13
    assert abs(omega_of_pair(p) - mu_slice(0.3)) < 1e-13


def test_moment_classifies_elliptic_positive_off_diagonal():
    rng = np.random.default_rng(34)
    for _ in range(1000):
        p = BidiskPoint(random_point(rng), random_point(rng))
        if p.is_diagonal:
            continue
        cls = classify(moment_vector(p))
        assert cls.kind == ELLIPTIC_POSITIVE
        assert abs(cls.omega - omega_of_pair(p)) < 1e-10 * max(1.0, cls.omega)


def test_moment_equivariance():
    rng = np.random.default_rng(35)
    for _ in range(300):
        p = BidiskPoint(random_point(rng), random_point(rng))
        g = random_mobius(rng)
        lhs = moment_vector(act_bidisk(g, p))
        rhs = adjoint(g, moment_vector(p))
        assert (lhs - rhs).norm_inf() < 1e-9


def test_cone_preimage_roundtrip():
    rng = np.random.default_rng(36)
    for _ in range(300):
        p = BidiskPoint(random_point(rng, rmax=0.9), random_point(rng, rmax=0.9))
        if p.is_diagonal:
            continue
        y = moment_vector(p)
        q = cone_preimage(y)
        back = moment_vector(q)
        scale = max(1.0, y.norm_inf())
        assert (back - y).norm_inf() < 1e-9 * scale


def test_moment_vector_matches_slice_reduction_route():
    # closed form 2 d_S (N(z) + N(w)) against the definition Ad(g)(mu(t) xi)
    rng = np.random.default_rng(39)
    p = BidiskPoint(random_point(rng, 0.9, 10_000), random_point(rng, 0.9, 10_000))
    red = slice_reduce(p)
    ref = adjoint(red.g, XI * mu_slice(red.t))
    got = moment_vector(p)
    gap = np.max([np.abs(got.a - ref.a), np.abs(got.b - ref.b), np.abs(got.c - ref.c)], axis=0)
    assert np.all(gap <= 1e-12 * np.maximum(1.0, ref.norm_inf()))


@pytest.mark.parametrize("rmax", [0.9, 0.999, 1.0 - 1e-6])
def test_moment_vector_against_high_precision(rmax):
    # the pair's own doubles are exact, so the error is the formula's rounding,
    # relative to the largest coefficient a however near the circle they are
    rng = np.random.default_rng(40)
    p = BidiskPoint(random_point(rng, rmax, 60), random_point(rng, rmax, 60))
    got = moment_vector(p)
    (ulps,) = EXPORTS["moment_vector"].tol.values()
    for i in range(60):
        ref = moment(complex(p.z[i]), complex(p.w[i]))
        err = max(abs(float(x - r)) for x, r in zip((got.a[i], got.b[i], got.c[i]), ref))
        assert err <= ulps * EPS * float(ref[0])


def _polar(r, angle):
    return r * np.cos(angle) + 1j * (r * np.sin(angle))


def _gaps(rng, lo, hi, n):
    """n values log-uniform in [lo, hi]."""
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)


def _turns(rng, n):
    return rng.uniform(0.0, 2.0 * math.pi, n)


def _bulk(rng, n):
    return random_point(rng, 0.95, n), random_point(rng, 0.95, n)


def _near_circle(rng, n):
    return tuple(_polar(1.0 - _gaps(rng, 2e-12, 0.1, n), _turns(rng, n)) for _ in "zw")


def _close_near_circle(rng, n):
    # |z - w| of the order of 1 - |z|, where 1 - Re(conj(w) z) cancels
    gz = _gaps(rng, 2e-11, 0.1, n)
    gw = gz * _gaps(rng, 0.1, 10.0, n)
    az = _turns(rng, n)
    aw = az + gz * _gaps(rng, 0.01, 10.0, n) * rng.choice([-1.0, 1.0], n)
    return _polar(1.0 - gz, az), _polar(1.0 - gw, aw)


def _near_diagonal(rng, n):
    z = random_point(rng, 0.9, n)
    return z, z + _polar(_gaps(rng, 3e-13, 1e-3, n), _turns(rng, n))


def _near_diagonal_near_circle(rng, n):
    # |z - w| below DIAGONAL_TOL, where a = 8 |z - w| / (1 - |z|^2)^2 reaches 1e11
    z = _polar(1.0 - _gaps(rng, 2e-12, 0.1, n), _turns(rng, n))
    return z, z + _polar(_gaps(rng, 1e-16, 1e-13, n), _turns(rng, n))


def _tiny(rng, n, lo=1e-300):
    return tuple(_polar(_gaps(rng, lo, 0.1, n), _turns(rng, n)) for _ in "zw")


PAIR_FAMILIES = {
    "bulk": _bulk,
    "near_circle": _near_circle,
    "close_near_circle": _close_near_circle,
    "near_diagonal": _near_diagonal,
    "near_diagonal_near_circle": _near_diagonal_near_circle,
    "tiny": _tiny,
}


def _eps_off(got, ref) -> float:
    """The relative error of a double against an mpmath number, in eps."""
    import mpmath

    return float(abs(mpmath.mpf(float(got)) - ref) / ref) / EPS if ref else abs(got) / EPS


@pytest.mark.parametrize("family", PAIR_FAMILIES)
def test_geometry_against_fifty_digit_legs(family):
    # d_S, rho and omega are quotients of the legs |z - w| and
    # sqrt((1 - |z|^2)(1 - |w|^2)), and mu = 2 d_S (N(z) + N(w)) divides by
    # the same factors; no call may warn (filterwarnings = error)
    mpmath = pytest.importorskip("mpmath")

    n = 1000
    z, w = PAIR_FAMILIES[family](np.random.default_rng(2029), n)
    p = BidiskPoint(z, w)
    got = {
        "schwarz_distance": schwarz_distance(z, w),
        "poincare_distance": poincare_distance(z, w),
        "omega_of_pair": omega_of_pair(p),
    }
    mu = moment_vector(p)
    worst = dict.fromkeys((*got, "moment_vector"), 0.0)
    for i in range(n):
        a, b = legs(complex(z[i]), complex(w[i]))
        with mpmath.workdps(50):
            exact = {
                "schwarz_distance": a / mpmath.hypot(a, b),
                "poincare_distance": 2 * mpmath.asinh(a / b),
                "omega_of_pair": 4 * a / b,
            }
            for name, value in exact.items():
                worst[name] = max(worst[name], _eps_off(got[name][i], value))
            ref = moment(complex(z[i]), complex(w[i]))
            err = max(abs(mpmath.mpf(float(x[i])) - r) for x, r in zip((mu.a, mu.b, mu.c), ref))
            worst["moment_vector"] = max(worst["moment_vector"], float(err / ref[0]) / EPS)
    for name, value in worst.items():
        (ulps,) = EXPORTS[name].tol.values()
        assert value <= ulps, (family, name, value)


def test_mu_slice_against_fifty_digits_up_to_one():
    mpmath = pytest.importorskip("mpmath")

    rng = np.random.default_rng(2030)
    t = np.concatenate((1.0 - _gaps(rng, 2.0**-53, 1.0, 1000), rng.random(1000), [1.0 - 2.0**-53]))
    got = mu_slice(t)
    (ulps,) = EXPORTS["mu_slice"].tol.values()
    with mpmath.workdps(50):
        for ti, value in zip(t, got):
            tm = mpmath.mpf(float(ti))
            assert _eps_off(value, 8 * tm / (1 - tm * tm)) <= ulps, ti


# the identity holds also where the legs are subnormal
IDENTITY_FAMILIES = {**PAIR_FAMILIES, "tiny_to_1e-320": lambda rng, n: _tiny(rng, n, lo=1e-320)}


@pytest.mark.parametrize("family", IDENTITY_FAMILIES)
def test_poincare_distance_is_rho_of_omega_bit_for_bit(family):
    # omega / 4 is the quotient of the legs that poincare_distance takes asinh of
    z, w = IDENTITY_FAMILIES[family](np.random.default_rng(2031), 10_000)
    rho = poincare_distance(z, w)
    assert np.array_equal(rho, rho_of_omega(omega_of_pair(BidiskPoint(z, w))))


@pytest.mark.parametrize("omega", [0.5, 5.0])
@pytest.mark.parametrize("ratio", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
def test_cone_preimage_roundtrip_near_light_cone(omega, ratio):
    # targets omega N(m) with a / omega = 1 / ratio, i.e. |m| near 1
    k = 1.0 / ratio
    for theta in np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False):
        m = math.sqrt((k - 1.0) / (k + 1.0)) * complex(math.cos(theta), math.sin(theta))
        y = adjoint(translate(-m), LieVector(omega, 0.0, 0.0))
        back = moment_vector(cone_preimage(y))
        assert (back - y).norm_inf() < 1e-9 * max(1.0, y.norm_inf())


def test_cone_preimage_on_axis_returns_slice_pair():
    y = XI * mu_slice(0.4)
    q = cone_preimage(y)
    assert abs(q.z - 0.4) < 1e-12
    assert abs(q.w + 0.4) < 1e-12


def test_cone_preimage_rejects_non_elliptic_targets():
    with pytest.raises(ValueError):
        cone_preimage(ETA)
    with pytest.raises(ValueError):
        cone_preimage(XI * -1.0)
    with pytest.raises(ValueError):
        cone_preimage(LieVector(0.0, 0.0, 0.0))


def test_moment_fiber_lies_in_single_orbit():
    # points sharing a moment value share the slice parameter
    rng = np.random.default_rng(37)
    for _ in range(100):
        p = BidiskPoint(random_point(rng), random_point(rng))
        if p.is_diagonal:
            continue
        t = slice_reduce(p).t
        g = random_mobius(rng)
        q = act_bidisk(g, p)
        assert abs(slice_reduce(q).t - t) < 1e-9


def test_slice_moment_finite_difference():
    # minus the flow derivative of the potential along the slice is mu_slice
    from bidisk.disk import poincare_distance

    h = 1e-5
    for t in np.linspace(0.1, 0.9, 9):
        t = float(t)

        def rho_along_flow(s: float) -> float:
            r = math.exp(-2.0 * s) * t
            return poincare_distance(r, -r)

        d = (rho_along_flow(h) - rho_along_flow(-h)) / (2.0 * h)
        d2 = (rho_along_flow(2.0 * h) - rho_along_flow(-2.0 * h)) / (4.0 * h)
        rich = (4.0 * d - d2) / 3.0
        assert abs(-rich - mu_slice(t)) < 1e-6


def test_random_vector_scale():
    rng = np.random.default_rng(38)
    v = random_vector(rng, scale=0.0)
    assert v.norm_inf() == 0.0
