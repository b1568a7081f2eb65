"""Moment-map layer: slice profile, reduction to the slice, cone preimages."""

import math

import numpy as np
import pytest

from bidisk.disk import BidiskPoint, act_bidisk, random_mobius, random_point, translate
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
from reference import moment
from test_exports import EXPORTS


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
    # mu is conditioned like 1 / (1 - |z|): one ulp of z moves it by
    # eps / (1 - |z|) relative, so the bound scales with the nearer point
    rng = np.random.default_rng(40)
    p = BidiskPoint(random_point(rng, rmax, 60), random_point(rng, rmax, 60))
    got = moment_vector(p)
    (tol,) = EXPORTS["moment_vector"].tol.values()
    for i in range(60):
        ref = moment(complex(p.z[i]), complex(p.w[i]))
        err = max(abs(float(x - r)) for x, r in zip((got.a[i], got.b[i], got.c[i]), ref))
        edge = 1.0 - max(abs(p.z[i]), abs(p.w[i]))
        assert err <= tol * max(1.0, float(ref[0])) / edge


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
