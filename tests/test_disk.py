import cmath
import math

import numpy as np
import pytest

from bidisk.disk import (
    FAR_SCHWARZ,
    BidiskPoint,
    MobiusTransform,
    act_bidisk,
    check_disk,
    hyperbolic_disk_euclidean,
    poincare_distance,
    random_mobius,
    random_point,
    schwarz_distance,
    translate,
)
from reference import poincare
from test_exports import EXPORTS

EPS = np.finfo(float).eps


def test_distance_examples():
    assert schwarz_distance(0.0, 0.5) == 0.5
    assert abs(poincare_distance(0.0, 0.5) - math.log(3.0)) < 1e-15
    assert abs(schwarz_distance(0.5, -0.5) - 0.8) < 1e-15
    assert abs(poincare_distance(0.5, -0.5) - 2.0 * math.log(3.0)) < 1e-14


def test_distance_symmetry_and_identity():
    rng = np.random.default_rng(21)
    for _ in range(300):
        z = random_point(rng)
        w = random_point(rng)
        assert schwarz_distance(z, w) == schwarz_distance(w, z)
        assert schwarz_distance(z, z) == 0.0
        assert 0.0 <= schwarz_distance(z, w) < 1.0


def test_poincare_is_two_artanh_of_schwarz():
    rng = np.random.default_rng(22)
    for _ in range(300):
        z = random_point(rng)
        w = random_point(rng)
        d = schwarz_distance(z, w)
        assert abs(poincare_distance(z, w) - 2.0 * math.atanh(d)) < 1e-13


ROUNDS_TO_ONE = [
    (1.0 - 2e-12, -(1.0 - 2e-12)),
    (1.0 - 2e-12, (1.0 - 2e-12) * 1j),
    (-(1.0 - 1e-9), 1.0 - 1e-9),
]
# real-axis pairs (t, -s), t and s in [0.9, 1 - 2e-12]: d_S >= 0.9945, and
# 1 - t, 1 - s are exact, so the tolerance is the formula's own rounding
AXIS = (0.9, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 2e-12)
REAL_AXIS = [(t, -s) for t in AXIS for s in AXIS if (t, -s) not in ROUNDS_TO_ONE]


@pytest.mark.parametrize("z, w", ROUNDS_TO_ONE + REAL_AXIS)
def test_poincare_distance_where_schwarz_rounds_to_one(z, w):
    if (z, w) in ROUNDS_TO_ONE:
        assert schwarz_distance(z, w) == 1.0
    got = poincare_distance(np.array([z, 0.5]), np.array([w, -0.5]))
    assert got[0] == poincare_distance(z, w)
    assert got[1] == poincare_distance(0.5, -0.5)
    (ulps,) = EXPORTS["poincare_distance"].tol.values()
    assert abs(got[0] / poincare(z, w) - 1.0) <= ulps * EPS


# the real-axis pairs turned by an angle a, the second point by a further
# db, where d_S > 0.99; the first pair was 4.7e-7 relative off while
# 1 - |z|^2 came from the rounded |z|
OFF_AXIS = [((1.0 - 3e-12) * cmath.exp(0.3j), -(1.0 - 2e-12))] + [
    (t * cmath.exp(1j * a), -s * cmath.exp(1j * (a + db)))
    for t in AXIS
    for s in AXIS
    for a in (0.3, 1.0, 2.5, -2.0)
    for db in (0.0, 1e-3, 0.05)
]


def test_poincare_distance_off_the_real_axis():
    z, w = (np.array(v) for v in zip(*OFF_AXIS))
    assert np.all(schwarz_distance(z, w) > FAR_SCHWARZ)
    got = poincare_distance(z, w)
    (ulps,) = EXPORTS["poincare_distance"].tol.values()
    for rho, pair in zip(got, OFF_AXIS):
        assert rho == poincare_distance(*pair)
        assert abs(rho / poincare(*pair) - 1.0) <= ulps * EPS, pair


def test_check_disk_guards_boundary():
    with pytest.raises(ValueError):
        check_disk(1.0)
    with pytest.raises(ValueError):
        check_disk(1.0 - 1e-15)
    with pytest.raises(ValueError):
        check_disk(2.0 + 0.0j)
    assert check_disk(0.3 + 0.1j) == 0.3 + 0.1j


def test_bidisk_point_guards_and_diagonal():
    with pytest.raises(ValueError):
        BidiskPoint(1.0, 0.0)
    p = BidiskPoint(0.3 + 0.1j, 0.3 + 0.1j)
    assert p.is_diagonal
    assert not BidiskPoint(0.3, 0.31).is_diagonal


def test_translate_examples():
    t = translate(0.5)
    assert t(0.5) == 0.0
    assert abs(t(-0.5) + 0.8) < 1e-15
    assert abs(t(0.0) + 0.5) < 1e-15
    # inverse translation restores the point
    assert abs(t.inverse()(0.0) - 0.5) < 1e-15


@pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-10, 2e-12])
def test_translate_near_boundary(gap):
    # |alpha|^2 - |beta|^2 rounds at eps |alpha|^2, far above 1e-10 here
    zeta = (1.0 - gap) * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))
    t = translate(zeta)
    assert np.all(np.abs(t(zeta)) < 1e-3)
    for z in zeta:
        assert abs(translate(complex(z))(complex(z))) < 1e-3


def test_rotation():
    r = MobiusTransform.rotation(math.pi / 2.0)
    assert abs(r(0.5) - 0.5j) < 1e-15
    assert abs(r(0.0)) == 0.0


def test_mobius_is_isometry():
    rng = np.random.default_rng(23)
    for _ in range(500):
        g = random_mobius(rng)
        z = random_point(rng)
        w = random_point(rng)
        assert abs(schwarz_distance(g(z), g(w)) - schwarz_distance(z, w)) < 1e-12


def test_group_law_and_inverse():
    rng = np.random.default_rng(24)
    for _ in range(300):
        g = random_mobius(rng)
        h = random_mobius(rng)
        z = random_point(rng)
        assert abs((g @ h)(z) - g(h(z))) < 1e-12
        assert abs((g @ g.inverse())(z) - z) < 1e-12
        assert abs(g.inverse()(g(z)) - z) < 1e-12


def test_identity_and_matrix_roundtrip():
    rng = np.random.default_rng(25)
    e = MobiusTransform.identity()
    assert e(0.7j) == 0.7j
    for _ in range(100):
        g = random_mobius(rng)
        back = MobiusTransform.from_matrix(g.matrix())
        z = random_point(rng)
        assert abs(back(z) - g(z)) < 1e-13


def test_from_matrix_rejects_bad_determinant():
    with pytest.raises(ValueError):
        MobiusTransform.from_matrix(np.array([[2.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        MobiusTransform(alpha=0.5, beta=0.0)
    # the rounding allowance grows with |alpha|^2 but admits no gross defect
    with pytest.raises(ValueError):
        MobiusTransform(alpha=1e6, beta=1e6)
    with pytest.raises(ValueError):
        MobiusTransform(alpha=1.0, beta=1e-4)


def test_from_matrix_rejects_a_matrix_off_the_pattern():
    # alpha and beta form an SU(1,1) pair, but the lower row does not match them
    m = translate(0.5).matrix()
    m[1, 0] += 1e-6
    with pytest.raises(ValueError, match="not in SU\\(1,1\\) within tolerance"):
        MobiusTransform.from_matrix(m)
    m[1, 0] -= 1e-6
    assert MobiusTransform.from_matrix(m) == translate(0.5)


def test_act_bidisk_applies_componentwise():
    g = translate(0.5)
    p = BidiskPoint(0.5, -0.5)
    q = act_bidisk(g, p)
    assert q.z == g(0.5)
    assert q.w == g(-0.5)


def test_hyperbolic_disk_euclidean_example():
    c, r = hyperbolic_disk_euclidean(0.5, 0.5)
    assert abs(c - 0.4) < 1e-15
    assert abs(r - 0.4) < 1e-15


def test_hyperbolic_disk_center_at_origin():
    c, r = hyperbolic_disk_euclidean(0.0, 0.3)
    assert c == 0.0
    assert r == 0.3


def test_hyperbolic_disk_boundary_has_constant_distance():
    rng = np.random.default_rng(26)
    for _ in range(200):
        s = float(rng.uniform(0.0, 0.9))
        u = float(rng.uniform(0.05, 0.95))
        c, r = hyperbolic_disk_euclidean(s, u)
        for ang in rng.uniform(0.0, 2.0 * math.pi, size=5):
            w = c + r * cmath.exp(1j * ang)
            assert abs(schwarz_distance(s, w) - u) < 1e-12


def test_hyperbolic_disk_membership_equivalence():
    # the metric ball around s and the reported euclidean disk agree pointwise
    rng = np.random.default_rng(27)
    for _ in range(50):
        s = float(rng.uniform(0.0, 0.9))
        u = float(rng.uniform(0.1, 0.9))
        c, r = hyperbolic_disk_euclidean(s, u)
        for _ in range(40):
            w = random_point(rng)
            gap = abs(abs(w - c) - r)
            if gap < 1e-9:
                continue  # skip points too close to the circle to call
            assert (schwarz_distance(s, w) < u) == (abs(w - c) < r)


def test_random_helpers_stay_in_disk():
    rng = np.random.default_rng(28)
    for _ in range(500):
        assert abs(random_point(rng, rmax=0.95)) <= 0.95
        g = random_mobius(rng, zeta_max=0.9)
        assert abs(g(0.0)) < 1.0
