import math

import numpy as np
import pytest

from bidisk.liealg import (
    ELLIPTIC_NEGATIVE,
    ELLIPTIC_POSITIVE,
    ETA,
    NON_ELLIPTIC,
    XI,
    ZERO,
    ZETA,
    LieVector,
    SymplecticGenerator,
    adjoint,
    bform,
    bracket,
    cayley_matrix,
    classify,
    exp_matrix,
    from_matrix,
    from_sp2,
    random_vector,
    to_sp2,
)
from bidisk.disk import MobiusTransform


def test_basis_matrices_have_su11_pattern():
    # diag(ia, -ia) with conjugate off-diagonal entries
    for base in (XI, ETA, ZETA):
        m = base.matrix()
        assert abs(m[1, 1] - np.conj(m[0, 0])) == 0.0
        assert abs(m[1, 0] - np.conj(m[0, 1])) == 0.0
        assert abs(m[0, 0].real) == 0.0


def test_matrix_roundtrip_exact_on_basis():
    for base in (XI, ETA, ZETA):
        back = from_matrix(base.matrix())
        assert (back.a, back.b, back.c) == (base.a, base.b, base.c)


def test_from_matrix_rejects_wrong_shape_and_pattern():
    with pytest.raises(ValueError):
        from_matrix(np.eye(3))
    # ia on the diagonal must come with -ia; a generic diagonal fails
    with pytest.raises(ValueError):
        from_matrix(np.array([[1j, 0.0], [0.0, 2j]]))
    with pytest.raises(ValueError):
        from_matrix(np.array([[1j, 1.0], [2.0, -1j]]))


def test_bracket_on_basis():
    assert bracket(XI, ETA) - ZETA * 2.0 == LieVector(0.0, 0.0, 0.0)
    assert bracket(XI, ZETA) + ETA * 2.0 == LieVector(0.0, 0.0, 0.0)
    assert bracket(ETA, ZETA) + XI * 2.0 == LieVector(0.0, 0.0, 0.0)


def test_bracket_matches_matrix_commutator():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = random_vector(rng)
        y = random_vector(rng)
        direct = bracket(x, y).matrix()
        mx, my = x.matrix(), y.matrix()
        assert np.max(np.abs(direct - (mx @ my - my @ mx))) < 1e-13


def test_bracket_antisymmetry_and_jacobi():
    rng = np.random.default_rng(12)
    for _ in range(200):
        x, y, z = (random_vector(rng) for _ in range(3))
        assert (bracket(x, y) + bracket(y, x)).norm_inf() < 1e-13
        j = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert j.norm_inf() < 1e-12


def test_bform_signature_on_basis():
    assert bform(XI) == -1.0
    assert bform(ETA) == 1.0
    assert bform(ZETA) == 1.0
    assert bform(XI, ETA) == 0.0
    assert bform(XI, ZETA) == 0.0
    assert bform(ETA, ZETA) == 0.0


def test_bform_is_half_trace_of_product():
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = random_vector(rng)
        y = random_vector(rng)
        tr = np.trace(x.matrix() @ y.matrix())
        assert abs(tr.imag) < 1e-13
        assert abs(bform(x, y) - 0.5 * tr.real) < 1e-12


def test_bform_invariant_under_adjoint():
    from bidisk.disk import random_mobius

    rng = np.random.default_rng(14)
    for _ in range(200):
        g = random_mobius(rng)
        x = random_vector(rng)
        y = random_vector(rng)
        assert abs(bform(adjoint(g, x), adjoint(g, y)) - bform(x, y)) < 1e-9


@pytest.mark.parametrize(
    "vec,kind,omega",
    [
        ((2.0, 0.0, 0.0), ELLIPTIC_POSITIVE, 2.0),
        ((-3.0, 1.0, 1.0), ELLIPTIC_NEGATIVE, math.sqrt(7.0)),
        ((0.0, 1.0, 0.0), NON_ELLIPTIC, None),
        ((1.0, 1.0, 0.0), NON_ELLIPTIC, None),  # null vector, bform == 0
        ((1e-14, 0.0, 0.0), ZERO, 0.0),
        ((0.0, 0.0, 0.0), ZERO, 0.0),
    ],
)
def test_classify_examples(vec, kind, omega):
    got = classify(LieVector(*vec))
    assert got.kind == kind
    if omega is None:
        assert got.omega is None
    else:
        assert abs(got.omega - omega) < 1e-12


def test_classify_matches_eigensolver():
    # dual route: spectral kind from the quadratic form vs numpy eigenvalues
    rng = np.random.default_rng(15)
    for _ in range(2000):
        x = random_vector(rng, scale=2.0)
        got = classify(x)
        ev = np.linalg.eigvals(x.matrix())
        if got.kind in (ELLIPTIC_POSITIVE, ELLIPTIC_NEGATIVE):
            assert np.max(np.abs(ev.real)) < 1e-10 * max(1.0, got.omega)
            assert abs(np.max(ev.imag) - got.omega) < 1e-9 * max(1.0, got.omega)
        elif got.kind == NON_ELLIPTIC:
            assert np.max(np.abs(ev.imag)) < 1e-6 + 1e-9 * np.max(np.abs(ev))


def test_exp_matrix_of_xi_is_rotation():
    for s in np.linspace(-2.0, 2.0, 9):
        m = exp_matrix(XI * s)
        expect = np.diag([np.exp(1j * s), np.exp(-1j * s)])
        assert np.max(np.abs(m - expect)) < 1e-14


def test_exp_matrix_matches_power_series():
    rng = np.random.default_rng(16)
    for _ in range(100):
        x = random_vector(rng)
        m = x.matrix()
        series = np.eye(2, dtype=complex)
        term = np.eye(2, dtype=complex)
        for k in range(1, 30):
            term = term @ m / k
            series = series + term
        assert np.max(np.abs(exp_matrix(x) - series)) < 1e-12


def test_exp_matrix_has_unit_determinant():
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = random_vector(rng)
        assert abs(np.linalg.det(exp_matrix(x)) - 1.0) < 1e-12


def test_adjoint_of_xi_rotation_rotates_eta_zeta_plane():
    # exp(s*xi) acts on span(eta, zeta) by rotation of angle 2s
    for s in (0.1, math.pi / 4.0, 1.3):
        g = MobiusTransform.from_matrix(exp_matrix(XI * s))
        got = adjoint(g, ETA)
        expect = ETA * math.cos(2.0 * s) + ZETA * math.sin(2.0 * s)
        assert (got - expect).norm_inf() < 1e-13
        assert (adjoint(g, XI) - XI).norm_inf() < 1e-13


def test_adjoint_quarter_turn_sends_eta_to_zeta():
    g = MobiusTransform.from_matrix(exp_matrix(XI * (math.pi / 4.0)))
    got = adjoint(g, ETA)
    assert (got - ZETA).norm_inf() < 1e-14


def test_to_sp2_of_xi_multiple_is_standard_rotation_generator():
    s = to_sp2(XI * 3.0)
    assert np.allclose(s.matrix(), [[0.0, 3.0], [-3.0, 0.0]], atol=0.0)


def test_sp2_roundtrip_and_cayley_conjugation():
    rng = np.random.default_rng(18)
    c = cayley_matrix()
    cinv = c.conj().T
    assert np.max(np.abs(c @ cinv - np.eye(2))) < 1e-15
    for _ in range(200):
        x = random_vector(rng)
        s = to_sp2(x)
        back = from_sp2(s)
        assert (back - x).norm_inf() < 1e-14
        # same change of basis realized by the Cayley conjugation
        conj = c @ x.matrix() @ cinv
        assert np.max(np.abs(conj.imag)) < 1e-13
        assert np.max(np.abs(conj.real - s.matrix())) < 1e-13
        assert abs(np.trace(s.matrix())) < 1e-15


def test_sp2_preserves_eigenvalues():
    rng = np.random.default_rng(19)
    for _ in range(200):
        x = random_vector(rng)
        e1 = np.sort_complex(np.linalg.eigvals(x.matrix()))
        e2 = np.sort_complex(np.linalg.eigvals(to_sp2(x).matrix().astype(complex)))
        direct = np.max(np.abs(e1 - e2))
        swapped = np.max(np.abs(e1 - e2[::-1]))
        assert min(direct, swapped) < 1e-12


def test_symplectic_generator_is_trace_free():
    g = SymplecticGenerator(1.0, 2.0, 3.0)
    m = g.matrix()
    assert m[0, 0] == -m[1, 1]
