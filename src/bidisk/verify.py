"""Verification report over the whole package.

Each named check returns a dict with keys status, value, tolerance and
details.  Statuses: "pass" for required agreements, "discrepancy" for a
stable measured disagreement between candidate descriptions (reported,
not a failure), and "fail" for violated requirements.  The checks that
draw random samples take them from the one seed that run_all passes to
every check.  Every finite-difference check is Richardson-extrapolated
across step sizes h and 2h; when quadrature.uncertified rejects the
extrapolation residual (above quadrature.FD_TOL) the check fails like any
other, with details prefixed STEP_SIZE_PREFIX, "step-size failure:".
"""

from __future__ import annotations

import json
import math

import numpy as np

from .disk import (
    BidiskPoint,
    act_bidisk,
    hyperbolic_disk_euclidean,
    poincare_distance,
    random_mobius,
    random_point,
    schwarz_distance,
)
from .liealg import (
    ELLIPTIC_NEGATIVE,
    ELLIPTIC_POSITIVE,
    LieVector,
    XI,
    adjoint,
    bform,
    bracket,
    cayley_matrix,
    classify,
    from_sp2,
    random_vector,
    to_sp2,
)
from .moment import (
    cone_preimage,
    moment_vector,
    mu_slice,
    omega_of_pair,
    slice_point,
    slice_reduce,
)
from . import quadrature  # FD_STEP and FD_TOL, read at call time
from .quadrature import STEP_SIZE_PREFIX, central_difference, richardson  # noqa: F401 (re-exported)
from .spectral import _entry, discrepancy_ledger

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy"

# sample sizes, sampling radii and second-difference grid of the checks
N_PROPERTY = 500
N_CLASSIFY = 10000
N_ISOMETRY = 1000
N_CONE = 10000
N_EQUIVARIANCE = 1000
N_SURJECTIVITY = 300
N_COISOTROPY = 200
N_FIBER = 1000
RMAX = 0.9
ZETA_MAX = 0.9
GRID_N = 20
GRID_HALFWIDTH = 0.8
FD_STEP_SECOND = 3e-4


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _worst(*defects) -> float:
    """Largest entry of arrays of nonnegative defects; NaN if any is NaN."""
    return float(np.max([np.max(d, initial=0.0) for d in defects]))


def _certified_second(f, x, h):
    return richardson(lambda s: (f(x + s) - 2.0 * f(x) + f(x - s)) / (s * s), h)


def _step_failure(residual: float, where: str) -> dict | None:
    """A failing entry when quadrature.uncertified rejects the residual,
    else None."""
    details = quadrature.uncertified(residual, where)
    if details is None:
        return None
    return _entry(FAIL, {"max_rel_residual": float(residual)}, quadrature.FD_TOL, details)


# ---------------------------------------------------------------------------
# Lie-algebra checks


def check_lie_bform_signature(seed: int) -> dict:
    rng = _rng(seed, 1)
    x = random_vector(rng, size=N_PROPERTY)
    y = random_vector(rng, size=N_PROPERTY)
    m = x.matrix() @ y.matrix()
    tr = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    worst = _worst(np.abs(bform(x, y) - tr.real), np.abs(tr.imag))
    basis = {
        "xi_xi": bform(XI, XI) + 1.0,
        "eta_eta": bform(LieVector(0, 1, 0)) - 1.0,
        "zeta_zeta": bform(LieVector(0, 0, 1)) - 1.0,
    }
    worst_basis = max(abs(v) for v in basis.values())
    ok = worst <= 1e-12 and worst_basis == 0.0
    return _entry(
        PASS if ok else FAIL,
        {"max_trace_defect": worst, "max_basis_defect": float(worst_basis)},
        1e-12,
        f"coordinate form -a1 a2 + b1 b2 + c1 c2 against tr(xy)/2 on "
        f"{N_PROPERTY} standard-normal vector pairs, plus exact "
        f"(-1, 1, 1) values on the basis",
    )


def check_lie_bracket_jacobi(seed: int) -> dict:
    rng = _rng(seed, 2)
    x, y, z = (random_vector(rng, size=N_PROPERTY) for _ in range(3))
    mx, my = x.matrix(), y.matrix()
    worst_comm = _worst(np.abs(mx @ my - my @ mx - bracket(x, y).matrix()))
    j = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
    worst_jacobi = _worst(j.norm_inf())
    ok = worst_comm <= 1e-12 and worst_jacobi <= 1e-12
    return _entry(
        PASS if ok else FAIL,
        {"max_commutator_defect": worst_comm, "max_jacobi_defect": worst_jacobi},
        1e-12,
        f"structure-constant bracket against 2x2 matrix commutators and the "
        f"Jacobi identity on {N_PROPERTY} standard-normal triples",
    )


def check_lie_classify_eigensolver(seed: int) -> dict:
    rng = _rng(seed, 3)
    x = random_vector(rng, size=N_CLASSIFY)
    cls = classify(x)
    ev = np.linalg.eigvals(x.matrix())
    scale = np.maximum(1.0, np.max(np.abs(ev), axis=-1))
    elliptic_eig = np.max(np.abs(ev.real), axis=-1) <= 1e-10 * scale
    is_elliptic = np.isin(cls.kind, (ELLIPTIC_POSITIVE, ELLIPTIC_NEGATIVE))
    mismatches = int(np.sum(is_elliptic != elliptic_eig))
    both = is_elliptic & elliptic_eig
    w_eig = np.max(np.abs(ev.imag), axis=-1)[both]
    worst_omega = _worst(np.abs(cls.omega[both] - w_eig) / np.maximum(1.0, w_eig))
    ok = mismatches == 0 and worst_omega <= 1e-10
    return _entry(
        PASS if ok else FAIL,
        {"tag_mismatches": mismatches, "max_rel_omega_defect": worst_omega},
        1e-10,
        f"classification tags and omega against numpy eigenvalues of the 2x2 "
        f"matrices on {N_CLASSIFY} standard-normal vectors",
    )


def check_lie_adjoint_invariance(seed: int) -> dict:
    rng = _rng(seed, 4)
    g = random_mobius(rng, ZETA_MAX, size=N_PROPERTY)
    x = random_vector(rng, size=N_PROPERTY)
    y = random_vector(rng, size=N_PROPERTY)
    gx = adjoint(g, x)
    worst = _worst(np.abs(bform(gx, adjoint(g, y)) - bform(x, y)))
    changed = classify(gx).kind != classify(x).kind
    class_breaks = int(np.sum((np.abs(bform(x)) > 1e-6) & changed))
    ok = worst <= 1e-10 and class_breaks == 0
    return _entry(
        PASS if ok else FAIL,
        {"max_bform_defect": worst, "class_changes": class_breaks},
        1e-10,
        f"Ad-invariance of the bilinear form and of the spectral class on "
        f"{N_PROPERTY} (g, x, y) samples with |zeta(g)| <= {ZETA_MAX}",
    )


def check_lie_sp2_roundtrip(seed: int) -> dict:
    rng = _rng(seed, 5)
    x = random_vector(rng, size=N_PROPERTY)
    s = to_sp2(x)
    mx, ms = x.matrix(), s.matrix()
    cay = cayley_matrix()
    cay_inv = np.conj(cay.T)  # C is unitary
    e1 = np.linalg.eigvals(mx)
    e2 = np.linalg.eigvals(ms.astype(complex))
    # compare as a multiset: best of the two pairings
    direct = np.max(np.abs(e1 - e2), axis=-1)
    swapped = np.max(np.abs(e1 - e2[..., ::-1]), axis=-1)
    worst_rt = _worst((from_sp2(s) - x).norm_inf())
    worst_eig = _worst(np.minimum(direct, swapped))
    worst_conj = _worst(np.abs(cay @ mx @ cay_inv - ms))
    ok = worst_rt <= 1e-14 and worst_eig <= 1e-8 and worst_conj <= 1e-12
    return _entry(
        PASS if ok else FAIL,
        {
            "max_roundtrip_defect": worst_rt,
            "max_eigenvalue_defect": worst_eig,
            "max_conjugation_defect": worst_conj,
        },
        1e-8,
        f"to_sp2/from_sp2 round trip (tol 1e-14), agreement with explicit "
        f"Cayley conjugation (tol 1e-12), and eigenvalue preservation on "
        f"{N_PROPERTY} standard-normal vectors",
    )


# ---------------------------------------------------------------------------
# disk checks


def check_disk_mobius_isometry(seed: int) -> dict:
    rng = _rng(seed, 6)
    g = random_mobius(rng, ZETA_MAX, size=N_ISOMETRY)
    z = random_point(rng, RMAX, size=N_ISOMETRY)
    w = random_point(rng, RMAX, size=N_ISOMETRY)
    gz, gw = g(z), g(w)
    worst_ds = _worst(np.abs(schwarz_distance(gz, gw) - schwarz_distance(z, w)))
    worst_rho = _worst(np.abs(poincare_distance(gz, gw) - poincare_distance(z, w)))
    ok = worst_ds <= 1e-12 and worst_rho <= 1e-10
    return _entry(
        PASS if ok else FAIL,
        {"max_schwarz_defect": worst_ds, "max_rho_defect": worst_rho},
        1e-10,
        f"invariance of the Schwarz (tol 1e-12) and hyperbolic (tol 1e-10) "
        f"distances under {N_ISOMETRY} random automorphisms applied to "
        f"area-uniform pairs with |z| <= {RMAX}",
    )


def check_disk_group_law(seed: int) -> dict:
    rng = _rng(seed, 7)
    g, h, k = (random_mobius(rng, ZETA_MAX, size=N_ISOMETRY) for _ in range(3))
    z = random_point(rng, RMAX, size=N_ISOMETRY)
    comp = (g @ h) @ k
    det = np.abs(comp.alpha) ** 2 - np.abs(comp.beta) ** 2
    worst_pt = _worst(np.abs(comp(z) - g(h(k(z)))), np.abs((g @ g.inverse())(z) - z))
    worst_det = _worst(np.abs(det - 1.0))
    ok = worst_pt <= 1e-12 and worst_det <= 1e-12
    return _entry(
        PASS if ok else FAIL,
        {"max_action_defect": worst_pt, "max_det_drift": worst_det},
        1e-12,
        f"composition = pointwise application and determinant stability on "
        f"{N_ISOMETRY} random triples (plus g g^-1 = id)",
    )


def check_disk_fiber_circle(seed: int) -> dict:
    rng = _rng(seed, 8)
    s = rng.uniform(0.0, 0.95, N_FIBER)
    u = rng.uniform(0.05, 0.95, N_FIBER)
    c, r = hyperbolic_disk_euclidean(s, u)
    k = np.arange(8) + rng.random((N_FIBER, 8))
    w = c[:, None] + r[:, None] * np.exp(1j * (2.0 * math.pi * k / 8.0))
    worst = _worst(np.abs(schwarz_distance(s[:, None], w) - u[:, None]))
    return _entry(
        PASS if worst <= 1e-9 else FAIL,
        {"max_radius_defect": worst},
        1e-9,
        f"points on the Euclidean boundary circle of the Schwarz disk are at "
        f"Schwarz distance u from the center: {N_FIBER} random (s, u) "
        f"pairs, 8 jittered angles each",
    )


# ---------------------------------------------------------------------------
# moment checks


def check_moment_diagonal_zero(seed: int) -> dict:
    rng = _rng(seed, 9)
    z = random_point(rng, RMAX, size=100)
    worst = _worst(moment_vector(BidiskPoint(z, z)).norm_inf())
    return _entry(
        PASS if worst <= 1e-12 else FAIL,
        {"max_moment_norm": worst},
        1e-12,
        "the moment vector vanishes on 100 random diagonal pairs (z, z)",
    )


def check_moment_cone_positive(seed: int) -> dict:
    rng = _rng(seed, 10)
    p = BidiskPoint(*random_point(rng, RMAX, size=(2, N_CONE)))
    off = ~p.is_diagonal
    cls = classify(moment_vector(p))
    positive = cls.kind == ELLIPTIC_POSITIVE
    bad_class = int(np.sum(off & ~positive))
    keep = off & positive
    w_pair = omega_of_pair(p)[keep]
    worst_omega = _worst(np.abs(cls.omega[keep] - w_pair) / np.maximum(1.0, w_pair))
    ok = bad_class == 0 and worst_omega <= 1e-10
    return _entry(
        PASS if ok else FAIL,
        {"off_cone_count": bad_class, "max_rel_omega_defect": worst_omega},
        1e-10,
        f"moment vectors of {N_CONE} random off-diagonal pairs are "
        f"elliptic-positive with rotation number 4q/sqrt(1-q^2), q the "
        f"Schwarz distance of the pair",
    )


def check_moment_slice_fd(seed: int) -> dict:
    h = quadrature.fd_constant("FD_STEP")
    t = np.linspace(0.1, 0.9, 9)

    def rho_flow(s: float) -> np.ndarray:
        r = np.exp(-2.0 * s) * t
        return poincare_distance(r, -r)

    d, res = central_difference(rho_flow, 0.0, h)
    worst_defect = _worst(np.abs(-d - mu_slice(t)))
    worst_res = _worst(res / np.maximum(1.0, np.abs(d)))
    if failed := _step_failure(worst_res, "slice moment derivative, t in [0.1, 0.9]"):
        return failed
    return _entry(
        PASS if worst_defect <= 1e-6 else FAIL,
        {"max_defect": worst_defect, "max_rel_residual": worst_res},
        1e-6,
        f"minus the s-derivative of rho(e^-2s t, -e^-2s t) at s=0 equals "
        f"8t/(1-t^2) on t in [0.1, 0.9] (9 points, step h={h:g}, "
        f"Richardson-certified)",
    )


def check_moment_equivariance(seed: int) -> dict:
    rng = _rng(seed, 11)
    p = BidiskPoint(*random_point(rng, RMAX, size=(2, N_EQUIVARIANCE)))
    g = random_mobius(rng, ZETA_MAX, size=N_EQUIVARIANCE)
    lhs = moment_vector(act_bidisk(g, p))
    rhs = adjoint(g, moment_vector(p))
    worst = _worst((lhs - rhs).norm_inf())
    return _entry(
        PASS if worst <= 1e-9 else FAIL,
        {"max_equivariance_defect": worst},
        1e-9,
        f"mu(g.p) = Ad(g) mu(p) on {N_EQUIVARIANCE} random (g, p) pairs "
        f"with |z| <= {RMAX}, |zeta(g)| <= {ZETA_MAX}",
    )


def check_moment_coisotropy(seed: int) -> dict:
    rng = _rng(seed, 12)
    delta = 1e-6
    t = rng.uniform(0.1, 0.8, N_COISOTROPY)
    g = random_mobius(rng, 0.7, size=N_COISOTROPY)
    p1 = act_bidisk(g, slice_point(t))
    p2 = act_bidisk(g, slice_point(t + delta))
    d = moment_vector(p1) - moment_vector(p2)
    dmu = np.sqrt(d.a * d.a + d.b * d.b + d.c * d.c)
    worst_ratio = _worst(np.abs(slice_reduce(p1).t - slice_reduce(p2).t) / dmu)
    return _entry(
        PASS if worst_ratio <= 1.0 else FAIL,
        {"max_ratio": worst_ratio},
        1.0,
        f"transverse control |dt| <= C ||d mu||_2 with C = 1 on "
        f"{N_COISOTROPY} orbit pairs separated by dt = {delta:g}, "
        f"|zeta(g)| <= 0.7 (C covers the adjoint amplification e^rho ~ 5.7 "
        f"against dt/domega <= 1/8)",
    )


def check_moment_surjectivity(seed: int) -> dict:
    rng = _rng(seed, 13)
    omega = rng.uniform(0.5, 20.0, N_SURJECTIVITY)
    g = random_mobius(rng, 0.7, size=N_SURJECTIVITY)
    y = adjoint(g, LieVector(omega, 0.0, 0.0))
    defect = (moment_vector(cone_preimage(y)) - y).norm_inf()
    worst = _worst(defect / np.maximum(1.0, y.norm_inf()))
    return _entry(
        PASS if worst <= 1e-9 else FAIL,
        {"max_rel_defect": worst},
        1e-9,
        f"cone_preimage inverts the moment map on {N_SURJECTIVITY} "
        f"elliptic-positive targets Ad(g)(omega xi), omega in [0.5, 20], "
        f"|zeta(g)| <= 0.7",
    )


# ---------------------------------------------------------------------------
# plurisubharmonicity checks


def _rho_uv(u, v):
    return poincare_distance((u + v) / 2.0, (u - v) / 2.0)


def _hermitian_hessian(u0, v0, h: float):
    """Entries (H_uu, H_vv, H_uv) of the complex Hessian of rho at
    (u0, v0) from quarter-Laplacian and cross stencils of step h."""

    def f(u, v):
        return _rho_uv(u0 + u, v0 + v)

    base = 4.0 * f(0.0, 0.0)
    huu = (f(h, 0) + f(-h, 0) + f(1j * h, 0) + f(-1j * h, 0) - base) / (4.0 * h * h)
    hvv = (f(0, h) + f(0, -h) + f(0, 1j * h) + f(0, -1j * h) - base) / (4.0 * h * h)

    def cross(du: complex, dv: complex):
        return (f(du, dv) - f(du, -dv) - f(-du, dv) + f(-du, -dv)) / (4.0 * h * h)

    pxx = cross(h, h)
    pyy = cross(1j * h, 1j * h)
    pxy = cross(h, 1j * h)
    pyx = cross(1j * h, h)
    huv = 0.25 * ((pxx + pyy) + 1j * (pxy - pyx))
    return huu, hvv, huv


def _min_eig(huu, hvv, huv):
    """Smaller eigenvalue of the Hermitian [[huu, huv], [conj(huv), hvv]]."""
    return 0.5 * (huu + hvv) - np.sqrt(0.25 * (huu - hvv) ** 2 + np.abs(huv) ** 2)


def check_psh_hessian_grid(seed: int) -> dict:
    h = FD_STEP_SECOND
    grid = np.linspace(-GRID_HALFWIDTH, GRID_HALFWIDTH, GRID_N)
    z, w = np.meshgrid(grid + 0j, 1j * grid, indexing="ij")
    keep = np.abs(z - w) >= 10.0 * h
    u0, v0 = z[keep] + w[keep], z[keep] - w[keep]
    extrap, res = richardson(lambda s: _min_eig(*_hermitian_hessian(u0, v0, s)), h)
    worst_res = _worst(res / np.maximum(1.0, np.abs(extrap)))
    if failed := _step_failure(worst_res, "complex Hessian grid"):
        return failed
    min_eig = float(np.min(extrap, initial=math.inf))
    return _entry(
        PASS if min_eig > 0.0 else FAIL,
        {"min_eigenvalue": min_eig, "points": int(np.sum(keep)), "max_rel_residual": worst_res},
        0.0,
        f"the complex Hessian of rho in the rotated coordinates "
        f"(u, v) = (z + w, z - w) is positive definite on a "
        f"{GRID_N}x{GRID_N} grid (z real, w imaginary, halfwidth "
        f"{GRID_HALFWIDTH}, pairs with |z - w| < 10h excluded; "
        f"Richardson-certified quarter-Laplacian and cross stencils, h={h:g})",
    )


def check_psh_mixed_on_slice(seed: int) -> dict:
    h = FD_STEP_SECOND
    u0 = 0.0
    v0 = 2.0 * np.linspace(0.1, 0.9, 9) + 0j
    extrap, res = richardson(lambda s: np.abs(_hermitian_hessian(u0, v0, s)[2]), h)
    # cancellation noise floor of the second-difference stencil; the
    # raw residual can vanish exactly by conjugation symmetry
    floor = 4.0 * 2.3e-16 * _rho_uv(u0, v0) / (h * h)
    worst = _worst(np.abs(extrap))
    worst_res = _worst(np.maximum(res, floor))
    if failed := _step_failure(worst_res, "mixed Hessian entry on the slice"):
        return failed
    return _entry(
        PASS if worst <= 1e-5 else FAIL,
        {"max_mixed_entry": worst, "max_residual": worst_res},
        1e-5,
        f"the mixed Hessian entry H_uv vanishes along the antisymmetric "
        f"locus (u = 0, v = 2t), t in [0.1, 0.9] (step h={h:g})",
    )


def check_psh_radial_convexity(seed: int) -> dict:
    h = FD_STEP_SECOND

    def profile(x):
        r = np.exp(x)
        return poincare_distance(r, -r)

    x = np.linspace(-3.0, -0.1, 30)
    extrap, res = _certified_second(profile, x, h)
    ref = 2.0 * np.cosh(x) / np.sinh(x) ** 2
    worst_rel = _worst(np.abs(extrap - ref) / np.abs(ref))
    worst_res = _worst(res / np.maximum(1.0, np.abs(extrap)))
    near = np.array([-0.01, -0.001])
    near_zero, _ = _certified_second(profile, near, np.minimum(h, np.abs(near) / 4.0))
    min_near_zero = float(np.min(near_zero))
    if failed := _step_failure(worst_res, "radial profile second derivative"):
        return failed
    ok = worst_rel <= 1e-4 and min_near_zero > 1e3
    return _entry(
        PASS if ok else FAIL,
        {
            "max_rel_defect": worst_rel,
            "min_second_derivative_near_zero": min_near_zero,
        },
        1e-4,
        f"d^2/dx^2 rho(e^x, -e^x) = 2 cosh(x)/sinh(x)^2 > 0 on "
        f"x in [-3, -0.1] (30 points, h={h:g}, Richardson-certified), and "
        f"the second derivative diverges as x -> 0^-",
    )


def check_psh_radial_sech_form(seed: int) -> dict:
    h = FD_STEP_SECOND

    def sech_profile(x: float) -> float:
        # radial Schwarz-distance profile d_S(e^x, -e^x) = sech(x),
        # extended through its boundary maximum at x = 0
        return 1.0 / math.cosh(x)

    # tie the closed profile to the geometric route at an interior point
    link = abs(sech_profile(-0.5) - schwarz_distance(math.exp(-0.5), -math.exp(-0.5)))
    extrap, res = _certified_second(sech_profile, 0.0, h)
    if failed := _step_failure(res, "sech profile at 0"):
        return failed
    agrees = abs(extrap + 1.0) <= 1e-6 and link <= 1e-14
    return _entry(
        DISCREPANCY if agrees else FAIL,
        {
            "second_derivative_at_0": float(extrap),
            "analytic": -1.0,
            "profile_link_defect": float(link),
        },
        1e-6,
        "the bare Schwarz-distance radial profile sech(x) is strictly "
        "concave at its maximum (second derivative -1), so radial convexity "
        "genuinely requires the artanh factor of the hyperbolic distance; "
        "recorded as a standing discrepancy against the distance-squared "
        "shortcut",
    )


def check_psh_curve_positivity(seed: int) -> dict:
    r = 0.01
    t = np.array([[0.2], [0.5], [0.8]])
    u = r * np.exp(1j * math.pi * np.arange(8) / 4.0)

    def gamma_rho(u):
        return poincare_distance(t + u, -t + u)

    base = gamma_rho(0.0)
    worst_delta = float(np.min(gamma_rho(u) - base))
    worst_second = float(np.min((gamma_rho(r) - 2.0 * base + gamma_rho(-r)) / (r * r)))
    lhs = (1.0 + t * t - np.abs(u) ** 2) ** 2 + 4.0 * t * t * u.imag**2
    worst_ineq = float(np.max(lhs - (1.0 + t * t) ** 2))
    ok = worst_delta > 0.0 and worst_second > 0.0 and worst_ineq < 0.0
    return _entry(
        PASS if ok else FAIL,
        {
            "min_delta": worst_delta,
            "min_second_difference": worst_second,
            "max_inequality_slack": worst_ineq,
        },
        0.0,
        "rho increases off the antisymmetric slice along the translated "
        "curves gamma(u) = (t+u, -t+u): delta(u) > 0 at |u| = 0.01 in 8 "
        "directions for t in {0.2, 0.5, 0.8}, the real-direction second "
        "difference is positive, and the equivalent algebraic inequality "
        "(1+t^2-|u|^2)^2 + 4 t^2 Im(u)^2 < (1+t^2)^2 holds strictly",
    )


# ---------------------------------------------------------------------------
# report assembly

_CHECKS = (
    ("lie_bform_signature", check_lie_bform_signature),
    ("lie_bracket_jacobi", check_lie_bracket_jacobi),
    ("lie_classify_eigensolver", check_lie_classify_eigensolver),
    ("lie_adjoint_invariance", check_lie_adjoint_invariance),
    ("lie_sp2_roundtrip", check_lie_sp2_roundtrip),
    ("disk_mobius_isometry", check_disk_mobius_isometry),
    ("disk_group_law", check_disk_group_law),
    ("disk_fiber_circle", check_disk_fiber_circle),
    ("moment_diagonal_zero", check_moment_diagonal_zero),
    ("moment_cone_positive", check_moment_cone_positive),
    ("moment_slice_fd", check_moment_slice_fd),
    ("moment_equivariance", check_moment_equivariance),
    ("moment_coisotropy", check_moment_coisotropy),
    ("moment_surjectivity", check_moment_surjectivity),
    ("psh_hessian_grid", check_psh_hessian_grid),
    ("psh_mixed_on_slice", check_psh_mixed_on_slice),
    ("psh_radial_convexity", check_psh_radial_convexity),
    ("psh_radial_sech_form", check_psh_radial_sech_form),
    ("psh_curve_positivity", check_psh_curve_positivity),
)


def run_all(seed: int = 20260814) -> dict[str, dict]:
    """Every check at the given seed, then the discrepancy ledger, as one
    report keyed by name."""
    report: dict[str, dict] = {}
    for name, fn in _CHECKS:
        report[name] = fn(seed)
    report.update(discrepancy_ledger())
    return report


def to_json(report: dict[str, dict]) -> str:
    """The report as sorted, indented JSON with a final newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def count_status(report: dict[str, dict], status: str) -> int:
    return sum(1 for entry in report.values() if entry["status"] == status)
