"""Poincare disk geometry: Schwarz distance, Mobius maps, bidisk action.

Distance normalization: rho(z, w) = 2 * artanh(d_S(z, w)) where d_S is the
Schwarz-Pick quotient |z - w| / |1 - conj(w) z|.  With this factor the
diagonal pair (t, -t) sits at rho = 4 artanh(t) and the slice moment value
comes out as 8t / (1 - t^2); the log-form without the 2 is not used
anywhere in this package.

Every distance of a pair comes from its two legs a = |z - w| and
b = sqrt((1 - |z|^2)(1 - |w|^2)), whose hypotenuse is |1 - conj(w) z|:
d_S = a / hypot(a, b), rho = 2 asinh(a / b), and the rotation number of
moment.omega_of_pair is 4 (a / b) = 4 sinh(rho / 2).  Neither leg cancels,
and the conformal factor 1 - |z|^2 has one implementation,
_one_minus_abs2, which works from z's real and imaginary parts.

Every function and dataclass here broadcasts over numpy arrays: scalar
arguments give Python scalars, array arguments give arrays, and one bad
entry of an array raises ValueError for the whole call.  A scalar call
rounds exactly as one entry of an array call does, so arithmetic stays on
numpy arrays (not Python or numpy scalars) and squares are products: a
scalar's ** 2 goes through C pow(), which need not be correctly rounded.

Every float and complex argument of the package passes one gate,
_checked; only spectral's integer and cut scalars, which take one
numbers.Real, have checks of their own.  A float argument must be something numpy holds with a bool,
integer or float dtype (a bool is 0 or 1), and a complex argument may
also be complex; anything else raises ValueError: strings, bytes, None,
ragged lists and object arrays, so also Fraction, Decimal and Python ints
beyond int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BOUNDARY_TOL = 1e-12
DIAGONAL_TOL = 1e-13
DET_TOL = 1e-10
MATRIX_TOL = 1e-9


def _py(x):
    """A Python scalar for 0-d input, the array itself otherwise."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def _checked(x, inside=None, message: str = "", dtype=float) -> np.ndarray:
    """x as an array of dtype (float or complex): the one gate of every
    float and complex argument of the package.  np.asarray(x) must have a bool,
    integer or float dtype, or a complex one for dtype complex, else
    ValueError naming that dtype (not the value).  With inside,
    ValueError(message) unless inside(x) holds at every entry; NaN fails
    every comparison.  An ndarray of dtype comes back itself, not a copy."""
    a = np.asarray(x)
    if a.dtype.kind not in ("biufc" if dtype is complex else "biuf"):
        kind = "complex" if dtype is complex else "real"
        raise ValueError(f"expected {kind} numbers, got an array of dtype {a.dtype}")
    a = a.astype(dtype, copy=False)
    if inside is not None and not np.all(inside(a)):
        raise ValueError(message)
    return a


def _mat2(m00, m01, m10, m11) -> np.ndarray:
    """Stack (..., 2, 2) of [[m00, m01], [m10, m11]] from equal-shape entries."""
    m00 = np.asarray(m00)
    return np.stack([m00, m01, m10, m11], -1).reshape(m00.shape + (2, 2))


def check_disk(z):
    """z as complex, after checking |z| < 1 - BOUNDARY_TOL elementwise
    (BOUNDARY_TOL = 1e-12).  A point on or outside that circle, NaN and
    infinite points among them, raises ValueError, whose message names
    BOUNDARY_TOL and its value."""
    z = _checked(z, dtype=complex)
    inside = np.abs(z) < 1.0 - BOUNDARY_TOL
    if not inside.all():
        raise ValueError(
            f"point {complex(z[~inside][0])!r} is not inside the disk "
            f"|z| < 1 - BOUNDARY_TOL, BOUNDARY_TOL = {BOUNDARY_TOL:g}"
        )
    return _py(z)


def _from_pattern(m, build, group: str):
    """build(m) for a stack of 2x2 matrices m, shape (..., 2, 2), checked
    against the pattern of its own .matrix(): ValueError for another shape,
    or for a matrix further than MATRIX_TOL (relative to its own magnitude)
    from the pattern."""
    m = _checked(m, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {m.shape}")
    x = build(m)
    gap = np.max(np.abs(m - x.matrix()), axis=(-2, -1))
    if np.any(gap > MATRIX_TOL * np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))):
        raise ValueError(f"matrix is not in {group} within tolerance")
    return x


def _one_minus_abs2(z: np.ndarray) -> np.ndarray:
    """1 - |z|^2 from z.real and z.imag, for |z| < 1: the squares and their
    sum are split into a double and its exact error (Dekker's product on
    Veltkamp halves, Knuth's two-sum), 1 - x^2 - y^2 is exact where it
    cancels (Sterbenz), and the three errors are subtracted last, so the
    result is within 2 eps relative however near the circle z is."""
    squares = []
    for x in (z.real, z.imag):
        c = 134217729.0 * x  # 2^27 + 1 splits x into two 26-bit halves
        hi = c - (c - x)
        lo = x - hi
        p = x * x
        squares.append((p, ((hi * hi - p) + hi * lo + hi * lo) + lo * lo))
    (p, e), (q, f) = squares
    s = p + q
    b = s - p
    t = (p - (s - b)) + (q - b)  # s + t = p + q exactly
    return (1.0 - s) - t - e - f


def _legs(z, w) -> tuple[np.ndarray, np.ndarray]:
    """The legs a = |z - w| and b = sqrt((1 - |z|^2)(1 - |w|^2)) of z and w,
    checked as check_disk.  Their hypotenuse is |1 - conj(w) z|, as
    |1 - conj(w) z|^2 = |z - w|^2 + (1 - |z|^2)(1 - |w|^2), so every
    distance is a quotient of the legs, and neither leg cancels: each is
    within a few eps relative however near the circle or each other the
    points are."""
    z = np.asarray(check_disk(z))
    w = np.asarray(check_disk(w))
    return np.abs(z - w), np.sqrt(_one_minus_abs2(z) * _one_minus_abs2(w))


def schwarz_distance(z, w):
    """Schwarz-Pick pseudo-distance d_S = |z - w| / |1 - conj(w) z| =
    a / hypot(a, b), in [0, 1] (it rounds to 1 where b < 1.5e-8 a), of z
    and w with |z|, |w| < 1 - BOUNDARY_TOL (1e-12); others raise
    ValueError, as check_disk."""
    a, b = _legs(z, w)
    return _py(a / np.hypot(a, b))


def poincare_distance(z, w):
    """Hyperbolic distance rho = 2 artanh(d_S) = 2 asinh(a / b), from the
    legs a = |z - w| and b = sqrt((1 - |z|^2)(1 - |w|^2)); finite also
    where d_S rounds to 1, and within 4 eps relative on the whole disk.
    It equals rho_of_omega(omega_of_pair(BidiskPoint(z, w))) bit for bit."""
    a, b = _legs(z, w)
    return _py(2.0 * np.arcsinh(a / b))


@dataclass(frozen=True)
class MobiusTransform:
    """Disk automorphism z -> (alpha z + beta) / (conj(beta) z + conj(alpha))
    with |alpha|^2 - |beta|^2 = 1; alpha and beta may be arrays, broadcast
    together, holding one automorphism per entry."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        a, b = np.broadcast_arrays(*(_checked(v, dtype=complex) for v in (self.alpha, self.beta)))
        a2, b2 = np.abs(a) * np.abs(a), np.abs(b) * np.abs(b)
        det = a2 - b2
        # det's own rounding, 16 eps (|alpha|^2 + |beta|^2), exceeds DET_TOL near the boundary
        unimodular = np.abs(det - 1.0) <= np.maximum(DET_TOL, 16.0 * np.finfo(float).eps * (a2 + b2))
        if not unimodular.all():
            bad = float(det[~unimodular][0])
            raise ValueError(f"not an SU(1,1) pair: |alpha|^2 - |beta|^2 = {bad!r}")
        object.__setattr__(self, "alpha", _py(a))
        object.__setattr__(self, "beta", _py(b))

    def __call__(self, z):
        a, b, z = self.alpha, self.beta, _checked(z, dtype=complex)
        return _py((a * z + b) / (np.conj(b) * z + np.conj(a)))

    def __matmul__(self, other: "MobiusTransform") -> "MobiusTransform":
        """Composition self o other (matrix product of the SU(1,1) lifts)."""
        sa, sb = np.asarray(self.alpha), np.asarray(self.beta)
        a = sa * other.alpha + sb * np.conj(other.beta)
        b = sa * other.beta + sb * np.conj(other.alpha)
        return MobiusTransform(a, b)

    def inverse(self) -> "MobiusTransform":
        return MobiusTransform(np.conj(self.alpha), -self.beta)

    def matrix(self) -> np.ndarray:
        """The SU(1,1) lifts [[alpha, beta], [conj(beta), conj(alpha)]],
        shape (..., 2, 2)."""
        a, b = self.alpha, self.beta
        return _mat2(a, b, np.conj(b), np.conj(a))

    @classmethod
    def identity(cls) -> "MobiusTransform":
        return cls(1.0, 0.0)

    @classmethod
    def rotation(cls, phi) -> "MobiusTransform":
        """Rotation z -> exp(1j*phi) z about the origin."""
        return cls(np.exp(0.5j * _checked(phi)), 0.0)

    @classmethod
    def from_matrix(cls, m) -> "MobiusTransform":
        """Automorphisms from a stack of SU(1,1) matrices, shape (..., 2, 2);
        ValueError for a matrix further than MATRIX_TOL from the pattern."""
        return _from_pattern(m, lambda m: cls(m[..., 0, 0], m[..., 0, 1]), "SU(1,1)")


def translate(zeta) -> MobiusTransform:
    """The automorphism T_zeta(z) = (z - zeta) / (1 - conj(zeta) z), which
    sends zeta to 0."""
    zeta = np.asarray(check_disk(zeta))
    d = np.sqrt(_one_minus_abs2(zeta))
    return MobiusTransform(1.0 / d, -zeta / d)


@dataclass(frozen=True)
class BidiskPoint:
    """Ordered pair of points of the disk |z| < 1 - BOUNDARY_TOL, with
    BOUNDARY_TOL = 1e-12 (or arrays of them); other points raise ValueError,
    as check_disk."""

    z: complex
    w: complex

    def __post_init__(self):
        object.__setattr__(self, "z", check_disk(self.z))
        object.__setattr__(self, "w", check_disk(self.w))

    @property
    def is_diagonal(self):
        return _py(np.abs(self.z - self.w) < DIAGONAL_TOL)


def act_bidisk(g: MobiusTransform, p: BidiskPoint) -> BidiskPoint:
    """Diagonal action g.(z, w) = (g z, g w)."""
    return BidiskPoint(g(p.z), g(p.w))


def hyperbolic_disk_euclidean(s, u):
    """Euclidean center and radius of the Schwarz disk {w : d_S(s, w) < u}.

    The disk around a real center s in [0, 1 - BOUNDARY_TOL) is again a
    round Euclidean disk; its extreme points on the real axis are T_{-s}(u)
    and T_{-s}(-u).  A center outside that range, or a radius u outside
    (0, 1), raises ValueError.
    """
    s = _checked(
        s, lambda s: (s >= 0.0) & (s < 1.0 - BOUNDARY_TOL), f"center must be real in [0, 1 - {BOUNDARY_TOL:g})"
    )
    u = _checked(u, lambda u: (u > 0.0) & (u < 1.0), "schwarz radius must lie in (0, 1)")
    back = translate(-s)
    hi, lo = back(u), back(-u)
    return _py(np.real((hi + lo) / 2.0)), _py(np.real((hi - lo) / 2.0))


def random_point(rng: np.random.Generator, rmax: float = 0.95, size=None):
    """Area-uniform point of the disk of radius rmax; ``size`` as in numpy."""
    r = rmax * np.sqrt(rng.random(size))
    theta = rng.uniform(0.0, 2.0 * math.pi, size)
    return _py(r * np.cos(theta) + 1j * (r * np.sin(theta)))


def random_mobius(rng: np.random.Generator, zeta_max: float = 0.9, size=None) -> MobiusTransform:
    zeta = random_point(rng, zeta_max, size)
    phi = rng.uniform(0.0, 2.0 * math.pi, size)
    return MobiusTransform.rotation(phi) @ translate(zeta)
