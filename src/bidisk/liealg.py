"""su(1,1) vectors: invariant form, brackets, adjoint action, classification.

Vectors are written on the ordered basis

    xi   = [[ 1j, 0], [ 0, -1j]]
    eta  = [[ 0, -1j], [ 1j, 0]]
    zeta = [[ 0, 1], [ 1, 0]]

with real coefficients (a, b, c).  The invariant form b(x, y) = tr(xy)/2
has signature (-, +, +) on this basis, so b(x, x) = -a^2 + b^2 + c^2.  A
vector is elliptic exactly when b(x, x) < 0; its eigenvalues are then
+-1j*omega with omega = sqrt(-b(x, x)), and the elliptic cone splits into
a positive (a > 0) and a negative (a < 0) component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import _checked, _from_pattern, _mat2, _py

ZERO_TOL = 1e-13
# coefficients up to 2^511 have squares, and sums of three squares, below
# the largest double; classify scales larger vectors by their norm_inf
_SQUARE_SAFE = 2.0**511

ELLIPTIC_POSITIVE = "elliptic-positive"
ELLIPTIC_NEGATIVE = "elliptic-negative"
NON_ELLIPTIC = "non-elliptic"
ZERO = "zero"


def _finite_coefficients(self) -> None:
    """The __post_init__ of LieVector and SymplecticGenerator: a, b, c
    broadcast to one shape, Python floats for scalars; a non-finite
    coefficient raises ValueError."""
    abc = np.broadcast_arrays(*(_checked(v) for v in (self.a, self.b, self.c)))
    if not np.isfinite(abc).all():
        raise ValueError(f"non-finite coefficient in a={self.a!r}, b={self.b!r}, c={self.c!r}")
    for name, v in zip("abc", abc):
        object.__setattr__(self, name, _py(v))


@dataclass(frozen=True)
class LieVector:
    """Element a*xi + b*eta + c*zeta of su(1,1)."""

    a: float
    b: float
    c: float

    __post_init__ = _finite_coefficients

    def matrix(self) -> np.ndarray:
        """[[i a, c - i b], [c + i b, -i a]], shape (..., 2, 2)."""
        return _mat2(1j * self.a, self.c - 1j * self.b, self.c + 1j * self.b, -1j * self.a)

    def norm_inf(self):
        return _py(np.maximum(np.maximum(np.abs(self.a), np.abs(self.b)), np.abs(self.c)))

    def __add__(self, other: "LieVector") -> "LieVector":
        return LieVector(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "LieVector") -> "LieVector":
        return LieVector(self.a - other.a, self.b - other.b, self.c - other.c)

    def __mul__(self, s: float) -> "LieVector":
        return LieVector(self.a * s, self.b * s, self.c * s)

    __rmul__ = __mul__


XI = LieVector(1.0, 0.0, 0.0)
ETA = LieVector(0.0, 1.0, 0.0)
ZETA = LieVector(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class SpectralClass:
    """Classification tag plus rotation number; off the elliptic cone omega
    is None for a scalar vector and NaN in the entries of array vectors."""

    kind: str
    omega: float | None


@dataclass(frozen=True)
class SymplecticGenerator:
    """Real trace-free 2x2 matrix [[a, -b], [c, -a]]."""

    a: float
    b: float
    c: float

    __post_init__ = _finite_coefficients

    def matrix(self) -> np.ndarray:
        """Shape (..., 2, 2)."""
        return _mat2(self.a, -np.asarray(self.b), self.c, -np.asarray(self.a))


def from_matrix(m) -> LieVector:
    """Decompose 2x2 su(1,1) matrices, shape (..., 2, 2), on the
    (xi, eta, zeta) basis.

    Raises ValueError when a matrix is further than MATRIX_TOL (relative
    to its own magnitude) from the su(1,1) pattern [[i a, c - i b], [c + i b, -i a]].
    """

    def decompose(m):
        a = m[..., 0, 0].imag
        b = (m[..., 1, 0].imag - m[..., 0, 1].imag) / 2.0
        c = (m[..., 0, 1].real + m[..., 1, 0].real) / 2.0
        return LieVector(a, b, c)

    return _from_pattern(m, decompose, "su(1,1)")


def bform(x: LieVector, y: LieVector | None = None) -> float:
    """Invariant bilinear form tr(xy)/2 = -a1*a2 + b1*b2 + c1*c2.

    Finite while norm_inf(x) * norm_inf(y) <= 2^1022 (about 4.5e307);
    beyond that a product or the sum may overflow to inf (with a
    RuntimeWarning on arrays), b(x, x) from coefficients above about
    1.3e154 = sqrt(largest double) on.  classify scales such vectors first.
    """
    if y is None:
        y = x
    return -x.a * y.a + x.b * y.b + x.c * y.c


def bracket(x: LieVector, y: LieVector) -> LieVector:
    """Commutator [x, y], expanded on [xi,eta]=2*zeta, [xi,zeta]=-2*eta,
    [eta,zeta]=-2*xi."""
    ab = x.a * y.b - x.b * y.a
    ac = x.a * y.c - x.c * y.a
    bc = x.b * y.c - x.c * y.b
    return LieVector(-2.0 * bc, -2.0 * ac, 2.0 * ab)


def adjoint(g, x: LieVector) -> LieVector:
    """Ad(g) x = g x g^{-1} for g any object exposing SU(1,1) matrices
    through .matrix(); g and x broadcast against each other."""
    m = g.matrix()
    alpha = m[..., 0, 0]
    beta = m[..., 0, 1]
    # exact inverse of [[alpha, beta], [conj(beta), conj(alpha)]] at det 1
    minv = _mat2(np.conj(alpha), -beta, -np.conj(beta), alpha)
    return from_matrix(m @ x.matrix() @ minv)


def classify(x: LieVector) -> SpectralClass:
    """Spectral class of x: zero, elliptic-positive/negative, or non-elliptic.

    Elliptic means b(x, x) < 0; omega = sqrt(-b(x, x)) is the rotation
    number and the sign component is read off the xi coefficient; x is
    zero when its largest coefficient is below ZERO_TOL.  Vectors with a
    coefficient above 2^511 are divided by their norm_inf before the form
    is taken, so omega is finite for every finite x; the other entries
    keep their bits.
    """
    norm = np.asarray(x.norm_inf())
    zero = norm < ZERO_TOL
    scale = np.where(norm > _SQUARE_SAFE, norm, 1.0)
    q = np.asarray(bform(LieVector(x.a / scale, x.b / scale, x.c / scale)))
    elliptic = ~zero & (q < 0.0)
    kind = np.select(
        [zero, elliptic & (np.asarray(x.a) > 0.0), elliptic],
        [ZERO, ELLIPTIC_POSITIVE, ELLIPTIC_NEGATIVE],
        NON_ELLIPTIC,
    )
    omega = np.where(zero, 0.0, scale * np.sqrt(np.where(elliptic, -q, np.nan)))
    if kind.ndim == 0:
        return SpectralClass(str(kind), None if np.isnan(omega) else float(omega))
    return SpectralClass(kind, omega)


def cayley_matrix() -> np.ndarray:
    """The fixed conjugator C = (1/sqrt(2)) [[1, 1j], [1j, 1]] carrying
    su(1,1) onto sl(2, R)."""
    s = 1.0 / math.sqrt(2.0)
    return np.array([[s, 1j * s], [1j * s, s]])


def to_sp2(x: LieVector) -> SymplecticGenerator:
    """Image of x under conjugation by the Cayley matrix.

    C M C^{-1} = [[-b, a + c], [c - a, b]], which is real and trace-free.
    """
    return SymplecticGenerator(-x.b, -(x.a + x.c), x.c - x.a)


def from_sp2(s: SymplecticGenerator) -> LieVector:
    """Inverse of to_sp2: the su(1,1) vector whose Cayley conjugate is s."""
    return LieVector((-s.b - s.c) / 2.0, -s.a, (-s.b + s.c) / 2.0)


def exp_matrix(x: LieVector) -> np.ndarray:
    """Matrix exponential of x via Cayley-Hamilton: M^2 = b(x, x) * I."""
    q = bform(x)
    m = x.matrix()
    eye = np.eye(2, dtype=complex)
    if abs(q) < 1e-30:
        return eye + m
    if q < 0.0:
        w = math.sqrt(-q)
        return math.cos(w) * eye + (math.sin(w) / w) * m
    r = math.sqrt(q)
    return math.cosh(r) * eye + (math.sinh(r) / r) * m


def random_vector(rng: np.random.Generator, scale: float = 1.0, size=None) -> LieVector:
    """Standard-normal coefficients times scale; ``size`` as in numpy."""
    shape = (3,) if size is None else (3, *np.atleast_1d(size))
    return LieVector(*(scale * rng.standard_normal(shape)))
