"""Moment geometry of the diagonal SU(1,1) action on the bidisk.

Every off-diagonal pair is carried by a unique-up-to-stabilizer group
element onto the antisymmetric slice {(t, -t) : 0 <= t < 1}, where the
moment vector points along xi with value mu(t) = 8t / (1 - t^2).  The
moment image of the off-diagonal locus is exactly the positive elliptic
cone, and omega(p) = 4 q / sqrt(1 - q^2) for q the Schwarz distance of
the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import (
    BidiskPoint,
    MobiusTransform,
    _py,
    act_bidisk,
    schwarz_distance,
    translate,
)
from .liealg import ELLIPTIC_POSITIVE, LieVector, adjoint, classify


def mu_slice(t):
    """Moment value 8t / (1 - t^2) of the slice point (t, -t)."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t < 1.0)):
        raise ValueError("slice parameter must lie in [0, 1)")
    return _py(8.0 * t / (1.0 - t * t))


def mu_slice_invert(x):
    """Inverse of mu_slice on [0, inf); NaN, negative or infinite x raises
    ValueError.

    Rationalized form x / (sqrt(16 + x^2) + 4) of (sqrt(16 + x^2) - 4) / x;
    free of cancellation, and for x < 1e-8 it evaluates to the series x/8
    exactly.  The root is taken by hypot, so large x does not overflow.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x < np.inf)):
        raise ValueError("moment value must be finite and nonnegative")
    return _py(x / (np.hypot(x, 4.0) + 4.0))


def omega_of_pair(p: BidiskPoint):
    """Rotation number 4 q / sqrt(1 - q^2), q the Schwarz distance of p."""
    q = schwarz_distance(p.z, p.w)
    return _py(4.0 * q / np.sqrt((1.0 - q) * (1.0 + q)))


@dataclass(frozen=True)
class SliceReduction:
    """Slice parameter t and a group element g with g.(t, -t) = p."""

    t: float
    g: MobiusTransform


def slice_point(t) -> BidiskPoint:
    return BidiskPoint(t, -np.asarray(t))


def slice_reduce(p: BidiskPoint) -> SliceReduction:
    """Carry p onto the antisymmetric slice.

    Steps: translate z to 0, rotate the image of w onto the positive real
    axis, translate by the balancing t, then a half turn.  The composite
    sends p to (t, -t); the returned g is its inverse.  Diagonal pairs get
    t = 0, so g carries (0, 0) to (z, z).
    """
    g1 = translate(p.z)
    w1 = np.asarray(g1(p.w))
    theta = np.arctan2(w1.imag, w1.real)
    q = np.abs(w1)
    # t = (1 - sqrt(1 - q^2)) / q, rationalized; equals q/2 + q^3/8 + ...
    t = np.where(p.is_diagonal, 0.0, q / (1.0 + np.sqrt((1.0 - q) * (1.0 + q))))
    fwd = (
        MobiusTransform.rotation(math.pi)
        @ translate(t)
        @ MobiusTransform.rotation(-theta)
        @ g1
    )
    return SliceReduction(_py(t), fwd.inverse())


def moment_vector(p: BidiskPoint) -> LieVector:
    """Moment map value mu(p) = Ad(g) (mu_slice(t) * xi) from slice_reduce."""
    red = slice_reduce(p)
    return adjoint(red.g, LieVector(mu_slice(red.t), 0.0, 0.0))


def cone_preimage(y: LieVector) -> BidiskPoint:
    """A bidisk pair whose moment vector is the elliptic-positive y.

    Diagonalizes the matrix of y, normalizes its +1j*omega eigenvector to
    the SU(1,1) first column, and pushes the slice pair of omega forward.
    """
    cls = classify(y)
    kind = np.asarray(cls.kind)
    if not np.all(kind == ELLIPTIC_POSITIVE):
        bad = kind[kind != ELLIPTIC_POSITIVE][0]
        raise ValueError(f"target must be elliptic-positive, got {bad}")
    omega = np.asarray(cls.omega)
    vals, vecs = np.linalg.eig(y.matrix())
    idx = np.argmin(np.abs(vals - 1j * omega[..., None]), axis=-1)
    v = np.take_along_axis(vecs, idx[..., None, None], axis=-1)[..., 0]
    m = np.abs(v)
    nrm = m[..., 0] * m[..., 0] - m[..., 1] * m[..., 1]
    if not np.all(nrm > 0.0):
        raise ValueError("eigenvector is not positive for the indefinite form")
    v = v / np.sqrt(nrm)[..., None]
    # pin the free phase so alpha is real positive (|alpha| >= 1 always)
    v = v * np.exp(-1j * np.angle(v[..., :1]))
    g = MobiusTransform(v[..., 0], np.conj(v[..., 1]))
    t = mu_slice_invert(omega)
    return act_bidisk(g, slice_point(t))
