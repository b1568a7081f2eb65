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
    act_bidisk,
    schwarz_distance,
    translate,
)
from .liealg import ELLIPTIC_POSITIVE, LieVector, adjoint, classify


def mu_slice(t: float) -> float:
    """Moment value 8t / (1 - t^2) of the slice point (t, -t)."""
    t = float(t)
    if not 0.0 <= t < 1.0:
        raise ValueError("slice parameter must lie in [0, 1)")
    return 8.0 * t / (1.0 - t * t)


def mu_slice_invert(x: float) -> float:
    """Inverse of mu_slice on [0, inf).

    Rationalized form x / (sqrt(16 + x^2) + 4) of (sqrt(16 + x^2) - 4) / x;
    free of cancellation, and for x < 1e-8 it evaluates to the series x/8
    exactly.  The root is taken by hypot, so large x does not overflow.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError("moment value must be nonnegative")
    return x / (math.hypot(x, 4.0) + 4.0)


def omega_of_pair(p: BidiskPoint) -> float:
    """Rotation number 4 q / sqrt(1 - q^2), q the Schwarz distance of p."""
    q = schwarz_distance(p.z, p.w)
    return 4.0 * q / math.sqrt((1.0 - q) * (1.0 + q))


@dataclass(frozen=True)
class SliceReduction:
    """Slice parameter t and a group element g with g.(t, -t) = p."""

    t: float
    g: MobiusTransform


def slice_point(t: float) -> BidiskPoint:
    return BidiskPoint(t, -t)


def slice_reduce(p: BidiskPoint) -> SliceReduction:
    """Carry p onto the antisymmetric slice.

    Steps: translate z to 0, rotate the image of w onto the positive real
    axis, translate by the balancing t, then a half turn.  The composite
    sends p to (t, -t); the returned g is its inverse.  Diagonal pairs map
    to t = 0 with g the inverse of the translation by z.
    """
    if p.is_diagonal:
        return SliceReduction(0.0, translate(p.z).inverse())
    g1 = translate(p.z)
    w1 = g1(p.w)
    theta = math.atan2(w1.imag, w1.real)
    q = abs(w1)
    # t = (1 - sqrt(1 - q^2)) / q, rationalized; equals q/2 + q^3/8 + ...
    t = q / (1.0 + math.sqrt((1.0 - q) * (1.0 + q)))
    fwd = (
        MobiusTransform.rotation(math.pi)
        @ translate(t)
        @ MobiusTransform.rotation(-theta)
        @ g1
    )
    return SliceReduction(t, fwd.inverse())


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
    if cls.kind != ELLIPTIC_POSITIVE:
        raise ValueError(f"target must be elliptic-positive, got {cls.kind}")
    omega = cls.omega
    vals, vecs = np.linalg.eig(y.matrix())
    idx = int(np.argmin(np.abs(vals - 1j * omega)))
    v = vecs[:, idx]
    nrm = abs(v[0]) ** 2 - abs(v[1]) ** 2
    if nrm <= 0.0:
        raise ValueError("eigenvector is not positive for the indefinite form")
    v = v / math.sqrt(nrm)
    # pin the free phase so alpha is real positive (|alpha| >= 1 always)
    v = v * np.exp(-1j * np.angle(v[0]))
    g = MobiusTransform(complex(v[0]), complex(np.conj(v[1])))
    t = mu_slice_invert(omega)
    return act_bidisk(g, slice_point(t))
