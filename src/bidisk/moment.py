"""Moment geometry of the diagonal SU(1,1) action on the bidisk.

The moment map sends a pair p to Ad(g)(mu(t) xi), where g carries the slice
pair (t, -t) onto p and mu(t) = 8t / (1 - t^2); slice_reduce and
liealg.adjoint evaluate that definition, the tests' reference route.  As
Ad(g) xi = N(g(0)), N(z) = (1 + |z|^2, 2 Re z, 2 Im z) / (1 - |z|^2), and
g(0) is the hyperbolic midpoint of p, the map is mu(z, w) =
2 d_S(z, w) (N(z) + N(w)); the inverse reads g(0) off y / omega by
stereographic projection.  The image of the off-diagonal locus is the
positive elliptic cone, and omega(p) = 4 a / b = 4 sinh(rho / 2) from the
legs a = |z - w| and b = sqrt((1 - |z|^2)(1 - |w|^2)) of disk._legs.
Every conformal factor 1 - |z|^2 and 1 - t^2 here but slice_reduce's comes
from disk._one_minus_abs2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import (
    BidiskPoint,
    MobiusTransform,
    _legs,
    _one_minus_abs2,
    _py,
    act_bidisk,
    schwarz_distance,
    translate,
)
from .liealg import ELLIPTIC_POSITIVE, LieVector, classify


def mu_slice(t):
    """Moment value 8t / (1 - t^2) of the slice point (t, -t), with 1 - t^2
    from disk._one_minus_abs2, so within 2 eps relative up to t = 1 - 2^-53."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t < 1.0)):
        raise ValueError("slice parameter must lie in [0, 1)")
    return _py(8.0 * t / _one_minus_abs2(t))


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
    """Rotation number 4 |z - w| / sqrt((1 - |z|^2)(1 - |w|^2)) of p = (z, w),
    4 (a / b) from the legs of disk._legs, so that omega / 4 is a / b
    exactly and rho_of_omega(omega) is poincare_distance(z, w) bit for bit."""
    a, b = _legs(p.z, p.w)
    return _py(4.0 * (a / b))


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


def _hyperboloid(z) -> np.ndarray:
    """N(z) = (1 + |z|^2, 2 Re z, 2 Im z) / (1 - |z|^2) on axis 0: Ad(g) xi for g(0) = z."""
    z = np.asarray(z)
    r2 = z.real * z.real + z.imag * z.imag
    return np.stack([1.0 + r2, 2.0 * z.real, 2.0 * z.imag]) / _one_minus_abs2(z)


def moment_vector(p: BidiskPoint) -> LieVector:
    """mu(p) = 2 d_S(z, w) (N(z) + N(w)), zero on the diagonal; equal to
    Ad(g)(mu_slice(t) xi) for (t, g) from slice_reduce."""
    s = 2.0 * np.where(p.is_diagonal, 0.0, schwarz_distance(p.z, p.w))
    return LieVector(*(s * (_hyperboloid(p.z) + _hyperboloid(p.w))))


def cone_preimage(y: LieVector) -> BidiskPoint:
    """A bidisk pair whose moment vector is the elliptic-positive y: the
    translation taking 0 to m = (b + i c) / (a + omega) moves the slice
    pair of omega there, as N(m) = y / omega."""
    cls = classify(y)
    kind = np.asarray(cls.kind)
    if not np.all(kind == ELLIPTIC_POSITIVE):
        bad = kind[kind != ELLIPTIC_POSITIVE][0]
        raise ValueError(f"target must be elliptic-positive, got {bad}")
    den = np.asarray(y.a) + cls.omega
    m = y.b / den + 1j * (y.c / den)
    return act_bidisk(translate(-m), slice_point(mu_slice_invert(cls.omega)))
