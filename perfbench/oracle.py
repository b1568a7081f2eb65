"""Reference values the benchmark checks outputs against.

Everything here is written from the closed forms of the rotation-number
distribution, independently of the package being timed:

    u^2 = x^2 / (16 + x^2),   delta = 1 - u^2 = 16 / (16 + x^2)
    F(x)     = 2/u^2 - 1 + 2 delta log(delta) / u^4
    1 - F(x) = (2 delta / u^4) (log(1/delta) - u^2)
    f(x)     = F'(u) du/dx,  du/dx = 16 / (16 + x^2)^(3/2)
    E[X]     = 16 pi / 3

Below u = 1/4 the direct expressions cancel, so F and F' are summed from
the series F = sum_{j>=1} 2 u^(2j) / ((j+1)(j+2)).
"""

from __future__ import annotations

import math

import numpy as np

SERIES_CUT = 0.25
# (1/16)^30 is far below double precision relative to the leading term
_SERIES_TERMS = 30
MEAN = 16.0 * math.pi / 3.0

# KS bounds of acceptance criteria 1 (uniform) and 9 (exp-weighted), fixed
# at n = 1e6 draws; smaller samples scale them by sqrt(1e6 / n)
KS_BOUND_UNIFORM = 2e-3
KS_BOUND_EXP = 3e-3
KS_BOUND_N = 1_000_000


def ks_bound(bound: float, n: int) -> float:
    return bound * math.sqrt(KS_BOUND_N / min(n, KS_BOUND_N))


def _u2_delta(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = 16.0 + x * x
    return x * x / d, 16.0 / d


def _series(u2: np.ndarray, derivative: bool) -> np.ndarray:
    j = np.arange(1, _SERIES_TERMS + 1, dtype=float)
    c = 2.0 / ((j + 1.0) * (j + 2.0))
    if derivative:
        # d/du of 2 u^(2j) / ((j+1)(j+2)), divided by u
        c = c * 2.0 * j
    powers = u2[:, None] ** (j - 1.0)[None, :]
    s = powers @ c
    return s if derivative else s * u2


def cdf(x) -> np.ndarray:
    """F(x) for x >= 0."""
    x = np.asarray(x, dtype=float)
    u2, delta = _u2_delta(x)
    out = np.zeros_like(x)
    small = u2 < SERIES_CUT**2
    out[small] = _series(u2[small], derivative=False)
    big = ~small
    ub, db = u2[big], delta[big]
    out[big] = 2.0 / ub - 1.0 + 2.0 * db * np.log(db) / (ub * ub)
    return out


def survival(x) -> np.ndarray:
    """1 - F(x), without cancellation in the tail."""
    x = np.asarray(x, dtype=float)
    u2, delta = _u2_delta(x)
    out = 1.0 - cdf(x)
    big = u2 >= SERIES_CUT**2
    ub, db = u2[big], delta[big]
    out[big] = 2.0 * db / (ub * ub) * (-np.log(db) - ub)
    return out


def pdf(x) -> np.ndarray:
    """Density f(x) = dF/dx."""
    x = np.asarray(x, dtype=float)
    u2, delta = _u2_delta(x)
    u = np.sqrt(u2)
    du_dx = delta * np.sqrt(delta) / 4.0
    dF_du = np.zeros_like(x)
    small = u2 < SERIES_CUT**2
    dF_du[small] = _series(u2[small], derivative=True) * u[small]
    big = ~small
    ub = u[big]
    lg = np.log(delta[big])
    dF_du[big] = -8.0 / ub**3 - 4.0 * lg / ub**3 - 8.0 * delta[big] * lg / ub**5
    return dF_du * du_dx


def exp_weight(x) -> np.ndarray:
    """exp(-rho), rho = 2 asinh(x/4) the hyperbolic distance of a pair with
    rotation number x."""
    return np.exp(-2.0 * np.arcsinh(np.asarray(x, dtype=float) / 4.0))


def _gauss_panels(edges: np.ndarray, order: int = 20) -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.legendre.leggauss(order)
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    return (a + half * (1.0 + t[None, :])).ravel(), (half * w[None, :]).ravel()


def _edges(hi: float) -> np.ndarray:
    return np.concatenate(([0.0], np.geomspace(1e-6, hi, 2000)))


def truncated_second_moment(cut: float) -> float:
    """E(X^2; X <= cut) = 2 int_0^cut x (1 - F) dx - cut^2 (1 - F(cut))."""
    x, w = _gauss_panels(_edges(cut))
    integral = float(np.sum(w * x * survival(x)))
    return 2.0 * integral - cut * cut * float(survival(np.array([cut]))[0])


class ExpWeighted:
    """Distribution with density proportional to f(x) exp(-rho(x)).

    Integrated by Gauss-Legendre panels in x, with the cumulative table
    interpolated linearly; the panels are fine enough that interpolation
    error stays below 1e-9.
    """

    def __init__(self, x_max: float = 1e9):
        edges = _edges(x_max)
        edges = np.union1d(edges, np.linspace(0.0, 200.0, 40001))
        x, w = _gauss_panels(edges, order=8)
        dens = pdf(x) * exp_weight(x) * w
        per_panel = dens.reshape(-1, 8).sum(axis=1)
        self.edges = edges
        self.cum = np.concatenate(([0.0], np.cumsum(per_panel)))
        self.normalizer = float(self.cum[-1])
        self._x, self._dens = x, dens
        self.mean = float(np.sum(x * dens)) / self.normalizer

    def truncated_second_moment(self, cut: float) -> float:
        keep = self._x <= cut
        return float(np.sum(self._x[keep] ** 2 * self._dens[keep])) / self.normalizer

    def cdf(self, x) -> np.ndarray:
        return np.interp(x, self.edges, self.cum) / self.normalizer


def ks_distance(omega: np.ndarray, weight: np.ndarray | None, cdf_fn) -> float:
    """Weighted Kolmogorov-Smirnov distance, both one-sided gaps taken at
    the jumps of the empirical distribution."""
    order = np.argsort(omega, kind="stable")
    xs = omega[order]
    cum = np.cumsum(weight[order]) if weight is not None else np.arange(1.0, xs.size + 1)
    cum = cum / cum[-1]
    fv = cdf_fn(xs)
    lower = np.concatenate(([0.0], cum[:-1]))
    return float(max(np.max(cum - fv), np.max(fv - lower)))
