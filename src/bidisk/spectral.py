"""Spectral eigenvalue distribution of the moment map over the bidisk.

For a pair drawn area-uniformly from the bidisk, the rotation number
omega lies below x exactly when the second point falls in the Schwarz
disk of radius u(x) = 2t/(1+t^2), t = mu_slice_invert(x), around the
first.  Averaging the normalized area of that disk over the first point
gives the distribution function

    F(x) = 2 * int_0^1 (u (1 - s^2) / (1 - s^2 u^2))^2 s ds,

whose closed form in u is 2/u^2 - 1 + 2 (1 - u^2) log(1 - u^2) / u^4.
The closed form, evaluated on arrays, serves the reweighting table and the
tabulated candidates; the quadrature routes (scalar adaptive and a
vectorized batch rule) are the independent reference that the
discrepancy ledger checks the closed forms against.  Monte Carlo
sampling, moments, and importance reweighting by radial weights w(rho)
complete the module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .moment import mu_slice_invert
from .quadrature import adaptive, central_difference, composite_nodes

# closed forms switch to their Taylor series below this Schwarz radius u
# (rescaled parameter x~ for the x~-forms); the direct expressions lose
# digits to cancellation as the argument -> 0
SERIES_CUT = 0.25
# the series run in z = u^2 < 1/16, where (1/16)^30 is far below double
# precision relative to the leading term
_K = np.arange(30.0)
# F(u) = u^2 S(u^2), S(z) = sum_k 2 z^k / ((k+2)(k+3))
_F_SERIES = 2.0 / ((_K + 2.0) * (_K + 3.0))
# d/du (u^2 F(u)) = 4 u^3 T(u^2), T(z) = sum_k z^k / (k+3)
_DF_SERIES = 1.0 / (_K + 3.0)

TABLE_COLUMNS = (
    "x",
    "x_tilde",
    "F_quad",
    "F_paper_u",
    "F_paper_prop",
    "F_derived",
    "f_quad",
    "f_paper",
)


def schwarz_threshold(x: float) -> float:
    """Schwarz radius u with omega(u) = x, through the slice parameter;
    algebraically x / sqrt(16 + x^2)."""
    t = mu_slice_invert(x)
    return 2.0 * t / (1.0 + t * t)


def rho_of_omega(omega):
    """Hyperbolic distance of a pair with rotation number omega:
    rho = 2 asinh(omega / 4)."""
    return 2.0 * np.arcsinh(np.asarray(omega, dtype=float) / 4.0)


def fiber_radius(s: float, x: float) -> float:
    """Schwarz radius u(x) rescaled to the Euclidean fiber radius at
    center s: u (1 - s^2) / (1 - s^2 u^2)."""
    u = schwarz_threshold(x)
    return u * (1.0 - s * s) / (1.0 - (s * u) ** 2)


# ---------------------------------------------------------------------------
# quadrature routes


def _fiber_integrand(s, u: float):
    r = u * (1.0 - s * s) / (1.0 - (s * u) ** 2)
    return 2.0 * r * r * s


def cdf_quadrature(x: float, tol: float = 1e-10) -> float:
    """Distribution function by adaptive quadrature of the fiber areas.

    When the requested absolute tolerance is not reached the value is
    still returned and the achieved error is reported in a warning.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError("spectral parameter must be nonnegative")
    u = schwarz_threshold(x)
    if u == 0.0:
        return 0.0
    res = adaptive(lambda s: _fiber_integrand(s, u), 0.0, 1.0, tol)
    if not res.converged:
        warnings.warn(
            f"cdf quadrature at x={x!r}: achieved error {res.error:.3e} > tol {tol:.1e}",
            stacklevel=2,
        )
    return res.value


def _tail_integrand(tau, delta: float):
    # complement integrand in tau = 1 - s; all sums are of positive terms,
    # so it stays accurate down to delta ~ 1e-300
    s = 1.0 - tau
    s2 = s * s
    tt = tau * (2.0 - tau)
    den = delta * s2 + tt
    num = delta * s2 * s2 + tt * (1.0 + s2)
    return 2.0 * s * num / (den * den)


def one_minus_cdf(x: float, rel_tol: float = 1e-10) -> float:
    """Upper tail 1 - F(x), computed without cancellation.

    Uses 1 - F = delta * int_0^1 g(tau) dtau with delta = 16/(16 + x^2)
    and g positive, so the result carries a relative (not absolute)
    tolerance even when the tail is ~1e-12.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError("spectral parameter must be nonnegative")
    if x == 0.0:
        return 1.0
    delta = 16.0 / (16.0 + x * x)
    scale = max(1.0, -math.log(delta))
    res = adaptive(lambda t: _tail_integrand(t, delta), 0.0, 1.0, rel_tol * scale)
    return delta * res.value


_BATCH_CHUNK = 16384
# points x nodes per chunk: a full chunk at the minimum of 12 panels
_BATCH_NODES = _BATCH_CHUNK * 15 * 12
_node_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _nodes_for(k: int) -> tuple[np.ndarray, np.ndarray]:
    if k not in _node_cache:
        _node_cache[k] = composite_nodes(k)
    return _node_cache[k]


def _quarter_square_log(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = (x/4)^2 and Y = log(1 + s) on arrays; Y stays finite where s
    overflows (x >~ 5e154)."""
    with np.errstate(over="ignore", divide="ignore"):
        s = (x / 4.0) ** 2
        return s, np.where(s < np.inf, np.log1p(s), 2.0 * np.log(x / 4.0))


def cdf_quadrature_batch(xs) -> np.ndarray:
    """Vectorized distribution function on an array of x values in [0, inf].

    Evaluates the same fiber integral after the substitutions sigma = s^2
    and 1 - sigma u^2 = (1 - u^2) e^{Y v}, Y = log(1 + x^2/16):

        F = c^2 Y * int_0^1 g(v)^2 e^{-Y (1 - v)} dv,
        g = expm1(-Y v) / Y,   c = (1 + 16/x^2) Y.

    Every factor stays in range for all finite x: c -> 1 and g -> -v as
    x -> 0, and the exponential never exceeds 1.  The v-integrand varies on
    the scale 1/Y, so a composite K15 rule with panel width <= 0.4/Y
    resolves it to full double precision; agreement with the adaptive
    scalar route is checked in the test-suite at 1e-9.  Chunks are taken
    in order of Y and capped in points x nodes.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all(xs >= 0.0):
        raise ValueError("spectral parameter must be nonnegative")
    flat = xs.ravel()
    s, y = _quarter_square_log(flat)
    out = np.where(flat == np.inf, 1.0, 0.0)
    # s underflows to 0 below x ~ 6e-162, where F ~ x^2/48 does too
    pos = np.flatnonzero((s > 0.0) & (flat < np.inf))
    order = pos[np.argsort(y[pos], kind="stable")]
    start = 0
    while start < order.size:
        last = order[min(start + _BATCH_CHUNK, order.size) - 1]
        k = max(12, math.ceil(y[last] / 0.4))
        sel = order[start : start + max(1, _BATCH_NODES // (15 * k))]
        start += sel.size
        v, wv = _nodes_for(k)
        ys = y[sel][:, None]
        g = np.expm1(-ys * v) / ys
        vals = (g * g * np.exp(-ys * (1.0 - v))) @ wv
        c = y[sel] + y[sel] / s[sel]
        out[sel] = c * c * y[sel] * vals
    return out.reshape(xs.shape)


def pdf_quadrature(x: float, tol: float = 1e-8) -> float:
    """Spectral density by Richardson-extrapolated central differences of
    the quadrature distribution function."""
    x = float(x)
    if x <= 0.0:
        return 0.0
    h = min(max(1e-6, 1e-3 * x), 0.5 * x)
    inner = max(1e-15, tol * h / 8.0)
    return central_difference(lambda v: cdf_quadrature(v, inner), x, h)[0]


def _pdf_batch(xs: np.ndarray) -> np.ndarray:
    """pdf_quadrature's stencil on cdf_quadrature_batch; 0 at x = 0."""
    xs = np.asarray(xs, dtype=float)
    h = np.minimum(np.maximum(1e-6, 1e-3 * xs), 0.5 * xs)
    with np.errstate(invalid="ignore"):  # 0/0 where x = h = 0
        return np.where(xs > 0.0, central_difference(cdf_quadrature_batch, xs, h)[0], 0.0)


# ---------------------------------------------------------------------------
# closed forms


def _series(z: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Horner sum of coef[k] z^k over the fixed number of terms."""
    acc = np.zeros_like(z)
    for c in coef[::-1]:
        acc = acc * z + c
    return acc


def _schwarz_radius(x) -> np.ndarray:
    """u = x / sqrt(16 + x^2) on arrays without squaring x; 1 at x = inf."""
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / np.hypot(1.0, 4.0 / np.asarray(x, dtype=float))


def _cdf_and_tail(x) -> tuple[np.ndarray, np.ndarray]:
    """F(x) and 1 - F(x) from the closed form, on an array of x in [0, inf].

    Below u = SERIES_CUT, F comes from the series.  Above it the tail is
    taken first, as 1 - F = (2 r^2 / u^4) (Y - u^2) with r = 4/hypot(x, 4)
    and Y = log(1 + x^2/16), so no x^2 overflows and the tail keeps its
    relative accuracy out to the largest double.
    """
    x = np.asarray(x, dtype=float)
    u2 = _schwarz_radius(x) ** 2
    big = u2 >= SERIES_CUT**2
    cdf, tail = np.empty_like(u2), np.empty_like(u2)
    z = u2[~big]
    cdf[~big] = z * _series(z, _F_SERIES)
    tail[~big] = 1.0 - cdf[~big]
    z, r = u2[big], 4.0 / np.hypot(x[big], 4.0)
    y = _quarter_square_log(x[big])[1]
    with np.errstate(invalid="ignore"):  # 0 * inf at x = inf
        tail[big] = np.where(r > 0.0, 2.0 * r * r * (y - z) / (z * z), 0.0)
    cdf[big] = 1.0 - tail[big]
    return cdf, tail


_RADIUS = (1.0, "schwarz radius must lie in [0, 1)")
_RESCALED = (np.inf, "rescaled parameter must be finite and nonnegative")
# the x~-forms switch to their leading terms from here on: the dropped terms
# are x~^-2 smaller, far below rounding, and x~^3, (1 + x~^2)^2 would overflow
_FAR_CUT = 1e50


def _closed_form(arg, series, direct, upper: float, message: str, far=None):
    """series(arg) below SERIES_CUT, far(arg) from _FAR_CUT on (when given)
    and direct(arg) in between, for arg in [0, upper); a float for a float
    argument."""
    arg = np.asarray(arg, dtype=float)
    if not np.all((arg >= 0.0) & (arg < upper)):
        raise ValueError(message)
    out = np.piecewise(arg, [arg < SERIES_CUT, arg >= _FAR_CUT], [series, far or direct, direct])
    return float(out) if out.ndim == 0 else out


def cdf_closed_derived(u):
    """Closed form 2/u^2 - 1 + 2 (1 - u^2) log(1 - u^2) / u^4 of the fiber
    integral, as a function of the Schwarz radius u = x / sqrt(16 + x^2).

    Accepts a float or an array.  Below u = 1/4 the expression is
    evaluated by its series sum_{j>=1} 2 u^{2j} / ((j+1)(j+2)) to avoid
    cancellation.
    """
    return _closed_form(
        u,
        lambda u: u**2 * _series(u**2, _F_SERIES),
        lambda u: 2.0 / u**2 - 1.0 + 2.0 * (1.0 - u**2) * np.log1p(-(u**2)) / u**4,
        *_RADIUS,
    )


def cdf_closed_paper_u(u):
    """Literal transcription of the u-form candidate
    2 (1 - u^2) log(1 - u^2) / u^2 + 2 - u^2.

    Equal to u^2 * cdf_closed_derived(u), so it does not agree with the
    quadrature distribution (e.g. 0.0239 vs 0.0956 at u = 1/2); it is kept
    verbatim for the discrepancy ledger.  Accepts a float or an array.
    Below u = 1/4 the equivalent series sum_{m>=3} 2 u^{2m-2} / (m (m-1))
    is used.
    """
    return _closed_form(
        u,
        lambda u: u**4 * _series(u**2, _F_SERIES),
        lambda u: 2.0 * (1.0 - u**2) * np.log1p(-(u**2)) / u**2 + 2.0 - u**2,
        *_RADIUS,
    )


def cdf_closed_paper_prop(x_tilde):
    """Literal transcription of the rescaled candidate
    -(2/x~^2) log(1 + x~^2) + 1/(1 + x~^2), x~ = x/4.

    Tends to 0 (not 1) as x~ -> inf and to -1 at 0; kept verbatim for the
    discrepancy ledger.  Accepts a float or an array.  Below x~ = 1/4 it
    is evaluated as the u-form minus 1, at u = x~ / sqrt(1 + x~^2) < 1/4.
    """
    return _closed_form(
        x_tilde,
        lambda t: cdf_closed_paper_u(t / np.hypot(1.0, t)) - 1.0,
        lambda t: -2.0 * np.log1p(t**2) / t**2 + 1.0 / (1.0 + t**2),
        *_RESCALED,
        far=lambda t: (1.0 - 4.0 * np.log(t)) / t / t,
    )


def pdf_closed_paper(x_tilde):
    """Literal transcription of the density candidate
    (4/x~^3) log(1 + x~^2) - (6 x~^2 + 4) / (x~ (1 + x~^2)^2).

    This is d/dx~ of cdf_closed_paper_u(u(x~)), with leading behavior
    (4/3) x~^3.  Accepts a float or an array.  Below x~ = 1/4 the
    derivative of the u-form series is used: 4 u^3 T(u^2) du/dx~, with
    u^3 du/dx~ = x~^3 / (1 + x~^2)^3.
    """
    return _closed_form(
        x_tilde,
        lambda t: 4.0 * t**3 * _series(t**2 / (1.0 + t**2), _DF_SERIES) / (1.0 + t**2) ** 3,
        lambda t: 4.0 * np.log1p(t**2) / t**3 - (6.0 * t**2 + 4.0) / (t * (1.0 + t**2) ** 2),
        *_RESCALED,
        far=lambda t: (8.0 * np.log(t) - 6.0) / t / t / t,
    )


def series_coefficient(k: int) -> float:
    """Coefficient ((-1)^k / 2) (k (k-1) / (k+1)) (1/4)^{2k-1} of x^{2k-1}
    in the small-x expansion of pdf_closed_paper(x/4) / 4."""
    k = int(k)
    if k < 1:
        raise ValueError("series index must be >= 1")
    sign = -1.0 if k % 2 else 1.0
    return sign * 0.5 * (k * (k - 1.0) / (k + 1.0)) * 4.0 ** (-(2 * k - 1))


# ---------------------------------------------------------------------------
# moments


def mean_quadrature(rel_tol: float = 1e-8) -> tuple[float, float]:
    """Mean by integrating the upper tail: E = int_0^inf (1 - F) dx,
    evaluated in the compactifying variable x = 4 tan(phi).

    Returns (value, error_bound); the bound combines the outer adaptive
    estimate with the inner relative tolerance of the tail evaluations.
    """
    inner = 1e-9

    def integrand(phi):
        phi = np.atleast_1d(phi)
        c = np.cos(phi)
        x = 4.0 * np.tan(phi)
        vals = np.array([one_minus_cdf(v, inner) for v in x])
        return vals * 4.0 / (c * c)

    res = adaptive(integrand, 0.0, math.pi / 2.0, tol=rel_tol * 20.0)
    # factor 2: the panel estimates can be mildly optimistic near the
    # logarithmic endpoint
    bound = 2.0 * res.error + inner * (res.value + 1.0)
    return res.value, bound


def truncated_second_moment(cut: float, rel_tol: float = 1e-9) -> float:
    """E(X^2; X <= cut) = 2 int_0^cut x (1 - F) dx - cut^2 (1 - F(cut))."""
    cut = float(cut)
    if cut <= 0.0:
        return 0.0

    def integrand(x):
        x = np.atleast_1d(x)
        return np.array([v * one_minus_cdf(v, 1e-10) for v in x])

    res = adaptive(integrand, 0.0, cut, tol=rel_tol * max(100.0, cut))
    return 2.0 * res.value - cut * cut * one_minus_cdf(cut, 1e-12)


def second_moment_tail_model(c1: float, c2: float, c3: float) -> tuple[float, float]:
    """Predicted and pure-leading increment ratios of the truncated second
    moment at cuts c1 < c2 < c3.

    The tail density is f ~ 128 log(x) / x^3, so
    E2(c) = 64 log^2 c - (128 + 64 log 16) log c + const + o(1); the
    returned pair is (two-term model ratio, pure log^2 ratio) for
    (E2(c3) - E2(c2)) / (E2(c2) - E2(c1)).
    """
    a = 64.0
    b = -(128.0 + 64.0 * math.log(16.0))

    def model(c: float) -> float:
        lc = math.log(c)
        return a * lc * lc + b * lc

    pure = (math.log(c3) ** 2 - math.log(c2) ** 2) / (
        math.log(c2) ** 2 - math.log(c1) ** 2
    )
    two_term = (model(c3) - model(c2)) / (model(c2) - model(c1))
    return two_term, pure


# ---------------------------------------------------------------------------
# Monte Carlo sampling


@dataclass(frozen=True)
class WeightSpec:
    """Radial reweighting w(rho); kind is uniform, exp, gauss, or table."""

    kind: str
    rho_grid: tuple[float, ...] = field(default=())
    values: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in ("uniform", "exp", "gauss", "table"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "table":
            if len(self.rho_grid) < 2 or len(self.rho_grid) != len(self.values):
                raise ValueError("weight table needs matching rho/value columns")
            if not all(map(math.isfinite, self.rho_grid + self.values)):
                raise ValueError("weight table entries must be finite")
            if any(b <= a for a, b in zip(self.rho_grid, self.rho_grid[1:])):
                raise ValueError("weight table rho column must increase")
            if any(v < 0.0 for v in self.values):
                raise ValueError("weight table values must be nonnegative")

    def weight_of_rho(self, rho):
        rho = np.asarray(rho, dtype=float)
        if self.kind == "uniform":
            return np.ones_like(rho)
        if self.kind == "exp":
            return np.exp(-rho)
        if self.kind == "gauss":
            return np.exp(-rho * rho)
        return np.interp(rho, np.asarray(self.rho_grid), np.asarray(self.values))

    def weight_of_omega(self, omega):
        return self.weight_of_rho(rho_of_omega(omega))


UNIFORM_WEIGHT = WeightSpec("uniform")


@dataclass(frozen=True)
class SampleBatch:
    """Rotation numbers of sampled pairs with importance weights."""

    omega: np.ndarray
    weight: np.ndarray
    seed: int
    stream_sizes: tuple[int, ...]


def _sample_stream(seq: np.random.SeedSequence, m: int) -> np.ndarray:
    rng = np.random.default_rng(seq)
    rz = np.sqrt(rng.random(m))
    az = rng.uniform(0.0, 2.0 * np.pi, m)
    rw = np.sqrt(rng.random(m))
    aw = rng.uniform(0.0, 2.0 * np.pi, m)
    z = rz * np.exp(1j * az)
    w = rw * np.exp(1j * aw)
    q = np.abs(z - w) / np.abs(1.0 - np.conj(w) * z)
    return 4.0 * q / np.sqrt((1.0 - q) * (1.0 + q))


def mc_sample(
    n: int,
    seed: int,
    weight: WeightSpec = UNIFORM_WEIGHT,
    streams: int = 16,
) -> SampleBatch:
    """Draw n area-uniform pairs and return their rotation numbers.

    The n draws are split across ``streams`` SeedSequence-spawned
    substreams merged in index order, so the output is a pure function of
    (n, seed, streams).
    """
    n = int(n)
    if n <= 0:
        raise ValueError("sample size must be positive")
    streams = max(1, min(int(streams), n))
    base = n // streams
    sizes = tuple(base + (1 if i < n % streams else 0) for i in range(streams))
    children = np.random.SeedSequence(seed).spawn(streams)
    omega = np.concatenate([_sample_stream(sq, m) for sq, m in zip(children, sizes)])
    return SampleBatch(omega, weight.weight_of_omega(omega), int(seed), sizes)


def ks_distance(batch: SampleBatch, cdf) -> float:
    """Weighted Kolmogorov-Smirnov distance between the batch and cdf.

    ``cdf`` must accept a sorted numpy array.  Both one-sided gaps are
    taken at the jump points of the weighted empirical distribution.
    """
    order = np.argsort(batch.omega, kind="stable")
    xs = batch.omega[order]
    w = batch.weight[order]
    cum = np.cumsum(w)
    total = cum[-1]
    if total <= 0.0:
        raise ValueError("batch has no positive weight")
    cum = cum / total
    fv = np.asarray(cdf(xs), dtype=float)
    lower = np.concatenate(([0.0], cum[:-1]))
    return float(max(np.max(cum - fv), np.max(fv - lower)))


def mc_mean(batch: SampleBatch) -> tuple[float, float]:
    """Self-normalized weighted mean and its standard error."""
    w = batch.weight
    total = float(np.sum(w))
    mean = float(np.sum(w * batch.omega)) / total
    dev = batch.omega - mean
    stderr = math.sqrt(float(np.sum((w * dev) ** 2))) / total
    return mean, stderr


# ---------------------------------------------------------------------------
# reweighting


class ReweightedDistribution:
    """Distribution with density proportional to f_quad(x) w(rho(x)).

    The normalizer and distribution function are accumulated as a
    Stieltjes sum over a uniform grid in phi = asinh(x/4) = rho/2, with
    the base distribution evaluated by the closed form; no finite
    differencing is involved, so the table is smooth to ~1e-14.
    """

    def __init__(self, weight: WeightSpec, x_max: float = 1e6, grid: int = 20001):
        self.weight = weight
        phi_hi = math.asinh(float(x_max) / 4.0) + 12.0
        self.phi = np.linspace(0.0, phi_hi, int(grid))
        self.x_nodes = 4.0 * np.sinh(self.phi)
        self.f_nodes = _cdf_and_tail(self.x_nodes)[0]
        rho_mid = self.phi[:-1] + self.phi[1:]  # = 2 * phi at midpoints
        self.w_mid = weight.weight_of_rho(rho_mid)
        # reweighted probability of each phi bin, before normalization
        self.mass = self.w_mid * np.diff(self.f_nodes)
        self.cum = np.concatenate(([0.0], np.cumsum(self.mass)))
        self.normalizer = float(self.cum[-1])
        if self.normalizer <= 0.0:
            raise ValueError("weight annihilates the distribution")

    def cdf(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        phi_x = np.arcsinh(xs / 4.0)
        j = np.clip(np.searchsorted(self.phi, phi_x, side="right") - 1, 0, len(self.phi) - 2)
        base = _cdf_and_tail(xs)[0]
        vals = (self.cum[j] + self.w_mid[j] * (base - self.f_nodes[j])) / self.normalizer
        return np.clip(vals, 0.0, 1.0)

    def density(self, x: float) -> float:
        x = float(x)
        w = float(self.weight.weight_of_omega(x))
        return pdf_quadrature(x) * w / self.normalizer


_dist_cache: dict[tuple, ReweightedDistribution] = {}


def _cached_distribution(weight: WeightSpec, x_max: float = 1e6) -> ReweightedDistribution:
    key = (weight.kind, weight.rho_grid, weight.values, float(x_max))
    if key not in _dist_cache:
        _dist_cache[key] = ReweightedDistribution(weight, x_max)
    return _dist_cache[key]


def reweight_density(weight: WeightSpec, x: float) -> float:
    """Normalized reweighted density f_w(x) = f_quad(x) w(rho(x)) / Z.

    The uniform weight short-circuits to pdf_quadrature itself (Z = 1
    exactly), so reweighting by 1 is bitwise the identity.
    """
    if weight.kind == "uniform":
        return pdf_quadrature(float(x))
    return _cached_distribution(weight).density(x)


def _weighted_moment(weight: WeightSpec, power: int, cut: float) -> float:
    """E(X^power; X <= cut) of the reweighted distribution, from the same
    Stieltjes table as the reweighted cdf."""
    dist = _cached_distribution(weight)
    x_mid = 0.5 * (dist.x_nodes[:-1] + dist.x_nodes[1:])
    mask = x_mid <= float(cut)
    return float(np.sum(x_mid[mask] ** power * dist.mass[mask])) / dist.normalizer


def weighted_truncated_second_moment(weight: WeightSpec, cut: float) -> float:
    """Second moment of the reweighted distribution truncated at cut."""
    return _weighted_moment(weight, 2, cut)


def weighted_mean(weight: WeightSpec, cut: float = 1e6) -> float:
    """Mean of the reweighted distribution, truncated at cut."""
    return _weighted_moment(weight, 1, cut)


# ---------------------------------------------------------------------------
# tabulation


@dataclass(frozen=True)
class SpectralTable:
    """Columnar table of the distribution and density candidates."""

    x: np.ndarray
    x_tilde: np.ndarray
    F_quad: np.ndarray
    F_paper_u: np.ndarray
    F_paper_prop: np.ndarray
    F_derived: np.ndarray
    f_quad: np.ndarray
    f_paper: np.ndarray

    @classmethod
    def build(cls, x) -> "SpectralTable":
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("grid must be a nonempty 1-d array")
        if np.any(x <= 0.0):
            raise ValueError("grid values must be positive")
        xt = x / 4.0
        u = _schwarz_radius(x)
        # u rounds to 1 above x ~ 3e8, outside the u-forms' domain; both tend to 1
        edge = u == 1.0
        u = np.where(edge, 0.0, u)
        return cls(
            x=x,
            x_tilde=xt,
            F_quad=cdf_quadrature_batch(x),
            F_paper_u=np.where(edge, 1.0, cdf_closed_paper_u(u)),
            F_paper_prop=cdf_closed_paper_prop(xt),
            F_derived=np.where(edge, 1.0, cdf_closed_derived(u)),
            f_quad=_pdf_batch(x),
            f_paper=pdf_closed_paper(xt),
        )

    def rows(self):
        cols = [getattr(self, name) for name in TABLE_COLUMNS]
        for i in range(len(self.x)):
            yield [float(col[i]) for col in cols]


# ---------------------------------------------------------------------------
# discrepancy ledger

MEAN_CLAIMED = 3.0 * math.pi / 2.0
MEAN_EXACT = 16.0 * math.pi / 3.0
SMALL_X_EXPONENT_CLAIMED = 3.0


def _ledger_entry(status: str, value, tolerance: float | None, details: str) -> dict:
    return {
        "status": status,
        "value": value,
        "tolerance": tolerance,
        "details": details,
    }


def discrepancy_ledger(fd_tol: float = 1e-5) -> dict[str, dict]:
    """Standing comparisons between the quadrature distribution and the
    closed-form candidates, plus the moment claims.

    Entries use status "pass" for agreements that are required to hold,
    "discrepancy" for stable measured disagreements (reported, not
    failures), and "fail" only when a required agreement is violated.
    """
    out: dict[str, dict] = {}

    # (a) derived closed form against the quadrature route
    xs = np.geomspace(1e-2, 1e3, 100)
    fq = cdf_quadrature_batch(xs)
    fd = cdf_closed_derived(_schwarz_radius(xs))
    sup = float(np.max(np.abs(fq - fd)))
    out["ledger_cdf_derived_vs_quadrature"] = _ledger_entry(
        "pass" if sup <= 1e-8 else "fail",
        {"sup_abs_difference": sup},
        1e-8,
        "sup |F_derived - F_quad| on a 100-point log grid, x in [1e-2, 1e3]; "
        "the derived closed form must reproduce the quadrature distribution",
    )

    # (b) u-form candidate against the quadrature value at u = 1/2
    x_half = 4.0 * 0.5 / math.sqrt(1.0 - 0.25)
    f_quad_half = cdf_quadrature(x_half, 1e-11)
    f_u_half = cdf_closed_paper_u(0.5)
    quad_ok = abs(f_quad_half - 0.0957) <= 1e-3
    out["ledger_cdf_paper_u_vs_quadrature"] = _ledger_entry(
        "discrepancy" if quad_ok else "fail",
        {
            "F_quad_at_u_half": float(f_quad_half),
            "F_paper_u_at_u_half": float(f_u_half),
            "difference": float(f_quad_half - f_u_half),
        },
        1e-3,
        "at u = 1/2 the quadrature distribution is ~0.0957 while the "
        "transcribed u-form gives ~0.0239; the u-form equals u^2 * F_derived(u), "
        "so the two candidates cannot both be the distribution function",
    )

    # (c) rescaled candidate tail limit
    prop_far = cdf_closed_paper_prop(1e6)
    out["ledger_cdf_paper_prop_tail"] = _ledger_entry(
        "discrepancy",
        {"F_paper_prop_at_1e6": float(prop_far), "expected_limit": 1.0},
        1e-3,
        "the transcribed rescaled form tends to 0 as x_tilde -> inf (and to "
        "-1 at 0) instead of the distribution-function limit 1; it differs "
        "from the u-form by the constant 1",
    )

    # (f) internal consistency: transcribed density is d/dx~ of the u-form
    xt = np.geomspace(0.05, 20.0, 16)
    extrap, res = central_difference(
        lambda v: cdf_closed_paper_u(v / np.sqrt(1.0 + v * v)), xt, 1e-5 * np.maximum(1.0, xt)
    )
    ref = pdf_closed_paper(xt)
    worst_rel = float(np.max(np.abs(extrap - ref) / np.maximum(np.abs(ref), 1e-30)))
    worst_res = float(np.max(res / np.maximum(np.abs(extrap), 1.0)))
    if worst_res > fd_tol:
        out["ledger_pdf_paper_internal_consistency"] = _ledger_entry(
            "fail",
            {"max_rel_difference": worst_rel, "max_rel_residual": worst_res},
            1e-6,
            f"step-size failure: Richardson residual {worst_res:.3e} exceeds "
            f"certification tolerance {fd_tol:.1e} on the x_tilde grid [0.05, 20]",
        )
    else:
        out["ledger_pdf_paper_internal_consistency"] = _ledger_entry(
            "pass" if worst_rel <= 1e-6 else "fail",
            {"max_rel_difference": worst_rel, "max_rel_residual": worst_res},
            1e-6,
            "the transcribed density candidate equals d/dx_tilde of the "
            "transcribed u-form distribution on a 16-point log grid "
            "x_tilde in [0.05, 20] (Richardson-certified central differences); "
            "the two transcriptions are internally consistent with each other",
        )

    # (d) mean against the claimed 3*pi/2
    mean_q, mean_bound = mean_quadrature(1e-7)
    batch = mc_sample(100000, 20260814)
    m_mc, se_mc = mc_mean(batch)
    exact_error = abs(mean_q - MEAN_EXACT)
    out["ledger_mean_vs_claimed"] = _ledger_entry(
        "fail" if exact_error > mean_bound else "discrepancy",
        {
            "mean_quadrature": float(mean_q),
            "quadrature_bound": float(mean_bound),
            "exact": MEAN_EXACT,
            "exact_error": float(exact_error),
            "mean_mc": float(m_mc),
            "mc_stderr": float(se_mc),
            "claimed": float(MEAN_CLAIMED),
            "u_form_mean": float(math.pi * (7.0 - 8.0 * math.log(2.0))),
        },
        float(mean_bound),
        "quadrature mean ~16.755 (MC cross-check at n=1e5, seed 20260814) "
        "against the claimed 3*pi/2 ~ 4.712; integrating x against the "
        "u-form candidate yields pi*(7 - 8 log 2) ~ 4.570, which matches "
        "neither the claim nor the measured mean; the entry fails only if "
        "the quadrature mean misses the exact 16*pi/3 by more than its bound",
    )

    # (e) small-x exponent of the density
    grid = np.geomspace(1e-3, 1e-2, 8)
    dens = _pdf_batch(grid)
    slope, _ = np.polyfit(np.log(grid), np.log(dens), 1)
    slope = float(slope)
    status = "discrepancy" if abs(slope - SMALL_X_EXPONENT_CLAIMED) > 0.5 else "pass"
    out["ledger_small_x_exponent"] = _ledger_entry(
        status,
        {
            "measured_slope": slope,
            "claimed": SMALL_X_EXPONENT_CLAIMED,
            "leading_coefficient_reference": 1.0 / 24.0,
        },
        0.05,
        "log-log slope of the quadrature density on [1e-3, 1e-2] is ~1 "
        "(density ~ x/24 near 0), against the claimed cubic behavior; the "
        "transcribed density candidate does have the cubic leading term "
        "(4/3) x_tilde^3, matching the claim but not the quadrature route",
    )

    # (g) truncated second moment growth
    cuts = (1e2, 1e3, 1e4)
    e2 = [truncated_second_moment(c) for c in cuts]
    ratio = (e2[2] - e2[1]) / (e2[1] - e2[0])
    model_ratio, pure_ratio = second_moment_tail_model(*cuts)
    ok = e2[0] < e2[1] < e2[2] and abs(ratio / model_ratio - 1.0) <= 0.2
    out["ledger_second_moment_growth"] = _ledger_entry(
        "pass" if ok else "fail",
        {
            "E2_at_cuts": [float(v) for v in e2],
            "increment_ratio": float(ratio),
            "model_ratio": float(model_ratio),
            "pure_log2_ratio": float(pure_ratio),
        },
        0.2,
        "truncated second moments at cuts (1e2, 1e3, 1e4) grow without "
        "bound; increment ratio is compared against the tail model "
        "64 log^2 c - (128 + 64 log 16) log c (the pure log^2 ratio alone "
        "is ~20% off because the subleading log term is still large at "
        "these cuts)",
    )

    return out
