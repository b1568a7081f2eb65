"""Spectral eigenvalue distribution of the moment map over the bidisk.

For a pair drawn area-uniformly from the bidisk, the rotation number
omega lies below x exactly when the second point falls in the Schwarz
disk of radius u(x) = x / sqrt(16 + x^2) around the first.  Averaging the
normalized area of that disk over the first point gives the distribution
function

    F(x) = 2 * int_0^1 (u (1 - s^2) / (1 - s^2 u^2))^2 s ds,

whose closed form in u is 2/u^2 - 1 + 2 (1 - u^2) log(1 - u^2) / u^4.
One implementation, on arrays and tail first, serves the reweighting,
F_derived and cdf_closed_derived; one quadrature kernel (F below x = 8, a
cancellation-free 1 - F above, and on request the density from its own
nonnegative integrand on the same nodes; max(1, ceil(Y/4)) panels of width
<= 4/Y, Y = log(1 + x^2/16)) is the independent reference that the
discrepancy ledger checks it against.  Monte Carlo sampling, moments, and
importance reweighting by radial weights w(rho) complete the module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .disk import _py
from .quadrature import adaptive, central_difference, composite_k15

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


def _rotation_numbers(omega) -> np.ndarray:
    """omega as a float array; NaN or negative entries raise ValueError."""
    omega = np.asarray(omega, dtype=float)
    if not np.all(omega >= 0.0):
        raise ValueError("rotation number must be nonnegative")
    return omega


def _rho_array(omega) -> np.ndarray:
    """rho = 2 asinh(omega / 4) in one new array, also for a float."""
    omega = _rotation_numbers(omega)
    rho = np.divide(omega, 4.0, out=np.empty_like(omega))
    np.arcsinh(rho, out=rho)
    rho *= 2.0
    return rho


def rho_of_omega(omega):
    """Hyperbolic distance of a pair with rotation number omega:
    rho = 2 asinh(omega / 4).  NaN or negative omega raises ValueError."""
    return _rho_array(omega)[()]


# ---------------------------------------------------------------------------
# quadrature routes

# F is integrated up to this x and 1 - F above it; each is the other's
# complement
_SWITCH = 8.0
# points x nodes per chunk of the kernel: 2 MB per temporary array
_CHUNK = 2**18
_EPS = np.finfo(float).eps
# below s = (x/4)^2 = eps^2 the density is x/24 to rounding (its relative
# correction is -s), and Y v would near the subnormal range
_LINEAR_S = _EPS**2


def _quarter_square_log(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = (x/4)^2 and Y = log(1 + s) on arrays; Y stays finite where s
    overflows (x >~ 5e154)."""
    with np.errstate(over="ignore", divide="ignore"):
        s = (x / 4.0) ** 2
        return s, np.where(s < np.inf, np.log1p(s), 2.0 * np.log(x / 4.0))


def _panel_count(y: np.ndarray) -> np.ndarray:
    """Panels k = max(1, ceil(Y/4)) of the kernel's composite K15 rule at
    Y = log(1 + x^2/16): each panel is at most 4/Y wide, a few times the
    scale 1/Y on which the integrands vary.  k < 360 even at the largest
    double, so it fits int16."""
    return np.maximum(1.0, np.ceil(y / 4.0)).astype(np.int16)


def _cdf_tail_quadrature(x, density: bool = False) -> tuple[np.ndarray, ...]:
    """F(x), 1 - F(x) and an error estimate by quadrature, on an array of x
    in [0, inf]; with density, also f(x) = dF/dx and its error estimate.

    With Y = log(1 + x^2/16), delta = e^{-Y} = 16/(16 + x^2), u^2 = 1 - delta,
    r = 4/hypot(x, 4) and the substitutions sigma = s^2,
    1 - sigma u^2 = delta e^{Y v}, e = expm1(-Y v), e_rev = expm1(-Y (1 - v)):

        F     = (Y / u^4) int_0^1 e^2 (1 + e_rev) dv,
        1 - F = (Y delta / u^2) int_0^1 1 + e e_rev / u^2 dv,
        f     = dF/du r^3 / 4,  dF/du = (2 Y / u^5) int_0^1 e^2 (1 - e_rev) dv.

    F is integrated for x <= 8 and 1 - F, whose integrand lies in [1, 2],
    above; the other value is one minus the integrated one, so F <= 1.  The
    density's integrand is a product of nonnegative factors, so one form
    serves every x, and it shares the nodes' expm1 values with F's.  All
    integrands vary on the scale 1/Y: each point gets the composite K15 rule
    on _panel_count(Y) panels, of width <= 4/Y, and points are batched only
    with points of the same k and form, so a value does not depend on its
    neighbours in the call.  delta is taken as r^2: exp(-Y) would turn the
    absolute rounding of Y into relative error of the tail.  Below
    s = (x/4)^2 = eps^2 the density is its limit x/24.

    Each estimate bounds the absolute error of its integrated value: the
    summed |K15 - G7| of the panels plus a rounding floor of
    50 eps (1 + Y) times the value.  The complement of F or 1 - F adds one
    rounding.  Without density, f is not computed at all.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):
        raise ValueError("spectral parameter must be nonnegative")
    flat = x.ravel()
    s, y = _quarter_square_log(flat)
    cdf = np.where(flat == np.inf, 1.0, 0.0)
    tail = 1.0 - cdf
    err = np.zeros_like(cdf)
    if density:
        pdf, pdf_err = np.zeros_like(cdf), np.zeros_like(cdf)
    # s underflows to 0 below x ~ 9e-162, where F ~ x^2/48 does too
    live = np.flatnonzero((s > 0.0) & (flat < np.inf))
    # batch key 2 k + (1 for the tail form): one stable sort groups the points
    key = 2 * _panel_count(y[live]) + (flat[live] > _SWITCH)
    grouped = live[np.argsort(key, kind="stable")]
    counts = np.bincount(key)
    ends = np.cumsum(counts)
    for kv in np.flatnonzero(counts):
        batch = grouped[ends[kv] - counts[kv] : ends[kv]]
        k, tail_form = divmod(int(kv), 2)
        step = max(1, _CHUNK // (15 * k * (1 + density)))
        for start in range(0, batch.size, step):
            sel = batch[start : start + step]
            m = sel.size
            yk = y[sel]
            u2 = -np.expm1(-yk)

            # the nodes are symmetric under v -> 1 - v, so e_rev is e
            # reversed along the node and panel axes; with density the
            # integrands of F (or 1 - F) and f sit side by side
            def integrand(v):
                e = np.multiply(v, -yk)
                np.expm1(e, out=e)
                rev = e[::-1, ::-1]
                out = np.empty(e.shape[:2] + (m * (1 + density),))
                val, dens = out[..., :m], out[..., m:]
                if tail_form:
                    np.multiply(e, rev, out=val)
                    val /= u2
                    val += 1.0
                else:
                    np.add(1.0, rev, out=val)
                if density:
                    np.subtract(1.0, rev, out=dens)
                if density or not tail_form:
                    # (e / Y)^2, scaled so that it does not underflow as Y -> 0
                    e /= yk
                    np.multiply(e, e, out=e)
                    if not tail_form:
                        val *= e
                    if density:
                        dens *= e
                return out

            vals, ests = composite_k15(integrand, k)
            val, est = vals[:m], ests[:m]
            if tail_form or density:
                r = 4.0 / np.hypot(flat[sel], 4.0)
            if tail_form:
                pre = yk * r * r / u2
                tail[sel] = t = pre * val
                cdf[sel] = 1.0 - t
            else:
                c = yk / u2
                pre = c * c * yk
                cdf[sel] = f = pre * val
                tail[sel] = 1.0 - f
            floor = 50.0 * _EPS * (1.0 + yk)
            err[sel] = pre * (est + floor * val)
            if density:
                # f = c^3 u r^3 / 2 times the scaled integral, with c = Y / u^2
                # and u = x r / 4; (c r)^3 first, so no factor underflows
                # before f does
                g = yk / u2 * r
                pre = g * g * g * (flat[sel] * r / 8.0)
                pdf[sel] = pre * vals[m:]
                pdf_err[sel] = pre * (ests[m:] + floor * vals[m:])
    out = (cdf, tail, err)
    if density:
        small = s < _LINEAR_S
        pdf[small] = flat[small] / 24.0
        pdf_err[small] = _EPS * pdf[small]
        out += (pdf, pdf_err)
    return tuple(a.reshape(x.shape) for a in out)


def cdf_quadrature(x):
    """Distribution function F(x) by quadrature of the fiber areas.

    A view of the quadrature kernel: the composite K15 rule with
    max(1, ceil(Y/4)) panels of width <= 4/Y, Y = log(1 + x^2/16),
    integrates F for x <= 8 and the cancellation-free form of 1 - F above,
    where F = 1 - (1 - F) <= 1; its error estimate (summed |K15 - G7| plus
    a rounding floor) bounds the error of the integrated value.  Float in,
    float out; an array call equals the per-element calls bit for bit.
    NaN or negative x raises ValueError.
    """
    return _py(_cdf_tail_quadrature(x)[0])


def one_minus_cdf(x):
    """Upper tail 1 - F(x) by the kernel of cdf_quadrature: 1 - F itself is
    integrated above x = 8, from an integrand in [1, 2] on
    max(1, ceil(Y/4)) panels of width <= 4/Y, so it keeps its relative
    accuracy (tested to 1e-13) wherever it is above 1e-300; 0 at x = inf.
    Float or array, as cdf_quadrature."""
    return _py(_cdf_tail_quadrature(x)[1])


def cdf_quadrature_batch(xs) -> np.ndarray:
    """cdf_quadrature on an array of x values in [0, inf], always returning
    an array: the kernel's F, integrated on max(1, ceil(Y/4)) panels of
    width <= 4/Y up to x = 8 and taken as 1 - (1 - F) above.  The density
    is not computed."""
    return _cdf_tail_quadrature(xs)[0]


def pdf_quadrature(x):
    """Spectral density f = dF/dx by the quadrature kernel.

    The kernel integrates dF/du = (2 Y / u^5) int_0^1 e^2 (1 - e_rev) dv,
    whose integrand is a product of nonnegative factors, on the same nodes
    and max(1, ceil(Y/4)) panels of width <= 4/Y as F, and takes
    f = dF/du r^3 / 4, r = 4/hypot(x, 4); below s = (x/4)^2 = eps^2 it is
    the limit x/24.  No finite differences: tested to 1e-13 relative
    wherever f is a normal double.  Float or array, as cdf_quadrature; 0
    for x <= 0 and at inf, ValueError for NaN.
    """
    return _py(_cdf_tail_quadrature(np.maximum(x, 0.0), density=True)[3])


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


def _closed_cdf_tail(u2, d, y) -> tuple[np.ndarray, np.ndarray]:
    """F and 1 - F of the closed form from arrays of u^2, d = 2 r^2 with
    r^2 = 1 - u^2, and Y = -log(1 - u^2), each taken without cancellation by
    the caller.

    Below u = SERIES_CUT, F comes from the series.  Above it the tail is
    taken first, as 1 - F = d (Y - u^2) / u^4, and F = 1 - (1 - F), so the
    tail keeps the relative accuracy of d and Y; it is 0 where d is.  (d, not
    r^2: 2 r^2 stays a normal double out to x ~ 3.8e154, r^2 to 2.7e154.)
    """
    big = u2 >= SERIES_CUT**2
    cdf, tail = np.empty_like(u2), np.empty_like(u2)
    z = u2[~big]
    cdf[~big] = z * _series(z, _F_SERIES)
    tail[~big] = 1.0 - cdf[~big]
    z, d = u2[big], d[big]
    with np.errstate(invalid="ignore"):  # 0 * inf at x = inf
        tail[big] = np.where(d > 0.0, d * (y[big] - z) / (z * z), 0.0)
    cdf[big] = 1.0 - tail[big]
    return cdf, tail


def _cdf_and_tail(x) -> tuple[np.ndarray, np.ndarray]:
    """F(x) and 1 - F(x) by _closed_cdf_tail on an array of x in [0, inf], at
    r = 4/hypot(x, 4) and Y = log(1 + x^2/16): no x^2 overflows."""
    x = np.asarray(x, dtype=float)
    r = 4.0 / np.hypot(x, 4.0)
    return _closed_cdf_tail(_schwarz_radius(x) ** 2, 2.0 * r * r, _quarter_square_log(x)[1])


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
    return _py(out)


def cdf_closed_derived(u):
    """Closed form 2/u^2 - 1 + 2 (1 - u^2) log(1 - u^2) / u^4 of the fiber
    integral, as a function of the Schwarz radius u = x / sqrt(16 + x^2).

    The implementation of _cdf_and_tail, entered at r^2 = (1 - u)(1 + u)
    and Y = -log1p(-u^2).  Accepts a float or an array in [0, 1).
    """
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise ValueError(_RADIUS[1])
    u2 = u * u
    return _py(_closed_cdf_tail(u2, 2.0 * (1.0 - u) * (1.0 + u), -np.log1p(-u2))[0])


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


def series_coefficient(k) -> float:
    """Coefficient ((-1)^k / 2) (k (k-1) / (k+1)) (1/4)^{2k-1} of x^{2k-1}
    in the small-x expansion of pdf_closed_paper(x/4) / 4.

    k is an integer >= 1, or a float with such a value, else ValueError;
    from k = 270 on the coefficient underflows to a signed zero.
    """
    if not (isinstance(k, numbers.Integral) or (math.isfinite(k) and k == int(k))) or k < 1:
        raise ValueError("series index must be an integer >= 1")
    k = int(k)
    sign = -1.0 if k % 2 else 1.0
    if k >= 270:  # (1/4)^{2k-1} <= 2^-1078 rounds to 0, and k (k-1) may overflow
        return sign * 0.0
    return sign * 0.5 * (k * (k - 1.0) / (k + 1.0)) * 4.0 ** (-(2 * k - 1))


# ---------------------------------------------------------------------------
# moments

# truncated_second_moment's tolerance grows with the cut, and so does its
# unflagged error: 4.3e-9 relative at 1e8, 1.7e-6 at 1e10, 7.5% at 1e12
E2_MAX_CUT = 1e8


_MEAN_TOL = 2e-7  # absolute tolerance of the mean's outer adaptive rule


def mean_quadrature() -> tuple[float, float]:
    """Mean by integrating the upper tail: E = int_0^inf (1 - F) dx,
    evaluated in the compactifying variable x = 4 tan(phi).

    Returns (value, error_bound); the bound is twice the outer adaptive
    estimate, since the panel estimates can be mildly optimistic near the
    logarithmic endpoint.  `moments` and the discrepancy ledger both report
    this one value.
    """
    return _mean_tail_quadrature(_MEAN_TOL)


def _mean_tail_quadrature(tol: float) -> tuple[float, float]:
    """`mean_quadrature` at outer tolerance `tol`; the tests use it to check
    that the bound covers the exact error at tighter tolerances too."""

    def integrand(phi):
        c = np.cos(phi)
        return one_minus_cdf(4.0 * np.tan(phi)) * 4.0 / (c * c)

    res = adaptive(integrand, 0.0, math.pi / 2.0, tol=tol)
    return res.value, 2.0 * res.error


def truncated_second_moment(cut: float) -> float:
    """E(X^2; X <= cut) = 2 int_0^cut x (1 - F) dx - cut^2 (1 - F(cut)),
    within 1e-8 relative (or 1e-20 absolute) for cut up to E2_MAX_CUT = 1e8;
    0 for cut <= 0.  A larger or NaN cut raises ValueError."""
    cut = float(cut)
    if not cut <= E2_MAX_CUT:
        raise ValueError(f"truncation cut must be at most {E2_MAX_CUT:g}")
    if cut <= 0.0:
        return 0.0
    res = adaptive(lambda x: x * one_minus_cdf(x), 0.0, cut, tol=1e-9 * max(100.0, cut))
    return 2.0 * res.value - cut * cut * one_minus_cdf(cut)


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


MOMENT_CUTS = (1e2, 1e3, 1e4)  # truncation cuts of the second moment


def second_moment_growth() -> tuple[list[float], float, float, float]:
    """Truncated second moments E2 at MOMENT_CUTS, their increment ratio
    (E2(c3) - E2(c2)) / (E2(c2) - E2(c1)), and the tail model's two-term
    and pure log^2 ratios at the same cuts."""
    e2 = [float(truncated_second_moment(c)) for c in MOMENT_CUTS]
    ratio = (e2[2] - e2[1]) / (e2[1] - e2[0])
    return (e2, ratio, *second_moment_tail_model(*MOMENT_CUTS))


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
        """w(rho) on a float or an array."""
        return self._weight(np.array(rho, dtype=float))

    def weight_of_omega(self, omega):
        """w(rho(omega)); the uniform weight is ones without rho."""
        if self.kind == "uniform":
            return np.ones_like(_rotation_numbers(omega))
        return self._weight(_rho_array(omega))

    def _weight(self, rho: np.ndarray) -> np.ndarray:
        """w(rho); exp and gauss overwrite rho, a new array of the caller."""
        if self.kind == "uniform":
            return np.ones_like(rho)
        if self.kind == "table":
            return np.interp(rho, np.asarray(self.rho_grid), np.asarray(self.values))
        if self.kind == "gauss":
            np.multiply(rho, rho, out=rho)
        np.negative(rho, out=rho)
        return np.exp(rho, out=rho)


UNIFORM_WEIGHT = WeightSpec("uniform")


@dataclass(frozen=True)
class SampleBatch:
    """Rotation numbers of sampled pairs with importance weights."""

    omega: np.ndarray
    weight: np.ndarray
    seed: int
    stream_sizes: tuple[int, ...]


# sorted points per cdf call of ks_distance: 128 kB per temporary array
_KS_BLOCK = 2**14


def _sample_stream(seq: np.random.SeedSequence, m: int) -> np.ndarray:
    rng = np.random.default_rng(seq)
    rz = np.sqrt(rng.random(m))
    az = rng.uniform(0.0, 2.0 * np.pi, m)
    rw = np.sqrt(rng.random(m))
    aw = rng.uniform(0.0, 2.0 * np.pi, m)
    # omega = 4 |z - w| / sqrt((1 - rz^2)(1 - rw^2)), |z - w|^2 by the half-angle sine
    s = np.sin(0.5 * (az - aw))
    d2 = (rz - rw) ** 2 + 4.0 * rz * rw * s * s
    return 4.0 * np.sqrt(d2 / ((1.0 - rz) * (1.0 + rz) * (1.0 - rw) * (1.0 + rw)))


def mc_sample(
    n: int,
    seed: int,
    weight: WeightSpec = UNIFORM_WEIGHT,
    streams: int = 16,
) -> SampleBatch:
    """Draw n area-uniform pairs and return their rotation numbers.

    The n draws are split across ``streams`` SeedSequence-spawned
    substreams merged in index order, so the output is a pure function of
    (n, seed, streams).  streams must be positive and is capped at n.
    """
    n, streams = int(n), int(streams)
    if n <= 0:
        raise ValueError("sample size must be positive")
    if streams <= 0:
        raise ValueError("streams must be positive")
    streams = min(streams, n)
    base = n // streams
    sizes = tuple(base + (1 if i < n % streams else 0) for i in range(streams))
    children = np.random.SeedSequence(seed).spawn(streams)
    omega = np.empty(n)
    start = 0
    for sq, m in zip(children, sizes):
        omega[start : start + m] = _sample_stream(sq, m)
        start += m
    return SampleBatch(omega, weight.weight_of_omega(omega), int(seed), sizes)


def ks_distance(batch: SampleBatch, cdf) -> float:
    """Weighted Kolmogorov-Smirnov distance between the batch and cdf.

    ``cdf`` is called on consecutive blocks of the sorted omegas, of at
    most _KS_BLOCK points each, so its working set does not grow with the
    batch.  It must therefore be elementwise: its value at a point may not
    depend on the other points of the call.  Both one-sided gaps are
    taken at the jump points of the weighted empirical distribution: the
    upper gap at the last element of each run of equal omegas and the
    lower gap at the first.  With nonnegative weights the running sum does
    not decrease, so the maxima over all elements fall on those ends and
    the statistic does not depend on the order the sort leaves ties in,
    up to the rounding of the running sum.  The maxima are exact, so the
    blocks give the statistic of one whole-array call bit for bit.
    """
    order = np.argsort(batch.omega)
    xs = batch.omega[order]
    cum = batch.weight[order]
    del order  # freed before cdf allocates its own arrays
    np.cumsum(cum, out=cum)
    total = cum[-1]
    if total <= 0.0:
        raise ValueError("batch has no positive weight")
    cum /= total
    # per-block maxima of the upper gap cum - F and the lower gap
    # F - cum_prev, where cum_prev is the running sum just below each point
    gaps = []
    below = 0.0
    for start in range(0, xs.size, _KS_BLOCK):
        c = cum[start : start + _KS_BLOCK]
        fv = np.asarray(cdf(xs[start : start + _KS_BLOCK]), dtype=float)
        gaps.append(np.max(c - fv))
        gaps.append(np.max(np.subtract(fv[1:], c[:-1], out=c[:-1]), initial=fv[0] - below))
        below = c[-1]
    return float(np.max(gaps))


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
    Stieltjes sum over 20001 equally spaced phi = asinh(x/4) = rho/2 from 0
    to asinh(1e6/4) + 12, with
    the base distribution evaluated by the closed form; no finite
    differencing is involved, so the table is smooth to ~1e-14.
    """

    def __init__(self, weight: WeightSpec):
        self.phi = np.linspace(0.0, math.asinh(1e6 / 4.0) + 12.0, 20001)
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
        j = np.searchsorted(self.phi, np.arcsinh(xs / 4.0), side="right")
        j -= 1
        np.clip(j, 0, len(self.phi) - 2, out=j)
        # (cum + w (F - F_node)) / normalizer, in place on the base F
        vals = _cdf_and_tail(xs)[0]
        vals -= self.f_nodes[j]
        vals *= self.w_mid[j]
        vals += self.cum[j]
        vals /= self.normalizer
        return np.clip(vals, 0.0, 1.0, out=vals)


_dist_cache: dict[WeightSpec, ReweightedDistribution] = {}


def _cached_distribution(weight: WeightSpec) -> ReweightedDistribution:
    if weight not in _dist_cache:
        _dist_cache[weight] = ReweightedDistribution(weight)
    return _dist_cache[weight]


def reweight_density(weight: WeightSpec, x):
    """Normalized reweighted density f_w(x) = f_quad(x) w(rho(x)) / Z on a
    float or an array, equal to the per-element calls bit for bit.  The
    uniform weight returns pdf_quadrature itself (Z = 1 exactly); the others
    raise ValueError for NaN or negative x."""
    if weight.kind == "uniform":
        return pdf_quadrature(x)
    w = weight.weight_of_omega(x)
    return _py(pdf_quadrature(x) * w / _cached_distribution(weight).normalizer)


def _weighted_moment(weight: WeightSpec, power: int, cut: float) -> float:
    """E(X^power; X <= cut) of the reweighted distribution, from the same
    Stieltjes table as the reweighted cdf."""
    cut = float(cut)
    if math.isnan(cut):
        raise ValueError("truncation cut must not be NaN")
    dist = _cached_distribution(weight)
    x_mid = 0.5 * (dist.x_nodes[:-1] + dist.x_nodes[1:])
    mask = x_mid <= cut
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
        # u rounds to 1 above x ~ 3e8, outside the u-form's domain; it tends to 1
        edge = u == 1.0
        return cls(
            x=x,
            x_tilde=xt,
            F_quad=cdf_quadrature_batch(x),
            F_paper_u=np.where(edge, 1.0, cdf_closed_paper_u(np.where(edge, 0.0, u))),
            F_paper_prop=cdf_closed_paper_prop(xt),
            F_derived=_cdf_and_tail(x)[0],
            f_quad=pdf_quadrature(x),
            f_paper=pdf_closed_paper(xt),
        )


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

    # (a) the closed form, as the reweighting evaluates it, against quadrature
    xs = np.geomspace(1e-2, 1e3, 100)
    fq = cdf_quadrature_batch(xs)
    fd = _cdf_and_tail(xs)[0]
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
    f_quad_half = cdf_quadrature(x_half)
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
            fd_tol,
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
    mean_q, mean_bound = mean_quadrature()
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
    dens = pdf_quadrature(grid)
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
    e2, ratio, model_ratio, pure_ratio = second_moment_growth()
    ok = e2[0] < e2[1] < e2[2] and abs(ratio / model_ratio - 1.0) <= 0.2
    out["ledger_second_moment_growth"] = _ledger_entry(
        "pass" if ok else "fail",
        {
            "E2_at_cuts": e2,
            "increment_ratio": ratio,
            "model_ratio": model_ratio,
            "pure_log2_ratio": pure_ratio,
        },
        0.2,
        "truncated second moments at cuts (1e2, 1e3, 1e4) grow without "
        "bound; increment ratio is compared against the tail model "
        "64 log^2 c - (128 + 64 log 16) log c (the pure log^2 ratio alone "
        "is ~20% off because the subleading log term is still large at "
        "these cuts)",
    )

    return out
