"""Spectral eigenvalue distribution of the moment map over the bidisk.

For a pair drawn area-uniformly from the bidisk, the rotation number
omega lies below x exactly when the second point falls in the Schwarz
disk of radius u(x) = x / sqrt(16 + x^2) around the first.  Averaging the
normalized area of that disk over the first point gives the distribution
function

    F(x) = 2 * int_0^1 (u (1 - s^2) / (1 - s^2 u^2))^2 s ds,

whose closed form in u is 2/u^2 - 1 + 2 (1 - u^2) log(1 - u^2) / u^4.
One implementation, on arrays and tail first, serves the reweighted cdf,
F_derived and cdf_closed_derived; one quadrature kernel (F below x = 8 and
a cancellation-free 1 - F above, or in a pass of its own the density, whose
nonnegative integrand is F's with one sign changed; max(1, ceil(Y/4))
panels of width <= 4/Y, Y = log(1 + x^2/16)) is the independent reference
that the discrepancy ledger checks it against.  Every integral over x but
the uniform truncated second moment, the one caller of the adaptive
driver, runs on one fixed composite K15 rule in t = asinh(x/4) = rho/2
(_integrate_t): the uniform mean on the kernel's 1 - F, the reweighting's
normalizer and weighted moments on its density times the weight.  Monte
Carlo sampling over 16 seeded substreams, drawn one after another in the
calling thread, moments, and importance reweighting by radial weights
w(rho) complete the module.
"""

from __future__ import annotations

import functools
import math
import numbers
import weakref
from dataclasses import dataclass, field, fields

import numpy as np

from . import quadrature  # FD_STEP and FD_TOL, read at call time
from .disk import _checked, _py
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

def _rotation_numbers(omega) -> np.ndarray:
    """omega as a float array; NaN or negative entries raise ValueError."""
    return _checked(omega, lambda w: w >= 0.0, "rotation number must be nonnegative")


def _rho_array(omega: np.ndarray) -> np.ndarray:
    """rho = 2 asinh(omega / 4) in one new array, from a float array of
    checked rotation numbers (0-d for a float)."""
    rho = np.divide(omega, 4.0, out=np.empty_like(omega))
    np.arcsinh(rho, out=rho)
    rho *= 2.0
    return rho


def rho_of_omega(omega):
    """Hyperbolic distance of a pair with rotation number omega:
    rho = 2 asinh(omega / 4).  NaN or negative omega raises ValueError."""
    return _rho_array(_rotation_numbers(omega))[()]


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
    in [0, inf]; with density, f(x) = dF/dx and its error estimate instead.

    With Y = log(1 + x^2/16), delta = e^{-Y} = 16/(16 + x^2), u^2 = 1 - delta,
    r = 4/hypot(x, 4) and the substitutions sigma = s^2,
    1 - sigma u^2 = delta e^{Y v}, e = expm1(-Y v), e_rev = expm1(-Y (1 - v)):

        F     = (Y / u^4) int_0^1 e^2 (1 + e_rev) dv,
        1 - F = (Y delta / u^2) int_0^1 1 + e e_rev / u^2 dv,
        f     = dF/du r^3 / 4,  dF/du = (2 Y / u^5) int_0^1 e^2 (1 - e_rev) dv.

    F is integrated for x <= 8 and 1 - F, whose integrand lies in [1, 2],
    above; the other value is one minus the integrated one, so F <= 1.  The
    density's integrand differs from F's only in the sign of e_rev and is a
    product of nonnegative factors, so one form serves every x.  All
    integrands vary on the scale 1/Y: each point gets the composite K15 rule
    on _panel_count(Y) panels, of width <= 4/Y, and points are batched only
    with points of the same k (and form, for F), so a value does not depend
    on its neighbours in the call.  delta is taken as r^2: exp(-Y) would turn
    the absolute rounding of Y into relative error of the tail.  Below
    s = (x/4)^2 = eps^2 the density is its limit x/24, not integrated.

    Each estimate bounds the absolute error of its integrated value: the
    summed |K15 - G7| of the panels plus a rounding floor of
    50 eps (1 + Y) times the value.  The complement of F or 1 - F adds one
    rounding.  Each pass integrates only what it returns: no F without
    density, no f with it.
    """
    x = _checked(x, lambda x: x >= 0.0, "spectral parameter must be nonnegative")
    flat = x.ravel()
    s, y = _quarter_square_log(flat)
    # s underflows to 0 below x ~ 9e-162, where F ~ x^2/48 does too
    small = s < _LINEAR_S if density else s == 0.0
    val = np.where(small, flat / 24.0, 0.0) if density else np.zeros_like(flat)
    err = _EPS * val
    live = np.flatnonzero(~small & (flat < np.inf))
    key = _panel_count(y[live])
    if not density:
        # 2 k + (1 for the tail form): one stable sort groups the points
        key = 2 * key + (flat[live] > _SWITCH)
    grouped = live[np.argsort(key, kind="stable")]
    counts = np.bincount(key)
    ends = np.cumsum(counts)
    for kv in np.flatnonzero(counts):
        batch = grouped[ends[kv] - counts[kv] : ends[kv]]
        k, tail_form = (int(kv), False) if density else divmod(int(kv), 2)
        step = max(1, _CHUNK // (15 * k))
        for start in range(0, batch.size, step):
            sel = batch[start : start + step]
            yk = y[sel]
            u2 = -np.expm1(-yk)

            # the nodes are symmetric under v -> 1 - v, so e_rev is e
            # reversed along the node and panel axes
            def integrand(v):
                e = np.multiply(v, -yk)
                np.expm1(e, out=e)
                rev = e[::-1, ::-1]
                if tail_form:
                    out = np.multiply(e, rev)
                    out /= u2
                    out += 1.0
                    return out
                out = np.subtract(1.0, rev) if density else np.add(1.0, rev)
                # (e / Y)^2, scaled so that it does not underflow as Y -> 0
                e /= yk
                np.multiply(e, e, out=e)
                out *= e
                return out

            vals, ests = composite_k15(integrand, k)
            if density or tail_form:
                r = 4.0 / np.hypot(flat[sel], 4.0)
            if density:
                # f = c^3 u r^3 / 2 times the scaled integral, with c = Y / u^2
                # and u = x r / 4; (c r)^3 first, so no factor underflows
                # before f does
                g = yk / u2 * r
                pre = g * g * g * (flat[sel] * r / 8.0)
            elif tail_form:
                pre = yk * r * r / u2
            else:
                c = yk / u2
                pre = c * c * yk
            floor = 50.0 * _EPS * (1.0 + yk)
            val[sel] = pre * vals
            err[sel] = pre * (ests + floor * vals)
    if density:
        out = (val, err)
    else:
        # the integrated value and its complement, F first
        tail_form = flat > _SWITCH
        rest = 1.0 - val
        out = (np.where(tail_form, rest, val), np.where(tail_form, val, rest), err)
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
    accuracy (tested to 3e-15) wherever it is above 1e-300; 0 at x = inf.
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

    The kernel's density pass integrates dF/du = (2 Y / u^5) int_0^1
    e^2 (1 - e_rev) dv, whose integrand is a product of nonnegative
    factors, on the same nodes and max(1, ceil(Y/4)) panels of width
    <= 4/Y as F, and takes f = dF/du r^3 / 4, r = 4/hypot(x, 4); below
    s = (x/4)^2 = eps^2 it is the limit x/24.  F and 1 - F are not
    computed.  No finite differences: tested to 5.6e-15 relative
    wherever f is a normal double.  Float or array, as cdf_quadrature; 0
    for x <= 0 and at inf, ValueError for NaN.
    """
    return _py(_cdf_tail_quadrature(np.maximum(_checked(x), 0.0), density=True)[0])


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
    arg = _checked(arg, lambda a: (a >= 0.0) & (a < upper), message)
    out = np.piecewise(arg, [arg < SERIES_CUT, arg >= _FAR_CUT], [series, far or direct, direct])
    return _py(out)


def cdf_closed_derived(u):
    """Closed form 2/u^2 - 1 + 2 (1 - u^2) log(1 - u^2) / u^4 of the fiber
    integral, as a function of the Schwarz radius u = x / sqrt(16 + x^2).

    The implementation of _cdf_and_tail, entered at r^2 = (1 - u)(1 + u)
    and Y = -log1p(-u^2).  Accepts a float or an array in [0, 1).
    """
    u = _checked(u, lambda u: (u >= 0.0) & (u < 1.0), _RADIUS[1])
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


def _whole(v, least: int, what: str) -> int:
    """v as an int >= least, where an integral float such as 1e6 counts; else ValueError."""
    if isinstance(v, numbers.Integral) or (
        isinstance(v, numbers.Real) and math.isfinite(v) and v == int(v)
    ):
        if v >= least:
            return int(v)
    raise ValueError(f"{what} must be an integer >= {least}, got {v!r}")


def series_coefficient(k) -> float:
    """Coefficient ((-1)^k / 2) (k (k-1) / (k+1)) (1/4)^{2k-1} of x^{2k-1}
    in the small-x expansion of pdf_closed_paper(x/4) / 4.

    k is an integer >= 1, or a float with such a value, else ValueError;
    from k = 270 on the coefficient underflows to a signed zero.
    """
    k = _whole(k, 1, "series index")
    sign = -1.0 if k % 2 else 1.0
    if k >= 270:  # (1/4)^{2k-1} <= 2^-1078 rounds to 0, and k (k-1) may overflow
        return sign * 0.0
    return sign * 0.5 * (k * (k - 1.0) / (k + 1.0)) * 4.0 ** (-(2 * k - 1))


# ---------------------------------------------------------------------------
# moments

# truncated_second_moment's tolerance grows with the cut, and so does its
# unflagged error: 4.3e-9 relative at 1e8, 1.7e-6 at 1e10, 7.5% at 1e12
E2_MAX_CUT = 1e8


# the end of every integral over x: t = asinh(x/4) = rho/2 runs over [0, 50]
_X_END = 4.0 * math.sinh(50.0)


def _integrate_t(g, cut: float = _X_END, knots=()) -> tuple[np.ndarray, np.ndarray]:
    """int_0^cut g(x) dx, for 0 < cut <= _X_END, as
    int_0^T g(4 sinh t) 4 cosh t dt with T = asinh(cut/4), on one composite
    K15 rule: panel edges at every multiple of 1/2 below T, at T and at the
    knots (in t) inside (0, T), so no panel is wider than 1/2.  The rule's
    panel j of [0, 1] is mapped onto its own [a_j, b_j] by
    t = a_j + (v k - j) h_j, h_j = b_j - a_j, with factor 4 k h_j cosh t.

    g receives x with shape (15, k, 1) and returns shape (15, k, m); returns
    the m values and their summed |K15 - G7|, as composite_k15.
    """
    end = math.asinh(cut / 4.0)
    # a set, not np.unique, which imports numpy.ma on its first call
    edges = sorted({*np.arange(0.0, end, 0.5).tolist(), end, *(t for t in knots if 0.0 < t < end)})
    k = len(edges) - 1
    a = np.array(edges[:-1])[:, None]
    h = np.diff(edges)[:, None]
    j = np.arange(k)[:, None]

    def integrand(v):
        t = a + (v * k - j) * h
        return g(4.0 * np.sinh(t)) * (4.0 * k * h * np.cosh(t))

    return composite_k15(integrand, k)


def mean_quadrature() -> tuple[float, float]:
    """Mean by integrating the upper tail, E = int_0^inf (1 - F) dx, on the
    rule of _integrate_t up to _X_END = 4 sinh 50; 1 - F comes from the
    quadrature kernel at each node.

    Returns (value, error_bound).  The bound adds the summed |K15 - G7|,
    the kernel's own error estimates at the nodes carried through the K15
    weights, and the tail beyond X = _X_END: there
    1 - F <= (32 / x^2) log(1 + x^2/16) (1 + 16/x^2)^2, whose integral from
    X on is below 64 (log(X/4) + 2) / X, about 3e-19.  `moments` and the
    discrepancy ledger both report this one value.
    """

    def tail_and_error(x):
        _, tail, err = _cdf_tail_quadrature(x)
        return np.concatenate((tail, err), axis=-1)

    (value, carried), (estimate, _) = _integrate_t(tail_and_error)
    beyond = 64.0 * (math.log(_X_END / 4.0) + 2.0) / _X_END
    return float(value), float(estimate + carried + beyond)


def truncated_second_moment(cut: float) -> float:
    """E(X^2; X <= cut) = 2 int_0^cut x (1 - F) dx - cut^2 (1 - F(cut)),
    within 1e-8 relative (or 1e-20 absolute) for cut up to E2_MAX_CUT = 1e8;
    0 for cut <= 0.  A larger or NaN cut, or one that is not a real number
    (an array among them), raises ValueError."""
    if not isinstance(cut, numbers.Real):
        raise ValueError(f"truncation cut must be a real number, got {cut!r}")
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
    """Radial reweighting w(rho); kind is uniform, exp, gauss, or table.
    A table's columns rho_grid and values may be any 1-d sequences of
    real numbers and are stored as tuples of floats; complex, string or
    other entries raise ValueError.  The other kinds take no columns."""

    kind: str
    rho_grid: tuple[float, ...] = field(default=())
    values: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in ("uniform", "exp", "gauss", "table"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        # the columns as tuples of floats: a list or an array table hashes
        # and compares as the same table given as tuples
        for name in ("rho_grid", "values"):
            column = _checked(getattr(self, name))
            if column.ndim != 1:
                raise ValueError("weight table columns must be 1-d")
            object.__setattr__(self, name, tuple(column.tolist()))
        if self.kind != "table" and (self.rho_grid or self.values):
            raise ValueError(f"the {self.kind} weight takes no table columns")
        if self.kind == "table":
            if len(self.rho_grid) < 2 or len(self.rho_grid) != len(self.values):
                raise ValueError("weight table needs matching rho/value columns")
            if not all(map(math.isfinite, self.rho_grid + self.values)):
                raise ValueError("weight table entries must be finite")
            if any(b <= a for a, b in zip(self.rho_grid, self.rho_grid[1:])):
                raise ValueError("weight table rho column must increase")
            if any(v < 0.0 for v in self.values):
                raise ValueError("weight table values must be nonnegative")
            if not any(self.values):
                raise ValueError("weight table values must not all be zero")

    def weight_of_rho(self, rho):
        """w(rho) at hyperbolic distances rho >= 0, inf included: a float
        for a float, else an array.  NaN or negative rho raises ValueError."""
        rho = _checked(rho, lambda r: r >= 0.0, "hyperbolic distance must be nonnegative")
        return _py(self._weight(rho.copy()))

    def weight_of_omega(self, omega):
        """w(rho(omega)) at rotation numbers omega >= 0, as weight_of_rho;
        the uniform weight is 1.0 without rho, for an array a read-only
        broadcast of 1.0 to its shape (stride 0, no memory of its own)."""
        return _py(self._weight_of_checked(_rotation_numbers(omega)))

    def _weight_of_checked(self, omega: np.ndarray) -> np.ndarray:
        """weight_of_omega on a float array whose omegas have been checked,
        as a batch's have: the gate's n-byte temporary is not made again."""
        if self.kind == "uniform":
            return np.broadcast_to(1.0, omega.shape)
        return self._weight(_rho_array(omega))

    def _weight(self, rho: np.ndarray) -> np.ndarray:
        """w(rho); exp and gauss overwrite rho, a new array of the caller."""
        if self.kind == "uniform":
            return np.ones_like(rho)
        if self.kind == "table":
            return np.interp(rho, self.rho_grid, self.values)
        if self.kind == "gauss":
            # rho^2 overflows to inf above rho ~ 1.3e154, where w = exp(-inf) = 0
            with np.errstate(over="ignore"):
                np.multiply(rho, rho, out=rho)
        np.negative(rho, out=rho)
        return np.exp(rho, out=rho)


UNIFORM_WEIGHT = WeightSpec("uniform")


# batches compare by identity: == on their arrays would be elementwise
@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Rotation numbers of sampled pairs with importance weights.

    Built as SampleBatch(omega, weight) with weights of its own, or as
    SampleBatch(omega, spec=spec), which sets weight =
    spec.weight_of_omega(omega), as mc_sample does: exactly one of weight
    and spec is passed, so a batch's weights are always those of its spec,
    bit for bit, which ks_distance relies on to sort the omegas without an
    index.  dataclasses.replace with new weights or new omegas must
    therefore also pass spec=None.  omega is a nonempty 1-d array of
    finite values >= 0; weight has its shape, finite values >= 0 and a
    positive, finite sum.  Anything else raises ValueError.  Both arrays
    are read-only float arrays: a writeable or non-float input is copied,
    and the spec's weights are made read-only in place.  The uniform
    spec's weights are its read-only broadcast of 1.0, so a uniform batch
    holds 8n bytes of omegas and none of weights.
    """

    omega: np.ndarray
    weight: np.ndarray | None = None
    spec: WeightSpec | None = None

    def __post_init__(self):
        if (self.weight is None) == (self.spec is None):
            raise ValueError("a batch takes exactly one of weight and spec: new weights need spec=None")
        omega = _float_copy(self.omega)
        # NaN fails both comparisons
        if not (omega.ndim == 1 and omega.size and omega.min() >= 0.0 and omega.max() < math.inf):
            raise ValueError("batch omegas must be a nonempty 1-d array of finite values >= 0")
        weight = _float_copy(self.weight) if self.spec is None else self.spec._weight_of_checked(omega)
        # read-only in place: the spec's weights are the batch's own array
        omega.flags.writeable = weight.flags.writeable = False
        if weight.shape != omega.shape:
            raise ValueError(f"batch has {omega.size} omegas but weights of shape {weight.shape}")
        with np.errstate(over="ignore"):
            total = np.sum(weight)
        # weights >= 0 with a finite sum are finite, and a positive sum has a positive weight
        if not (weight.min() >= 0.0 and total < math.inf):
            raise ValueError("batch weights and their sum must be finite and nonnegative")
        if not total > 0.0:
            raise ValueError("batch has no positive weight")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "weight", weight)


def _float_copy(values) -> np.ndarray:
    """values itself if it is a read-only float array, else a float copy."""
    a = _checked(values)
    # a shares the caller's memory when values is a float array or a view of one
    return a.copy() if a.flags.writeable and (a is values or a.base is not None) else a


# sorted points per cdf call of ks_distance: 128 kB per temporary array
_KS_BLOCK = 2**14
# sorted points per block of ks_distance's pruning bound
_KS_EDGE = 64
# ks_distance's tolerance for a decreasing cdf: its blocks are opened that
# far below the lower bound, and a larger decrease raises ValueError
_KS_SLACK = 1e-12


# substreams of mc_sample: SeedSequence(seed).spawn(16), capped at n
MC_STREAMS = 16


def _sample_stream(seq: np.random.SeedSequence, out: np.ndarray, scratch: np.ndarray) -> None:
    """Fill out with the rotation numbers of out.size pairs drawn from seq.

    omega = 4 |z - w| / sqrt((1 - rz^2)(1 - rw^2)), with |z - w|^2 by the
    half-angle sine, (rz - rw)^2 + 4 rz rw s s, s = sin((az - aw) / 2).  The
    four random arrays are the first out.size columns of scratch, a (4, m)
    buffer with m >= out.size whose contents do not matter.  An angle is
    2 pi times a uniform draw, as numpy's uniform(0, 2 pi) computes it, and
    each step keeps the operand order of the expression, so the bits do not
    depend on the buffers."""
    m = out.size
    rng = np.random.default_rng(seq)
    rz, az, rw, aw = scratch[:, :m]
    rng.random(out=rz)
    np.sqrt(rz, out=rz)
    rng.random(out=az)
    az *= 2.0 * np.pi
    rng.random(out=rw)
    np.sqrt(rw, out=rw)
    rng.random(out=aw)
    aw *= 2.0 * np.pi
    np.subtract(az, aw, out=az)
    np.multiply(0.5, az, out=az)
    s = np.sin(az, out=az)
    np.multiply(4.0, rz, out=out)
    out *= rw
    out *= s
    out *= s
    np.subtract(rz, rw, out=aw)
    np.square(aw, out=aw)
    np.add(aw, out, out=out)  # d2
    # the denominator ((1 - rz)(1 + rz))(1 - rw)(1 + rw), left to right
    np.subtract(1.0, rz, out=aw)
    rz += 1.0
    aw *= rz
    np.subtract(1.0, rw, out=az)
    aw *= az
    rw += 1.0
    aw *= rw
    out /= aw
    np.sqrt(out, out=out)
    out *= 4.0


# mc_sample's record of its live draws: (n, seed) -> the read-only omegas
_drawn = weakref.WeakValueDictionary()


def _draw(n: int, seed: int, sizes: tuple[int, ...]) -> np.ndarray:
    """The omegas of mc_sample(n, seed) in streams of the given sizes: the
    recorded draw of (n, seed) while it is alive, else a new read-only draw
    that is recorded beside every other live one.  The record holds no
    draw."""
    omega = _drawn.get((n, seed))
    if omega is not None:
        return omega
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    omega = np.empty(n)
    scratch = np.empty((4, sizes[0]))  # sizes[0] is the largest
    stop = 0
    for seq, m in zip(children, sizes):
        _sample_stream(seq, omega[stop : stop + m], scratch)
        stop += m
    omega.flags.writeable = False
    _drawn[n, seed] = omega
    return omega


def mc_sample(n: int, seed: int, weight: WeightSpec = UNIFORM_WEIGHT) -> SampleBatch:
    """Draw n area-uniform pairs and return their rotation numbers.

    The n draws are split across min(MC_STREAMS, n) SeedSequence-spawned
    substreams, stream i filling its own slice of the output in index
    order, so the output is a pure function of (n, seed).  The streams run
    one after another in the calling thread and share one scratch buffer.
    n is an integer >= 1 (an integral float counts) and seed an integer
    >= 0; other values raise ValueError.

    The batch is SampleBatch(omega, spec=weight): its weights are
    weight.weight_of_omega(omega), and weights without a positive sum, such
    as a table's that is zero wherever the draws fall, raise ValueError.
    The omegas are read-only.  The module records every live draw by (n,
    seed) with a weak reference: a call with the same (n, seed) while those
    omegas are still referenced returns the same array, with the weights
    of this call's spec, and draws nothing.  Once nothing references them
    the record goes with them, so it keeps no draw alive.  To reweight a
    draw without drawing again, build SampleBatch(batch.omega, spec=weight).
    """
    n = _whole(n, 1, "sample size")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return SampleBatch(_draw(n, int(seed), _stream_sizes(n)), spec=weight)


def _stream_sizes(n: int) -> tuple[int, ...]:
    """The lengths of mc_sample's min(MC_STREAMS, n) substreams of n draws,
    the first n mod streams one longer."""
    streams = min(MC_STREAMS, n)
    return tuple(n // streams + (i < n % streams) for i in range(streams))


def _cdf_at(cdf, xs: np.ndarray) -> np.ndarray:
    """cdf on ascending xs in calls of at most _KS_BLOCK points; a NaN
    value raises ValueError."""
    fv = np.empty(xs.size)
    for start in range(0, xs.size, _KS_BLOCK):
        fv[start : start + _KS_BLOCK] = cdf(xs[start : start + _KS_BLOCK])
    if np.isnan(fv).any():
        raise ValueError("cdf returned NaN")
    return fv


def ks_distance(batch: SampleBatch, cdf) -> float:
    """Weighted Kolmogorov-Smirnov distance between the batch and cdf.

    The statistic is the largest upper gap cum[i] - F(x_i) and lower gap
    F(x_i) - cum[i-1] (0 at i = 0) over the sorted omegas x_i, with cum
    the normalized running sum of their weights.  ``cdf`` must be
    elementwise, its value at a point not depending on the other points of
    the call, and nondecreasing.  It is called on ascending points of the
    batch, at most _KS_BLOCK per call, and only where the maximum can be:

    1. on the first and last point of every block of _KS_EDGE sorted
       points, whose gaps bound the statistic from below;
    2. on every point of the open blocks, those whose bound
       max(cum[last] - F(first), F(last) - cum[first - 1]), which no gap
       inside the block exceeds since cum and F do not decrease, comes
       within _KS_SLACK of that lower bound.  Their ends are evaluated
       again, so that these points form one ascending set.

    The statistic, the largest gap at these points, is thus the maximum of
    the same elementwise gaps as one cdf call on all sorted points, and
    equals it bit for bit; at n = 1e6 cdf sees about 4% of the points.  The
    working set is the sorted omegas and the running sum, plus
    O(n / _KS_EDGE) values for the block ends and the open blocks' points:
    0.22 x 8n bytes at n = 1e6 beside a cdf that allocates only its output.
    A batch with a spec (every mc_sample batch, the uniform one included)
    sorts without an index and takes spec.weight_of_omega on the sorted
    omegas: the weights are an elementwise function of omega, so tied
    omegas have equal weights and these are the sorted weights bit for
    bit.  The uniform spec keeps no running sum: it is (i + 1) / n at
    sorted point i and i / n before it, exact below 2^53, taken only at
    the points used, so its working set is the sorted omegas alone.  Each
    call sorts its own copy and returns holding none of its arrays.  A
    batch without a spec keeps the sort index until its running sum is
    taken.

    The batch was checked when it was built.  A NaN cdf value raises
    ValueError, and so does a decrease of more than _KS_SLACK from one
    block end to the next (the first to the last point of a block, or a
    block's last point to the next block's first) or from one point of the
    open blocks to the next (inside a block, or an open block's last point
    to the next open block's first).  A block that drifts down by more than
    _KS_SLACK is never open, as one of its end gaps exceeds its bound by
    the drift; a cdf that steps down within the slack across the closed
    blocks between two open ones raises once its drift from the one to the
    other exceeds the slack.
    """
    omega, n = batch.omega, batch.omega.size
    cum = None  # the uniform running sum, taken where it is used
    if batch.spec is not None:
        xs = np.sort(omega)
        if batch.spec.kind != "uniform":
            # the batch checked its omegas, and the sort keeps them
            cum = batch.spec._weight_of_checked(xs)
    else:
        # weights of their own must follow the sort, so it needs the index:
        # np.argsort took 30 ms at n = 1e6 against np.sort's 7 ms (2 vCPUs)
        order = np.argsort(omega)
        xs = omega[order]
        cum = batch.weight[order]
        del order  # freed before cdf allocates its own arrays
    if cum is not None:
        np.cumsum(cum, out=cum)
        cum /= cum[-1]
    first = np.arange(0, n, _KS_EDGE)
    last = np.minimum(first + (_KS_EDGE - 1), n - 1)
    ends = np.column_stack((first, last)).ravel()
    f_ends = _cdf_at(cdf, xs[ends])
    upto, below = _running_sum(cum, n, ends)
    best = max(np.max(upto - f_ends), np.max(f_ends - below))
    bound = np.maximum(upto[1::2] - f_ends[0::2], f_ends[1::2] - below[0::2])
    # every point of the open blocks, ascending; the last block may be short
    idx = (first[bound + _KS_SLACK >= best, None] + np.arange(_KS_EDGE)).ravel()
    idx = idx[idx < n]
    fv = _cdf_at(cdf, xs[idx])
    if np.any(np.diff(f_ends) < -_KS_SLACK) or np.any(np.diff(fv) < -_KS_SLACK):
        raise ValueError(f"cdf decreases by more than {_KS_SLACK:g} along the sorted omegas")
    upto, below = _running_sum(cum, n, idx)
    # best, the largest gap at a block end, lies in an open block but for
    # the rounding of bound + _KS_SLACK
    return float(max(np.max(upto - fv, initial=best), np.max(fv - below, initial=best)))


def _running_sum(cum: np.ndarray | None, n: int, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normalized running sum at sorted points i and before them (0 at
    i = 0); cum None is the uniform one, (i + 1) / n and i / n, equal bit
    for bit to cumsum(ones(n)) / n below 2^53."""
    if cum is None:
        return (i + 1.0) / n, i / n
    return cum[i], np.where(i > 0, cum[i - 1], 0.0)


def mc_mean(batch: SampleBatch) -> tuple[float, float]:
    """Self-normalized weighted mean and its standard error,
    sqrt(sum (w (omega - mean))^2) / sum w.  The weights, the weighted
    omegas, the deviations from the mean and the weighted deviations are
    each scaled by the power of two that brings their largest into
    [0.5, 1): the scalings are exact, so the sums keep their bits wherever
    they would neither overflow nor underflow, and subnormal weights or
    omegas up to the largest double still give the mean and stderr of the
    same sample at unit scale, as do tiny weighted deviations, whose
    squares would underflow.  The mean is clipped to the omegas' range,
    which rounding could leave.  One n-sized temporary, and a second, the
    scaled weights, only where they are rescaled: the uniform spec's
    scaled weight is the scalar 0.5, with sum 0.5 n (exact below 2^53),
    and weights whose largest lies in [0.5, 1) already, as exp and gauss
    draws' do, are used as they are."""
    if batch.spec is not None and batch.spec.kind == "uniform":
        w, total = 0.5, 0.5 * batch.omega.size
    else:
        top = math.frexp(batch.weight.max())[1]
        w = batch.weight if top == 0 else np.ldexp(batch.weight, -top)
        total = float(np.sum(w))
    dev = np.multiply(w, batch.omega)  # then the deviations, in place
    shift = math.frexp(dev.max())[1]
    np.ldexp(dev, -shift, out=dev)
    with np.errstate(over="ignore"):
        mean = np.ldexp(float(np.sum(dev)) / total, shift)
    # rounding can carry the mean just past the omegas, even to inf
    mean = float(np.clip(mean, batch.omega.min(), batch.omega.max()))
    np.subtract(batch.omega, mean, out=dev)
    scale = math.frexp(max(dev.max(), -dev.min()))[1]
    np.ldexp(dev, -scale, out=dev)
    dev *= w
    rescale = math.frexp(max(dev.max(), -dev.min()))[1]
    np.ldexp(dev, -rescale, out=dev)
    np.square(dev, out=dev)
    stderr = math.ldexp(math.sqrt(float(np.sum(dev))) / total, scale + rescale)
    return mean, stderr


# ---------------------------------------------------------------------------
# reweighting


class ReweightedDistribution:
    """Distribution with density proportional to f(x) w(rho(x)).

    The normalizer Z = int_0^_X_END f w dx is taken on first use, from the
    kernel's density on the rule of _integrate_t, with panel edges at a
    table weight's knots t = rho/2.  The distribution function alone comes
    from a node table, read by linear interpolation in F: at 20001 equally
    spaced phi = asinh(x/4) = rho/2 from 0 to asinh(1e6/4) + 12 the table
    holds the closed form F and the reweighted probability below the node,
    summed with the weight at each bin's midpoint, and the cdf divides by
    the table's own total.  No finite differencing is involved, but holding
    w at the midpoints costs accuracy: against int_0^x f w dx / Z in 50
    digits on a 61-point log grid in [1e-2, 1e4] the cdf is off by up to
    2.1e-7 absolute for exp (at x = 1), 5.2e-7 for gauss (x ~ 1.26) and
    9.1e-8 for the table (0, 3, 9) -> (1, 0.2, 0) (x ~ 5), and the table's
    total exceeds Z by 2.6e-7, 4.4e-7 and 7.1e-8 relative.  A weight whose
    table has no mass raises ValueError.
    """

    def __init__(self, weight: WeightSpec):
        self.weight = weight
        phi = np.linspace(0.0, math.asinh(1e6 / 4.0) + 12.0, 20001)
        self.f_nodes = _cdf_and_tail(4.0 * np.sinh(phi))[0]
        w_mid = weight.weight_of_rho(phi[:-1] + phi[1:])  # rho = 2 phi at midpoints
        # reweighted probability below each node, before normalization
        self.cum = np.concatenate(([0.0], np.cumsum(w_mid * np.diff(self.f_nodes))))
        if self.cum[-1] <= 0.0:
            raise ValueError("weight annihilates the distribution")

    @functools.cached_property
    def normalizer(self) -> float:
        """Z = int_0^_X_END f w dx."""
        return _weighted_integral(self.weight, 0, _X_END)

    def cdf(self, xs):
        """The reweighted distribution function at x; float in, float out
        as cdf_quadrature.  NaN or negative x raises ValueError."""
        # the interpolant through (F, cum) is cum + w_mid (F - F_node) in each bin
        vals = np.interp(_cdf_and_tail(_rotation_numbers(xs))[0], self.f_nodes, self.cum)
        return _py(np.clip(vals / self.cum[-1], 0.0, 1.0))


_dist_cache: dict[WeightSpec, ReweightedDistribution] = {}


def _cached_distribution(weight: WeightSpec) -> ReweightedDistribution:
    if weight not in _dist_cache:
        _dist_cache[weight] = ReweightedDistribution(weight)
    return _dist_cache[weight]


def _reweighted(weight: WeightSpec, f, w):
    """f w / Z from the density f and the weight w at the same points; the
    uniform weight returns f itself (Z = 1 exactly)."""
    if weight.kind == "uniform":
        return f
    return f * w / _cached_distribution(weight).normalizer


def reweight_density(weight: WeightSpec, x):
    """Normalized reweighted density f_w(x) = f_quad(x) w(rho(x)) / Z on a
    float or an array, equal to the per-element calls bit for bit.  The
    uniform weight returns pdf_quadrature itself.  NaN or negative x raises
    ValueError for every weight."""
    w = weight.weight_of_omega(x)
    return _py(_reweighted(weight, pdf_quadrature(x), w))


def _weighted_integral(weight: WeightSpec, power: int, cut: float) -> float:
    """int_0^cut x^power f w dx on the rule of _integrate_t, f from the
    kernel's density pass, with panel edges at a table weight's knots."""

    def integrand(x):
        return x**power * _cdf_tail_quadrature(x, density=True)[0] * weight.weight_of_omega(x)

    return float(_integrate_t(integrand, cut, [r / 2.0 for r in weight.rho_grid])[0][0])


def _weighted_moment(weight: WeightSpec, power: int, cut: float) -> float:
    """E(X^power; X <= cut) = int_0^cut x^power f w dx / Z of the reweighted
    distribution, each integral on the rule of _integrate_t; 0 for
    cut <= 1e-323.  A cut that is not a real number (an array among them),
    a NaN cut, or one above _X_END = 4 sinh 50 ~ 1.03694e22 (inf among
    them: the rule ends there, and the uniform second moment diverges)
    raises ValueError."""
    if not isinstance(cut, numbers.Real):
        raise ValueError(f"truncation cut must be a real number, got {cut!r}")
    cut = float(cut)
    if math.isnan(cut):
        raise ValueError("truncation cut must not be NaN")
    if cut > _X_END:
        raise ValueError(f"truncation cut must be at most {_X_END:.6g}, the end of the rule in t = rho/2")
    # cut / 4, and so the rule's end, is 0 also for the subnormal cuts <= 1e-323
    if cut / 4.0 <= 0.0:
        return 0.0
    return _weighted_integral(weight, power, cut) / _cached_distribution(weight).normalizer


def weighted_truncated_second_moment(weight: WeightSpec, cut: float) -> float:
    """Second moment of the reweighted distribution truncated at cut."""
    return _weighted_moment(weight, 2, cut)


def weighted_mean(weight: WeightSpec, cut: float = 1e6) -> float:
    """Mean of the reweighted distribution, truncated at cut."""
    return _weighted_moment(weight, 1, cut)


# ---------------------------------------------------------------------------
# tabulation


@dataclass(frozen=True, eq=False)
class SpectralTable:
    """Columnar table of the distribution and density candidates; tables
    compare by identity, as their columns are arrays."""

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
        x = _checked(x, lambda x: (x > 0.0) & (x < math.inf), "grid values must be finite and positive")
        if x.ndim != 1 or x.size == 0:
            raise ValueError("grid must be a nonempty 1-d array")
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


# the spectrum CSV's header, in the order SpectralTable(*columns) takes them
TABLE_COLUMNS = tuple(f.name for f in fields(SpectralTable))


# ---------------------------------------------------------------------------
# discrepancy ledger

MEAN_CLAIMED = 3.0 * math.pi / 2.0
MEAN_EXACT = 16.0 * math.pi / 3.0
SMALL_X_EXPONENT_CLAIMED = 3.0


def _entry(status: str, value, tolerance: float | None, details: str) -> dict:
    """One entry of the ledger or of a verify report."""
    return {"status": status, "value": value, "tolerance": tolerance, "details": details}


def discrepancy_ledger() -> dict[str, dict]:
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
    out["ledger_cdf_derived_vs_quadrature"] = _entry(
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
    out["ledger_cdf_paper_u_vs_quadrature"] = _entry(
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
    out["ledger_cdf_paper_prop_tail"] = _entry(
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
        lambda v: cdf_closed_paper_u(v / np.sqrt(1.0 + v * v)),
        xt,
        quadrature.fd_constant("FD_STEP") * np.maximum(1.0, xt),
    )
    ref = pdf_closed_paper(xt)
    worst_rel = float(np.max(np.abs(extrap - ref) / np.maximum(np.abs(ref), 1e-30)))
    worst_res = float(np.max(res / np.maximum(np.abs(extrap), 1.0)))
    step_failure = quadrature.uncertified(worst_res, "x_tilde grid [0.05, 20]")
    out["ledger_pdf_paper_internal_consistency"] = _entry(
        "pass" if worst_rel <= 1e-6 and not step_failure else "fail",
        {"max_rel_difference": worst_rel, "max_rel_residual": worst_res},
        quadrature.FD_TOL if step_failure else 1e-6,
        step_failure
        or "the transcribed density candidate equals d/dx_tilde of the "
        "transcribed u-form distribution on a 16-point log grid "
        "x_tilde in [0.05, 20] (Richardson-certified central differences); "
        "the two transcriptions are internally consistent with each other",
    )

    # (d) mean against the claimed 3*pi/2
    mean_q, mean_bound = mean_quadrature()
    batch = mc_sample(100000, 20260814)
    m_mc, se_mc = mc_mean(batch)
    exact_error = abs(mean_q - MEAN_EXACT)
    out["ledger_mean_vs_claimed"] = _entry(
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
    out["ledger_small_x_exponent"] = _entry(
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
    out["ledger_second_moment_growth"] = _entry(
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
