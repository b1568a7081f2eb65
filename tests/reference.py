"""Independent references that the tests compare the package against.

The 50-digit references evaluate a closed form, or the defining
construction, in mpmath.  Each imports mpmath when it is called, so a test
that needs one is skipped, from that point on, where mpmath is missing.
The double-precision references recompute a result by the plain
whole-array expression that an optimized route must reproduce bit for bit.
The tolerance of each comparison is in the export table of test_exports.py.
"""

import math

import numpy as np
import pytest


def cdf_tail_pdf(x: float, exact: bool = False) -> tuple:
    """F, 1 - F and the density f = dF/dx of the closed form in
    u^2 = s / (1 + s), s = (x/4)^2; mpmath numbers when exact, else floats.
    The working precision grows as x shrinks, to cover the cancellation of
    the closed form near 0, so every value carries 50 significant digits."""
    if x == 0.0:
        return 0.0, 1.0, 0.0
    if x == math.inf:
        return 1.0, 0.0, 0.0
    mpmath = pytest.importorskip("mpmath")
    xm = mpmath.mpf(x)
    # the closed form cancels ~ 6 log10(4/x) digits as x -> 0
    extra = 8 * max(0, -int(mpmath.floor(mpmath.log10(xm))))
    with mpmath.workdps(50 + extra):
        s = (xm / 4) ** 2
        u2 = s / (1 + s)
        delta = 1 / (1 + s)
        y = mpmath.log1p(s)
        cdf = 2 / u2 - 1 - 2 * delta * y / u2**2
        tail = 2 * delta * (y - u2) / u2**2
        pdf = (xm / 4) * ((2 + s) * y - 2 * s) / s**3
        values = cdf, tail, pdf
        return values if exact else tuple(float(v) for v in values)


def rescaled_candidates(x_tilde: float) -> tuple[float, float]:
    """The transcribed candidates -(2/x~^2) log(1 + x~^2) + 1/(1 + x~^2) and
    (4/x~^3) log(1 + x~^2) - (6 x~^2 + 4) / (x~ (1 + x~^2)^2) at 50 digits,
    rounded to floats."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        tm = mpmath.mpf(x_tilde)
        prop = -2 * mpmath.log1p(tm**2) / tm**2 + 1 / (1 + tm**2)
        pdf = 4 * mpmath.log1p(tm**2) / tm**3 - (6 * tm**2 + 4) / (tm * (1 + tm**2) ** 2)
        return float(prop), float(pdf)


def legs(z, w) -> tuple:
    """The legs |z - w| and sqrt((1 - |z|^2)(1 - |w|^2)) of a pair, as
    50-digit mpmath numbers: d_S = a / hypot(a, b), rho = 2 asinh(a / b)
    and omega = 4 a / b."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        z, w = mpmath.mpc(z), mpmath.mpc(w)
        return abs(z - w), mpmath.sqrt((1 - abs(z) ** 2) * (1 - abs(w) ** 2))


def sampled_omega(rz: float, az: float, rw: float, aw: float):
    """The rotation number 4 |z - w| / sqrt((1 - |z|^2)(1 - |w|^2)) of the
    drawn pair z = rz e^{i az}, w = rw e^{i aw}, as a 50-digit mpmath number."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        z = mpmath.mpf(rz) * mpmath.expj(mpmath.mpf(az))
        w = mpmath.mpf(rw) * mpmath.expj(mpmath.mpf(aw))
        a, b = legs(z, w)
        return 4 * a / b


def poincare(z: complex, w: complex) -> float:
    """rho = 2 artanh(|z - w| / |1 - conj(w) z|) at 50 digits, as a float."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        z, w = mpmath.mpc(z), mpmath.mpc(w)
        return float(2 * mpmath.atanh(abs(z - w) / abs(1 - mpmath.conj(w) * z)))


def moment(z: complex, w: complex) -> tuple:
    """Ad(g)(mu(t) xi) along slice_reduce's steps, in 50-digit arithmetic:
    the (a, b, c) coefficients of the moment vector as mpmath numbers."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        z, w = mpmath.mpc(z), mpmath.mpc(w)

        def translation(zeta):
            d = mpmath.sqrt(1 - abs(zeta) ** 2)
            return mpmath.matrix([[1 / d, -zeta / d], [-mpmath.conj(zeta) / d, 1 / d]])

        def rotation(phi):
            e = mpmath.expj(phi / 2)
            return mpmath.matrix([[e, 0], [0, mpmath.conj(e)]])

        w1 = (w - z) / (1 - mpmath.conj(z) * w)
        q = abs(w1)
        t = q / (1 + mpmath.sqrt(1 - q * q))
        fwd = rotation(mpmath.pi) * translation(t) * rotation(-mpmath.arg(w1)) * translation(z)
        mu = 8 * t / (1 - t * t)
        m = fwd**-1 * mpmath.matrix([[1j * mu, 0], [0, -1j * mu]]) * fwd
        return (
            mpmath.im(m[0, 0]),
            (mpmath.im(m[1, 0]) - mpmath.im(m[0, 1])) / 2,
            (mpmath.re(m[0, 1]) + mpmath.re(m[1, 0])) / 2,
        )


def second_moment(cut: float) -> float:
    """E2(c) = 32 G(c^2/16) - c^2 (1 - F(c)) with
    G(T) = 1 - log(1+T)/T - log(1+T) - Li2(-T), in 50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        c = mpmath.mpf(float(cut))
        t = c * c / 16
        lg = mpmath.log1p(t)
        g = 1 - lg / t - lg - mpmath.polylog(2, -t)
        tail = 2 * ((1 + t) * lg - t) / t**2
        return float(32 * g - c * c * tail)


def stream_omega(seq, m: int) -> np.ndarray:
    """One substream's rotation numbers by the whole-array expression."""
    rng = np.random.default_rng(seq)
    rz = np.sqrt(rng.random(m))
    az = rng.uniform(0.0, 2.0 * np.pi, m)
    rw = np.sqrt(rng.random(m))
    aw = rng.uniform(0.0, 2.0 * np.pi, m)
    s = np.sin(0.5 * (az - aw))
    d2 = (rz - rw) ** 2 + 4.0 * rz * rw * s * s
    return 4.0 * np.sqrt(d2 / ((1.0 - rz) * (1.0 + rz) * (1.0 - rw) * (1.0 + rw)))


def ks_whole_array(batch, cdf) -> float:
    """ks_distance's statistic from one cdf call on all sorted points."""
    order = np.argsort(batch.omega)
    xs = batch.omega[order]
    cum = np.cumsum(batch.weight[order])
    cum /= cum[-1]
    fv = cdf(xs)
    cum_prev = np.concatenate(([0.0], cum[:-1]))
    return float(max(np.max(cum - fv), np.max(fv - cum_prev)))


def weight_at(weight, rho):
    """w(rho) of a WeightSpec at an mpmath rho, in the working precision."""
    mpmath = pytest.importorskip("mpmath")
    if weight.kind == "uniform":
        return mpmath.mpf(1)
    if weight.kind == "exp":
        return mpmath.exp(-rho)
    if weight.kind == "gauss":
        return mpmath.exp(-rho * rho)
    # np.interp: linear between the knots, the end values beyond them
    grid = [mpmath.mpf(r) for r in weight.rho_grid]
    values = [mpmath.mpf(v) for v in weight.values]
    if rho <= grid[0]:
        return values[0]
    for r0, r1, v0, v1 in zip(grid, grid[1:], values, values[1:]):
        if rho <= r1:
            return v0 + (v1 - v0) * (rho - r0) / (r1 - r0)
    return values[-1]


def weighted_integral(weight, power: int, cut: float) -> float:
    """int_0^cut x^power f(x) w(rho(x)) dx for a WeightSpec, in 50-digit
    arithmetic, rounded to a float: the closed-form density of cdf_tail_pdf
    and w at rho = 2t, integrated in t = asinh(x/4) by Gauss-Legendre on
    pieces of unit width split at a table weight's knots t = rho/2."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        end = mpmath.asinh(mpmath.mpf(float(cut)) / 4)

        def integrand(t):
            x = 4 * mpmath.sinh(t)
            return x**power * cdf_tail_pdf(x, exact=True)[2] * weight_at(weight, 2 * t) * 4 * mpmath.cosh(t)

        knots = {r / 2 for r in map(mpmath.mpf, weight.rho_grid) if 0 < r / 2 < end}
        points = sorted({mpmath.mpf(0), end, *knots, *range(1, int(mpmath.ceil(end)))})
        return float(mpmath.quad(integrand, points, method="gauss-legendre"))


def reweighted_density(weight, x: float, z: float) -> float:
    """f(x) w(rho(x)) / z for a WeightSpec, f from cdf_tail_pdf and w at
    rho = 2 asinh(x/4), in 50-digit arithmetic, rounded to a float."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        rho = 2 * mpmath.asinh(mpmath.mpf(x) / 4)
        return float(cdf_tail_pdf(x, exact=True)[2] * weight_at(weight, rho) / z)


def reweighted_cdf_bins(weight, xs) -> np.ndarray:
    """The reweighted cdf of a WeightSpec by its phi-bin formula, the
    expression that ReweightedDistribution.cdf once evaluated.  Over 20001
    nodes phi_j equally spaced from 0 to asinh(1e6/4) + 12, with the closed
    form F_j = F(4 sinh phi_j), the weight w_j at the midpoint of bin j and
    cum_j = sum of w_i (F_{i+1} - F_i) for i < j, the value at x is
    (cum_j + w_j (F(x) - F_j)) / cum_end in the bin j that holds
    phi = asinh(x/4) (the last bin beyond the end), clipped to [0, 1]."""
    from bidisk.spectral import _cdf_and_tail

    xs = np.asarray(xs, dtype=float)
    phi = np.linspace(0.0, math.asinh(1e6 / 4.0) + 12.0, 20001)
    f_nodes = _cdf_and_tail(4.0 * np.sinh(phi))[0]
    w_mid = weight.weight_of_rho(phi[:-1] + phi[1:])
    cum = np.concatenate(([0.0], np.cumsum(w_mid * np.diff(f_nodes))))
    j = np.clip(np.searchsorted(phi, np.arcsinh(xs / 4.0), side="right") - 1, 0, phi.size - 2)
    vals = (cum[j] + w_mid[j] * (_cdf_and_tail(xs)[0] - f_nodes[j])) / cum[-1]
    return np.clip(vals, 0.0, 1.0)
