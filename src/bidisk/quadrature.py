"""Gauss-Kronrod (G7, K15) quadrature on finite intervals.

Integrands receive a numpy array of nodes and must return an array of
values.  ``composite_k15`` applies a fixed k-panel rule on [0, 1] to a
batch of integrands at once, with the summed |K15 - G7| as its error
estimate.  The adaptive driver keeps a worst-panel heap and splits until the
summed error estimate drops under the requested absolute tolerance; panels
narrower than a relative width floor are frozen rather than split, so the
driver terminates even on integrands with endpoint singularities.  Its one
caller is spectral.truncated_second_moment.

The certified finite differences live here too: Richardson extrapolation
over steps h and 2h, with ``uncertified`` as the one place that decides
when a residual above FD_TOL is a step-size failure.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

# QUADPACK's qk15 abscissae in [0, 1) and their weights (Piessens et al.,
# 1983), outermost first; the rule on [-1, 1] mirrors them about 0.
_XH = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_WKH = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
# weights of the 7-point Gauss rule on the nodes _XH[1::2]
_WGH = np.array(
    [0.129484966168869693, 0.279705391489276668, 0.381830050505118945, 0.417959183673469388]
)
# the 15 Kronrod nodes on [-1, 1], ascending; the Gauss rule sits at the
# odd indices
_X = np.concatenate((-_XH[:-1], _XH[::-1]))
_WK = np.concatenate((_WKH[:-1], _WKH[::-1]))
_WG = np.concatenate((_WGH[:-1], _WGH[::-1]))
_GAUSS_IDX = np.arange(1, 15, 2)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    converged: bool
    panels: int


def _panel(f, a: float, b: float) -> tuple[float, float]:
    """K15 value and error estimate for one panel."""
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fv = np.asarray(f(mid + h * _X), dtype=float)
    vk = h * float(_WK @ fv)
    vg = h * float(_WG @ fv[_GAUSS_IDX])
    d = abs(vk - vg)
    err = min(d, (200.0 * d) ** 1.5) if d > 0.0 else 0.0
    return vk, err


def adaptive(
    f,
    a: float,
    b: float,
    tol: float = 1e-10,
    max_panels: int = 4096,
    min_width: float = 1e-14,
) -> QuadResult:
    """Adaptive bisection with a worst-first heap.

    ``tol`` is absolute.  Returns the accumulated value, the summed error
    estimate, a convergence flag, and the number of panels evaluated.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
        raise ValueError("integration interval must satisfy a < b")
    val, err = _panel(f, a, b)
    width_floor = min_width * (abs(a) + abs(b) + 1.0)
    heap = [(-err, 0, a, b, val, err)]
    total_val = val
    total_err = err
    count = 1
    serial = 1
    while total_err > tol and heap and count < max_panels:
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        if pb - pa < width_floor:
            # cannot refine further in double precision; keep as-is
            continue
        mid = 0.5 * (pa + pb)
        lv, le = _panel(f, pa, mid)
        rv, re = _panel(f, mid, pb)
        total_val += lv + rv - pval
        total_err += le + re - perr
        heapq.heappush(heap, (-le, serial, pa, mid, lv, le))
        serial += 1
        heapq.heappush(heap, (-re, serial, mid, pb, rv, re))
        serial += 1
        count += 2
    return QuadResult(total_val, total_err, total_err <= tol, count)


def composite_nodes(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the k-panel composite K15 rule on [0, 1]."""
    width = 1.0 / k
    starts = np.arange(k) * width
    nodes = (starts[:, None] + 0.5 * width * (1.0 + _X)[None, :]).ravel()
    weights = np.tile(0.5 * width * _WK, k)
    return nodes, weights


def composite_k15(f, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-panel composite K15 rule for int_0^1 f(v) dv over a batch of
    integrands, with the summed |K15 - G7| of the panels as error estimate.

    ``f`` receives the nodes with shape (15, k, 1) (node, panel, integrand)
    and returns values of shape (15, k, m), integrand axis innermost;
    returns (value, estimate) of shape (m,).  The node sums run in a fixed
    order and each integrand's panels are summed along one contiguous row,
    so its result does not depend on the other integrands in the batch.
    """
    nodes = np.ascontiguousarray(composite_nodes(k)[0].reshape(k, 15).T)
    fv = f(nodes[:, :, None])
    tmp = np.empty_like(fv[0])
    k15 = fv[0] * _WK[0]
    for w, fj in zip(_WK[1:], fv[1:]):
        k15 += np.multiply(fj, w, out=tmp)
    g7 = fv[1] * _WG[0]
    for w, j in zip(_WG[1:], _GAUSS_IDX[1:]):
        g7 += np.multiply(fv[j], w, out=tmp)
    g7 -= k15
    half = 0.5 / k
    return half * _panel_sum(k15), half * _panel_sum(np.abs(g7, out=g7))


def _panel_sum(a: np.ndarray) -> np.ndarray:
    """Sums of a (k, m) array over its panels, each along one contiguous
    row of length k, so numpy's pairwise order is that of the row alone."""
    return np.ascontiguousarray(a.T).sum(axis=-1)


# step of the certified first differences, and the largest Richardson
# residual that certifies an extrapolated finite difference
FD_STEP = 1e-5
FD_TOL = 1e-5
STEP_SIZE_PREFIX = "step-size failure:"


def fd_constant(name: str) -> float:
    """FD_STEP or FD_TOL as it stands; ValueError unless positive and finite."""
    if not 0.0 < globals()[name] < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {globals()[name]!r}")
    return globals()[name]


def uncertified(residual: float, where: str) -> str | None:
    """The step-size failure text for a Richardson residual above FD_TOL
    (``where`` names the check's grid), or None when the residual certifies
    the difference."""
    tol = fd_constant("FD_TOL")
    if residual > tol:
        return (
            f"{STEP_SIZE_PREFIX} Richardson residual {residual:.3e} exceeds "
            f"certification tolerance {tol:.1e} ({where})"
        )
    return None


def richardson(estimate, h):
    """(value, residual) of an O(h^2) estimate(step), extrapolated from
    steps h and 2h; the residual |e(h) - e(2h)| / 3 estimates its error."""
    d_h, d_2h = estimate(h), estimate(2.0 * h)
    return (4.0 * d_h - d_2h) / 3.0, abs(d_h - d_2h) / 3.0


def central_difference(f, x, h):
    """Richardson-extrapolated central difference f'(x), as (value,
    residual); f is called at x + h, x - h, x + 2h, x - 2h in that order."""
    return richardson(lambda s: (f(x + s) - f(x - s)) / (2.0 * s), h)
