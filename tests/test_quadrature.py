import math

import numpy as np
import pytest

from bidisk.quadrature import QuadResult, adaptive, composite_nodes


def composite_k15(f, a: float, b: float, k: int) -> float:
    """k-panel composite K15 rule on [a, b] from composite_nodes."""
    nodes, weights = composite_nodes(k)
    return (b - a) * float(weights @ f(a + (b - a) * nodes))


def panel_error(f, a: float, b: float) -> float:
    # with a budget of one panel, adaptive reports that panel's
    # Gauss/Kronrod error estimate
    return adaptive(f, a, b, max_panels=1).error


def test_panel_is_exact_on_low_degree_polynomials():
    # 15-point Kronrod rule integrates monomials up to high degree exactly
    for k in range(11):
        f = lambda x, k=k: x**k
        value, err = composite_k15(f, 0.0, 1.0, 1), panel_error(f, 0.0, 1.0)
        assert abs(value - 1.0 / (k + 1)) < 1e-14
        assert err < 1e-13


def test_panel_error_estimate_is_conservative_on_smooth_function():
    # the Gauss/Kronrod gap can underestimate once the true error is at
    # machine precision, so the floor absorbs rounding of the rule itself
    value, err = composite_k15(np.exp, 0.0, 1.0, 1), panel_error(np.exp, 0.0, 1.0)
    truth = math.e - 1.0
    assert abs(value - truth) <= max(10.0 * err, 1e-14)


def test_adaptive_smooth():
    res = adaptive(np.exp, 0.0, 1.0, tol=1e-12)
    assert res.converged
    assert abs(res.value - (math.e - 1.0)) < 1e-13


def test_adaptive_oscillatory():
    res = adaptive(np.sin, 0.0, 10.0 * math.pi, tol=1e-11)
    assert res.converged
    assert abs(res.value) < 1e-9


def test_adaptive_integrable_endpoint_singularity():
    # log x is integrable at 0; the worst-first splitter must localize it
    res = adaptive(lambda x: np.log(np.maximum(x, 1e-300)), 0.0, 1.0, tol=1e-10)
    assert res.converged
    assert abs(res.value + 1.0) < 1e-9
    assert res.panels > 4


def test_adaptive_sqrt_singularity():
    # the width floor freezes panels at ~1e-14, leaving ~2e-7 of the mass
    # under the singularity unresolved; the value must still be that close
    res = adaptive(lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300)), 0.0, 1.0, tol=1e-10)
    assert abs(res.value - 2.0) < 1e-5
    assert res.panels > 10


def test_adaptive_reports_failure_when_panel_budget_blocks():
    res = adaptive(np.exp, 0.0, 1.0, tol=1e-30, max_panels=1)
    assert isinstance(res, QuadResult)
    assert not res.converged
    assert abs(res.value - (math.e - 1.0)) < 1e-13


def test_adaptive_respects_requested_tolerance():
    for tol in (1e-6, 1e-9, 1e-12):
        res = adaptive(lambda x: np.cos(3.0 * x), 0.0, 2.0, tol=tol)
        truth = math.sin(6.0) / 3.0
        assert abs(res.value - truth) <= 10.0 * tol


def test_adaptive_rejects_bad_interval():
    with pytest.raises(ValueError):
        adaptive(np.exp, 1.0, 0.0, tol=1e-10)


def test_composite_nodes_weights_sum_to_one():
    for k in (1, 3, 8):
        nodes, weights = composite_nodes(k)
        assert nodes.shape == weights.shape == (15 * k,)
        assert abs(weights.sum() - 1.0) < 1e-13
        assert np.all(nodes > 0.0) and np.all(nodes < 1.0)
        assert np.all(np.diff(nodes) > 0.0)


def test_fixed_quadrature_sine():
    assert abs(composite_k15(np.sin, 0.0, math.pi, k=8) - 2.0) < 1e-12


def test_fixed_quadrature_matches_adaptive():
    f = lambda x: np.exp(-x) * np.sin(2.0 * x)
    a = composite_k15(f, 0.0, 3.0, k=16)
    b = adaptive(f, 0.0, 3.0, tol=1e-12).value
    assert abs(a - b) < 1e-11
