"""Self-verification report: determinism, statuses, and step-size
certification of every finite-difference-based check."""

import json
import math

import pytest

from bidisk import quadrature
from bidisk.verify import (
    DISCREPANCY,
    FAIL,
    PASS,
    STEP_SIZE_PREFIX,
    check_moment_coisotropy,
    check_moment_slice_fd,
    check_psh_hessian_grid,
    check_psh_mixed_on_slice,
    check_psh_radial_convexity,
    count_status,
    run_all,
    to_json,
)

GEOMETRY_CHECKS = {
    "lie_bform_signature",
    "lie_bracket_jacobi",
    "lie_classify_eigensolver",
    "lie_adjoint_invariance",
    "lie_sp2_roundtrip",
    "disk_mobius_isometry",
    "disk_group_law",
    "disk_fiber_circle",
    "moment_diagonal_zero",
    "moment_cone_positive",
    "moment_slice_fd",
    "moment_equivariance",
    "moment_coisotropy",
    "moment_surjectivity",
    "psh_hessian_grid",
    "psh_mixed_on_slice",
    "psh_radial_convexity",
    "psh_radial_sech_form",
    "psh_curve_positivity",
}

LEDGER_CHECKS = {
    "ledger_cdf_derived_vs_quadrature",
    "ledger_cdf_paper_u_vs_quadrature",
    "ledger_cdf_paper_prop_tail",
    "ledger_pdf_paper_internal_consistency",
    "ledger_mean_vs_claimed",
    "ledger_small_x_exponent",
    "ledger_second_moment_growth",
}

SEED = 20260814  # run_all's default

# the checks whose conclusions rest on finite differences; all of them
# must refuse to report a result when the step cannot be certified
FD_CHECKS = {
    "moment_slice_fd",
    "psh_hessian_grid",
    "psh_mixed_on_slice",
    "psh_radial_convexity",
    "psh_radial_sech_form",
    "ledger_pdf_paper_internal_consistency",
}


def test_run_all_default_has_no_failures():
    report = run_all()
    assert set(report) == GEOMETRY_CHECKS | LEDGER_CHECKS
    assert len(report) >= 12
    assert count_status(report, FAIL) == 0
    assert count_status(report, DISCREPANCY) >= 2
    assert count_status(report, PASS) + count_status(report, DISCREPANCY) == len(report)
    for entry in report.values():
        assert set(entry) == {"status", "value", "tolerance", "details"}
        assert not str(entry["details"]).startswith(STEP_SIZE_PREFIX)
    # the report is valid, round-trippable JSON
    text = to_json(report)
    assert json.loads(text) == report


def test_run_all_is_deterministic():
    assert to_json(run_all()) == to_json(run_all())


def test_uncertifiable_step_size_is_reported_not_silently_passed(monkeypatch):
    certified = run_all()
    # no step certifies a residual this small
    monkeypatch.setattr(quadrature, "FD_TOL", 1e-30)
    report = run_all()
    flagged = {
        name
        for name, entry in report.items()
        if str(entry["details"]).startswith(STEP_SIZE_PREFIX)
    }
    assert flagged == FD_CHECKS
    for name in flagged:
        assert report[name]["status"] == FAIL
        assert report[name]["tolerance"] == quadrature.FD_TOL
    # everything that does not rest on finite differences is unaffected
    for name, entry in report.items():
        if name not in FD_CHECKS:
            assert entry["status"] == certified[name]["status"]
            assert entry["status"] in (PASS, DISCREPANCY)


def test_uncertified_is_the_one_step_size_decision():
    tol = quadrature.FD_TOL
    assert quadrature.uncertified(tol, "grid") is None
    details = quadrature.uncertified(2.0 * tol, "grid")
    assert details.startswith(STEP_SIZE_PREFIX)
    assert details.endswith("(grid)")
    assert STEP_SIZE_PREFIX is quadrature.STEP_SIZE_PREFIX


@pytest.mark.parametrize("field", ["fd_step", "fd_tol"])
@pytest.mark.parametrize("value", [0.0, -1e-5, math.nan, math.inf])
def test_config_rejects_step_and_tolerance_that_are_not_positive_and_finite(
    field, value, monkeypatch
):
    # a NaN or infinite tolerance would certify every residual
    monkeypatch.setattr(quadrature, field.upper(), value)
    with pytest.raises(ValueError, match=field.upper()):
        check_moment_slice_fd(SEED)


def test_slice_fd_check_detail():
    entry = check_moment_slice_fd(SEED)
    assert entry["status"] == PASS
    assert entry["value"]["max_defect"] < 1e-6
    assert entry["value"]["max_rel_residual"] < 1e-5


def test_hessian_grid_check_detail():
    entry = check_psh_hessian_grid(SEED)
    assert entry["status"] == PASS
    assert entry["value"]["min_eigenvalue"] > 0.0


def test_mixed_term_vanishes_on_slice():
    entry = check_psh_mixed_on_slice(SEED)
    assert entry["status"] == PASS
    assert entry["value"]["max_mixed_entry"] < 1e-5


def test_coisotropy_check_detail():
    entry = check_moment_coisotropy(SEED)
    assert entry["status"] == PASS


def test_radial_convexity_reference_value():
    # frozen second derivative of the radial profile at x = -1,
    # computed from the closed form 2 cosh(x) / sinh(x)^2
    ref = 2.2345710548985487
    assert abs(2.0 * math.cosh(-1.0) / math.sinh(-1.0) ** 2 - ref) < 1e-15

    from bidisk.disk import poincare_distance

    def profile(x: float) -> float:
        r = math.exp(x)
        return poincare_distance(r, -r)

    h = 1e-4
    second = lambda s: (profile(-1.0 + s) - 2.0 * profile(-1.0) + profile(-1.0 - s)) / (s * s)
    extrap = (4.0 * second(h) - second(2.0 * h)) / 3.0
    assert abs(extrap - ref) < 1e-6

    entry = check_psh_radial_convexity(SEED)
    assert entry["status"] == PASS
    assert entry["value"]["max_rel_defect"] < 1e-4
    assert entry["value"]["min_second_derivative_near_zero"] > 1e3


def test_sech_profile_discrepancy_is_standing():
    report = run_all(SEED)
    entry = report["psh_radial_sech_form"]
    assert entry["status"] == DISCREPANCY
    assert abs(entry["value"]["second_derivative_at_0"] + 1.0) < 1e-6
    assert entry["value"]["profile_link_defect"] <= 1e-14
    assert report["psh_curve_positivity"]["status"] == PASS


def test_seed_changes_nothing_structural():
    a = run_all(1)
    assert count_status(a, FAIL) == 0
