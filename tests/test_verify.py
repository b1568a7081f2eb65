"""Self-verification report: determinism, statuses, and step-size
certification of every finite-difference-based check."""

import json
import math

import numpy as np

from bidisk.verify import (
    DISCREPANCY,
    FAIL,
    PASS,
    STEP_SIZE_PREFIX,
    VerifyConfig,
    check_moment_coisotropy,
    check_moment_slice_fd,
    check_psh_hessian_grid,
    check_psh_mixed_on_slice,
    check_psh_radial_convexity,
    count_status,
    has_step_size_failure,
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

# the geometry checks alone, at their full sample sizes
GEOMETRY_ONLY = VerifyConfig(include_ledger=False)


def test_run_all_default_has_no_failures():
    report = run_all()
    assert set(report) == GEOMETRY_CHECKS | LEDGER_CHECKS
    assert len(report) >= 12
    assert count_status(report, FAIL) == 0
    assert count_status(report, DISCREPANCY) >= 2
    assert count_status(report, PASS) + count_status(report, DISCREPANCY) == len(report)
    assert not has_step_size_failure(report)
    for entry in report.values():
        assert set(entry) == {"status", "value", "tolerance", "details"}
    # the report is valid, round-trippable JSON
    text = to_json(report)
    assert json.loads(text) == report


def test_run_all_is_deterministic():
    assert to_json(run_all()) == to_json(run_all())


def test_run_all_without_ledger():
    report = run_all(GEOMETRY_ONLY)
    assert set(report) == GEOMETRY_CHECKS
    assert count_status(report, FAIL) == 0


def test_uncertifiable_step_size_is_reported_not_silently_passed():
    cfg = VerifyConfig(fd_tol=1e-30)
    report = run_all(cfg)
    assert has_step_size_failure(report)
    flagged = {
        name
        for name, entry in report.items()
        if str(entry["details"]).startswith(STEP_SIZE_PREFIX)
    }
    assert flagged == FD_CHECKS
    for name in flagged:
        assert report[name]["status"] == FAIL
    # everything that does not rest on finite differences is unaffected
    for name, entry in report.items():
        if name not in FD_CHECKS:
            assert entry["status"] in (PASS, DISCREPANCY)


def test_slice_fd_check_detail():
    entry = check_moment_slice_fd(VerifyConfig())
    assert entry["status"] == PASS
    assert entry["value"]["max_defect"] < 1e-6
    assert entry["value"]["max_rel_residual"] < 1e-5


def test_hessian_grid_check_detail():
    entry = check_psh_hessian_grid(VerifyConfig())
    assert entry["status"] == PASS
    assert entry["value"]["min_eigenvalue"] > 0.0


def test_mixed_term_vanishes_on_slice():
    entry = check_psh_mixed_on_slice(VerifyConfig())
    assert entry["status"] == PASS
    assert entry["value"]["max_mixed_entry"] < 1e-5


def test_coisotropy_check_detail():
    entry = check_moment_coisotropy(VerifyConfig())
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

    entry = check_psh_radial_convexity(VerifyConfig())
    assert entry["status"] == PASS
    assert entry["value"]["max_rel_defect"] < 1e-4
    assert entry["value"]["min_second_derivative_near_zero"] > 1e3


def test_sech_profile_discrepancy_is_standing():
    report = run_all(GEOMETRY_ONLY)
    entry = report["psh_radial_sech_form"]
    assert entry["status"] == DISCREPANCY
    assert abs(entry["value"]["second_derivative_at_0"] + 1.0) < 1e-6
    assert entry["value"]["profile_link_defect"] <= 1e-14
    assert report["psh_curve_positivity"]["status"] == PASS


def test_seed_changes_nothing_structural():
    a = run_all(VerifyConfig(seed=1, include_ledger=False))
    assert count_status(a, FAIL) == 0
