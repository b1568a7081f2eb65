"""End-to-end acceptance run: nine numbered criteria, one printed
pass/fail line each (run with ``pytest -s`` to see the lines on success).
"""

import json
import math
import time

import numpy as np

from bidisk.disk import BidiskPoint, act_bidisk, poincare_distance, random_mobius, random_point
from bidisk.liealg import ELLIPTIC_POSITIVE, adjoint, classify
from bidisk.moment import moment_vector, mu_slice
from bidisk.spectral import (
    UNIFORM_WEIGHT,
    WeightSpec,
    cdf_quadrature_batch,
    ks_distance,
    mc_sample,
    pdf_quadrature,
    reweight_density,
    second_moment_tail_model,
    truncated_second_moment,
)
from bidisk.spectral import _cached_distribution
from bidisk.verify import check_psh_hessian_grid, check_psh_mixed_on_slice
from bidisk.cli import main as cli_main

SEED = 20260814


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_mc_matches_quadrature_cdf():
    t0 = time.perf_counter()
    batch = mc_sample(1_000_000, seed=SEED)
    d = ks_distance(batch, cdf_quadrature_batch)
    elapsed = time.perf_counter() - t0
    ok = d < 2e-3 and elapsed < 60.0
    assert _report(1, ok, f"KS(1e6 uniform draws)={d:.6e} < 2e-3, {elapsed:.1f}s < 60s")


def test_criterion_2_slice_moment_finite_difference():
    h = 1e-5
    worst = 0.0
    for t in np.linspace(0.1, 0.9, 9):
        t = float(t)

        def rho_flow(s: float) -> float:
            r = math.exp(-2.0 * s) * t
            return poincare_distance(r, -r)

        d1 = -(rho_flow(h) - rho_flow(-h)) / (2.0 * h)
        d2 = -(rho_flow(2 * h) - rho_flow(-2 * h)) / (4.0 * h)
        extrap = (4.0 * d1 - d2) / 3.0
        worst = max(worst, abs(extrap - mu_slice(t)))
    ok = worst < 1e-6
    assert _report(2, ok, f"max |FD - 8t/(1-t^2)| = {worst:.3e} < 1e-6 on t in [0.1, 0.9]")


def test_criterion_3_cone_containment():
    rng = np.random.default_rng(SEED)
    n_offdiag = 10_000
    all_positive = True
    for _ in range(n_offdiag):
        p = BidiskPoint(random_point(rng), random_point(rng))
        if p.is_diagonal:
            continue
        if classify(moment_vector(p)).kind != ELLIPTIC_POSITIVE:
            all_positive = False
            break
    worst_zero = 0.0
    for _ in range(100):
        z = random_point(rng)
        worst_zero = max(worst_zero, moment_vector(BidiskPoint(z, z)).norm_inf())
    ok = all_positive and worst_zero < 1e-12
    assert _report(
        3,
        ok,
        f"{n_offdiag} off-diagonal points elliptic-positive, "
        f"100 diagonal points |mu| <= {worst_zero:.2e} < 1e-12",
    )


def test_criterion_4_equivariance():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(1000):
        p = BidiskPoint(random_point(rng), random_point(rng))
        g = random_mobius(rng)
        defect = (moment_vector(act_bidisk(g, p)) - adjoint(g, moment_vector(p))).norm_inf()
        worst = max(worst, defect)
    ok = worst < 1e-9
    assert _report(4, ok, f"max equivariance defect {worst:.3e} < 1e-9 on 1000 pairs")


def test_criterion_5_strict_plurisubharmonicity():
    hess = check_psh_hessian_grid(SEED)
    mixed = check_psh_mixed_on_slice(SEED)
    min_eig = hess["value"]["min_eigenvalue"]
    mix = mixed["value"]["max_mixed_entry"]
    ok = hess["status"] == "pass" and min_eig > 0.0 and mix < 1e-5
    assert _report(
        5, ok, f"min Hessian eigenvalue {min_eig:.4e} > 0 on 20x20 grid, mixed entry {mix:.2e} < 1e-5"
    )


def test_criterion_6_discrepancy_ledger(tmp_path):
    out = tmp_path / "report.json"
    code = cli_main(["verify", "--json", str(out)])
    report = json.loads(out.read_text())
    required = {
        "ledger_cdf_derived_vs_quadrature": "pass",
        "ledger_cdf_paper_prop_tail": "discrepancy",
        "ledger_cdf_paper_u_vs_quadrature": "discrepancy",
        "ledger_mean_vs_claimed": "discrepancy",
        "ledger_small_x_exponent": "discrepancy",
    }
    ok = code == 0
    for name, status in required.items():
        ok = ok and name in report and report[name]["status"] == status
    u_half = report["ledger_cdf_paper_u_vs_quadrature"]["value"]
    ok = ok and abs(u_half["F_quad_at_u_half"] - 0.0957) <= 1e-3
    n_disc = sum(1 for e in report.values() if e["status"] == "discrepancy")
    ok = ok and n_disc >= 2
    assert _report(
        6,
        ok,
        f"exit {code}, {n_disc} discrepancy entries, all five ledger items present "
        f"with measured values",
    )


def test_criterion_7_second_moment_divergence():
    cuts = (1e2, 1e3, 1e4)
    e2 = [truncated_second_moment(c) for c in cuts]
    increasing = e2[0] < e2[1] < e2[2]
    ratio = (e2[2] - e2[1]) / (e2[1] - e2[0])
    model_ratio, _ = second_moment_tail_model(*cuts)
    rel = abs(ratio / model_ratio - 1.0)
    ok = increasing and rel <= 0.2
    assert _report(
        7,
        ok,
        f"E2 strictly increasing across cuts 1e2/1e3/1e4, increment ratio "
        f"{ratio:.5f} within {rel:.2%} of the log^2 tail model {model_ratio:.5f}",
    )


def test_criterion_8_cli_byte_determinism(tmp_path):
    grid = "0.5:50:25"
    pairs = []
    for name, args in (
        ("csv", ["spectrum", "--grid", grid]),
        ("json", ["verify"]),
        ("svg", ["plot", "--grid", grid]),
    ):
        a = tmp_path / f"a.{name}"
        b = tmp_path / f"b.{name}"
        extra_a = ["--json", str(a)] if name == "json" else ["--out", str(a)]
        extra_b = ["--json", str(b)] if name == "json" else ["--out", str(b)]
        assert cli_main(args + extra_a) == 0
        assert cli_main(args + extra_b) == 0
        pairs.append((name, a.read_bytes() == b.read_bytes()))
    t1 = tmp_path / "t1.csv"
    t8 = tmp_path / "t8.csv"
    cli_main(["sample", "--n", "20000", "--seed", "7", "--threads", "1", "--out", str(t1)])
    cli_main(["sample", "--n", "20000", "--seed", "7", "--threads", "8", "--out", str(t8)])
    threads_equal = t1.read_bytes() == t8.read_bytes()
    ok = all(eq for _, eq in pairs) and threads_equal
    assert _report(
        8,
        ok,
        "byte-identical reruns for CSV/JSON/SVG and --threads 1 vs --threads 8",
    )


def test_criterion_9_reweighting_identity_and_importance_sampling():
    xs = np.geomspace(0.1, 100.0, 25)
    bitwise = all(
        reweight_density(UNIFORM_WEIGHT, float(x)) == pdf_quadrature(float(x)) for x in xs
    )
    w = WeightSpec("exp")
    batch = mc_sample(1_000_000, seed=SEED, weight=w)
    dist = _cached_distribution(w)
    d = ks_distance(batch, dist.cdf)
    ok = bitwise and d < 3e-3
    assert _report(
        9,
        ok,
        f"uniform reweight bitwise identical, KS(1e6 exp-weighted)={d:.6e} < 3e-3",
    )
