"""The four workloads: the invocations of one pass and the checks of their
outputs.

Checks compare the outputs with perfbench/oracle.py, never with the code
being timed, and are not timed.  ``BUILD[name](ctx)`` gives a workload's
invocations; ``CHECK[name](ctx, stdout)`` maps each invocation label to
the problems found in its outputs (an empty list when they are right).
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass

import numpy as np

import layers
import oracle

WHY = {
    "draws": "Monte-Carlo export: sample --n 5e5 uniform with --threads 1 and exp "
    "with --threads 2; CSV formatting in cli dominates, no quadrature or geometry",
    "verify": "bidisk verify --json: the scalar object API of moment, liealg and disk "
    "plus the ledger's adaptive quadrature; almost no I/O",
    "tables": "spectrum at the README grid and a 1e4-point grid, reweight exp, "
    "moments uniform and exp, plot --table reading the large CSV: F on grids, "
    "nested quadrature, reweight build, CSV read and write",
    "fit": "library path of criteria 1 and 9 in one process: F at 1e6 unsorted "
    "random points and KS at n=1e6, uniform and exp-weighted; no CLI or CSV",
}

SPECTRUM_HEADER = "x,x_tilde,F_quad,F_paper_u,F_paper_prop,F_derived,f_quad,f_paper"
REWEIGHT_HEADER = "x,x_tilde,f_quad,weight,f_reweighted"
# tolerances of the checks, each well above the agreement measured when they
# were set: F 6e-14 and f 2e-13 absolute; E2 1e-14, the exp-weighted mean
# and normalizer 3e-7 and the exp-weighted E2 1.4e-5 relative (its table
# sum stops at a bin edge near the cut)
F_TOL = 1e-8
PDF_TOL = 1e-9
MOMENT_REL_TOL = 1e-8
WEIGHTED_REL_TOL = 1e-5
WEIGHTED_MOMENT_REL_TOL = 1e-4
WEIGHT_REL_TOL = 1e-12


@dataclass
class Invocation:
    label: str
    kind: str  # "cli": bidisk's command line; "fit": perfbench/fit.py
    args: list[str]
    outputs: tuple[str, ...]  # files whose bytes must repeat in every pass


@dataclass
class Context:
    seed: int
    work: str
    tiny: bool
    threads: int

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


# ---------------------------------------------------------------------------
# helpers


def _read_csv(path: str, header: str, rows: int, problems: list[str]) -> np.ndarray | None:
    with open(path, "rb") as fh:
        data = fh.read()
    first, _, body = data.partition(b"\r\n")
    if first.decode("utf-8", "replace") != header:
        problems.append(f"{os.path.basename(path)}: header {first[:80]!r}")
        return None
    if data.count(b"\n") != data.count(b"\r\n") or not data.endswith(b"\r\n"):
        problems.append(f"{os.path.basename(path)}: line endings are not all CRLF")
    table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    if table.shape != (rows, header.count(",") + 1):
        problems.append(f"{os.path.basename(path)}: shape {table.shape}, expected {rows} rows")
        return None
    return table


def _require(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _max_rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.abs(b)))


# ---------------------------------------------------------------------------
# draws


def _draws_n(ctx: Context) -> int:
    # 5e5 rather than 1e6 draws per invocation: CSV formatting keeps the same
    # share of the pass, and a run holds twice as many passes
    return 20_000 if ctx.tiny else 500_000


def _build_draws(ctx: Context) -> list[Invocation]:
    n, seed = str(_draws_n(ctx)), str(ctx.seed)
    common = ["sample", "--n", n, "--seed", seed]
    return [
        Invocation(
            "sample-uniform",
            "cli",
            common + ["--weight", "uniform", "--threads", "1", "--out", ctx.path("uniform.csv")],
            (ctx.path("uniform.csv"),),
        ),
        Invocation(
            "sample-exp",
            "cli",
            common
            + ["--weight", "exp", "--threads", str(ctx.threads), "--out", ctx.path("exp.csv")],
            (ctx.path("exp.csv"),),
        ),
    ]


def _check_draws(ctx: Context, stdout: dict[str, str]) -> dict[str, list[str]]:
    n = _draws_n(ctx)
    bound = oracle.ks_bound(oracle.KS_BOUND_UNIFORM, n)
    out = {"sample-uniform": [], "sample-exp": []}
    uni = _read_csv(ctx.path("uniform.csv"), "omega,weight", n, out["sample-uniform"])
    exp = _read_csv(ctx.path("exp.csv"), "omega,weight", n, out["sample-exp"])
    if uni is not None:
        p = out["sample-uniform"]
        _require(p, bool(np.all(uni[:, 1] == 1.0)), "uniform weights are not all 1.0")
        ks = oracle.ks_distance(uni[:, 0], None, oracle.cdf)
        _require(p, ks < bound, f"KS {ks:.3e} against the closed form >= {bound:.1e}")
    if exp is not None:
        p = out["sample-exp"]
        ks = oracle.ks_distance(exp[:, 0], None, oracle.cdf)
        _require(p, ks < bound, f"KS {ks:.3e} of the exp draws' omegas >= {bound:.1e}")
        rel = _max_rel(exp[:, 1], oracle.exp_weight(exp[:, 0]))
        _require(p, rel <= WEIGHT_REL_TOL, f"weights differ from exp(-rho) by {rel:.1e}")
        if uni is not None:
            _require(
                p,
                np.array_equal(exp[:, 0], uni[:, 0]),
                "omegas differ from the uniform run at the same seed",
            )
    return out


# ---------------------------------------------------------------------------
# verify

# statuses acceptance criterion 6 requires of the ledger
LEDGER_STATUSES = {
    "ledger_cdf_derived_vs_quadrature": "pass",
    "ledger_cdf_paper_prop_tail": "discrepancy",
    "ledger_cdf_paper_u_vs_quadrature": "discrepancy",
    "ledger_mean_vs_claimed": "discrepancy",
    "ledger_small_x_exponent": "discrepancy",
}


def _build_verify(ctx: Context) -> list[Invocation]:
    report = ctx.path("report.json")
    return [Invocation("verify", "cli", ["verify", "--seed", str(ctx.seed), "--json", report], (report,))]


def _check_verify(ctx: Context, stdout: dict[str, str]) -> dict[str, list[str]]:
    p: list[str] = []
    with open(ctx.path("report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    failing = sorted(k for k, e in report.items() if e["status"] == "fail")
    _require(p, not failing, f"failing entries {failing}")
    missing = [c for c in layers.CHECKS if c not in report]
    _require(p, not missing, f"checks missing from the report {missing}")
    for name, status in LEDGER_STATUSES.items():
        got = report.get(name, {}).get("status")
        _require(p, got == status, f"{name} is {got!r}, criterion 6 requires {status!r}")
    mean = report.get("ledger_mean_vs_claimed", {}).get("value", {})
    if "mean_quadrature" in mean:
        err = abs(mean["mean_quadrature"] - oracle.MEAN)
        _require(
            p,
            err <= mean["quadrature_bound"],
            f"mean_quadrature is {err:.2e} from 16 pi/3, beyond its bound {mean['quadrature_bound']:.2e}",
        )
    last = stdout["verify"].strip().splitlines()[-1:] or [""]
    _require(p, last[0].endswith(" fail=0"), f"status line {last[0]!r}")
    return {"verify": p}


# ---------------------------------------------------------------------------
# tables


def _grids(ctx: Context) -> tuple[str, str]:
    if ctx.tiny:
        return "1e-3:100:40", "1e-3:1e4:200"
    return "1e-3:100:400", "1e-3:1e4:10000"


def _moments_n(ctx: Context) -> int:
    return 2000 if ctx.tiny else 200_000


def _build_tables(ctx: Context) -> list[Invocation]:
    readme, large = _grids(ctx)
    seed = ["--seed", str(ctx.seed)]
    n = ["--n", str(_moments_n(ctx))]
    return [
        Invocation("spectrum-readme", "cli",
                   ["spectrum", "--grid", readme, "--out", ctx.path("spectrum.csv")] + seed,
                   (ctx.path("spectrum.csv"),)),
        Invocation("spectrum-large", "cli",
                   ["spectrum", "--grid", large, "--out", ctx.path("large.csv")] + seed,
                   (ctx.path("large.csv"),)),
        Invocation("reweight-exp", "cli",
                   ["reweight", "--weight", "exp", "--grid", readme,
                    "--out", ctx.path("reweight.csv")] + seed,
                   (ctx.path("reweight.csv"),)),
        Invocation("moments-uniform", "cli",
                   ["moments", "--json", ctx.path("moments.json")] + n + seed,
                   (ctx.path("moments.json"),)),
        Invocation("moments-exp", "cli",
                   ["moments", "--weight", "exp", "--json", ctx.path("moments_exp.json")] + n + seed,
                   (ctx.path("moments_exp.json"),)),
        Invocation("plot-table", "cli",
                   ["plot", "--table", ctx.path("large.csv"), "--out", ctx.path("plot.svg")] + seed,
                   (ctx.path("plot.svg"),)),
    ]


def _grid(spec: str) -> np.ndarray:
    lo, hi, n = spec.split(":")
    return np.geomspace(float(lo), float(hi), int(n))


def _check_spectrum(path: str, spec: str, p: list[str]) -> None:
    x = _grid(spec)
    t = _read_csv(path, SPECTRUM_HEADER, x.size, p)
    if t is None:
        return
    _require(p, _max_rel(t[:, 0], x) <= 1e-14, "x column is not the requested grid")
    f_ref = oracle.cdf(x)
    for col, name in ((2, "F_quad"), (5, "F_derived")):
        err = _max_abs(t[:, col], f_ref)
        _require(p, err <= F_TOL, f"{name} is {err:.1e} from the closed form")
    err = _max_abs(t[:, 6], oracle.pdf(x))
    _require(p, err <= PDF_TOL, f"f_quad is {err:.1e} from the closed-form density")


def _check_tables(ctx: Context, stdout: dict[str, str]) -> dict[str, list[str]]:
    readme, large = _grids(ctx)
    labels = ("spectrum-readme", "spectrum-large", "reweight-exp", "moments-uniform",
              "moments-exp", "plot-table")
    out: dict[str, list[str]] = {label: [] for label in labels}
    _check_spectrum(ctx.path("spectrum.csv"), readme, out["spectrum-readme"])
    _check_spectrum(ctx.path("large.csv"), large, out["spectrum-large"])
    exp_ref = oracle.ExpWeighted()

    p = out["reweight-exp"]
    x = _grid(readme)
    t = _read_csv(ctx.path("reweight.csv"), REWEIGHT_HEADER, x.size, p)
    if t is not None:
        w = oracle.exp_weight(x)
        _require(p, _max_rel(t[:, 3], w) <= WEIGHT_REL_TOL, "weight column is not exp(-rho)")
        _require(p, _max_abs(t[:, 2], oracle.pdf(x)) <= PDF_TOL, "f_quad differs from the density")
        ratio = t[:, 4] / (t[:, 2] * t[:, 3])
        err = _max_rel(1.0 / ratio, exp_ref.normalizer)
        _require(p, err <= WEIGHTED_REL_TOL, f"normalizer off by {err:.1e} relative")

    p = out["moments-uniform"]
    with open(ctx.path("moments.json"), encoding="utf-8") as fh:
        m = json.load(fh)
    err = abs(m["mean_quadrature"] - oracle.MEAN)
    _require(p, err <= m["mean_bound"], f"mean is {err:.2e} from 16 pi/3, bound {m['mean_bound']:.2e}")
    e2 = [oracle.truncated_second_moment(c) for c in m["cuts"]]
    err = _max_rel(m["E2_truncated"], e2)
    _require(p, err <= MOMENT_REL_TOL, f"truncated second moments off by {err:.1e} relative")
    _require(p, m["mc_n"] == _moments_n(ctx), "mc_n is not the requested sample size")

    p = out["moments-exp"]
    with open(ctx.path("moments_exp.json"), encoding="utf-8") as fh:
        m = json.load(fh)
    err = abs(m["mean_quadrature"] / exp_ref.mean - 1.0)
    _require(p, err <= WEIGHTED_REL_TOL, f"exp-weighted mean off by {err:.1e} relative")
    e2 = [exp_ref.truncated_second_moment(c) for c in m["cuts"]]
    err = _max_rel(m["E2_truncated"], e2)
    _require(p, err <= WEIGHTED_MOMENT_REL_TOL, f"exp-weighted second moments off by {err:.1e} relative")

    p = out["plot-table"]
    with open(ctx.path("plot.svg"), encoding="utf-8") as fh:
        svg = fh.read()
    _require(p, svg.startswith("<svg") and svg.endswith("</svg>\n"), "not a complete SVG document")
    _require(p, svg.count("<polyline") == 1, "SVG does not hold exactly one polyline")
    if svg.count("<polyline") == 1:
        points = svg.split('<polyline points="', 1)[1].split('"', 1)[0].split()
        _require(p, len(points) == _grid(large).size, f"polyline has {len(points)} points")
    return out


# ---------------------------------------------------------------------------
# fit


def _build_fit(ctx: Context) -> list[Invocation]:
    n = 20_000 if ctx.tiny else 1_000_000
    dump = ctx.path("fit.npy")
    return [Invocation("fit", "fit", ["--seed", str(ctx.seed), "--n", str(n), "--dump", dump], (dump,))]


def _check_fit(ctx: Context, stdout: dict[str, str]) -> dict[str, list[str]]:
    p: list[str] = []
    reported = json.loads(stdout["fit"].strip().splitlines()[-1])
    omega, omega_w, weight = np.load(ctx.path("fit.npy"))
    n = omega.size
    b_uni = oracle.ks_bound(oracle.KS_BOUND_UNIFORM, n)
    b_exp = oracle.ks_bound(oracle.KS_BOUND_EXP, n)
    ks_uni = oracle.ks_distance(omega, None, oracle.cdf)
    _require(p, ks_uni < b_uni, f"KS {ks_uni:.3e} against the closed form >= {b_uni:.1e}")
    _require(p, reported["ks_uniform"] < b_uni, f"reported KS {reported['ks_uniform']:.3e} >= {b_uni:.1e}")
    _require(p, abs(reported["ks_uniform"] - ks_uni) <= 1e-6, "reported uniform KS disagrees")
    rel = _max_rel(weight, oracle.exp_weight(omega_w))
    _require(p, rel <= WEIGHT_REL_TOL, f"weights differ from exp(-rho) by {rel:.1e}")
    ks_exp = oracle.ks_distance(omega_w, weight, oracle.ExpWeighted().cdf)
    _require(p, ks_exp < b_exp, f"weighted KS {ks_exp:.3e} against the reference >= {b_exp:.1e}")
    _require(p, reported["ks_exp"] < b_exp, f"reported weighted KS {reported['ks_exp']:.3e} >= {b_exp:.1e}")
    _require(p, abs(reported["ks_exp"] - ks_exp) <= 1e-6, "reported weighted KS disagrees")
    return {"fit": p}


BUILD = {"draws": _build_draws, "verify": _build_verify, "tables": _build_tables, "fit": _build_fit}
CHECK = {"draws": _check_draws, "verify": _check_verify, "tables": _check_tables, "fit": _check_fit}
