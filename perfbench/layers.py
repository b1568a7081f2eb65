"""Per-module metrics computed from the span summaries of traced passes.

A module's ``self_s`` is the duration of its spans minus the parts covered
by their child spans; the other ``*_s`` metrics are the inclusive time of
one function.  Rates divide a count by a time: ``cli.out_bytes_per_s`` by
cli self time, ``spectral.draws_per_s`` by mc_sample time,
``spectral.cdf_batch_points_per_s`` by cdf_quadrature_batch time and
``moment.pairs_per_s`` (moment_vector calls) by moment_vector time.  A
rate or ratio without calls behind it is 0.  Each metric is computed per
traced pass and reported as the median over the run's traced passes.

MODULE_MAP predicts which end-to-end metrics each group of per-module
metrics should move, on which workloads, and where no change is expected.
NONZERO lists the workloads on which each metric must be nonzero; the
smoke test checks it, so a missed binding in the tracer fails loudly.
"""

from __future__ import annotations

import statistics

CHECKS = (
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
)

# name -> unit; run.py documents each
END_TO_END = {"wall_s": "s", "wall_tail_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# name -> (unit, better)
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "cli.out_bytes_per_s": ("bytes/s", "higher"),
    "cli.read_csv_s": ("s", "lower"),
    "spectral.self_s": ("s", "lower"),
    "spectral.mc_sample_s": ("s", "lower"),
    "spectral.draws_per_s": ("1/s", "higher"),
    "spectral.cdf_batch_points": ("count", "lower"),
    "spectral.cdf_batch_points_per_s": ("1/s", "higher"),
    "spectral.ks_s": ("s", "lower"),
    "spectral.reweight_build_s": ("s", "lower"),
    "spectral.one_minus_cdf_calls": ("count", "lower"),
    "spectral.one_minus_cdf_s": ("s", "lower"),
    "spectral.mean_quadrature_s": ("s", "lower"),
    "spectral.integrand_s": ("s", "lower"),
    "spectral.ledger_s": ("s", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "quadrature.adaptive_calls": ("count", "lower"),
    "quadrature.panels": ("count", "lower"),
    "quadrature.panels_per_call": ("count", "lower"),
    "quadrature.unconverged": ("count", "lower"),
    "quadrature.converged_ratio": ("ratio", "higher"),
    "moment.self_s": ("s", "lower"),
    "moment.calls": ("count", "lower"),
    "moment.pairs_per_s": ("1/s", "higher"),
    "disk.self_s": ("s", "lower"),
    "disk.calls": ("count", "lower"),
    "liealg.self_s": ("s", "lower"),
    "liealg.calls": ("count", "lower"),
    "verify.self_s": ("s", "lower"),
    **{f"verify.check_ms.{c}": ("ms", "lower") for c in CHECKS},
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# (per-module metrics, end-to-end metrics they should move, workloads they
# should move them on, workloads predicted not to change)
MODULE_MAP = (
    (("cli.self_s", "cli.out_bytes", "cli.out_bytes_per_s"),
     ("wall_s", "cpu_s"), ("draws", "tables"), ("verify", "fit")),
    (("cli.read_csv_s",), ("wall_s", "cpu_s"), ("tables",), ("verify", "fit")),
    (("spectral.self_s", "spectral.mc_sample_s", "spectral.draws_per_s"),
     ("wall_s",), ("draws", "fit"), ("verify",)),
    (("spectral.cdf_batch_points", "spectral.cdf_batch_points_per_s", "spectral.ks_s"),
     ("wall_s", "cpu_s", "peak_rss_mb"), ("fit", "tables"), ("draws",)),
    (("spectral.reweight_build_s", "spectral.one_minus_cdf_calls",
      "spectral.one_minus_cdf_s", "spectral.mean_quadrature_s",
      "spectral.integrand_s", "spectral.ledger_s"),
     ("wall_s", "peak_rss_mb"), ("tables", "verify"), ("draws",)),
    (("quadrature.self_s", "quadrature.adaptive_calls", "quadrature.panels",
      "quadrature.panels_per_call", "quadrature.unconverged",
      "quadrature.converged_ratio"),
     ("wall_s",), ("tables", "verify"), ("draws", "fit")),
    (("moment.self_s", "moment.calls", "moment.pairs_per_s"),
     ("wall_s",), ("verify",), ("draws", "tables", "fit")),
    (("disk.self_s", "disk.calls", "liealg.self_s", "liealg.calls"),
     ("wall_s",), ("verify",), ("draws", "tables", "fit")),
    (("verify.self_s", *(f"verify.check_ms.{c}" for c in CHECKS)),
     ("wall_s",), ("verify",), ("draws", "tables", "fit")),
)

CLI_WORKLOADS = ("draws", "verify", "tables")
NONZERO = {
    "cli.self_s": CLI_WORKLOADS,
    "cli.out_bytes": CLI_WORKLOADS,
    "cli.read_csv_s": ("tables",),
    "spectral.mc_sample_s": ("draws", "fit"),
    "spectral.draws_per_s": ("draws", "fit"),
    "spectral.cdf_batch_points": ("fit", "tables"),
    "spectral.ks_s": ("fit",),
    "spectral.reweight_build_s": ("tables", "fit"),
    "spectral.one_minus_cdf_calls": ("tables", "verify"),
    "spectral.mean_quadrature_s": ("tables", "verify"),
    "spectral.integrand_s": ("tables", "verify"),
    "spectral.ledger_s": ("verify",),
    "quadrature.adaptive_calls": ("tables", "verify"),
    "quadrature.panels": ("tables", "verify"),
    "moment.calls": ("verify",),
    "moment.pairs_per_s": ("verify",),
    "disk.calls": ("verify",),
    "liealg.calls": ("verify",),
    "verify.self_s": ("verify",),
    **{f"verify.check_ms.{c}": ("verify",) for c in CHECKS},
    "trace.spans": ("draws", "verify", "tables", "fit"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def pass_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its processes' summaries."""
    calls: dict[str, float] = {}
    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    counters: dict[str, float] = {}
    spans = 0
    for s in summaries:
        spans += s["spans"]
        for name, (c, i, o) in s["by_name"].items():
            calls[name] = calls.get(name, 0) + c
            incl[name] = incl.get(name, 0.0) + i
            own[name] = own.get(name, 0.0) + o
        for key, v in s["counters"].items():
            counters[key] = counters.get(key, 0.0) + v

    def module(prefix: str, table: dict) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    m: dict[str, float] = {}
    m["cli.self_s"] = module("cli", own)
    m["cli.out_bytes"] = counters.get("cli.out_bytes", 0.0)
    m["cli.out_bytes_per_s"] = _ratio(m["cli.out_bytes"], m["cli.self_s"])
    m["cli.read_csv_s"] = incl.get("cli.read_spectrum_csv", 0.0)
    m["spectral.self_s"] = module("spectral", own)
    m["spectral.mc_sample_s"] = incl.get("spectral.mc_sample", 0.0)
    m["spectral.draws_per_s"] = _ratio(counters.get("spectral.draws", 0.0), m["spectral.mc_sample_s"])
    m["spectral.cdf_batch_points"] = counters.get("spectral.cdf_batch_points", 0.0)
    m["spectral.cdf_batch_points_per_s"] = _ratio(
        m["spectral.cdf_batch_points"], incl.get("spectral.cdf_quadrature_batch", 0.0)
    )
    m["spectral.ks_s"] = incl.get("spectral.ks_distance", 0.0)
    m["spectral.reweight_build_s"] = incl.get("spectral.ReweightedDistribution.__init__", 0.0)
    m["spectral.one_minus_cdf_calls"] = calls.get("spectral.one_minus_cdf", 0)
    m["spectral.one_minus_cdf_s"] = incl.get("spectral.one_minus_cdf", 0.0)
    m["spectral.mean_quadrature_s"] = incl.get("spectral.mean_quadrature", 0.0)
    m["spectral.integrand_s"] = own.get("spectral.integrand", 0.0)
    m["spectral.ledger_s"] = incl.get("spectral.discrepancy_ledger", 0.0)
    adaptive_calls = calls.get("quadrature.adaptive", 0)
    unconverged = counters.get("quadrature.unconverged", 0.0)
    m["quadrature.self_s"] = module("quadrature", own)
    m["quadrature.adaptive_calls"] = adaptive_calls
    m["quadrature.panels"] = counters.get("quadrature.panels", 0.0)
    m["quadrature.panels_per_call"] = _ratio(m["quadrature.panels"], adaptive_calls)
    m["quadrature.unconverged"] = unconverged
    m["quadrature.converged_ratio"] = _ratio(adaptive_calls - unconverged, adaptive_calls)
    for mod in ("moment", "disk", "liealg"):
        m[f"{mod}.self_s"] = module(mod, own)
        m[f"{mod}.calls"] = module(mod, calls)
    m["moment.pairs_per_s"] = _ratio(
        calls.get("moment.moment_vector", 0), incl.get("moment.moment_vector", 0.0)
    )
    m["verify.self_s"] = module("verify", own)
    for c in CHECKS:
        m[f"verify.check_ms.{c}"] = 1e3 * incl.get(f"verify.check_{c}", 0.0)
    m["trace.spans"] = spans
    return m


def run_metrics(traced: list[dict[str, float]], traced_walls: list[float], plain_walls: list[float]) -> dict:
    """Median over traced passes of each per-layer metric, with the tracing
    overhead as the difference of median pass wall times."""
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(plain_walls)
        else:
            value = statistics.median(p[name] for p in traced)
        out[name] = {"value": float(value), "unit": PER_LAYER[name][0]}
    return out
