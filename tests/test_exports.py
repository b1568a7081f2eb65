"""The domain and accuracy of every export, in one table.

EXPORTS gives each name in bidisk.__all__, and the two weight methods of
WeightSpec, its domain, the edge inputs of that domain, the tolerance it
meets and the reference that tolerance is checked against: a function of
reference.py, or, for a class, a constant or an export without a stated
tolerance, the test that covers it.  The accuracy tests read their
tolerances from here, and the README's Numerical notes state the same
domains and tolerances in a table that a test below holds to this one.

A float function is a row with probes.  Each probe maps a float, or an
array of floats, to one call of the export, with its other arguments held
inside the domain, and says which inputs lie inside.  Inside the domain a
call returns finite values, Python scalars for a scalar and an array call
equal to the per-element calls; outside it, and for an array with one
entry outside, it raises ValueError.  It never warns.

What counts as a number is one rule for the whole package: a float
argument must be something numpy holds with a bool, integer or float
dtype, a bool counting as 0 or 1, and a complex argument (a point of the
disk) may also be complex.  Everything else raises ValueError: strings,
bytes, None, ragged lists and object arrays, so also Fraction, Decimal and
Python ints beyond int64.  NOT_NUMBERS and COMPLEX probe this rule.
"""

import dataclasses
import math
import re
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import bidisk
import reference
from bidisk import (
    BidiskPoint,
    LieVector,
    MobiusTransform,
    SampleBatch,
    SpectralTable,
    SymplecticGenerator,
    WeightSpec,
    cdf_closed_derived,
    cdf_closed_paper_prop,
    cdf_closed_paper_u,
    cdf_quadrature,
    cdf_quadrature_batch,
    classify,
    hyperbolic_disk_euclidean,
    mu_slice,
    mu_slice_invert,
    omega_of_pair,
    pdf_closed_paper,
    pdf_quadrature,
    poincare_distance,
    reweight_density,
    schwarz_distance,
    series_coefficient,
    translate,
    truncated_second_moment,
)
from bidisk.disk import BOUNDARY_TOL
from bidisk.liealg import from_matrix
from bidisk.spectral import E2_MAX_CUT, UNIFORM_WEIGHT

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Probe:
    """One call of an export on a float or an array of floats, and which of
    those floats lie inside its domain."""

    call: Callable
    inside: Callable


@dataclass(frozen=True)
class Export:
    """An export's domain, its accuracy and where both are checked."""

    domain: str
    # a function of reference.py, or FILE::TEST, the test that covers it
    reference: str
    # tolerance label -> value
    tol: dict = field(default_factory=dict)
    edges: tuple = ()
    probes: tuple = ()
    # whether an array is in the domain (else any array raises ValueError)
    arrays: bool = True
    # whether a scalar argument gives Python scalars (else 0-d arrays)
    scalar_out: bool = True
    # the ValueError of an input outside the domain matches this
    match: str | None = None
    # (input, result) pairs of the first probe with an exact result
    exact: tuple = ()


TINY, HUGE, INF, NAN = 5e-324, sys.float_info.max, math.inf, math.nan
NONNEGATIVE = (
    0.0, -0.0, TINY, 1e-300, 1e-200, 0.25, 1.0, 8.0, 1e8, 1e154, 1e300, HUGE, INF,
    -TINY, -1e-300, -1.0, -1e300, -INF, NAN,
)  # fmt: skip
UNIT = (
    0.0, -0.0, TINY, 0.1, 0.25, 0.5, 1.0 - 1e-12, 1.0 - 2**-53,
    1.0, 1.0 + 2**-52, 2.0, -TINY, -0.1, -1.0, INF, -INF, NAN,
)  # fmt: skip
REAL = (
    0.0, -0.0, TINY, -TINY, 1.0, -1.0, 1e154, -1e154, 1e300, -1e300, HUGE, -HUGE,
    INF, -INF, NAN,
)  # fmt: skip
# complex points, up to the boundary tolerance and beyond
DISK = (
    0.0, 0.5, -0.5, 0.5j, TINY, 1.0 - 2e-12, -(1.0 - 2e-12) * 1j,
    1.0 - 1e-12, 1.0 - 1e-13, 1.0, 0.6 + 0.8j, 2.0, 1e300, INF, -INF, NAN,
)  # fmt: skip
CUTS = (-INF, -1.0, -0.0, 0.0, TINY, 1e-3, 1e2, 1e8, 1.0000001e8, 1e12, 1e300, INF, NAN)
INDICES = (1.0, 2.0, 4.0, 269.0, 270.0, 1e300, 0.0, -1.0, 1.5, TINY, INF, -INF, NAN)
WEIGHTS = (
    UNIFORM_WEIGHT,
    WeightSpec("exp"),
    WeightSpec("gauss"),
    WeightSpec("table", (0.0, 2.0, 40.0), (1.0, 0.5, 0.0)),
)
# inputs that are not numbers: each raises ValueError in every export
NOT_NUMBERS = ("0.5", b"0.5", None, np.array(["0.5"], dtype=object), [[0.5], [0.5, 0.5]])
NOT_NUMBER_IDS = ("str", "bytes", "none", "object", "ragged")
# complex inputs, which only the rows with the DISK edges take
COMPLEX = (0.5 + 0j, 2j)
# the message of every point rejected by disk.check_disk
DISK_MESSAGE = rf"BOUNDARY_TOL = {BOUNDARY_TOL:g}"


def _short(value: float) -> str:
    """A number as the README writes it: 1e-8, not 1e-08."""
    return re.sub(r"e(-?)\+?0*(\d)", r"e\1\2", f"{value:g}")


def _nonnegative(v):
    return v >= 0.0


def _finite_nonnegative(v):
    return (v >= 0.0) & (v < INF)


def _unit(v):
    return (v >= 0.0) & (v < 1.0)


def _in_disk(v):
    return np.abs(v) < 1.0 - BOUNDARY_TOL


def _like(v, c):
    """c in the shape of v, so that a dataclass's fields share one shape."""
    return np.full(np.shape(v), c)


def _classify_on_cone(v):
    """classify(LieVector(v, v/2, v/2)), elliptic for v != 0; v passes
    LieVector's own check before any arithmetic on it."""
    a = LieVector(v, 0.0, 0.0).a
    return classify(LieVector(a, 0.5 * a, 0.5 * a))


def _weighted(method: str) -> tuple:
    return tuple(Probe(getattr(w, method), _nonnegative) for w in WEIGHTS)


def _disk_probes(fn) -> tuple:
    """fn(z, w) with either point on the edges, the other held inside."""
    return (
        Probe(lambda v: fn(v, _like(v, 0.5)), _in_disk),
        Probe(lambda v: fn(_like(v, 0.5j), v), _in_disk),
    )


# the closed form F, 1 - F of spectral._cdf_and_tail, which cdf_closed_derived
# enters at u, against 50-digit arithmetic.  Both are worst just above the
# series cut u = 1/4, where the direct form cancels: on 20001 log-spaced x in
# [1e-300, 1e300] and 400001 x in [1.0328, 1.07] the worst relative errors
# against reference.cdf_tail_pdf were 9.8e-13 for F and 2.2e-14 for 1 - F,
# both at x = 1.03816 (u = 0.2512).  The 1 - F row is 4 times that, rounded up
CLOSED_FORM_TOL = {"relative (F)": 2e-12, "relative (1 - F)": 9e-14}
# the quadrature kernel's 1 - F, of which cdf_quadrature takes F = 1 - (1 - F)
# above x = 8.  This and the density's row are 4 times the worst relative
# error on 200001 log-spaced x in [1e-300, 1e300] against
# reference.cdf_tail_pdf, rounded up: 7.3e-16 for 1 - F and 1.4e-15 for f
KERNEL_TAIL_TOL = {"relative (1 - F, where it is >= 1e-300)": 3e-15}
KERNEL_PDF_TOL = {"relative (where f is a normal double)": 5.6e-15}
RESCALED_TOL = {"relative (x~ >= 1e20)": 1e-14}

EXPORTS: dict[str, Export] = {
    "BidiskPoint": Export(
        domain="z, w inside radius 1 - 1e-12",
        reference="test_disk.py::test_bidisk_point_guards_and_diagonal",
        edges=DISK,
        probes=_disk_probes(BidiskPoint),
        match=DISK_MESSAGE,
    ),
    "ETA": Export("constant", "test_liealg.py::test_bform_signature_on_basis"),
    "LieVector": Export(
        domain="a, b, c finite",
        reference="test_liealg.py::test_matrix_roundtrip_exact_on_basis",
        edges=REAL,
        probes=(
            Probe(lambda v: LieVector(v, 0.0, 0.0), np.isfinite),
            Probe(lambda v: LieVector(1.0, v, -1.0), np.isfinite),
            Probe(lambda v: LieVector(0.0, 0.0, v), np.isfinite),
        ),
    ),
    "MobiusTransform": Export(
        "abs(alpha)^2 - abs(beta)^2 = 1 within DET_TOL",
        "test_disk.py::test_from_matrix_rejects_bad_determinant",
    ),
    "SampleBatch": Export(
        "a nonempty 1-d omega, finite and >= 0, and either weight of its shape, finite, >= 0, "
        "with a positive finite sum, or spec, whose weight_of_omega(omega) must be so",
        "test_spectral.py::test_batch_estimates_reject_malformed_batches",
    ),
    "SliceReduction": Export("t and g", "test_moment.py::test_slice_reduce_property"),
    "SpectralClass": Export(
        "kind and omega",
        "test_broadcasting.py::test_classify_arrays_tag_every_kind_and_nan_off_cone",
    ),
    "SpectralTable": Export(
        "a nonempty 1-d grid of finite positive x",
        "test_spectral.py::test_spectral_table_rejects_bad_grid",
    ),
    "SymplecticGenerator": Export(
        domain="a, b, c finite",
        reference="test_liealg.py::test_sp2_roundtrip_and_cayley_conjugation",
        edges=REAL,
        probes=(
            Probe(lambda v: SymplecticGenerator(v, 0.0, 0.0), np.isfinite),
            Probe(lambda v: SymplecticGenerator(1.0, v, -1.0), np.isfinite),
            Probe(lambda v: SymplecticGenerator(0.0, 0.0, v), np.isfinite),
        ),
        # at construction, not one call later in from_sp2's LieVector
        match="non-finite",
    ),
    "WeightSpec": Export(
        "uniform, exp or gauss without columns, or a table whose two 1-d columns (tuples, "
        "lists or arrays, stored as tuples of floats) hold increasing finite rho and finite "
        "weights >= 0, not all 0",
        "test_spectral.py::test_weight_spec_validation",
    ),
    "XI": Export("constant", "test_liealg.py::test_bform_signature_on_basis"),
    "ZETA": Export("constant", "test_liealg.py::test_bform_signature_on_basis"),
    "act_bidisk": Export(
        "MobiusTransform and BidiskPoint",
        "test_disk.py::test_act_bidisk_applies_componentwise",
    ),
    "adjoint": Export(
        "g with SU(1,1) matrices and LieVector x",
        "test_liealg.py::test_adjoint_quarter_turn_sends_eta_to_zeta",
    ),
    "bform": Export(
        "LieVectors with norm_inf(x) norm_inf(y) <= 2^1022",
        "test_liealg.py::test_bform_is_half_trace_of_product",
    ),
    "bracket": Export("LieVectors", "test_liealg.py::test_bracket_matches_matrix_commutator"),
    "cdf_closed_derived": Export(
        domain="0 <= u < 1",
        reference="reference.cdf_tail_pdf",
        tol=CLOSED_FORM_TOL,
        edges=UNIT,
        probes=(Probe(cdf_closed_derived, _unit),),
        exact=((0.0, 0.0),),
    ),
    "cdf_closed_paper_prop": Export(
        domain="0 <= x~ < inf",
        reference="reference.rescaled_candidates",
        tol=RESCALED_TOL,
        edges=NONNEGATIVE,
        probes=(Probe(cdf_closed_paper_prop, _finite_nonnegative),),
    ),
    "cdf_closed_paper_u": Export(
        domain="0 <= u < 1",
        reference="test_spectral.py::test_cdf_closed_paper_u_is_u2_times_derived",
        edges=UNIT,
        probes=(Probe(cdf_closed_paper_u, _unit),),
    ),
    "cdf_quadrature": Export(
        domain="0 <= x <= inf",
        reference="reference.cdf_tail_pdf",
        tol=KERNEL_TAIL_TOL,
        edges=NONNEGATIVE,
        probes=(Probe(cdf_quadrature, _nonnegative),),
        exact=((0.0, 0.0), (INF, 1.0)),
    ),
    "cdf_quadrature_batch": Export(
        domain="0 <= x <= inf",
        reference="reference.cdf_tail_pdf",
        tol=KERNEL_TAIL_TOL,
        edges=NONNEGATIVE,
        probes=(Probe(cdf_quadrature_batch, _nonnegative),),
        scalar_out=False,
    ),
    "classify": Export(
        domain="LieVector",
        reference="test_liealg.py::test_classify_matches_eigensolver",
        edges=REAL,
        probes=(Probe(_classify_on_cone, np.isfinite),),
    ),
    "cone_preimage": Export(
        "elliptic-positive LieVector",
        "test_moment.py::test_cone_preimage_rejects_non_elliptic_targets",
    ),
    "discrepancy_ledger": Export(
        "no argument",
        "test_spectral.py::test_discrepancy_ledger_statuses",
    ),
    "from_sp2": Export(
        "SymplecticGenerator",
        "test_liealg.py::test_sp2_roundtrip_and_cayley_conjugation",
    ),
    "hyperbolic_disk_euclidean": Export(
        domain="0 <= s < 1 - 1e-12, 0 < u < 1",
        reference="test_disk.py::test_hyperbolic_disk_boundary_has_constant_distance",
        edges=UNIT,
        probes=(
            Probe(
                lambda v: hyperbolic_disk_euclidean(v, 0.5),
                lambda v: (v >= 0.0) & (v < 1.0 - BOUNDARY_TOL),
            ),
            Probe(lambda v: hyperbolic_disk_euclidean(0.5, v), lambda v: (v > 0.0) & (v < 1.0)),
        ),
    ),
    "ks_distance": Export(
        "a SampleBatch; cdf elementwise and nondecreasing",
        "test_spectral.py::test_ks_distance_blocks_equal_one_whole_array_call",
    ),
    "mc_sample": Export(
        domain="n integer >= 1, seed integer >= 0",
        reference="reference.sampled_omega",
        tol={"relative (omega)": 4e-15},
    ),
    "mean_quadrature": Export(
        domain="no argument",
        reference="test_spectral.py::test_mean_quadrature_bound_covers_exact_error",
        tol={"absolute (against 16 pi / 3)": 1e-14},
    ),
    "moment_vector": Export(
        domain="BidiskPoint",
        reference="reference.moment",
        # a, the largest coefficient; 3.1 eps measured on 1.8e4 pairs
        tol={"eps times a": 4},
    ),
    "mu_slice": Export(
        domain="0 <= t < 1",
        reference="test_moment.py::test_mu_slice_against_fifty_digits_up_to_one",
        # 1.1 eps measured on 1.2e4 points
        tol={"eps relative": 2},
        edges=UNIT,
        probes=(Probe(mu_slice, _unit),),
    ),
    "mu_slice_invert": Export(
        domain="0 <= x < inf",
        reference="test_moment.py::test_mu_slice_invert_roundtrip",
        edges=NONNEGATIVE,
        probes=(Probe(mu_slice_invert, _finite_nonnegative),),
    ),
    "omega_of_pair": Export(
        domain="BidiskPoint",
        reference="reference.legs",
        # 2.1 eps measured on 3e4 pairs
        tol={"eps relative": 3},
        edges=DISK,
        # the far point makes omega of order 1e12 at the edge 1 - 2e-12
        probes=(
            Probe(lambda v: omega_of_pair(BidiskPoint(v, _like(v, -(1.0 - 2e-12)))), _in_disk),
        ),
        match=DISK_MESSAGE,
    ),
    "pdf_closed_paper": Export(
        domain="0 <= x~ < inf",
        reference="reference.rescaled_candidates",
        tol=RESCALED_TOL,
        edges=NONNEGATIVE,
        probes=(Probe(pdf_closed_paper, _finite_nonnegative),),
    ),
    "pdf_quadrature": Export(
        domain="x not NaN (0 for x <= 0)",
        reference="reference.cdf_tail_pdf",
        tol=KERNEL_PDF_TOL,
        edges=NONNEGATIVE,
        probes=(Probe(pdf_quadrature, lambda v: ~np.isnan(v)),),
        exact=((-1.0, 0.0), (0.0, 0.0), (INF, 0.0)),
    ),
    "poincare_distance": Export(
        domain="z, w inside radius 1 - 1e-12",
        reference="test_disk.py::test_poincare_distance_off_the_real_axis",
        # 2.1 eps measured on 3e4 pairs
        tol={"eps relative": 4},
        edges=DISK,
        # the third probe's far point makes d_S round to 1 at the edge 1 - 2e-12
        probes=_disk_probes(poincare_distance)
        + (Probe(lambda v: poincare_distance(v, _like(v, -(1.0 - 2e-12))), _in_disk),),
        match=DISK_MESSAGE,
    ),
    "reweight_density": Export(
        domain="0 <= x <= inf",
        reference="reference.reweighted_density",
        # 1.2e-15 (uniform), 4.1e-15 (exp) and 1.3e-15 (table) measured on
        # x in [1e-3, 1e8]; exp(-rho^2) turns the rounding of rho into up to
        # 2 rho^2 eps, and gauss reads 1.4e-13 near rho = 25
        tol={"relative (where the value is a normal double)": 1e-13, "relative (gauss)": 3e-13},
        edges=NONNEGATIVE,
        probes=tuple(Probe(lambda v, w=w: reweight_density(w, v), _nonnegative) for w in WEIGHTS),
    ),
    "run_all": Export("seed integer", "test_verify.py::test_run_all_default_has_no_failures"),
    "schwarz_distance": Export(
        domain="z, w inside radius 1 - 1e-12",
        reference="reference.legs",
        # 2.0 eps measured on 3e4 pairs
        tol={"eps relative": 3},
        edges=DISK,
        probes=_disk_probes(schwarz_distance),
        match=DISK_MESSAGE,
    ),
    "series_coefficient": Export(
        domain="integer k >= 1 (an integral float counts)",
        reference="test_spectral.py::test_series_coefficients_exact_fractions",
        edges=INDICES,
        probes=(Probe(series_coefficient, lambda v: (v >= 1.0) & (v < INF) & (v == np.floor(v))),),
        arrays=False,
    ),
    "slice_reduce": Export("BidiskPoint", "test_moment.py::test_slice_reduce_property"),
    "to_json": Export("run_all report", "test_verify.py::test_run_all_is_deterministic"),
    "to_sp2": Export("LieVector", "test_liealg.py::test_sp2_roundtrip_and_cayley_conjugation"),
    "translate": Export(
        domain="zeta inside radius 1 - 1e-12",
        reference="test_disk.py::test_translate_near_boundary",
        edges=DISK,
        probes=(Probe(translate, _in_disk),),
        match=DISK_MESSAGE,
    ),
    "truncated_second_moment": Export(
        domain=f"float cut <= {_short(E2_MAX_CUT)} (0 for cut <= 0)",
        reference="reference.second_moment",
        tol={"relative": 1e-8, "absolute": 1e-20},
        edges=CUTS,
        probes=(Probe(truncated_second_moment, lambda v: v <= E2_MAX_CUT),),
        arrays=False,
        exact=((0.0, 0.0), (-INF, 0.0)),
    ),
    "__version__": Export("constant", "test_exports.py::test_version_is_the_package_version"),
    "WeightSpec.weight_of_rho": Export(
        domain="0 <= rho <= inf",
        reference="test_spectral.py::test_weights_equal_their_direct_expressions_bit_for_bit",
        edges=NONNEGATIVE,
        probes=_weighted("weight_of_rho"),
    ),
    "WeightSpec.weight_of_omega": Export(
        domain="0 <= omega <= inf",
        reference="test_spectral.py::test_weights_equal_their_direct_expressions_bit_for_bit",
        edges=NONNEGATIVE,
        probes=_weighted("weight_of_omega"),
    ),
}

FLOAT_EXPORTS = sorted(name for name, row in EXPORTS.items() if row.probes)


def tolerance_text(row: Export) -> str:
    """The tolerance as the README's table states it."""
    return "; ".join(f"{_short(value)} {label}" for label, value in row.tol.items()) or "-"


def test_table_lists_every_export():
    methods = {"WeightSpec.weight_of_rho", "WeightSpec.weight_of_omega"}
    assert set(EXPORTS) == set(bidisk.__all__) | methods


def test_every_reference_exists():
    for name, row in EXPORTS.items():
        if row.reference.startswith("reference."):
            assert callable(getattr(reference, row.reference.removeprefix("reference."))), name
        else:
            path, test = row.reference.split("::")
            assert f"\ndef {test}(" in (ROOT / "tests" / path).read_text(encoding="utf-8"), name


def test_readme_numerical_notes_state_the_table():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| export | domain | tolerance |") + 2
    documented = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, domain, tol = (cell.strip() for cell in line.strip("|").split("|"))
        documented[name.strip("`")] = (domain, tol)
    stated = {
        name: (row.domain, tolerance_text(row))
        for name, row in EXPORTS.items()
        if row.probes or row.tol
    }
    assert documented == stated


def test_version_is_the_package_version():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "(.+)"$', pyproject, re.M).group(1) == bidisk.__version__


def test_exact_values_at_the_edges():
    for name, row in EXPORTS.items():
        for x, expect in row.exact:
            assert row.probes[0].call(x) == expect, (name, x)


def _values(result) -> list:
    """The numbers a result is made of: a dataclass's fields or a tuple's
    items, without the kind tags of a SpectralClass."""
    if dataclasses.is_dataclass(result):
        parts = [getattr(result, f.name) for f in dataclasses.fields(result)]
    elif isinstance(result, tuple):
        parts = list(result)
    else:
        parts = [result]
    return [p for p in parts if np.asarray(p).dtype.kind != "U"]


def _check_on_edges(row: Export, probe: Probe, values: list) -> None:
    arg = np.array(values)
    inside = np.asarray(probe.inside(arg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalars = []
        for v, ok in zip(values, inside):
            if not ok:
                with pytest.raises(ValueError, match=row.match):
                    probe.call(v)
                continue
            parts = _values(probe.call(v))
            for p in parts:
                if row.scalar_out:
                    assert type(p) in (float, complex), (v, type(p))
                else:
                    assert isinstance(p, np.ndarray) and p.ndim == 0, (v, type(p))
                assert np.isfinite(p), (v, p)
            scalars.append(parts)
        if not row.arrays:
            with pytest.raises(ValueError):
                probe.call(arg)
        elif not inside.all():
            with pytest.raises(ValueError, match=row.match):
                probe.call(arg)
        else:
            parts = _values(probe.call(arg))
            for p, column in zip(parts, zip(*scalars), strict=True):
                assert isinstance(p, np.ndarray) and p.shape == arg.shape
                assert np.array_equal(p, np.array(column))


@pytest.mark.parametrize("name", FLOAT_EXPORTS)
def test_float_exports_on_their_domain_edges(name):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    row = EXPORTS[name]

    @hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(0, len(row.probes) - 1),
        st.lists(st.sampled_from(row.edges), min_size=1, max_size=4),
    )
    def check(p, values):
        _check_on_edges(row, row.probes[p], values)

    # every edge once, as a scalar and in an array with an inside anchor
    for p, probe in enumerate(row.probes):
        anchor = next(v for v in row.edges if probe.inside(np.asarray(v)))
        for v in row.edges:
            check = hypothesis.example(p, [anchor, v])(check)
    check()


@pytest.mark.parametrize("name", FLOAT_EXPORTS)
def test_float_exports_reject_what_is_not_a_number(name):
    row = EXPORTS[name]
    bad = NOT_NUMBERS + (() if row.edges is DISK else COMPLEX)
    for probe in row.probes:
        for v in bad:
            with pytest.raises(ValueError):
                probe.call(v)


@pytest.mark.parametrize("value", NOT_NUMBERS + COMPLEX, ids=NOT_NUMBER_IDS + ("complex", "imaginary"))
def test_batches_and_tables_reject_what_is_not_a_number(value):
    for build in (
        lambda v: SampleBatch(v, spec=UNIFORM_WEIGHT),
        lambda v: SampleBatch(np.ones(1), weight=v),
        SpectralTable.build,
    ):
        with pytest.raises(ValueError):
            build(value)


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
def test_mobius_maps_and_matrices_reject_what_is_not_a_number(value):
    for build in (
        MobiusTransform.identity(),
        MobiusTransform.rotation,
        lambda v: MobiusTransform(v, 0.0),
        lambda v: MobiusTransform(1.0, v),
        lambda v: MobiusTransform.from_matrix([[v, 0.0], [0.0, v]]),
        lambda v: from_matrix([[v, v], [v, v]]),
    ):
        with pytest.raises(ValueError):
            build(value)


@pytest.mark.parametrize("name", FLOAT_EXPORTS)
def test_bools_are_zero_and_one(name):
    """call(True) is call(1.0) and call(False) is call(0.0), bit for bit,
    or both raise ValueError."""
    for probe in EXPORTS[name].probes:
        for flag, number in ((True, 1.0), (False, 0.0)):
            try:
                expect = probe.call(number)
            except ValueError:
                with pytest.raises(ValueError):
                    probe.call(flag)
                continue
            got = probe.call(flag)
            assert type(got) is type(expect), (flag, got)
            for g, e in zip(_values(got), _values(expect), strict=True):
                assert type(g) is type(e) and np.array_equal(g, e), (flag, g, e)
