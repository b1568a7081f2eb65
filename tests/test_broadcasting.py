"""The broadcasting contract of the geometry layer.

Every function and dataclass of disk, liealg and moment takes arrays as
well as scalars: one array call equals the list of per-element scalar
calls (bitwise, since both run the same numpy arithmetic), scalar calls
return Python scalars, and a single bad entry of an array raises
ValueError for the whole call.
"""

import math

import numpy as np
import pytest

from bidisk.disk import (
    BidiskPoint,
    MobiusTransform,
    act_bidisk,
    check_disk,
    hyperbolic_disk_euclidean,
    poincare_distance,
    random_mobius,
    random_point,
    schwarz_distance,
    translate,
)
from bidisk.liealg import (
    ELLIPTIC_NEGATIVE,
    ELLIPTIC_POSITIVE,
    NON_ELLIPTIC,
    ZERO,
    LieVector,
    SpectralClass,
    SymplecticGenerator,
    adjoint,
    bform,
    bracket,
    classify,
    from_matrix,
    from_sp2,
    random_vector,
    to_sp2,
)
from bidisk.moment import (
    SliceReduction,
    cone_preimage,
    moment_vector,
    mu_slice,
    mu_slice_invert,
    omega_of_pair,
    slice_reduce,
)

N = 200


def _components(value) -> list:
    """The numbers (or tags) a result is made of, in a fixed order."""
    if isinstance(value, MobiusTransform):
        return [value.alpha, value.beta]
    if isinstance(value, (LieVector, SymplecticGenerator)):
        return [value.a, value.b, value.c]
    if isinstance(value, BidiskPoint):
        return [value.z, value.w]
    if isinstance(value, SliceReduction):
        return [value.t, *_components(value.g)]
    if isinstance(value, SpectralClass):
        return [value.kind, math.nan if value.omega is None else value.omega]
    if isinstance(value, tuple):
        return [c for v in value for c in _components(v)]
    return [value]


def _assert_array_call_matches_scalar_calls(array_result, scalar_results):
    columns = list(zip(*(_components(r) for r in scalar_results)))
    assert len(columns) == len(_components(array_result))
    for got, column in zip(_components(array_result), columns):
        assert np.shape(got) == (N,)
        for v in column:
            assert isinstance(v, (bool, float, complex, str)), type(v)
        if isinstance(column[0], str):
            assert list(got) == list(column)
        else:
            assert np.array_equal(got, np.array(column), equal_nan=True)


def _points(seed: int) -> np.ndarray:
    return random_point(np.random.default_rng(seed), 0.9, size=N)


def _pairs() -> tuple[np.ndarray, np.ndarray]:
    z, w = _points(1), _points(2)
    w[::10] = z[::10]  # diagonal pairs exercise slice_reduce's t = 0 mask
    return z, w


def _mobius(seed: int) -> MobiusTransform:
    return random_mobius(np.random.default_rng(seed), size=N)


def _vectors(seed: int) -> LieVector:
    x = random_vector(np.random.default_rng(seed), 2.0, size=N)
    a, b, c = np.array(x.a), np.array(x.b), np.array(x.c)
    a[::7] = b[::7] = c[::7] = 0.0  # zero vectors
    b[3::13], c[3::13] = a[3::13], 0.0  # null vectors, b(x, x) = 0
    return LieVector(a, b, c)


def _each(*arrays):
    """Per-element scalar arguments: Python scalars or per-entry objects."""
    def item(v, i):
        if isinstance(v, MobiusTransform):
            return MobiusTransform(v.alpha[i], v.beta[i])
        if isinstance(v, LieVector):
            return LieVector(v.a[i], v.b[i], v.c[i])
        if isinstance(v, BidiskPoint):
            return BidiskPoint(v.z[i], v.w[i])
        return v[i].item()

    return [tuple(item(v, i) for v in arrays) for i in range(N)]


def _disk_cases():
    z, w = _pairs()
    g, h = _mobius(3), _mobius(4)
    p = BidiskPoint(z, w)
    s = np.random.default_rng(5).uniform(0.0, 0.95, N)
    u = np.random.default_rng(6).uniform(0.05, 0.95, N)
    return {
        "check_disk": (check_disk, (z,)),
        "schwarz_distance": (schwarz_distance, (z, w)),
        "poincare_distance": (poincare_distance, (z, w)),
        "translate": (translate, (z,)),
        "hyperbolic_disk_euclidean": (hyperbolic_disk_euclidean, (s, u)),
        "mobius_call": (lambda g, z: g(z), (g, z)),
        "mobius_compose": (lambda g, h: g @ h, (g, h)),
        "mobius_inverse": (lambda g: g.inverse(), (g,)),
        "mobius_rotation": (MobiusTransform.rotation, (2.0 * math.pi * s,)),
        "mobius_from_matrix": (lambda g: MobiusTransform.from_matrix(g.matrix()), (g,)),
        "is_diagonal": (lambda p: p.is_diagonal, (p,)),
        "act_bidisk": (act_bidisk, (g, p)),
    }


def _liealg_cases():
    x, y = _vectors(7), _vectors(8)
    g = _mobius(9)
    return {
        "lie_vector_norm_inf": (lambda x: x.norm_inf(), (x,)),
        "lie_from_matrix": (lambda x: from_matrix(x.matrix()), (x,)),
        "bform": (bform, (x, y)),
        "bracket": (bracket, (x, y)),
        "adjoint": (adjoint, (g, x)),
        "classify": (classify, (x,)),
        "sp2_roundtrip": (lambda x: (to_sp2(x), from_sp2(to_sp2(x))), (x,)),
    }


def _moment_cases():
    z, w = _pairs()
    p = BidiskPoint(z, w)
    rng = np.random.default_rng(10)
    t = rng.uniform(0.0, 0.99, N)
    big = 10.0 ** rng.uniform(-10.0, 300.0, N)
    off = BidiskPoint(_points(11), _points(12))
    return {
        "mu_slice": (mu_slice, (t,)),
        "mu_slice_invert": (mu_slice_invert, (big,)),
        "omega_of_pair": (omega_of_pair, (p,)),
        "slice_reduce": (slice_reduce, (p,)),
        "moment_vector": (moment_vector, (p,)),
        "cone_preimage": (cone_preimage, (moment_vector(off),)),
    }


CASES = {**_disk_cases(), **_liealg_cases(), **_moment_cases()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_array_call_equals_scalar_calls(name):
    fn, args = CASES[name]
    _assert_array_call_matches_scalar_calls(fn(*args), [fn(*a) for a in _each(*args)])


def test_matrices_stack_per_element():
    g, x = _mobius(13), _vectors(14)
    s = to_sp2(x)
    for obj, each in (
        (g, _each(g)),
        (x, _each(x)),
        (s, [(SymplecticGenerator(*v),) for v in zip(s.a.tolist(), s.b.tolist(), s.c.tolist())]),
    ):
        stacked = obj.matrix()
        assert stacked.shape == (N, 2, 2)
        assert np.array_equal(stacked, np.array([e[0].matrix() for e in each]))


def test_random_helpers_follow_numpy_size():
    rng = np.random.default_rng(15)
    assert type(random_point(rng)) is complex
    assert type(random_mobius(rng).alpha) is complex
    assert type(random_vector(rng).a) is float
    z = random_point(rng, 0.9, size=N)
    assert z.shape == (N,) and np.all(np.abs(z) <= 0.9)
    g = random_mobius(rng, 0.8, size=(4, 5))
    assert g.matrix().shape == (4, 5, 2, 2)
    assert np.all(np.abs(g(0.0)) <= 0.8 + 1e-15)
    x = random_vector(rng, 1.5, size=(3, N))
    assert x.a.shape == x.b.shape == x.c.shape == (3, N)


def test_scalar_calls_return_python_scalars():
    assert type(schwarz_distance(0.1, 0.2j)) is float
    assert type(check_disk(0.3)) is complex
    assert type(BidiskPoint(0.3, 0.3).is_diagonal) is bool
    assert type(mu_slice(0.5)) is float
    g = translate(0.5)
    assert type(g.alpha) is complex and type(g(0.1)) is complex
    assert g.matrix().shape == (2, 2)
    x = moment_vector(BidiskPoint(0.3, -0.2j))
    assert all(type(v) is float for v in (x.a, x.b, x.c, x.norm_inf()))
    assert type(slice_reduce(BidiskPoint(0.3, -0.2j)).t) is float


def test_classify_arrays_tag_every_kind_and_nan_off_cone():
    x = LieVector(
        np.array([2.0, -3.0, 0.0, 1.0, 1e-14]),
        np.array([0.0, 1.0, 1.0, 1.0, 0.0]),
        np.array([0.0, 1.0, 0.0, 0.0, 0.0]),
    )
    got = classify(x)
    kinds = [ELLIPTIC_POSITIVE, ELLIPTIC_NEGATIVE, NON_ELLIPTIC, NON_ELLIPTIC, ZERO]
    assert list(got.kind) == kinds
    assert got.omega[0] == 2.0 and got.omega[1] == math.sqrt(7.0)
    assert np.isnan(got.omega[2]) and np.isnan(got.omega[3])
    assert got.omega[4] == 0.0
    assert classify(LieVector(0.0, 1.0, 0.0)).omega is None


def _with_bad_entry(good: np.ndarray, bad) -> np.ndarray:
    out = np.array(good)
    out[N // 2] = bad
    return out


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_disk(_with_bad_entry(_points(16), np.nan)),
        lambda: check_disk(_with_bad_entry(_points(16), 1.0)),
        lambda: check_disk(_with_bad_entry(_points(16), 0.6 + 0.8j)),
        lambda: schwarz_distance(_points(16), _with_bad_entry(_points(17), 2.0)),
        lambda: BidiskPoint(_points(16), _with_bad_entry(_points(17), np.inf)),
        lambda: LieVector(np.zeros(N), _with_bad_entry(np.zeros(N), np.inf), 0.0),
        lambda: LieVector(_with_bad_entry(np.zeros(N), np.nan), 0.0, 0.0),
        lambda: MobiusTransform(_with_bad_entry(np.ones(N, complex), 1.5), np.zeros(N, complex)),
        lambda: MobiusTransform(np.ones(N, complex), np.zeros(N - 1, complex)),
        lambda: MobiusTransform.from_matrix(np.eye(3)),
        lambda: mu_slice(_with_bad_entry(np.full(N, 0.5), 1.0)),
        lambda: mu_slice(_with_bad_entry(np.full(N, 0.5), -0.1)),
        lambda: mu_slice_invert(_with_bad_entry(np.ones(N), -1.0)),
        lambda: hyperbolic_disk_euclidean(_with_bad_entry(np.full(N, 0.5), 1.0), 0.5),
        lambda: hyperbolic_disk_euclidean(0.5, _with_bad_entry(np.full(N, 0.5), 0.0)),
        lambda: cone_preimage(LieVector(_with_bad_entry(np.full(N, 2.0), -2.0), 0.0, 0.0)),
        lambda: cone_preimage(LieVector(np.full(N, 2.0), _with_bad_entry(np.zeros(N), 3.0), 0.0)),
    ],
)
def test_single_bad_entry_rejects_the_whole_array(call):
    with pytest.raises(ValueError):
        call()
