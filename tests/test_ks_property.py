"""Property test: ks_distance, which calls the distribution function only
on the blocks that can hold the maximum gap, equals the statistic of one
cdf call on all sorted points bit for bit, for hand-built weights and for
the weights of a WeightSpec."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bidisk.spectral import (
    _KS_BLOCK,
    _KS_EDGE,
    SampleBatch,
    WeightSpec,
    _cached_distribution,
    cdf_quadrature_batch,
    ks_distance,
    mc_sample,
    rho_of_omega,
)
from reference import ks_whole_array

SIZES = [1, _KS_EDGE - 1, _KS_EDGE, _KS_EDGE + 1, 3 * _KS_EDGE + 1, 3 * _KS_BLOCK + 17]
# the first table is zero below rho = 3 and positive above, so its batches
# hold runs of zero weights among tie runs; the second has a knot inside the
# drawn range and stays positive up to omega = 4 sinh(20)
SPECS = [
    WeightSpec("table", (0.0, 3.0, 5.0), (0.0, 0.0, 1.0)),
    WeightSpec("table", (0.0, 2.0, 40.0), (1.0, 0.5, 0.0)),
    WeightSpec("gauss"),
    WeightSpec("exp"),
    WeightSpec("uniform"),
]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from(SIZES),
    seed=st.integers(0, 2**32 - 1),
    distinct=st.integers(1, 400),
    zero_share=st.sampled_from([0.0, 0.1, 0.9]),
    route=st.sampled_from(["quadrature", "reweighted", "square"]),
)
def test_ks_distance_equals_one_whole_array_call(n, seed, distinct, zero_share, route):
    # n draws from a few distinct omegas make tie runs across block ends
    rng = np.random.default_rng(seed)
    omega = rng.choice(mc_sample(distinct, seed=seed).omega, size=n)
    weight = np.exp(-rho_of_omega(omega))
    weight[rng.random(n) < zero_share] = 0.0
    weight[rng.integers(n)] = 1.0  # at least one positive weight
    batch = SampleBatch(omega, weight)
    cdf = {
        "quadrature": cdf_quadrature_batch,
        "reweighted": _cached_distribution(WeightSpec("exp")).cdf,
        "square": np.square,
    }[route]
    assert ks_distance(batch, cdf) == ks_whole_array(batch, cdf)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from(SIZES),
    seed=st.integers(0, 2**32 - 1),
    distinct=st.integers(1, 400),
    spec=st.sampled_from(SPECS),
    route=st.sampled_from(["quadrature", "reweighted", "square"]),
)
def test_ks_distance_with_a_spec_equals_one_whole_array_call(n, seed, distinct, spec, route):
    # the spec's weights, which ks_distance takes again on the sorted omegas
    # without a sort index, over tie runs across block ends
    rng = np.random.default_rng(seed)
    omega = rng.choice(mc_sample(distinct, seed=seed).omega, size=n)
    assume(spec.weight_of_omega(omega).max() > 0.0)
    batch = SampleBatch(omega, spec=spec)
    cdf = {
        "quadrature": cdf_quadrature_batch,
        "reweighted": _cached_distribution(spec).cdf,
        "square": np.square,
    }[route]
    assert ks_distance(batch, cdf) == ks_whole_array(batch, cdf)
