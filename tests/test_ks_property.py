"""Property test: ks_distance, which calls the distribution function only
on the blocks that can hold the maximum gap, equals the statistic of one
cdf call on all sorted points bit for bit."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([1, _KS_EDGE - 1, _KS_EDGE, _KS_EDGE + 1, 3 * _KS_EDGE + 1, 3 * _KS_BLOCK + 17]),
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
    batch = SampleBatch(omega=omega, weight=weight, seed=seed, stream_sizes=(n,))
    cdf = {
        "quadrature": cdf_quadrature_batch,
        "reweighted": _cached_distribution(WeightSpec("exp")).cdf,
        "square": np.square,
    }[route]
    assert ks_distance(batch, cdf) == ks_whole_array(batch, cdf)
