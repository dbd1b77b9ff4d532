"""SplitMix64 block draws against the one-at-a-time reference."""

import numpy as np
import pytest

from ergosym.rng import SplitMix64
from oracles import splitmix64_uniforms


def test_reference_matches_published_first_output():
    # the first 64-bit output of SplitMix64 at seed 0 is 0xE220A8397B1DCDAF
    u, state = splitmix64_uniforms(0, 1)
    assert u[0] == (0xE220A8397B1DCDAF >> 11) / float(1 << 53)
    assert state == 0x9E3779B97F4A7C15


@pytest.mark.parametrize("seed", [0, 7, 123456789, 2**64 - 1])
def test_uniforms_bitwise_equal_to_scalar_reference(seed):
    rng = SplitMix64(seed)
    state = seed
    # consecutive calls continue one stream: the state advances by n draws
    for n in (0, 1, 131072, 1, 0):
        want, state = splitmix64_uniforms(state, n)
        got = rng.uniforms(n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        assert rng.state == state
