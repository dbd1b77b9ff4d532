"""SplitMix64 block draws against the one-at-a-time reference."""

import tracemalloc

import numpy as np
import pytest

from ergosym.rng import SplitMix64
from oracles import splitmix64_uniforms, splitmix64_uniforms_blocked


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


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 5, 2**14 + 1, 100_003, 2**17])
def test_in_place_mixing_keeps_the_bytes_of_the_block_formula(seed, n):
    rng = SplitMix64(seed)
    want, state = splitmix64_uniforms_blocked(seed, n)
    got = rng.uniforms(n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == want.tobytes()
    assert rng.state == state


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 5, 100_003])
def test_skip_leaves_the_state_of_the_draws(seed, n):
    rng = SplitMix64(seed)
    rng.skip(n)
    assert rng.state == splitmix64_uniforms_blocked(seed, n)[1]
    rng.skip(2**70)  # any count: the state wraps mod 2^64
    assert rng.state == (seed + (n + 2**70) * 0x9E3779B97F4A7C15) % 2**64


def test_uniforms_hold_two_arrays_of_n_words_at_most():
    # a work array, a scratch array and the cast's buffer: the block
    # formula held four arrays
    n = 2**17
    rng = SplitMix64(7)
    tracemalloc.start()
    try:
        rng.uniforms(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * n + 2**17
