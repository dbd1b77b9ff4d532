"""Deterministic random generator for reproducible experiment configs.

SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter-based generator with
a fixed, portable algorithm. Outputs depend only on the seed, never on
platform or library version, so runs with the same config are byte-identical.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """64-bit SplitMix generator; `uniforms` yields doubles in [0, 1)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def skip(self, n: int) -> None:
        """Move on by n draws in O(1): the state after n draws is
        state + n gamma mod 2^64."""
        self.state = (self.state + n * _GAMMA) & _MASK

    def uniforms(self, n: int) -> np.ndarray:
        """The next n doubles: top 53 bits of mixed state + k gamma, k = 1..n.

        Mixed in place in one uint64 work array beside one scratch array;
        the last step mixes into the scratch array, so that the doubles go
        into the work array's buffer without a copy (a cast onto the array
        it reads would make one)."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self.state)
        self.skip(n)
        t = np.empty_like(z)
        np.right_shift(z, np.uint64(30), out=t)
        z ^= t
        z *= np.uint64(0xBF58476D1CE4E5B9)
        np.right_shift(z, np.uint64(27), out=t)
        z ^= t
        z *= np.uint64(0x94D049BB133111EB)
        np.right_shift(z, np.uint64(31), out=t)
        t ^= z
        t >>= np.uint64(11)
        return np.multiply(t, 2.0**-53, out=z.view(np.float64))
