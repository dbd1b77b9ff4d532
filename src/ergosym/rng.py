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

    def uniforms(self, n: int) -> np.ndarray:
        """The next n doubles: top 53 bits of mixed state + k gamma, k = 1..n."""
        k = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self.state) + k * np.uint64(_GAMMA)
        self.state = (self.state + n * _GAMMA) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)) * 2.0**-53
