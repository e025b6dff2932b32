"""Deterministic pseudo-random numbers for instance generation.

xoshiro256** with splitmix64 seed expansion, both on 64-bit words. The
generator identifier below is embedded in generated artifacts so that a
run can be replayed bit for bit by any implementation of the same
generator. Doubles are derived as ``(word >> 11) * 2**-53``, which gives
uniform samples in [0, 1).
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

RNG_ID = "xoshiro256**(splitmix64-seeded)"


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


def splitmix64(state: int):
    """Infinite stream of splitmix64 outputs starting from ``state``."""
    state &= MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


class Xoshiro256StarStar:
    """xoshiro256** generator seeded through splitmix64."""

    def __init__(self, seed: int):
        stream = splitmix64(seed)
        self._s = [next(stream) for _ in range(4)]
        if not any(self._s):
            self._s[0] = 1  # the all-zero state is invalid

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & MASK64, 7) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def symmetric(self) -> float:
        """Uniform double in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0

    def unit_disk(self) -> complex:
        """Uniform point in the closed unit disk (rejection from the square).

        Draw order is fixed (real part first), so the stream is part of
        the reproducibility contract.
        """
        while True:
            re = self.symmetric()
            im = self.symmetric()
            z = complex(re, im)
            if abs(z) <= 1.0:
                return z


def random_zeros(rng: Xoshiro256StarStar, n: int, real: bool = False) -> np.ndarray:
    """n polynomial zeros: uniform on the unit disk, or on [-1, 1] if real."""
    if real:
        return np.array([complex(rng.symmetric(), 0.0) for _ in range(n)])
    return np.array([rng.unit_disk() for _ in range(n)])
