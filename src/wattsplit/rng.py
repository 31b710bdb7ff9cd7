"""Seeded, platform-independent pseudo-random number generation.

The generator is a lane-parallel xoshiro256** whose per-lane states are
seeded from a single splitmix64 stream.  The output sequence is defined as
the lane-interleaved concatenation of the per-lane xoshiro256** outputs
(lane 0 step 0, lane 1 step 0, ..., lane 0 step 1, ...), which makes bulk
generation vectorizable while keeping the sequence a pure function of the
seed.  All arithmetic is unsigned 64-bit modulo 2^64, so the stream is
identical on every platform.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Number of parallel xoshiro lanes; part of the algorithm definition, not tunable.
_LANES = 16384

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MUL2 = np.uint64(0x94D049BB133111EB)

_FIVE = np.uint64(5)
_NINE = np.uint64(9)
_U7 = np.uint64(7)
_U17 = np.uint64(17)
_U45 = np.uint64(45)
_U64W = np.uint64(64)


def _rotl(x: np.ndarray, k: np.uint64) -> np.ndarray:
    return (x << k) | (x >> (_U64W - k))


def _splitmix64(states: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer for the given advanced states."""
    z = states.astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _SM_MUL1
    z = (z ^ (z >> np.uint64(27))) * _SM_MUL2
    return z ^ (z >> np.uint64(31))


class SeededRng:
    """Deterministic RNG: same seed, same sequence, every platform and run.

    Single-owner: instances must not be shared between threads.  Parallel
    users should construct independently seeded instances.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        steps = np.arange(1, 4 * _LANES + 1, dtype=np.uint64) * _SM_GAMMA
        self._state = _splitmix64(np.uint64(self.seed) + steps).reshape(4, _LANES)
        self._buffer = np.empty(0, dtype=np.uint64)
        self._pos = 0

    def _step(self) -> np.ndarray:
        """Advance every lane once; returns _LANES raw 64-bit outputs."""
        s = self._state
        s0, s1, s2, s3 = s
        out = _rotl(s1 * _FIVE, _U7) * _NINE
        t = s1 << _U17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s[3] = _rotl(s3, _U45)
        return out

    def next_u64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit outputs of the stream."""
        if n < 0:
            raise DomainError("draw count must be non-negative")
        out = np.empty(n, dtype=np.uint64)
        filled = 0
        while filled < n:
            if self._pos >= len(self._buffer):
                self._buffer = self._step()
                self._pos = 0
            take = min(n - filled, len(self._buffer) - self._pos)
            out[filled:filled + take] = self._buffer[self._pos:self._pos + take]
            self._pos += take
            filled += take
        return out

    def uniform(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """I.i.d. uniform draws in [lo, hi)."""
        if not lo < hi:
            raise DomainError(f"uniform range is empty: lo={lo!r} >= hi={hi!r}")
        shape = tuple(np.atleast_1d(shape).astype(int)) if not np.isscalar(shape) else (int(shape),)
        n = int(np.prod(shape)) if shape else 1
        bits = self.next_u64(n)
        u = (bits >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        return (lo + (hi - lo) * u).reshape(shape)

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """I.i.d. Gaussian draws via Box-Muller."""
        if std < 0:
            raise DomainError(f"standard deviation must be >= 0, got {std!r}")
        shape = tuple(np.atleast_1d(shape).astype(int)) if not np.isscalar(shape) else (int(shape),)
        n = int(np.prod(shape)) if shape else 1
        half = (n + 1) // 2
        bits1 = self.next_u64(half)
        bits2 = self.next_u64(half)
        # u1 in (0, 1] so log() is finite.
        u1 = ((bits1 >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
        u2 = (bits2 >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return (mean + std * z).reshape(shape)

    def keep_mask(self, shape, drop_rate: float) -> np.ndarray:
        """Float 0/1 mask where each element is 1 with probability 1 - drop_rate.

        Equivalent to `uniform(shape) >= drop_rate` but compares raw 53-bit
        draws against an integer threshold, skipping the float conversion.
        """
        if not 0.0 <= drop_rate < 1.0:
            raise DomainError(f"drop rate must be in [0, 1), got {drop_rate!r}")
        shape = tuple(np.atleast_1d(shape).astype(int)) if not np.isscalar(shape) else (int(shape),)
        n = int(np.prod(shape)) if shape else 1
        threshold = np.uint64(int(drop_rate * 2.0 ** 53))
        bits = self.next_u64(n) >> np.uint64(11)
        return (bits >= threshold).astype(np.float64).reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic random permutation of range(n)."""
        if n < 0:
            raise DomainError("permutation length must be non-negative")
        keys = self.next_u64(n)
        return np.argsort(keys, kind="stable")
