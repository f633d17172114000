"""Seedable counter-based random number generation.

Every stochastic routine in the package draws from an `Rng` instance so
that a single 64-bit seed pins the entire experiment. Seeds are integers
in [0, 2**64); every place a seed enters (config, spec, flag) and `Rng`
itself refuse one outside, so no two seeds share a stream. The generator is
backed by Philox (counter-based), which produces the same stream on every
platform. Normal variates are produced by an explicit Box-Muller transform
over the uniform stream rather than the backend's native normal sampler,
so the draw sequence is fully specified by this module.
"""

from __future__ import annotations

import numpy as np


def box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normals from two equal-shape blocks of uniforms in [0, 1).

    Returns the cosine branch followed by the sine branch, concatenated
    along the last axis, so a batch of streams transforms in one call.
    """
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], log never hits 0
    angle = 2.0 * np.pi * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)


SEED_LIMIT = 2**64


def seed_in_range(seed) -> bool:
    """Whether `seed` is a valid seed: an integer in [0, SEED_LIMIT)."""
    return 0 <= seed < SEED_LIMIT


class Rng:
    """Deterministic random stream. Not safe to share across threads."""

    def __init__(self, seed: int):
        if not seed_in_range(int(seed)):
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def spawn(self, index: int) -> "Rng":
        """The child stream seeded `seed ^ (index + 0x9E3779B97F4A7C15)`. It
        does not advance this stream, so it does not depend on its draws."""
        return Rng(self.seed ^ (int(index) + 0x9E3779B97F4A7C15))

    def uniform(self, size=None) -> np.ndarray:
        """Uniform float64 draws in [0, 1)."""
        return self._gen.random(size)

    def normal(self, size) -> np.ndarray:
        """Standard normal draws via Box-Muller on the uniform stream."""
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        half = (n + 1) // 2
        u1 = self._gen.random(half)
        u2 = self._gen.random(half)
        return box_muller(u1, u2)[:n].reshape(shape)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=size)

    def subsample(self, n: int, k: int) -> np.ndarray:
        """k distinct indices out of n, uniform without replacement: the
        first k of a permutation, copied so the other n - k are freed."""
        if k > n:
            raise ValueError(f"cannot subsample {k} from {n}")
        return self._gen.permutation(n)[:k].copy()

    def categorical(self, weights: np.ndarray, size: int) -> np.ndarray:
        """Draw `size` class indices with probabilities `weights`."""
        w = np.asarray(weights, dtype=np.float64)
        cdf = np.cumsum(w / w.sum())
        u = self._gen.random(size)
        return np.searchsorted(cdf, u, side="right").astype(np.int64).clip(0, len(w) - 1)
