"""Sliced Wasserstein machinery.

All distances here are SQUARED transport costs. The 1-D transport is exact
(sort both samples, pair by rank, mean squared gap); the sliced estimator
averages that cost over random unit projections. A small exact matcher on
the original space serves as the trustworthy (high variance) reference for
diagnostics and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DimensionError
from .linalg import sample_unit_sphere
from .rng import Rng


@dataclass
class SlicedConfig:
    num_projections: int = 100

    def __post_init__(self):
        if self.num_projections < 1:
            raise ValueError("num_projections must be >= 1")


def wasserstein1d_sq(a, b) -> float:
    """(1/m) sum_i (sort(a)[i] - sort(b)[i])^2; exact 1-D squared transport."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 1:
        raise DimensionError("empty input")
    diff = np.sort(a) - np.sort(b)
    return float(np.mean(diff * diff))


def _equalize(x: np.ndarray, y: np.ndarray, rng: Rng):
    """Subsample the larger set to the smaller set's size for rank pairing.

    Returns (x', y', rows of x kept).
    """
    m, n = x.shape[0], y.shape[0]
    if m > n:
        idx = np.sort(rng.subsample(m, n))
        return x[idx], y, idx
    if m < n:
        y = y[np.sort(rng.subsample(n, m))]
    return x, y, np.arange(m)


def sliced_wasserstein_sq(
    x: np.ndarray,
    y: np.ndarray,
    cfg: SlicedConfig,
    rng: Rng | None = None,
    directions: np.ndarray | None = None,
) -> float:
    """Monte-Carlo squared SWD between point sets x[m,d] and y[n,d].

    `directions` overrides the random projections (frozen-projection mode);
    otherwise they are drawn from `rng` (or a fresh Rng(0)). Unequal
    counts are equalized by subsampling the larger set.
    """
    value, _ = _sliced_impl(x, y, cfg, rng, directions, want_grad=False)
    return value


def sliced_wasserstein_grad(
    x: np.ndarray,
    y: np.ndarray,
    cfg: SlicedConfig,
    rng: Rng | None = None,
    directions: np.ndarray | None = None,
):
    """(value, d value / d x); y is the fixed side.

    The sorting permutations are treated as locally constant, so each
    matched pair contributes 2*(<g,x_p> - <g,y_t>)*g to its x row.
    """
    return _sliced_impl(x, y, cfg, rng, directions, want_grad=True)


def _sliced_impl(x, y, cfg, rng, directions, want_grad):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise DimensionError(f"incompatible point sets {x.shape} vs {y.shape}")
    if x.shape[0] < 1 or y.shape[0] < 1:
        raise DimensionError("empty point set")
    d = x.shape[1]
    if rng is None:
        rng = Rng(0)
    if directions is None:
        directions = sample_unit_sphere(d, cfg.num_projections, rng)
    dirs = np.asarray(directions, dtype=np.float64)
    L = dirs.shape[0]

    xe, ye, x_idx = _equalize(x, y, rng)
    m = xe.shape[0]
    proj_x = xe @ dirs.T  # [m, L]
    proj_y = ye @ dirs.T
    order_x = np.argsort(proj_x, axis=0, kind="stable")
    order_y = np.argsort(proj_y, axis=0, kind="stable")
    sorted_x = np.take_along_axis(proj_x, order_x, axis=0)
    sorted_y = np.take_along_axis(proj_y, order_y, axis=0)
    diff = sorted_x - sorted_y
    costs = np.mean(diff * diff, axis=0)  # per projection
    value = float(np.mean(costs))
    if not want_grad:
        return value, None

    grad = np.zeros_like(x)
    scale = 2.0 / (L * m)
    for l in range(L):
        contrib = scale * diff[:, l]
        np.add.at(grad, x_idx[order_x[:, l]], contrib[:, None] * dirs[l][None, :])
    return value, grad.astype(np.float64)


def exact_wasserstein_sq_small(x: np.ndarray, y: np.ndarray) -> float:
    """Exact squared transport for m = n <= 64 via optimal assignment."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape != y.shape:
        raise DimensionError(f"point sets must match in shape: {x.shape} vs {y.shape}")
    m = x.shape[0]
    if m > 64:
        raise DimensionError(f"exact matcher limited to m <= 64, got {m}")
    cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / m)
