"""Sliced Wasserstein machinery.

All distances here are SQUARED transport costs. The 1-D transport is exact
(sort both samples, pair by rank, mean squared gap); the sliced estimator
averages that cost over random unit projections. A small exact matcher on
the original space serves as the trustworthy (high variance) reference for
diagnostics and tests.

The sliced estimator works on all projections at once: the projections
are an [L, m] array with one contiguous row per direction, sorted row-wise
by numpy's default sort, and only a row with equal neighbours is sorted
again stably. The sum over ranks and the gradient's accumulation keep the
order of the per-projection loop (stable column argsort, np.add.at per
direction), so value and gradient equal that loop's bit for bit
(tests/test_swd.py keeps the loop as an oracle).
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
    matched pair contributes 2*(<g,x_p> - <g,y_t>)*g to its x row; the
    contributions reach each row in projection order. When x has more rows
    than y, the rows that equalization drops get an exact zero gradient.
    """
    return _sliced_impl(x, y, cfg, rng, directions, want_grad=True)


def _sliced_impl(x, y, cfg, rng, directions, want_grad):
    """Shared body of the value and gradient: draws the directions, then
    equalizes, from `rng`; projections are [L, m] rows (see _sort_rows)."""
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
    # The [m, L] matmul keeps the projections' bits; the transposed copy
    # makes each projection a contiguous row.
    proj_x = np.ascontiguousarray((xe @ dirs.T).T)
    proj_y = np.ascontiguousarray((ye @ dirs.T).T)
    sorted_y, _ = _sort_rows(proj_y, want_order=False)
    diff, order_x = _sort_rows(proj_x, want_order=want_grad)
    diff -= sorted_y  # [L, m] rank-paired gaps
    # Sequential sum over ranks per projection, as on an [m, L] array: a
    # mean along the contiguous axis would sum pairwise and move the bits.
    sq = diff.T.copy()
    sq *= sq
    value = float(np.mean(np.mean(sq, axis=0)))
    if not want_grad:
        return value, None

    # by_row[l, i] is the scaled gap of x row i under projection l; it
    # reuses proj_x's buffer, which the sort no longer needs.
    diff *= 2.0 / (L * m)
    by_row = proj_x
    np.put_along_axis(by_row, order_x, diff, axis=1)
    # One add per projection, in projection order, from 0.0: the same adds
    # as a per-projection scatter, so the gradient keeps its bits (a matmul
    # or a sum over a stacked axis would reorder them).
    grad_t = np.zeros((d, m))
    for l in range(L):
        grad_t += dirs[l][:, None] * by_row[l][None, :]
    grad = np.zeros_like(x)
    grad[x_idx] = grad_t.T
    return value, grad


def _sort_rows(p: np.ndarray, want_order: bool):
    """Sort each row of p; return (sorted rows, argsort order or None).

    The default sort is fast but may order equal values either way. With
    no equal neighbours the sorting permutation is unique, so it is the
    stable one; when a row has ties (which also catches -0.0 == 0.0),
    sort again stably so that ties keep their input order.
    """
    if want_order:
        order = np.argsort(p, axis=1)
        s = np.take_along_axis(p, order, axis=1)
    else:
        order, s = None, np.sort(p, axis=1)
    if not np.any(s[:, 1:] == s[:, :-1]):
        return s, order
    order = np.argsort(p, axis=1, kind="stable")
    return np.take_along_axis(p, order, axis=1), order


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
