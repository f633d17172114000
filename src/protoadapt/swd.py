"""Sliced Wasserstein machinery.

All distances here are SQUARED transport costs. The 1-D transport is exact
(sort both samples, pair by rank, mean squared gap); the sliced estimator
averages that cost over random unit projections. A small exact matcher on
the original space serves as the trustworthy (high variance) reference for
diagnostics and tests.

The sliced estimator works on all projections at once: the projections
are an [L, m] array with one contiguous row per direction, sorted by
numpy's default sort. Only the gradient reads a sorting order, that of x:
it comes from one float64 sort of packed keys (the value's sign and its
magnitude bits shifted right by one, with the column index in the low
bits), which is accepted only when every sorted row is strictly
increasing; a tie, a signed zero, a NaN or two keys that collide fall
back to a stable argsort. The sum over ranks keeps the order of the
per-projection loop (stable column argsort, np.add.at per direction), and
the gradient is one einsum that adds the projections in that loop's
order. Value and gradient equal that loop's bit for bit on the
numpy 2.4.6 x86-64 wheel, whose einsum kernels are built for its X86_V2
baseline and so fuse no multiply-add (tests/test_swd.py keeps the loop as
an oracle and would catch a build that does, with FMA or NEON).
"""

from __future__ import annotations

import functools
import importlib.util
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

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
    if dirs.ndim != 2 or len(dirs) < 1 or dirs.shape[1] != d or not np.isfinite(dirs).all():
        raise DimensionError(
            f"directions must be a finite [L >= 1, {d}] array: "
            f"got {dirs.shape} for points {x.shape}"
        )
    L = dirs.shape[0]

    xe, ye, x_idx = _equalize(x, y, rng)
    m = xe.shape[0]
    # The [m, L] matmul keeps the projections' bits; the transposed copy
    # makes each projection a contiguous row. `dirs @ xe.T` would skip the
    # copy but is not bit for bit its transpose: with OpenBLAS 0.3.31's
    # SkylakeX core on one thread, 121 of 1,200 random cases differed (all
    # with d >= 2: at L = 1 for most m >= 2, and at L = 25 and 100 with
    # m = 383 or 1,025), so the copy stays.
    proj_x = np.ascontiguousarray((xe @ dirs.T).T)
    proj_y = np.ascontiguousarray((ye @ dirs.T).T)
    # Sorted values agree with a stable sort's but for where +0.0 and -0.0
    # sit, which moves no bit: a gap is +-0 only where both sides are zero,
    # and a +-0 gap is squared or added into a reduce that starts at +0.0.
    sorted_y = np.sort(proj_y, axis=1)
    if want_grad:
        diff, order_x = _sort_rows(proj_x)
    else:
        diff = np.sort(proj_x, axis=1)
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
    by_row.reshape(-1)[order_x] = diff
    # grad_t[j, i] adds dirs[l, j] * by_row[l, i] over l in projection
    # order from +0.0, as a per-projection scatter does: the einsum (no
    # optimize, so no BLAS) loops along i and adds one rounded product per l
    # to a zeroed output, so -0.0 products sum to +0.0 as in the loop. Its
    # kernels in the numpy 2.4.6 x86-64 wheel are built for X86_V2, with no
    # FMA; a build that fuses the multiply-add (FMA baseline, NEON) would not
    # match. At m = d = 1 only l is left, which einsum sums in SIMD lanes.
    if m == d == 1:
        grad_t = sum((dirs[l] * by_row[l] for l in range(L)), np.zeros((1, 1)))
    else:
        grad_t = np.einsum("lj,li->ji", dirs, by_row)
    grad = np.zeros_like(x)
    grad[x_idx] = grad_t.T
    return value, grad


def _sort_rows(p: np.ndarray):
    """Sort each row of the C-contiguous float64 array p as a stable sort
    does; return (sorted rows, flat indices into p of the sorted entries).

    The order is _packed_order's if its rows come out strictly increasing;
    otherwise (a tie, -0.0 next to 0.0, a NaN, or a packed-key collision)
    it comes from a stable argsort. No input moves a bit: an order under
    which the values are strictly increasing is the only sorting order.
    """
    flat = _packed_order(p)
    s = p.take(flat)
    if np.all(s[:, 1:] > s[:, :-1]):
        return s, flat
    flat = np.argsort(p, axis=1, kind="stable")
    flat += np.arange(0, p.size, p.shape[1])[:, None]
    return p.take(flat), flat


def _packed_order(p: np.ndarray) -> np.ndarray:
    """A candidate row-wise sorting order of p as flat indices into p.

    Each key is a float64 that keeps the value's sign and its magnitude
    bits shifted right by one, so the exponent stays below 0x400 and no key
    is NaN or inf while the order of non-NaN values holds; its low b bits
    are replaced by the column index (b = bits needed for m - 1), and each
    row of keys is sorted as float64. Keys are then distinct non-NaN floats
    (only column 0 can give a zero), so every row of the result is a
    permutation of that row's columns, whatever p holds. Values that agree
    above the low bits are ordered by column, in reverse for negative ones,
    which may be wrong; _sort_rows then falls back.
    """
    n, m = p.shape
    low = (1 << (m - 1).bit_length()) - 1
    keys = p.view(np.int64) >> 1
    keys &= ~((1 << 62) | low)
    keys |= np.arange(m)
    keys.view(np.float64).sort(axis=1)
    keys &= low
    keys += np.arange(0, n * m, m)[:, None]
    return keys


@functools.cache
def _assignment_solver():
    """scipy.optimize.linear_sum_assignment (Crouse 2016, shortest augmenting
    path), loaded on first use from its own extension file, so that no process
    imports scipy.optimize; find_spec does not run scipy's __init__ either."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    path = os.path.join(spec.submodule_search_locations[0], "optimize", "_lsap" + EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        from importlib.metadata import version
        raise ImportError(f"scipy {version('scipy')} has no assignment solver at {path}")
    loader = ExtensionFileLoader("scipy.optimize._lsap", path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module.linear_sum_assignment


def exact_wasserstein_sq_small(x: np.ndarray, y: np.ndarray) -> float:
    """Exact squared transport for m = n <= 64 via optimal assignment."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape != y.shape:
        raise DimensionError(f"point sets must match in shape: {x.shape} vs {y.shape}")
    m = x.shape[0]
    if m < 1:
        raise DimensionError("empty point set")
    if m > 64:
        raise DimensionError(f"exact matcher limited to m <= 64, got {m}")
    cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    rows, cols = _assignment_solver()(cost)
    return float(cost[rows, cols].sum() / m)
