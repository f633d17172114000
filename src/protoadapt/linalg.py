"""Dense float32 tensor helpers: Cholesky, Gaussian and unit-sphere sampling,
and the allocation probe for sizes that specs and configs ask for.

Tensors are plain numpy float32 arrays (row-major). Arithmetic runs in
float64 and rounds back to float32 so storage stays small without the
usual single-precision drift.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError, FactorizationError
from .rng import Rng

# Rows per group when `apply_rows` applies a vector to every row.
TILE_ROWS = 64


def check_allocatable(what: str, shape: tuple) -> None:
    """Raise ConfigError naming `what`, the size as key=value, when numpy
    cannot allocate a float32 array of `shape`; the probe is freed at once.
    A size the allocator grants lazily but the machine cannot fill passes."""
    try:
        np.empty(shape, np.float32)
    except (ValueError, MemoryError):
        raise ConfigError(f"{what}: a float32 array of shape {shape} cannot be allocated") from None


def column_sum(g: np.ndarray) -> np.ndarray:
    """`g.sum(axis=0)` of a 2-D array, bit for bit.

    On a C-contiguous `g` wider than one column both forms add the rows in
    order, and `einsum` does it faster. They differ in the sign of a NaN
    made from inf - inf, so a NaN result is recomputed with `sum`. A single
    column is contiguous, and there numpy sums pairwise while `einsum` does
    not, so it keeps `sum` too. Checked on OpenBLAS's SkylakeX, Haswell and
    Sandybridge cores under numpy's AVX-512 and AVX2 loops, for float32 and
    float64 (`TestShortAxisKernels` in tests/test_autodiff.py).
    """
    if g.shape[1] > 1 and g.flags.c_contiguous:
        out = np.einsum("ij->j", g)
        if not np.isnan(out).any():
            return out
    return g.sum(axis=0)


def apply_rows(op, rows: np.ndarray, v: np.ndarray) -> None:
    """`op(rows, v, out=rows)` for C-contiguous [n, k] `rows`, a [k] `v`
    and a binary ufunc `op`, with the same elementwise results.

    A broadcast `v` runs numpy's inner loop one row long, so the rows are
    taken in flat groups of TILE_ROWS against a tiled copy of `v`, and the
    remainder rows plainly. An empty group or remainder is skipped, so a
    short call builds no tile.
    """
    n, k = rows.shape
    grouped = n // TILE_ROWS * TILE_ROWS
    if grouped:
        head = rows[:grouped].reshape(-1, TILE_ROWS * k)
        op(head, v[None].repeat(TILE_ROWS, axis=0).reshape(-1), out=head)
    if grouped < n:
        tail = rows[grouped:]
        op(tail, v, out=tail)


def default_jitter(sigma: np.ndarray) -> float:
    """Default diagonal jitter: 1e-6 * trace / d."""
    d = sigma.shape[0]
    return float(1e-6 * np.trace(sigma.astype(np.float64)) / d)


def cholesky(sigma: np.ndarray, class_index=None) -> np.ndarray:
    """Lower Cholesky factor of sigma, factored once with no jitter (the fit
    adds its own, in `gmm.estimate_gmm`). A sigma that is not positive
    definite raises FactorizationError; `class_index` only labels it."""
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"cholesky expects a square matrix, got {s.shape}")
    if np.max(np.abs(s - s.T)) > 1e-5:
        raise DimensionError("matrix not symmetric within 1e-5")
    try:
        return np.linalg.cholesky(s).astype(np.float32)
    except np.linalg.LinAlgError:
        label = "" if class_index is None else f" (class {class_index})"
        raise FactorizationError(f"matrix not positive definite{label}") from None


def sample_gaussian(mu: np.ndarray, chol: np.ndarray, n: int, rng: Rng) -> np.ndarray:
    """n draws, row i from N(mu[i], chol[i] chol[i]^T): rows are
    mu[i] + chol[i] eps[i] for one [n, d] normal block eps, with `mu`
    [n, d] and `chol` [n, d, d]. `mu` and `chol` round to float32 and the
    sum runs in float64, one eps column at a time: elementwise products
    and adds only, so no reduction order depends on the SIMD width.
    """
    mu_ = np.asarray(mu, dtype=np.float32)
    chol_ = np.asarray(chol, dtype=np.float32)
    if n < 1:
        raise ValueError(f"sample_gaussian needs n >= 1 draws, got {n}")
    d = mu_.shape[-1] if mu_.ndim else 0
    if mu_.shape != (n, d) or chol_.shape != (n, d, d):
        raise DimensionError(
            f"mu {mu_.shape} and chol {chol_.shape} are not [n, d] and [n, d, d] for n={n}"
        )
    eps = rng.normal((n, d))
    chol64 = chol_.astype(np.float64)
    out = mu_.astype(np.float64)
    for j in range(d):
        out += chol64[..., j] * eps[:, j : j + 1]
    return out.astype(np.float32)


def sample_unit_sphere(dim: int, n: int, rng: Rng) -> np.ndarray:
    """n uniform directions on the unit sphere in R^dim."""
    if dim < 1 or n < 1:
        raise ValueError("dim and n must be >= 1")
    g = rng.normal((n, dim))
    norms = np.linalg.norm(g, axis=1)
    # Zero-norm rows have probability ~0 but are redrawn for safety.
    while np.any(norms == 0.0):
        bad = norms == 0.0
        g[bad] = rng.normal((int(bad.sum()), dim))
        norms = np.linalg.norm(g, axis=1)
    return (g / norms[:, None]).astype(np.float32)
