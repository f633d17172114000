"""Prototypical class-conditional Gaussian mixture in the embedding space.

Fitting is closed form because labels select the component: confident,
correctly-predicted pixels form per-class support sets, and each component
is the (biased) sample mean/covariance of its support. Pseudo-data is
rejection-sampled from the mixture and kept only where the classifier is
confident about its own prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    EstimationError,
    FactorizationError,
    FileFormatError,
    GenerationError,
)
from .fileformats import (
    GMM1_MAGIC,
    check_finite,
    open_output,
    read_f32,
    read_framed,
    read_tns1,
    read_u32,
    write_f32,
    write_tns1,
    write_u32,
)
from .linalg import apply_rows, cholesky, column_sum, default_jitter, sample_gaussian
from .rng import Rng

# Rejection sampling gives up after this many draws per requested sample.
MAX_DRAW_FACTOR = 20
GATHER_ROWS = 65536  # rows per gather block in `estimate_gmm`


@dataclass
class SupportSets:
    """Per-class index lists into a flat [n, d] embedding array."""

    indices: list  # K arrays of int64 indices, disjoint
    counts: np.ndarray  # [K]
    labeled: np.ndarray  # [K] pixels labeled j, confident or not

    @property
    def K(self) -> int:
        return len(self.indices)


@dataclass
class PrototypicalGMM:
    alpha: np.ndarray  # [K]
    mu: np.ndarray  # [K, d]
    sigma: np.ndarray  # [K, d, d]
    tau_fit: float
    chol: np.ndarray = field(init=False, repr=False)  # [K, d, d] lower factors of sigma

    def __post_init__(self):
        K, d = self.K, self.dim
        if self.alpha.shape != (K,) or self.mu.shape != (K, d) or self.sigma.shape != (K, d, d):
            raise DimensionError(
                f"alpha {self.alpha.shape}, mu {self.mu.shape} and sigma "
                f"{self.sigma.shape} do not describe one K-component mixture"
            )
        self.chol = np.stack([cholesky(s, class_index=j) for j, s in enumerate(self.sigma)])

    @property
    def K(self) -> int:
        return self.alpha.shape[0]

    @property
    def dim(self) -> int:
        return self.mu.shape[1]


@dataclass
class PseudoDataset:
    Z: np.ndarray  # [N_p, d]
    Y: np.ndarray  # [N_p] int64
    kept_fraction: float
    class_counts: np.ndarray  # [K]


def build_support_sets(labels, pred, conf, K: int, tau: float) -> SupportSets:
    """Pixels of class j (of K) whose predicted class `pred` is j with
    confidence `conf` > tau: the argmax and its probability per pixel."""
    lab = np.asarray(labels).reshape(-1).astype(np.int64, copy=False)
    pred, conf = np.asarray(pred).reshape(-1), np.asarray(conf).reshape(-1)
    if not (0.0 <= tau < 1.0):
        raise ValueError(f"tau must be in [0,1), got {tau}")
    if not lab.shape == pred.shape == conf.shape:
        raise DimensionError("labels, predictions and confidences must agree on n")
    keep = (pred == lab) & (conf > tau)
    indices = [np.flatnonzero(keep & (lab == j)) for j in range(K)]
    counts = np.array([len(ix) for ix in indices], dtype=np.int64)
    labeled = np.array([np.count_nonzero(lab == j) for j in range(K)], dtype=np.int64)
    return SupportSets(indices, counts, labeled)


def estimate_gmm(embeddings, support: SupportSets, tau_fit: float = 0.0) -> PrototypicalGMM:
    """Closed-form per-class weights, means, covariances from support sets.

    Covariance uses the 1/|S_j| normalization; every class needs at least
    d+1 support points. A class no pixel is labeled with is named as absent
    from the split, since no tau could give it support.

    Parameters stay in float64 so the estimates agree with a direct
    double-precision computation; files round to float32 on save. Each
    class's rows are gathered (`take`, a row at a time) GATHER_ROWS at a
    time straight into its float64 array (an exact cast), so no copy of
    all n rows is made. The mean is `linalg.column_sum` over n, the bits
    of `pts.mean(axis=0)`: rows added in order, or pairwise for d = 1.
    The rows are centred over flat row tiles (`linalg.apply_rows`), the
    elementwise `pts - mean`. Checked bitwise against that float64
    computation on OpenBLAS's SkylakeX, Haswell and Sandybridge cores
    under numpy's AVX-512 and AVX2 loops (`TestEstimate` in
    tests/test_gmm.py).
    """
    emb = np.asarray(embeddings)
    d = emb.shape[1]
    K = support.K
    absent = [str(j) for j in range(K) if support.labeled[j] == 0]
    if absent:
        which = f"class {absent[0]} is" if len(absent) == 1 else f"classes {', '.join(absent)} are"
        raise EstimationError(f"{which} absent from the split: no pixel has that label")
    for j in range(K):
        if support.counts[j] <= d:
            raise EstimationError(
                f"class {j} has only {int(support.counts[j])} support points "
                f"(need > {d}); lower tau"
            )
    total = float(support.counts.sum())
    alpha = support.counts / total
    mu = np.zeros((K, d))
    sigma = np.zeros((K, d, d))
    for j in range(K):
        ix = support.indices[j]
        pts = np.empty((ix.size, d))
        for start in range(0, ix.size, GATHER_ROWS):
            pts[start : start + GATHER_ROWS] = emb.take(ix[start : start + GATHER_ROWS], axis=0)
        mean = column_sum(pts) / ix.size
        apply_rows(np.subtract, pts, mean)
        cov = (pts.T @ pts) / pts.shape[0]
        jit = default_jitter(cov)
        if jit <= 0.0:  # fully degenerate support (all points identical)
            jit = 1e-6
        cov = cov + jit * np.eye(d)
        mu[j] = mean
        sigma[j] = cov
    return PrototypicalGMM(alpha, mu, sigma, float(tau_fit))


def generate_pseudo_dataset(
    gmm: PrototypicalGMM,
    classifier_fn,
    n_target: int,
    tau: float,
    rng: Rng,
) -> PseudoDataset:
    """Rejection-sample labeled embedding points from the mixture.

    Draws come in chunks. Per chunk, one categorical block picks each row's
    component by alpha, then `sample_gaussian` draws one [chunk, d] normal
    block and maps every row through its own component's mean and factor.
    A point is kept iff the classifier's max softmax exceeds tau; the
    retained label is the classifier argmax, not the drawing component.

    The first chunk is n_target. Each refill is sized to the shortfall at
    the keep rate seen so far: ceil(1.1 * (n_target - kept) / rate) + 8,
    with rate = max(kept / drawn, 1 / MAX_DRAW_FACTOR). Sampling stops once
    n_target points are kept or MAX_DRAW_FACTOR * n_target have been drawn;
    `kept_fraction` is kept / drawn over every chunk.
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    if not (0.0 <= tau < 1.0):
        raise ValueError(f"tau must be in [0,1), got {tau}")
    kept_z, kept_y = [], []
    drawn = 0
    kept = 0
    cap = MAX_DRAW_FACTOR * n_target
    chunk = n_target
    while kept < n_target and drawn < cap:
        chunk = min(chunk, cap - drawn)
        comps = rng.categorical(gmm.alpha, chunk)
        z = sample_gaussian(gmm.mu[comps], gmm.chol[comps], chunk, rng)
        probs = classifier_fn(z)
        pred = probs.argmax(axis=1)
        conf = probs[np.arange(chunk), pred]
        ok = conf > tau
        kept_z.append(z[ok])
        kept_y.append(pred[ok])
        kept += int(ok.sum())
        drawn += chunk
        rate = max(kept / drawn, 1.0 / MAX_DRAW_FACTOR)
        chunk = int(np.ceil(1.1 * (n_target - kept) / rate)) + 8
    kept_fraction = kept / drawn
    if kept < max(1, n_target / 2):
        raise GenerationError(
            f"retained {kept}/{n_target} after {drawn} draws "
            f"(kept_fraction={kept_fraction:.4f}); tau too high or "
            "mixture/classifier mismatch",
            kept_fraction=kept_fraction,
        )
    Z = np.concatenate(kept_z)[:n_target]
    Y = np.concatenate(kept_y)[:n_target].astype(np.int64)
    counts = np.bincount(Y, minlength=gmm.K)
    return PseudoDataset(Z, Y, kept_fraction, counts)


# ---------------------------------------------------------------- GMM1 file

# GMM1 layout: magic | u32 K | u32 d | f32 tau_fit in [0, 1) | alpha, mu,
# sigma as TNS1 blocks. Cholesky factors are recomputed on load.


def save_gmm(path, gmm: PrototypicalGMM) -> None:
    with open_output(path, GMM1_MAGIC) as f:
        write_u32(f, gmm.K)
        write_u32(f, gmm.dim)
        write_f32(f, gmm.tau_fit)
        write_tns1(f, gmm.alpha)
        write_tns1(f, gmm.mu)
        write_tns1(f, gmm.sigma)


def load_gmm(path) -> PrototypicalGMM:
    return read_framed(path, GMM1_MAGIC, _read_gmm)


def _read_gmm(f) -> PrototypicalGMM:
    K, d, tau_fit = read_u32(f), read_u32(f), read_f32(f)
    alpha, mu, sigma = read_tns1(f), read_tns1(f), read_tns1(f)
    if K < 1 or alpha.shape != (K,) or mu.shape != (K, d) or sigma.shape != (K, d, d):
        raise FileFormatError("GMM tensor shapes inconsistent with header")
    if not 0.0 <= tau_fit < 1.0:  # also rejects NaN
        raise FileFormatError(f"GMM tau_fit must be in [0, 1), got {tau_fit}")
    for name, tensor in (("alpha", alpha), ("mu", mu), ("sigma", sigma)):
        check_finite(tensor, f"GMM {name}")
    if (alpha < 0).any() or not alpha.sum() > 0:
        raise FileFormatError(
            f"GMM alpha {alpha.tolist()} is not a set of mixture weights (each >= 0, sum > 0)"
        )
    try:
        return PrototypicalGMM(alpha, mu, sigma, tau_fit)
    except (DimensionError, FactorizationError) as exc:
        raise FileFormatError(f"invalid sigma: {exc}") from exc
