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
    _read_exact,
    read_f32,
    read_tns1,
    read_u32,
    write_f32,
    write_tns1,
    write_u32,
)
from .linalg import cholesky, default_jitter, sample_gaussian
from .rng import Rng

# Rejection sampling gives up after this many draws per requested sample.
MAX_DRAW_FACTOR = 20


@dataclass
class SupportSets:
    """Per-class index lists into a flat [n, d] embedding array."""

    indices: list  # K arrays of int64 indices, disjoint
    counts: np.ndarray  # [K]

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


def build_support_sets(embeddings, labels, probs, tau: float) -> SupportSets:
    """Pixels of class j that the model predicts as j with confidence > tau."""
    emb = np.asarray(embeddings)
    lab = np.asarray(labels).reshape(-1).astype(np.int64)
    p = np.asarray(probs)
    if not (0.0 <= tau < 1.0):
        raise ValueError(f"tau must be in [0,1), got {tau}")
    if emb.shape[0] != lab.shape[0] or p.shape[0] != lab.shape[0]:
        raise DimensionError("embeddings, labels and probs must agree on n")
    K = p.shape[1]
    pred = p.argmax(axis=1)
    conf = p[np.arange(p.shape[0]), pred]
    keep = (pred == lab) & (conf > tau)
    indices = [np.flatnonzero(keep & (lab == j)) for j in range(K)]
    counts = np.array([len(ix) for ix in indices], dtype=np.int64)
    return SupportSets(indices, counts)


def estimate_gmm(embeddings, support: SupportSets, tau_fit: float = 0.0) -> PrototypicalGMM:
    """Closed-form per-class weights, means, covariances from support sets.

    Covariance uses the 1/|S_j| normalization; every class needs at least
    d+1 support points.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    d = emb.shape[1]
    K = support.K
    for j in range(K):
        if support.counts[j] <= d:
            raise EstimationError(
                f"class {j} has only {int(support.counts[j])} support points "
                f"(need > {d}); lower tau",
                class_index=j,
                count=int(support.counts[j]),
            )
    total = float(support.counts.sum())
    # Parameters stay in float64 so the estimates agree with a direct
    # double-precision computation; files round to float32 on save.
    alpha = support.counts / total
    mu = np.zeros((K, d))
    sigma = np.zeros((K, d, d))
    for j in range(K):
        pts = emb[support.indices[j]]
        mean = pts.mean(axis=0)
        centered = pts - mean
        cov = (centered.T @ centered) / pts.shape[0]
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

    Each draw picks a component by alpha, samples the Gaussian, then keeps
    the point iff the classifier's max softmax exceeds tau; the retained
    label is the classifier argmax, not the drawing component. Sampling
    stops after MAX_DRAW_FACTOR * n_target draws.
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    if not (0.0 <= tau < 1.0):
        raise ValueError(f"tau must be in [0,1), got {tau}")
    kept_z, kept_y = [], []
    drawn = 0
    kept = 0
    cap = MAX_DRAW_FACTOR * n_target
    while kept < n_target and drawn < cap:
        chunk = min(n_target, cap - drawn)
        comps = rng.categorical(gmm.alpha, chunk)
        z = np.empty((chunk, gmm.dim), np.float32)
        for j in np.unique(comps):
            sel = comps == j
            z[sel] = sample_gaussian(gmm.mu[j], gmm.chol[j], int(sel.sum()), rng)
        probs = classifier_fn(z)
        pred = probs.argmax(axis=1)
        conf = probs[np.arange(chunk), pred]
        ok = conf > tau
        kept_z.append(z[ok])
        kept_y.append(pred[ok])
        kept += int(ok.sum())
        drawn += chunk
    kept_fraction = kept / drawn if drawn else 0.0
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
    with open(path, "wb") as f:
        f.write(GMM1_MAGIC)
        write_u32(f, gmm.K)
        write_u32(f, gmm.dim)
        write_f32(f, gmm.tau_fit)
        write_tns1(f, gmm.alpha)
        write_tns1(f, gmm.mu)
        write_tns1(f, gmm.sigma)


def load_gmm(path) -> PrototypicalGMM:
    with open(path, "rb") as f:
        if _read_exact(f, 4) != GMM1_MAGIC:
            raise FileFormatError("bad GMM magic")
        K = read_u32(f)
        d = read_u32(f)
        tau_fit = read_f32(f)
        alpha = read_tns1(f)
        mu = read_tns1(f)
        sigma = read_tns1(f)
        if f.read(1):
            raise FileFormatError("trailing bytes after GMM payload")
    if K < 1 or alpha.shape != (K,) or mu.shape != (K, d) or sigma.shape != (K, d, d):
        raise FileFormatError("GMM tensor shapes inconsistent with header")
    if not 0.0 <= tau_fit < 1.0:  # also rejects NaN
        raise FileFormatError(f"GMM tau_fit must be in [0, 1), got {tau_fit}")
    try:
        return PrototypicalGMM(alpha, mu, sigma, tau_fit)
    except (DimensionError, FactorizationError) as exc:
        raise FileFormatError(f"{path}: invalid sigma: {exc}") from exc
