"""End-to-end driver: source training, prototype estimation handoff,
source-free adaptation, segmentation metrics, and alignment diagnostics.

The adaptation loop never sees source arrays: its inputs are the trained
model, the fitted mixture, and unlabeled target images only.
"""

from __future__ import annotations

import copy
import time
from dataclasses import MISSING, dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, SegModel, adam_step, backward, Tape
from .errors import ConfigError, DimensionError, DivergenceError
from .fileformats import bounded, check_ranges
from .gmm import (
    PrototypicalGMM,
    PseudoDataset,
    build_support_sets,
    estimate_gmm,
    generate_pseudo_dataset,
)
from .linalg import check_allocatable
from .rng import SEED_LIMIT, Rng
from .swd import SlicedConfig, exact_wasserstein_sq_small, sliced_wasserstein_grad, sliced_wasserstein_sq


@dataclass
class ExperimentConfig:
    tau_fit: float = bounded(0.97, 0.0, 1.0)
    tau_filter: float = bounded(0.97, 0.0, 1.0)
    lambda_: float = bounded(0.5, 0.0)
    num_projections: int = bounded(100, 1)
    source_steps: int = bounded(2000, 0)
    adapt_steps: int = bounded(400, 0)
    batch_source: int = bounded(8, 1)
    batch_target: int = bounded(8, 1)
    pseudo_batch: int = bounded(256, 1)
    lr: float = bounded(1e-4, 0.0)
    adapt_lr: float | None = bounded(None, 0.0)  # None -> same as lr
    seed: int = bounded(0, 0, SEED_LIMIT)
    encoder_hidden: tuple[int, ...] = bounded((64, 32), 1, 2**32)  # MDL1 dims are u32
    neighborhood: bool = True

    def __post_init__(self):
        """Reject out-of-range values at construction, before any work."""
        check_ranges(self, "config")
        # GMM1 stores tau_fit as float32, and a mixture whose tau_fit rounds
        # up to 1 there could not be loaded back.
        if np.float32(self.tau_fit) >= 1.0:
            raise ConfigError(f"config tau_fit must stay below 1 as float32, got {self.tau_fit}")


@dataclass
class BoundDiagnostics:
    """Observable terms of the target-error bound.

    Squared transport costs are reported twice: `*_exact` from the small
    exact matcher on subsamples (high variance, trustworthy) and `*_sliced`
    from the projection estimator (low variance, biased low).
    """

    w_sp_exact: float
    w_sp_sliced: float
    w_tp_pre_exact: float
    w_tp_pre_sliced: float
    w_tp_post_exact: float
    w_tp_post_sliced: float
    one_minus_tau: float
    e_source: float
    N: int
    M: int
    N_p: int


@dataclass
class AdaptationReport:
    steps: list  # (step, ce, swd, total)
    kept_fraction: float  # mean over steps; NaN when no step ran
    wall_clock: float


# ---------------------------------------------------------------- training


def _flat_labels(labels: np.ndarray) -> np.ndarray:
    return np.asarray(labels).reshape(-1).astype(np.int64, copy=False)


def train_source(
    config: ExperimentConfig, images: np.ndarray, labels: np.ndarray, K: int | None = None
):
    """Cross-entropy training on the labeled source split.

    The model has K classes, the split's class count; None takes the
    largest label + 1. Returns (model, per-step loss list). Losses must
    stay finite; a NaN aborts with the offending step index.
    """
    rng = Rng(config.seed)
    images = np.asarray(images, dtype=np.float32)
    if images.shape[0] < 1:
        raise ValueError("source dataset is empty")
    top = int(np.max(labels))
    if K is not None and top >= K:
        raise ValueError(f"source label {top} is not below the class count K={K}")
    _check_sizes(config, batch_source=(config.batch_source, *images.shape[1:]))
    model = ad.init_model(
        images.shape[-1],
        top + 1 if K is None else K,
        encoder_hidden=config.encoder_hidden,
        rng=rng,
        neighborhood=config.neighborhood,
    )
    flat_labels = np.asarray(labels).reshape(images.shape[0], -1).astype(np.int64, copy=False)

    def loss_fn(tape, batch, idx):
        emb = ad.embed_flat(model, ad.feature_rows(batch, model.neighborhood), tape)
        logits = ad.classifier_logits(model, emb, tape)
        loss = ad.vsoftmax_cross_entropy(tape, logits, flat_labels[idx].reshape(-1))
        return loss, float(loss.data)

    return model, _descend(
        model, images, config.batch_source, config.source_steps, config.lr, rng, loss_fn, "training"
    )


def _check_sizes(config: ExperimentConfig, **shapes) -> None:
    """Refuse, naming the key, a config size whose first array cannot be
    allocated, before any work: `shapes` maps each key to that shape."""
    for key, shape in shapes.items():
        check_allocatable(f"config {key}={getattr(config, key)}", shape)


def _descend(model, images, batch, steps, lr, rng, loss_fn, what):
    """The Adam loop of training and adaptation; returns each step's record.

    A step draws `batch` image indices and descends on the loss node of
    `loss_fn(tape, batch, idx) -> (loss, record)`, handed those images cut
    from the split padded once (`pad_images`); the loss cuts the feature
    rows it embeds on the fresh tape. `backward` and `adam_step` are module
    lookups, so patches see them.
    """
    state = AdamState(model.parameters())
    padded = ad.pad_images(images, model.neighborhood)
    records = []
    # Diverging parameters overflow before the loss check below can name
    # the step; that check, not a numpy warning, reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            idx = rng.integers(0, images.shape[0], batch)
            tape = Tape()
            loss, record = loss_fn(tape, padded[idx], idx)
            if not np.isfinite(float(loss.data)):
                raise DivergenceError(f"{what} loss non-finite at step {step}", step=step)
            adam_step(state, backward(tape, loss), lr)
            records.append(record)
    return records


# Images per `forward_embed` call in `pixel_embeddings`.
EMBED_CHUNK = 64


def predict_labels(model: SegModel, images: np.ndarray) -> np.ndarray:
    """Argmax class map [B,H,W]."""
    return pixel_embeddings(model, images)[1].reshape(np.shape(images)[:3])


def pixel_embeddings(model: SegModel, images: np.ndarray):
    """The split's one inference pass: (embeddings [n_pixels, d] float32,
    argmax class [n_pixels] in the smallest unsigned type that holds K - 1,
    its probability [n_pixels] float32). Each chunk's rows are written into
    the result and classified at once (`top_class`), so no [n_pixels, K]
    array is made."""
    images = np.asarray(images, dtype=np.float32)
    per_image, d = int(np.prod(images.shape[1:3])), model.embed_dim
    n = images.shape[0] * per_image
    emb, conf = np.empty((n, d), np.float32), np.empty(n, np.float32)
    pred = np.empty(n, np.min_scalar_type(model.K - 1))
    for start in range(0, images.shape[0], EMBED_CHUNK):
        rows = ad.forward_embed(model, images[start : start + EMBED_CHUNK]).reshape(-1, d)
        at = slice(start * per_image, start * per_image + rows.shape[0])
        emb[at] = rows
        pred[at], conf[at] = ad.top_class(ad.forward_classify(model, rows))
    return emb, pred, conf


def confusion_matrix(model: SegModel, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """[K, K] int64 pixel counts, true class by predicted class, from one pass."""
    pred, K = predict_labels(model, images).reshape(-1), model.K
    return np.bincount(K * _flat_labels(labels) + pred, minlength=K * K).reshape(K, K)


def miou_from_confusion(conf: np.ndarray):
    """Per-class IoU (NaN where the class is absent on both sides) + mean."""
    tp = np.diag(conf).astype(np.float64)
    fp = conf.sum(axis=0) - tp
    fn = conf.sum(axis=1) - tp
    denom = tp + fp + fn
    iou = np.where(denom > 0, tp / np.maximum(denom, 1), np.nan)
    return iou, float(np.nanmean(iou))


def error_from_confusion(conf: np.ndarray) -> float:
    """Fraction of mislabeled pixels; `(n - trace) / n` divides the same two
    exact integers as `np.mean(pred != true)`, so the bits agree."""
    n = int(conf.sum())
    return (n - int(np.trace(conf))) / n


def evaluate_miou(model: SegModel, images: np.ndarray, labels: np.ndarray):
    """Per-class IoU (NaN where the class is absent on both sides) + mean."""
    return miou_from_confusion(confusion_matrix(model, images, labels))


def pixel_error(model: SegModel, images: np.ndarray, labels: np.ndarray) -> float:
    return error_from_confusion(confusion_matrix(model, images, labels))


# ---------------------------------------------------------------- estimation


# w_sp (estimate_stage, source pixels) and w_tp (compute_bound_diagnostics,
# target pixels) are measured on one `transport_sample` recipe, so the two
# terms compare at one sample size.
PSEUDO_CLOUD = 4096
DIAG_SUBSAMPLE = 8192
ESTIMATE_SALT = 0xE57  # the estimate stream is Rng(config.seed ^ ESTIMATE_SALT)
DIAG_SALT = 0xD1A6  # the diagnostics stream is Rng(config.seed ^ DIAG_SALT)
ADAPT_SALT = 0xADAB7  # the adaptation stream is Rng(config.seed ^ ADAPT_SALT)


@dataclass
class EstimateInfo:
    """Source-phase facts persisted in the GMM `.meta` sidecar; the only
    numbers about the source domain that survive into the adaptation phase."""

    w_sp_exact: float = bounded(MISSING, 0.0)
    w_sp_sliced: float = bounded(MISSING, 0.0)
    e_source: float = bounded(MISSING, 0.0, 1.0, closed=True)
    n_pixels: int = bounded(MISSING, 1)
    support_counts: tuple[int, ...] = bounded(MISSING, 0)

    def __post_init__(self):
        """Reject values that no `estimate` writes: the counts count source pixels."""
        check_ranges(self, "sidecar")
        if not 1 <= sum(self.support_counts) <= self.n_pixels:
            raise ConfigError(f"sidecar support_counts sum must be in [1, n_pixels], got {self.support_counts}")


def wasserstein_estimates(a: np.ndarray, b: np.ndarray, rng: Rng, num_projections: int):
    """(exact, sliced) squared transport estimates between two point clouds.

    Exact: mean over 10 equal-size subsample pairs (m <= 64) of the optimal
    matching cost. Sliced: projection estimator on subsamples of at most
    2048 rows of each cloud.
    """
    m = min(64, a.shape[0], b.shape[0])
    vals = []
    for _ in range(10):
        ia = rng.subsample(a.shape[0], m)
        ib = rng.subsample(b.shape[0], m)
        vals.append(exact_wasserstein_sq_small(a[ia], b[ib]))
    exact = float(np.mean(vals))
    ka = min(2048, a.shape[0])
    kb = min(2048, b.shape[0])
    cfg = SlicedConfig(num_projections=num_projections)
    sliced = sliced_wasserstein_sq(
        a[rng.subsample(a.shape[0], ka)], b[rng.subsample(b.shape[0], kb)], cfg, rng
    )
    return exact, float(sliced)


def transport_sample(gmm: PrototypicalGMM, model: SegModel, n: int, tau_filter: float, rng: Rng):
    """The sample both transport terms are measured on, for n pixels:
    (pseudo cloud, pixel indices). Draws from `rng` in order the cloud,
    min(PSEUDO_CLOUD, n) points from `gmm` kept where `model`'s classifier
    is confident above `tau_filter`, then min(DIAG_SUBSAMPLE, n) distinct
    indices out of the n pixels."""
    probs_fn = partial(ad.forward_classify, model)
    pseudo = generate_pseudo_dataset(gmm, probs_fn, min(PSEUDO_CLOUD, n), tau_filter, rng)
    return pseudo, rng.subsample(n, min(DIAG_SUBSAMPLE, n))


def estimate_stage(model: SegModel, images: np.ndarray, labels: np.ndarray, config: ExperimentConfig):
    """Fit the prototypical mixture on confident source pixels.

    Returns (gmm, EstimateInfo); the info carries the source-side distance
    diagnostic so adaptation never needs source data again. w_sp is the
    pair of estimates between the embeddings of `transport_sample`'s source
    pixels and its cloud, drawn from Rng(config.seed ^ ESTIMATE_SALT) after
    the mixture is fit; `n_pixels` is N, every source pixel.
    """
    _check_sizes(config, num_projections=(config.num_projections, model.embed_dim))
    rng = Rng(config.seed ^ ESTIMATE_SALT)
    emb, pred, conf = pixel_embeddings(model, images)
    flat = _flat_labels(labels)
    support = build_support_sets(flat, pred, conf, model.K, config.tau_fit)
    e_source = float(np.mean(pred != flat))
    del pred, conf, flat  # only the embeddings are read from here on
    gmm = estimate_gmm(emb, support, tau_fit=config.tau_fit)

    pseudo, pixels = transport_sample(gmm, model, emb.shape[0], config.tau_filter, rng)
    w_exact, w_sliced = wasserstein_estimates(
        emb[pixels], pseudo.Z, rng, num_projections=config.num_projections
    )
    counts = tuple(support.counts.tolist())
    return gmm, EstimateInfo(w_exact, w_sliced, e_source, emb.shape[0], counts)


# ---------------------------------------------------------------- adaptation


def adaptation_loss(tape, model, batch, gmm, probs_fn, config, rng):
    """One adapt step's loss: pseudo-label CE + lambda * squared SWD between
    the embedded pixel subsample of the target image batch `batch` (padded
    by `pad_images`) and the pseudo set. Returns (total node, (ce, swd,
    total, kept_fraction)). Draws from `rng` in order: the pseudo set, the
    pixel subsample, the SWD directions and equalizing subsample."""
    pseudo = generate_pseudo_dataset(gmm, probs_fn, config.pseudo_batch, config.tau_filter, rng)
    logits = ad.classifier_logits(model, tape.leaf(pseudo.Z), tape)
    ce = ad.vsoftmax_cross_entropy(tape, logits, pseudo.Y)

    nb = model.neighborhood
    b, h, w = batch.shape[:3]
    n = b * (h - 2 * nb) * (w - 2 * nb)  # pixels inside the padding
    sub = rng.subsample(n, min(config.pseudo_batch, n))
    # Only the rows the SWD term reads are cut and embedded. On OpenBLAS 0.3.31's
    # SkylakeX core (numpy's AVX-512 or AVX2 loops) a k-row sgemm gives the
    # bits of those rows of the full call; on the Haswell core it does not.
    # The parameter gradients sum k rows in draw order, not all rows with
    # exact-zero padding (<= 2e-12 relative apart), and the float32
    # parameters after Adam kept their bits in every pinned run.
    emb = ad.embed_flat(model, ad.feature_rows(batch, nb, sub), tape)
    swd_cfg = SlicedConfig(num_projections=config.num_projections)
    swd_value, swd_grad = sliced_wasserstein_grad(emb.data, pseudo.Z, swd_cfg, rng)
    # CE + lambda * SWD^2 as one node. The SWD value is a float64 0-d array,
    # not a Python float, so that the float32 CE is promoted to a float64
    # total. The embedding gradient is `(g * lam) * swd_grad`, in that order.
    lam = config.lambda_
    total = tape.op(
        ce.data + np.asarray(swd_value) * lam, (ce, emb), lambda g: (g, g * lam * swd_grad)
    )
    return total, (float(ce.data), float(swd_value), float(total.data), pseudo.kept_fraction)


def check_mixture_matches(model: SegModel, gmm: PrototypicalGMM) -> None:
    """Refuse a mixture whose K or dimension is not the model's."""
    if gmm.K != model.K or gmm.dim != model.embed_dim:
        raise DimensionError(
            f"mixture K={gmm.K}, dim={gmm.dim} does not match "
            f"model K={model.K}, embed_dim={model.embed_dim}"
        )


def adapt_source_free(
    model: SegModel, gmm: PrototypicalGMM, target_images: np.ndarray, config: ExperimentConfig
):
    """Minimize `adaptation_loss` over batches of target images. Updates
    encoder, decoder and classifier.

    Returns (adapted_model, AdaptationReport); the input model is left
    untouched. The bound terms come from `compute_bound_diagnostics`,
    which needs the adapted model.
    """
    check_mixture_matches(model, gmm)
    target_images = np.asarray(target_images, dtype=np.float32)
    if target_images.shape[0] < 1:
        raise ValueError("target dataset is empty")
    d = model.embed_dim  # the width of pseudo points and of SWD directions
    _check_sizes(
        config,
        batch_target=(config.batch_target, *target_images.shape[1:]),
        pseudo_batch=(config.pseudo_batch, d),
        num_projections=(config.num_projections, d),
    )
    rng = Rng(config.seed ^ ADAPT_SALT)
    start_time = time.perf_counter()

    # Pseudo labels come from the classifier as it stood at adaptation
    # start, so label semantics do not drift during the loop.
    frozen_probs_fn = partial(ad.forward_classify, model)
    model = _clone_model(model)

    def loss_fn(tape, batch, idx):
        return adaptation_loss(tape, model, batch, gmm, frozen_probs_fn, config, rng)

    lr = config.lr if config.adapt_lr is None else config.adapt_lr
    records = _descend(
        model, target_images, config.batch_target, config.adapt_steps, lr, rng, loss_fn, "adaptation"
    )
    steps = [(step, *r[:3]) for step, r in enumerate(records)]
    kept = float(np.mean([r[3] for r in records])) if records else float("nan")
    return model, AdaptationReport(steps, kept, time.perf_counter() - start_time)


def _clone_model(model: SegModel) -> SegModel:
    """An independent copy for adaptation to update; benchmark tracing hooks it by name."""
    return copy.deepcopy(model)


# ---------------------------------------------------------------- diagnostics


def compute_bound_diagnostics(
    gmm: PrototypicalGMM,
    source_model: SegModel,
    adapted: SegModel,
    target_images: np.ndarray,
    config: ExperimentConfig,
    estimate_info: EstimateInfo,
) -> tuple[BoundDiagnostics, PseudoDataset, np.ndarray, np.ndarray]:
    """Every bound term but the labelled target errors; returns (diagnostics,
    pseudo set, pre export rows, post export rows). The source-side terms
    come from `estimate_info`; every draw from Rng(config.seed ^ DIAG_SALT).

    w_tp is measured as `estimate_stage` measures w_sp, on the
    `transport_sample` of the target pixels with `source_model`'s
    classifier. The drawn pixels are embedded by `source_model` (pre) and
    by `adapted` (post), and both estimates run from one derived stream:
    pre and post share their subsamples and directions and differ only
    where the embeddings moved. The export rows are the first
    PSEUDO_CLOUD drawn pixels, or all of them.
    """
    rng = Rng(config.seed ^ DIAG_SALT)
    target_images = np.asarray(target_images, dtype=np.float32)
    n = int(np.prod(target_images.shape[:3]))
    pseudo, pixels = transport_sample(gmm, source_model, n, config.tau_filter, rng)
    nb = source_model.neighborhood
    feats = ad.feature_rows(ad.pad_images(target_images, nb), nb, pixels)
    pre, post = (ad.embed_flat(m, feats, None) for m in (source_model, adapted))
    (pre_exact, pre_sliced), (post_exact, post_sliced) = (
        wasserstein_estimates(emb, pseudo.Z, rng.spawn(0), num_projections=config.num_projections)
        for emb in (pre, post)
    )
    diag = BoundDiagnostics(
        w_sp_exact=estimate_info.w_sp_exact,
        w_sp_sliced=estimate_info.w_sp_sliced,
        w_tp_pre_exact=pre_exact,
        w_tp_pre_sliced=pre_sliced,
        w_tp_post_exact=post_exact,
        w_tp_post_sliced=post_sliced,
        one_minus_tau=1.0 - config.tau_filter,
        e_source=estimate_info.e_source,
        N=estimate_info.n_pixels,
        M=pre.shape[0],
        N_p=pseudo.Z.shape[0],
    )
    return diag, pseudo, pre[:PSEUDO_CLOUD], post[:PSEUDO_CLOUD]


# ---------------------------------------------------------------- pipeline


@dataclass
class ExperimentResult:
    model: SegModel
    gmm: PrototypicalGMM
    report: AdaptationReport
    diagnostics: BoundDiagnostics
    pre_miou: float
    post_miou: float
    pre_iou: np.ndarray
    post_iou: np.ndarray
    # Pixel error rates of the source and adapted models on the eval labels.
    e_target_pre: float
    e_target_post: float


def run_experiment(
    config: ExperimentConfig,
    source_images,
    source_labels,
    target_images,
    eval_images,
    eval_labels,
) -> ExperimentResult:
    """Full pipeline on in-memory splits: train, estimate, adapt, evaluate."""
    model, _ = train_source(config, source_images, source_labels)
    gmm, info = estimate_stage(model, source_images, source_labels, config)

    conf_pre = confusion_matrix(model, eval_images, eval_labels)
    pre_iou, pre_miou = miou_from_confusion(conf_pre)

    adapted, report = adapt_source_free(model, gmm, target_images, config)

    conf_post = confusion_matrix(adapted, eval_images, eval_labels)
    post_iou, post_miou = miou_from_confusion(conf_post)

    diag, *_ = compute_bound_diagnostics(gmm, model, adapted, target_images, config, info)
    e_pre, e_post = error_from_confusion(conf_pre), error_from_confusion(conf_post)
    return ExperimentResult(
        adapted, gmm, report, diag, pre_miou, post_miou, pre_iou, post_iou, e_pre, e_post
    )
