"""Pipeline pieces: metric, source training, estimation, adaptation loop."""

import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from protoadapt import adaptation
from protoadapt import autodiff as ad
from protoadapt.adaptation import (
    DIAG_SUBSAMPLE,
    PSEUDO_CLOUD,
    ExperimentConfig,
    adapt_source_free,
    adaptation_loss,
    compute_bound_diagnostics,
    error_from_confusion,
    estimate_stage,
    evaluate_miou,
    pixel_embeddings,
    pixel_error,
    run_experiment,
    train_source,
    wasserstein_estimates,
)
from protoadapt.datasets import DomainSpec, gen_blobs, gen_grid_seg, standard_shift_spec
from protoadapt.errors import ConfigError, DimensionError, DivergenceError
from protoadapt.gmm import generate_pseudo_dataset
from protoadapt.rng import Rng


def blob_config(**kw):
    base = dict(
        source_steps=300,
        adapt_steps=20,
        lr=3e-3,
        batch_source=16,
        batch_target=16,
        pseudo_batch=64,
        num_projections=25,
        tau_fit=0.5,
        tau_filter=0.5,
        encoder_hidden=(32, 16),
        neighborhood=False,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def blob_splits(seed=0, n=300, shifted_target=True):
    spec = DomainSpec(kind="blobs", K=3, n_images=n, seed=seed)
    xs, ys = gen_blobs(spec, shifted=False)
    tgt_spec = DomainSpec(kind="blobs", K=3, n_images=n, seed=seed + 1)
    xt, _ = gen_blobs(tgt_spec, shifted=shifted_target)
    ev_spec = DomainSpec(kind="blobs", K=3, n_images=120, seed=seed + 2)
    xe, ye = gen_blobs(ev_spec, shifted=shifted_target)
    return xs, ys, xt, xe, ye


@pytest.fixture(scope="module")
def trained_blobs():
    """(config, model, mixture, source images, source labels, target images)."""
    cfg = blob_config()
    xs, ys, xt, _, _ = blob_splits()
    model, _ = train_source(cfg, xs, ys)
    gmm, _ = estimate_stage(model, xs, ys, cfg)
    return cfg, model, gmm, xs, ys, xt


class TestConfigRanges:
    @pytest.mark.parametrize(
        "key,value",
        [
            ("source_steps", -3),
            ("adapt_steps", -1),
            ("batch_source", 0),
            ("batch_target", 0),
            ("pseudo_batch", 0),
            ("num_projections", 0),
            ("tau_fit", 1.0),
            ("tau_fit", 0.99999999),  # 1.0 as float32, GMM1's tau_fit type
            ("tau_filter", -0.1),
            ("tau_filter", float("nan")),
            ("lr", float("nan")),
            ("lr", -1.0),
            ("adapt_lr", float("inf")),
            ("lambda_", float("nan")),
            ("lambda_", -2.0),
            ("encoder_hidden", (0,)),
            ("encoder_hidden", (64, -3)),
        ],
    )
    def test_out_of_range_value_names_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**{key: value})

    def test_boundary_values_accepted(self):
        cfg = ExperimentConfig(
            source_steps=0,
            adapt_steps=0,
            batch_source=1,
            batch_target=1,
            pseudo_batch=1,
            num_projections=1,
            tau_fit=0.0,
            tau_filter=0.0,
            lr=0.0,
            adapt_lr=0.0,
            lambda_=0.0,
            encoder_hidden=(),
        )
        assert cfg.tau_fit == 0.0


class TestMiou:
    def miou_of_maps(self, true, pred, K):
        # reimplementation oracle via per-class confusion counts
        ious = []
        for j in range(K):
            tp = np.sum((true == j) & (pred == j))
            fp = np.sum((true != j) & (pred == j))
            fn = np.sum((true == j) & (pred != j))
            if tp + fp + fn == 0:
                continue
            ious.append(tp / (tp + fp + fn))
        return float(np.mean(ious))

    def train_tiny(self):
        xs, ys, *_ = blob_splits()
        model, _ = train_source(blob_config(), xs, ys)
        return model

    def test_perfect_predictions_give_one(self):
        xs, ys, *_ = blob_splits()
        model, _ = train_source(blob_config(source_steps=600), xs, ys)
        from protoadapt.adaptation import predict_labels

        pred = predict_labels(model, xs)
        if not np.array_equal(pred, ys):
            pytest.skip("blob model did not reach 100% training accuracy")
        _, miou = evaluate_miou(model, xs, ys)
        assert miou == pytest.approx(1.0)

    def test_matches_confusion_matrix_oracle(self):
        model = self.train_tiny()
        xs, ys, *_ = blob_splits(seed=5)
        from protoadapt.adaptation import predict_labels

        pred = predict_labels(model, xs)
        iou, miou = evaluate_miou(model, xs, ys)
        assert miou == pytest.approx(
            self.miou_of_maps(ys.reshape(-1), pred.reshape(-1), model.K), abs=1e-12
        )

    def test_error_from_confusion_matches_mean_of_mismatches(self):
        rng = np.random.default_rng(40)
        for n in (1, 3, 7, 1000, 512000):
            true = rng.integers(0, 5, n)
            pred = np.where(rng.random(n) < rng.random(), true, rng.integers(0, 5, n))
            conf = np.zeros((5, 5), np.int64)
            np.add.at(conf, (true, pred), 1)
            assert error_from_confusion(conf) == float(np.mean(pred != true))

    def test_pixel_error_matches_mean_of_mismatches(self):
        model = self.train_tiny()
        xs, ys, *_ = blob_splits(seed=5)
        from protoadapt.adaptation import predict_labels

        pred = predict_labels(model, xs)
        assert pixel_error(model, xs, ys) == float(np.mean(pred != ys))

    def test_hand_case_half_overlap(self):
        # direct check of the arithmetic on a handmade confusion pattern:
        # class 0: tp=1 fp=2 fn=1 -> IoU 1/4; class 1: tp=0 -> IoU 0
        true = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 0, 0])
        assert self.miou_of_maps(true, pred, 2) == pytest.approx(0.125)
        # and evaluate_miou agrees when a model reproduces that pattern —
        # covered by the confusion-matrix oracle test above.


class TestTrainSource:
    def test_zero_steps_returns_init(self):
        xs, ys, *_ = blob_splits()
        cfg = blob_config(source_steps=0)
        model, losses = train_source(cfg, xs, ys)
        assert losses == []
        ref = ad.init_model(
            xs.shape[-1],
            3,
            encoder_hidden=cfg.encoder_hidden,
            rng=Rng(cfg.seed),
            neighborhood=cfg.neighborhood,
        )
        for a, b in zip(model.parameters(), ref.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_blobs_accuracy(self):
        xs, ys, *_ = blob_splits()
        model, losses = train_source(blob_config(source_steps=600), xs, ys)
        from protoadapt.adaptation import predict_labels

        acc = (predict_labels(model, xs) == ys).mean()
        assert acc >= 0.98
        assert losses[-1] < losses[0]

    def test_determinism(self):
        xs, ys, *_ = blob_splits()
        m1, l1 = train_source(blob_config(), xs, ys)
        m2, l2 = train_source(blob_config(), xs, ys)
        assert l1 == l2
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            train_source(blob_config(), np.zeros((0, 1, 1, 3)), np.zeros((0, 1, 1)))

    def test_class_count_given_or_from_labels(self):
        xs, ys, *_ = blob_splits()
        cfg = blob_config(source_steps=2)
        assert train_source(cfg, xs, ys)[0].K == int(ys.max()) + 1
        assert train_source(cfg, xs, ys, K=7)[0].K == 7
        with pytest.raises(ValueError, match="not below the class count K=2"):
            train_source(cfg, xs, ys, K=2)


class TestPixelEmbeddings:
    @pytest.fixture(scope="class")
    def small(self):
        """A narrow model and 2,048 images of 8x8 pixels: one chunk's
        working set is far smaller than the [131072, 5] result."""
        images = np.random.default_rng(7).random((2048, 8, 8, 3), dtype=np.float32)
        return ad.init_model(3, 5, encoder_hidden=(8,), rng=Rng(7)), images

    def test_bytes_are_the_chunks_concatenated(self, small):
        model, images = small
        images = images[:200]  # a last chunk of 8 images
        emb, _, _ = pixel_embeddings(model, images)
        parts = [
            ad.forward_embed(model, images[i : i + adaptation.EMBED_CHUNK]).reshape(-1, 5)
            for i in range(0, 200, adaptation.EMBED_CHUNK)
        ]
        assert emb.dtype == np.float32 and emb.shape == (200 * 64, 5)
        assert emb.tobytes() == np.concatenate(parts).tobytes()

    def test_chunks_are_written_into_the_result(self, small):
        """Concatenating a list of chunk parts holds the result twice at
        the end; writing each chunk into one array holds it once plus a
        chunk's working set. The result is the embeddings plus one label
        and one confidence per pixel."""
        model, images = small
        tracemalloc.start()
        try:
            result = pixel_embeddings(model, images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in result)
        assert peak < held + 0.5 * result[0].nbytes, (peak, held)

    def test_chunk_frees_feature_rows_after_the_first_layer(self):
        """One 64-image standard chunk through the standard model: the
        feature rows (1.77 MB) are freed once layer 0 has read them, and no
        ReLU mask is built, so the peak is the two hidden outputs (4.19 and
        2.10 MB) plus small change. Holding the rows and a mask through
        every layer peaked at 8.62 MB."""
        spec = replace(standard_shift_spec(0), n_images=adaptation.EMBED_CHUNK)
        images = gen_grid_seg(spec)[0]
        model = ad.init_model(3, 5, rng=Rng(0), neighborhood=True)
        tracemalloc.start()
        try:
            emb = ad.forward_embed(model, images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emb.shape == (64, 16, 16, 5)
        assert peak <= 7.0e6, peak / 1e6

    def test_forward_embed_frees_feature_rows(self):
        """32-channel images make the 3x3 feature rows (4.7 MB) the largest
        array until the 256-wide decoder output (4.2 MB). Freed once layer 0
        has read them, the rows are never held beside the decoder output, so
        the peak (5.8 MB) stays below the rows plus the two hidden outputs
        (6.8 MB). Rows kept alive through the stack peaked at 10.0 MB."""
        model = ad.init_model(
            32, 3, embed_dim=256, encoder_hidden=(64, 64), rng=Rng(0), neighborhood=True
        )
        images = np.random.default_rng(0).random((16, 16, 16, 32), dtype=np.float32)
        pixels = images.size // 32
        tracemalloc.start()
        try:
            emb = ad.forward_embed(model, images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emb.shape == (16, 16, 16, 256)
        rows, hidden = pixels * 9 * 32 * 4, 2 * pixels * 64 * 4
        assert peak < rows + hidden, (peak, rows + hidden)


class TestEstimateStage:
    def test_counts_and_distances(self):
        xs, ys, *_ = blob_splits()
        cfg = blob_config(source_steps=600)
        model, _ = train_source(cfg, xs, ys)
        gmm, info = estimate_stage(model, xs, ys, cfg)
        assert gmm.K == 3
        assert info.n_pixels == xs.shape[0]
        assert len(info.support_counts) == 3
        assert sum(info.support_counts) > 0.8 * xs.shape[0]
        assert info.w_sp_exact >= 0 and info.w_sp_sliced >= 0
        assert 0.0 <= info.e_source <= 0.05

    def test_gmm_means_near_class_means(self):
        xs, ys, *_ = blob_splits()
        cfg = blob_config(source_steps=600)
        model, _ = train_source(cfg, xs, ys)
        gmm, _ = estimate_stage(model, xs, ys, cfg)
        emb, _, _ = pixel_embeddings(model, xs)
        flat = ys.reshape(-1)
        for j in range(3):
            cls_mean = emb[flat == j].mean(axis=0)
            # confident-correct filtering keeps most points; means are close
            assert np.linalg.norm(gmm.mu[j] - cls_mean) < 0.5 * (
                np.linalg.norm(cls_mean) + 1.0
            )

    def test_pseudo_vs_source_distance_within_noise(self):
        # when pseudo draws mimic the source cloud, w_sp is small relative
        # to inter-class scale
        xs, ys, *_ = blob_splits()
        cfg = blob_config(source_steps=600)
        model, _ = train_source(cfg, xs, ys)
        _, info = estimate_stage(model, xs, ys, cfg)
        emb, _, _ = pixel_embeddings(model, xs)
        spread = float(np.var(emb, axis=0).sum())
        assert info.w_sp_exact < 0.25 * spread

    def test_traced_peak_stays_near_the_embeddings(self):
        """On a split of 47 chunks, estimation holds the embeddings, one
        label and one confidence per pixel, and chunk-sized arrays. Its
        traced peak was 5.3x the embedding bytes when the whole split was
        classified into [N, K] arrays on a tape, and is 3.2x now."""
        cfg = ExperimentConfig(
            source_steps=300, lr=3e-3, tau_fit=0.3, tau_filter=0.3, encoder_hidden=(8,),
            num_projections=10,
        )
        xs, ys = gen_grid_seg(DomainSpec(K=3, n_images=60, height=8, width=8, seed=0))
        model, _ = train_source(cfg, xs, ys)
        xs, ys = gen_grid_seg(DomainSpec(K=3, n_images=3000, height=8, width=8, seed=2))
        tracemalloc.start()
        try:
            estimate_stage(model, xs, ys, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        emb_bytes = ys.size * model.embed_dim * 4
        assert peak < 4.0 * emb_bytes, peak / emb_bytes


class TestWassersteinEstimates:
    def test_identical_clouds_near_zero(self):
        a = np.random.default_rng(0).normal(size=(200, 3))
        exact, sliced = wasserstein_estimates(a, a.copy(), Rng(1), 100)
        # subsample pairs differ, so this is small but nonzero; the cloud's
        # own spread (~3) sets the scale
        assert 0 <= exact < 1.5 and 0 <= sliced < 1.5

    def test_translation_sensitivity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(200, 3))
        b = a + 5.0
        exact, sliced = wasserstein_estimates(a, b, Rng(2), 100)
        assert exact > 50 and sliced > 10

    def test_sliced_resampling_consistency(self):
        # two independent draws of the sliced estimate agree within a few SE
        rng = np.random.default_rng(2)
        a = rng.normal(size=(500, 3))
        b = rng.normal(size=(500, 3)) + 1.0
        vals = [wasserstein_estimates(a, b, Rng(10 + i), 100)[1] for i in range(10)]
        se = np.std(vals) / np.sqrt(len(vals))
        assert abs(vals[0] - np.mean(vals)) < 5 * max(se, 1e-6) + 0.05 * np.mean(vals)


class TestAdaptation:
    def setup_run(self, **kw):
        cfg = blob_config(source_steps=600, **kw)
        xs, ys, xt, xe, ye = blob_splits()
        model, _ = train_source(cfg, xs, ys)
        gmm, info = estimate_stage(model, xs, ys, cfg)
        return cfg, model, gmm, xt

    def test_input_model_untouched(self):
        cfg, model, gmm, xt = self.setup_run()
        before = [p.data.copy() for p in model.parameters()]
        adapted, _ = adapt_source_free(model, gmm, xt, cfg)
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, b)
        assert any(
            not np.array_equal(p.data, b)
            for p, b in zip(adapted.parameters(), before)
        )

    def test_report_record_count_and_decomposition(self):
        cfg, model, gmm, xt = self.setup_run(adapt_steps=15)
        _, report = adapt_source_free(model, gmm, xt, cfg)
        assert len(report.steps) == 15
        for step, ce, swd, total in report.steps:
            assert total == pytest.approx(ce + cfg.lambda_ * swd, abs=1e-5)
            assert ce >= 0 and swd >= 0

    def test_lambda_zero_pure_pseudo_ce(self):
        cfg, model, gmm, xt = self.setup_run(lambda_=0.0, adapt_steps=10)
        _, report = adapt_source_free(model, gmm, xt, cfg)
        for _, ce, swd, total in report.steps:
            assert total == pytest.approx(ce, abs=1e-6)

    def test_determinism(self):
        cfg, model, gmm, xt = self.setup_run(adapt_steps=10)
        m1, r1 = adapt_source_free(model, gmm, xt, cfg)
        m2, r2 = adapt_source_free(model, gmm, xt, cfg)
        assert r1.steps == r2.steps
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_mismatched_mixture_rejected(self):
        cfg, model, gmm, xt = self.setup_run(adapt_steps=3)
        wider = ad.init_model(xt.shape[-1], 5, rng=Rng(1), neighborhood=cfg.neighborhood)
        with pytest.raises(DimensionError, match="K=3.*K=5"):
            adapt_source_free(wider, gmm, xt, cfg)
        deeper = ad.init_model(xt.shape[-1], 3, embed_dim=4, rng=Rng(1), neighborhood=cfg.neighborhood)
        with pytest.raises(DimensionError, match="dim=3.*embed_dim=4"):
            adapt_source_free(deeper, gmm, xt, cfg)

    def test_adapt_lr_override_limits_movement(self):
        cfg, model, gmm, xt = self.setup_run(adapt_steps=10)
        cfg2 = blob_config(source_steps=600, adapt_steps=10, adapt_lr=1e-5)
        m1, _ = adapt_source_free(model, gmm, xt, cfg)
        m2, _ = adapt_source_free(model, gmm, xt, cfg2)

        def displacement(adapted):
            return sum(
                float(np.abs(a.data - b.data).sum())
                for a, b in zip(adapted.parameters(), model.parameters())
            )

        # the tiny override moves parameters far less than the default lr
        assert displacement(m2) < 0.05 * displacement(m1)

    @pytest.mark.parametrize("pseudo_batch", [8, 64])
    def test_step_embeds_only_the_subsampled_rows(self, trained_blobs, monkeypatch, pseudo_batch):
        """Each adapt step embeds min(pseudo_batch, rows in its batch) target
        rows: a blobs image is one pixel, so a batch of 16 images is 16 rows."""
        cfg, model, gmm, _, _, xt = trained_blobs
        cfg = replace(cfg, pseudo_batch=pseudo_batch, adapt_steps=4)
        rows = []
        embed_flat = ad.embed_flat

        def spy(model, feats, tape):
            rows.append(feats.shape[0])
            return embed_flat(model, feats, tape)

        monkeypatch.setattr(ad, "embed_flat", spy)
        adapt_source_free(model, gmm, xt, cfg)
        n_rows = cfg.batch_target * xt.shape[1] * xt.shape[2]
        assert rows == [min(pseudo_batch, n_rows)] * cfg.adapt_steps

    @pytest.mark.parametrize("steps", [0, 3])
    def test_empty_target_named(self, trained_blobs, steps):
        cfg, model, gmm, _, _, xt = trained_blobs
        with pytest.raises(ValueError, match="target dataset is empty"):
            adapt_source_free(model, gmm, xt[:0], replace(cfg, adapt_steps=steps))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("stage", ["training", "adaptation"])
def test_huge_step_diverges_at_step_1(trained_blobs, stage):
    """The shared descent loop stops on the first non-finite loss, from
    either caller, and the overflow on the way there raises no numpy
    warning."""
    cfg, model, gmm, xs, ys, xt = trained_blobs
    with pytest.raises(DivergenceError) as exc:
        if stage == "training":
            train_source(replace(cfg, lr=1e30), xs, ys)
        else:
            adapt_source_free(model, gmm, xt, replace(cfg, adapt_lr=1e30))
    assert str(exc.value) == f"{stage} loss non-finite at step 1"
    assert exc.value.step == 1


class TestAdaptationLoss:
    def test_embedding_gradient_matches_finite_differences(self, trained_blobs, monkeypatch):
        """Float64 central differences through the pseudo-label CE, the SWD
        tape op on the embedded row subsample and the float32 + float64 sum.
        The batch handed to `adaptation_loss` is the target embeddings, one
        per row; `feature_rows` is swapped for a gather of the rows it is
        asked for and `embed_flat` for a float64 leaf of them, so the loss is
        a function of target embeddings. A fresh Rng(5) per evaluation
        freezes the pseudo set, the subsample and the directions."""
        _, model, gmm, _, _, xt = trained_blobs
        cfg = blob_config(pseudo_batch=8)
        feats = ad.feature_rows(ad.pad_images(xt[:24], model.neighborhood), model.neighborhood)
        emb0 = ad.embed_flat(model, feats, ad.Tape()).data.astype(np.float64)
        probs_fn = partial(ad.forward_classify, model)
        leaves = []

        def embed_leaf(model, rows, tape):
            leaves.append(tape.leaf(rows))
            return leaves[-1]

        def gather(batch, neighborhood, pixels):
            return batch.reshape(-1, batch.shape[-1])[pixels]

        monkeypatch.setattr(ad, "feature_rows", gather)
        monkeypatch.setattr(ad, "embed_flat", embed_leaf)

        def loss(emb):
            tape = ad.Tape()
            batch = emb[:, None, None, :]  # one pixel per image
            total, _ = adaptation_loss(tape, model, batch, gmm, probs_fn, cfg, Rng(5))
            return tape, total

        tape, total = loss(emb0)
        assert total.data.dtype == np.float64
        ad.backward(tape, total)
        (leaf,) = leaves
        # which row of emb0 each embedded row is
        match = (leaf.data[:, None, :] == emb0[None, :, :]).all(axis=2)
        assert np.all(match.sum(axis=1) == 1)
        sub = match.argmax(axis=1)
        assert len(set(sub.tolist())) == cfg.pseudo_batch
        grad = np.zeros_like(emb0)
        grad[sub] = leaf.grad
        read = np.zeros(emb0.shape[0], dtype=bool)
        read[sub] = True

        h = 1e-6
        fd = np.zeros_like(emb0)
        for i, j in np.ndindex(emb0.shape):
            step = np.zeros_like(emb0)
            step[i, j] = h
            fd[i, j] = (float(loss(emb0 + step)[1].data) - float(loss(emb0 - step)[1].data)) / (2 * h)
        assert np.all(fd[~read] == 0)
        rel = np.abs(fd[read] - grad[read]) / np.abs(grad[read])
        assert rel.size >= 20
        assert rel.max() <= 1e-3

    def test_total_node_matches_scale_and_sum_chain(self, trained_blobs, monkeypatch):
        """CE + lambda * SWD^2 is one tape node over (CE, embedded rows). Its
        value and the gradients it sends equal, bit for bit, those of the
        chain it replaced: an SWD node, a scale by lambda, and a sum whose
        backward hands `g` to both parents."""
        _, model, gmm, _, _, xt = trained_blobs
        cfg = blob_config(lambda_=0.3)
        batch = ad.pad_images(xt, model.neighborhood)
        swd_calls = []
        real_grad = adaptation.sliced_wasserstein_grad

        def spy(*args):
            swd_calls.append(real_grad(*args))
            return swd_calls[-1]

        monkeypatch.setattr(adaptation, "sliced_wasserstein_grad", spy)
        tape = ad.Tape()
        probs_fn = partial(ad.forward_classify, model)
        total, record = adaptation_loss(tape, model, batch, gmm, probs_fn, cfg, Rng(5))
        ad.backward(tape, total)
        ce, emb = total.parents
        ((value, swd_grad),) = swd_calls

        lam = cfg.lambda_
        t = ad.Tape()
        ce_leaf, emb_leaf = t.leaf(ce.data), t.leaf(emb.data)
        swd = t.op(np.asarray(value), (emb_leaf,), lambda g: (g * swd_grad,))
        scaled = t.op(swd.data * lam, (swd,), lambda g: (g * lam,))
        chain = t.op(ce_leaf.data + scaled.data, (ce_leaf, scaled), lambda g: (g, g))
        ad.backward(t, chain)

        pairs = ((total.data, chain.data), (ce.grad, ce_leaf.grad), (emb.grad, emb_leaf.grad))
        for new, old in pairs:
            new, old = np.asarray(new), np.asarray(old)
            assert new.dtype == old.dtype and new.shape == old.shape
            assert new.tobytes() == old.tobytes()
        assert np.asarray(total.data).dtype == np.float64
        assert record[1:3] == (value, float(chain.data))


class TestRunExperiment:
    def test_blobs_shifted_improves(self):
        cfg = blob_config(source_steps=600, adapt_steps=60, adapt_lr=1e-3)
        xs, ys, xt, xe, ye = blob_splits()
        res = run_experiment(cfg, xs, ys, xt, xe, ye)
        assert res.post_miou >= res.pre_miou - 0.02
        d = vars(res.diagnostics)
        for key, value in d.items():
            if key.startswith("w_") and np.isfinite(value):
                assert value >= 0.0, key
        assert np.isfinite(res.diagnostics.w_tp_pre_sliced)
        assert np.isfinite(res.diagnostics.w_tp_post_sliced)
        assert res.report.kept_fraction > 0.0

    def test_source_target_identity_distance_consistency(self):
        # with target == source, pre-adaptation target/pseudo distance should
        # be statistically the same as the stored source/pseudo distance
        cfg = blob_config(source_steps=600, adapt_steps=1)
        xs, ys, *_ = blob_splits()
        model, _ = train_source(cfg, xs, ys)
        gmm, info = estimate_stage(model, xs, ys, cfg)
        emb, _, _ = pixel_embeddings(model, xs)

        n_pseudo = min(PSEUDO_CLOUD, emb.shape[0])  # same draw size as estimate_stage
        vals = []
        for i in range(10):
            pseudo = generate_pseudo_dataset(
                gmm, partial(ad.forward_classify, model), n_pseudo, cfg.tau_filter, Rng(50 + i)
            )
            exact, _ = wasserstein_estimates(emb, pseudo.Z, Rng(80 + i), 100)
            vals.append(exact)
        spread = np.std(vals)
        assert abs(info.w_sp_exact - np.mean(vals)) <= 4 * spread + 0.1 * np.mean(vals)


class TestBoundDiagnostics:
    """The bound terms on small grid-seg splits with more pixels (10,240)
    than the diagnostics subsample, so the gather is real."""

    @pytest.fixture(scope="class")
    def run(self):
        cfg = ExperimentConfig(
            source_steps=300, adapt_steps=5, pseudo_batch=64, lr=3e-3, tau_fit=0.5, tau_filter=0.5
        )
        xs, ys = gen_grid_seg(DomainSpec(K=3, n_images=30, seed=0))
        xt, _ = gen_grid_seg(DomainSpec(K=3, n_images=40, seed=1))
        model, _ = train_source(cfg, xs, ys)
        gmm, info = estimate_stage(model, xs, ys, cfg)
        adapted, _ = adapt_source_free(model, gmm, xt, cfg)
        return cfg, model, adapted, gmm, info, xt

    def test_unadapted_model_gives_equal_pre_and_post(self, run):
        cfg, model, _, gmm, info, xt = run
        diag, _, pre_rows, post_rows = compute_bound_diagnostics(gmm, model, model, xt, cfg, info)
        for term in ("exact", "sliced"):
            pre, post = getattr(diag, f"w_tp_pre_{term}"), getattr(diag, f"w_tp_post_{term}")
            assert np.isfinite(pre) and pre == post, term
        assert pre_rows.tobytes() == post_rows.tobytes()
        assert diag.M == 8192 and len(pre_rows) == PSEUDO_CLOUD

    def test_source_classifier_filters_the_cloud(self, run, monkeypatch):
        cfg, model, adapted, gmm, info, xt = run
        seen = []
        draw = adaptation.generate_pseudo_dataset

        def spy(gmm, classifier_fn, *args):
            seen.append(classifier_fn)
            return draw(gmm, classifier_fn, *args)

        monkeypatch.setattr(adaptation, "generate_pseudo_dataset", spy)
        compute_bound_diagnostics(gmm, model, adapted, xt, cfg, info)
        assert len(seen) == 1
        z = gmm.mu.astype(np.float32) + np.float32(0.5)
        source, moved = ad.forward_classify(model, z), ad.forward_classify(adapted, z)
        assert not np.array_equal(source, moved)
        assert np.array_equal(seen[0](z), source)

    def test_embeds_only_the_drawn_pixels(self, run, monkeypatch):
        cfg, model, adapted, gmm, info, xt = run

        def forbidden(*args):
            raise AssertionError("a full-target embedding pass")

        monkeypatch.setattr(adaptation, "pixel_embeddings", forbidden)
        monkeypatch.setattr(ad, "forward_embed", forbidden)
        diag, _, pre_rows, post_rows = compute_bound_diagnostics(gmm, model, adapted, xt, cfg, info)
        assert np.isfinite(diag.w_tp_post_exact) and pre_rows.shape == post_rows.shape

    def test_w_sp_measures_one_pixel_draw(self, run, monkeypatch):
        cfg, model, *_ = run
        xs, ys = gen_grid_seg(DomainSpec(K=3, n_images=40, seed=1))
        rows = []
        estimates = adaptation.wasserstein_estimates

        def spy(a, b, rng, **kw):
            rows.append(a)
            return estimates(a, b, rng, **kw)

        monkeypatch.setattr(adaptation, "wasserstein_estimates", spy)
        gmm, info = estimate_stage(model, xs, ys, cfg)
        assert [len(a) for a in rows] == [DIAG_SUBSAMPLE] and info.n_pixels == 10240
        # the draw order: the pseudo cloud, the pixels, then the estimates
        rng = Rng(cfg.seed ^ 0xE57)
        pseudo = generate_pseudo_dataset(
            gmm, partial(ad.forward_classify, model), PSEUDO_CLOUD, cfg.tau_filter, rng
        )
        emb = pixel_embeddings(model, xs)[0][rng.subsample(10240, DIAG_SUBSAMPLE)]
        assert np.array_equal(rows[0], emb)
        assert (info.w_sp_exact, info.w_sp_sliced) == estimates(
            emb, pseudo.Z, rng, num_projections=cfg.num_projections
        )

    def test_run_experiment_embeds_three_times(self, monkeypatch):
        calls = []
        embed = adaptation.pixel_embeddings

        def counting(model, images):
            calls.append(len(images))
            return embed(model, images)

        monkeypatch.setattr(adaptation, "pixel_embeddings", counting)
        xs, ys, xt, xe, ye = blob_splits()
        run_experiment(blob_config(adapt_steps=2), xs, ys, xt, xe, ye)
        # the source split for the mixture, then the eval split before and after
        assert calls == [len(xs), len(xe), len(xe)]
