"""Tape autodiff: forward ops, gradients vs finite differences, Adam, MDL1."""

import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from protoadapt.autodiff import (
    AdamState,
    Parameter,
    SegModel,
    Tape,
    adam_step,
    backward,
    classifier_logits,
    embed_flat,
    feature_rows,
    forward_classify,
    forward_embed,
    init_model,
    load_model,
    pad_images,
    pixel_features,
    save_model,
    top_class,
    vadd,
    vcross_entropy,
    vdense,
    vmatmul,
    vrelu,
    vsoftmax,
    vsoftmax_cross_entropy,
)
from protoadapt.autodiff import (
    SHORT_ROW,
    _dense_forward,
    _row_max,
    _row_sum,
    _softmax,
    _tapeless_dense,
)
from protoadapt.adaptation import EMBED_CHUNK, ExperimentConfig, pixel_embeddings, train_source
from protoadapt.datasets import DomainSpec, gen_grid_seg
from protoadapt.errors import DimensionError, DivergenceError, FileFormatError, TapeError
from protoadapt.fileformats import MDL1_MAGIC, write_tns1, write_u32
from protoadapt.linalg import TILE_ROWS, column_sum
from protoadapt.rng import Rng
from test_fingerprint import PINNED_STACK, blas_stack, numpy_stack


class TestForwardOps:
    def test_matmul_add_relu(self):
        t = Tape()
        x = t.leaf(np.array([[1.0, -2.0]], np.float32))
        w = t.leaf(np.array([[1.0, 0.0], [0.0, 1.0]], np.float32))
        b = t.leaf(np.array([0.5, 0.5], np.float32))
        out = vrelu(t, vadd(t, vmatmul(t, x, w), b))
        np.testing.assert_allclose(out.data, [[1.5, 0.0]])

    def test_softmax_rows(self):
        t = Tape()
        x = t.leaf(np.array([[0.0, 0.0], [5.0, -5.0]], np.float32))
        p = vsoftmax(t, x).data
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(p > 0) and np.all(p < 1)
        np.testing.assert_allclose(p[0], [0.5, 0.5], atol=1e-6)

    def test_cross_entropy_perfect_prediction(self):
        t = Tape()
        p = t.leaf(np.array([[1.0, 0.0], [0.0, 1.0]], np.float32))
        loss = vcross_entropy(t, p, np.array([0, 1]))
        assert abs(float(loss.data)) <= 1e-6

    def test_cross_entropy_uniform(self):
        K = 4
        t = Tape()
        p = t.leaf(np.full((3, K), 1.0 / K, np.float32))
        loss = vcross_entropy(t, p, np.array([0, 1, 2]))
        assert float(loss.data) == pytest.approx(np.log(K), abs=1e-6)

    def test_cross_entropy_scalar_loop_oracle(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(5), 30)
        lab = rng.integers(0, 5, 30)
        manual = np.mean([-np.log(probs[i, lab[i]]) for i in range(30)])
        t = Tape()
        loss = vcross_entropy(t, t.leaf(probs.astype(np.float32)), lab)
        assert float(loss.data) == pytest.approx(manual, abs=1e-5)


class TestBackward:
    def test_linear_model_analytic_gradient(self):
        # CE on softmax(xw) against labels, compared with the classic
        # softmax-CE analytic gradient x^T (p - onehot) / n.
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 3)).astype(np.float32)
        w = Parameter(rng.normal(size=(3, 4)).astype(np.float32))
        lab = rng.integers(0, 4, 8)
        t = Tape()
        logits = vmatmul(t, t.leaf(x), t.watch(w, np.float64))
        probs = vsoftmax(t, logits)
        loss = vcross_entropy(t, probs, lab)
        grads = backward(t, loss)
        p = probs.data
        onehot = np.eye(4)[lab]
        expected = x.astype(np.float64).T @ (p - onehot) / 8
        np.testing.assert_allclose(grads[w], expected, atol=1e-6)

    def test_full_network_finite_differences(self):
        rng = Rng(2)
        model = init_model(3, 4, embed_dim=5, encoder_hidden=(6,), rng=rng)
        np_rng = np.random.default_rng(3)
        # float64 master copies keep the FD quotient meaningful
        for p in model.parameters():
            p.data = p.data.astype(np.float64)
        images = np_rng.uniform(size=(2, 4, 4, 3)).astype(np.float32)
        labels = np_rng.integers(0, 4, (2, 4, 4))
        feats = pixel_features(images, model.neighborhood)
        flat_labels = labels.reshape(-1)

        n_enc = len(model.encoder_layers)
        n_dec = len(model.decoder_layers)
        all_layers = model.encoder_layers + model.decoder_layers + model.classifier_layers
        # relu follows every encoder layer and all but the last layer of the
        # decoder and classifier stacks
        relu_after = [
            i < n_enc
            or (n_enc <= i < n_enc + n_dec - 1)
            or (n_enc + n_dec <= i < len(all_layers) - 1)
            for i in range(len(all_layers))
        ]

        def loss_and_signs(record_signs):
            t = Tape()
            x = t.leaf(feats, dtype=np.float64)
            signs = []
            for i, (w, b) in enumerate(all_layers):
                x = vadd(t, vmatmul(t, x, t.watch(w, np.float64)), t.watch(b, np.float64))
                if relu_after[i]:
                    if record_signs:
                        signs.append(np.signbit(x.data).copy())
                    x = vrelu(t, x)
            probs = vsoftmax(t, x)
            return t, vcross_entropy(t, probs, flat_labels), signs

        t, loss, base_signs = loss_and_signs(True)
        grads = backward(t, loss)
        h = 1e-3
        checked = 0
        for p in model.parameters():
            flat = p.data.reshape(-1)
            for idx in np.random.default_rng(4).choice(
                flat.size, size=min(4, flat.size), replace=False
            ):
                orig = flat[idx]
                flat[idx] = orig + h
                _, lp, sp = loss_and_signs(True)
                flat[idx] = orig - h
                _, lm, sm = loss_and_signs(True)
                flat[idx] = orig
                # skip coordinates whose perturbation crosses a ReLU kink
                crossed = any(
                    np.any(a != b) or np.any(a != c)
                    for a, b, c in zip(base_signs, sp, sm)
                )
                if crossed:
                    continue
                num = (float(lp.data) - float(lm.data)) / (2 * h)
                got = grads[p].reshape(-1)[idx]
                denom = max(abs(num), abs(got), 1e-4)
                assert abs(got - num) / denom <= 1e-3
                checked += 1
        assert checked >= 20

    def test_tape_reuse_rejected(self):
        t = Tape()
        x = t.leaf(np.ones((2, 2), np.float32))
        w = Parameter(np.ones((2, 2), np.float32))
        out = vcross_entropy(t, vsoftmax(t, vmatmul(t, x, t.watch(w))), np.array([0, 1]))
        backward(t, out)
        with pytest.raises(TapeError):
            backward(t, out)

    def test_parameter_watched_twice_gets_the_sum(self):
        # Two watches of one parameter give what one watch read twice gives.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3))
        w = Parameter(rng.normal(size=(3, 2)))
        lab = np.array([0, 1, 1, 0])

        def loss(t, first, second):
            a = vmatmul(t, t.leaf(x), first)
            b = vmatmul(t, t.leaf(10.0 * x), second)
            return vcross_entropy(t, vsoftmax(t, vadd(t, a, b)), lab)

        t1 = Tape()
        node = t1.watch(w, np.float64)
        once = backward(t1, loss(t1, node, node))[w]
        t2 = Tape()
        twice = backward(t2, loss(t2, t2.watch(w, np.float64), t2.watch(w, np.float64)))[w]
        np.testing.assert_array_equal(twice, once)

    def test_leaf_of_its_own_dtype_is_not_copied(self):
        w, b = Parameter(np.ones((3, 2))), Parameter(np.full(2, -0.5))
        feats = np.random.default_rng(6).normal(size=(5, 3)).astype(np.float32)
        kept = [feats.copy(), w.data.copy(), b.data.copy()]
        t = Tape()
        leaves = [t.leaf(feats, dtype=np.float32), t.watch(w, np.float32), t.watch(b, np.float32)]
        for leaf, arr in zip(leaves, (feats, w.data, b.data)):
            assert np.shares_memory(leaf.data, arr)
        assert t.leaf(feats, dtype=np.float64).data.dtype == np.float64
        # no forward or backward step writes into the shared arrays
        out = vsoftmax(t, vdense(t, *leaves, relu=True))
        backward(t, vcross_entropy(t, out, np.zeros(5, int)))
        for arr, before in zip((feats, w.data, b.data), kept):
            np.testing.assert_array_equal(arr, before)

    def test_unreached_parameter_gets_zeros(self):
        t = Tape()
        x = t.leaf(np.ones((2, 2), np.float32))
        w = Parameter(np.ones((2, 2), np.float32))
        unused = Parameter(np.ones(3, np.float32))
        t.watch(unused)
        out = vcross_entropy(t, vsoftmax(t, vmatmul(t, x, t.watch(w))), np.array([0, 1]))
        grads = backward(t, out)
        np.testing.assert_array_equal(grads[unused], np.zeros(3))

    def test_zero_loss_grad_zeroes_everything(self):
        t = Tape()
        x = t.leaf(np.ones((2, 2), np.float32))
        w = Parameter(np.full((2, 2), 0.3, np.float32))
        out = vcross_entropy(t, vsoftmax(t, vmatmul(t, x, t.watch(w))), np.array([0, 1]))
        grads = backward(t, t.op(out.data * 0.0, (out,), lambda g: (g * 0.0,)))
        np.testing.assert_array_equal(grads[w], np.zeros((2, 2)))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = Parameter(np.array([1.0, 2.0], np.float32))
        adam_step(AdamState([p]), {p: np.zeros(2)}, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_zero_lr_keeps_params(self):
        p = Parameter(np.array([1.0, 2.0], np.float32))
        adam_step(AdamState([p]), {p: np.ones(2)}, lr=0.0)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_first_step_magnitude_is_lr(self):
        # with bias correction, the first Adam step is ~lr * sign(g)
        p = Parameter(np.zeros(3, np.float32))
        adam_step(AdamState([p]), {p: np.array([1.0, -2.0, 0.5])}, lr=0.01)
        np.testing.assert_allclose(p.data, [-0.01, 0.01, -0.01], atol=1e-6)

    def test_nonfinite_gradient_rejected(self):
        p = Parameter(np.zeros(2, np.float32))
        with pytest.raises(DivergenceError):
            adam_step(AdamState([p]), {p: np.array([np.nan, 0.0])}, lr=0.01)
        np.testing.assert_array_equal(p.data, [0.0, 0.0])

    def test_missing_gradient_treated_as_zero(self):
        p = Parameter(np.array([5.0], np.float32))
        adam_step(AdamState([p]), {}, lr=0.1)
        np.testing.assert_array_equal(p.data, [5.0])


# ---------------------------------------------------------------- oracles
# Reference forms of the train hot path: the matmul/add/relu chain per dense
# layer, features cut per batch, and Adam one parameter at a time. `vdense`,
# the split padded once and the flat Adam update must match them bit for bit.


class _ReferenceAdam:
    def __init__(self):
        self.t = 0
        self.m = {}
        self.v = {}


def _reference_adam_step(params, grads, state, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam one parameter at a time, moments keyed by parameter."""
    for p in params:
        g = grads.get(p)
        if g is not None and not np.all(np.isfinite(g)):
            raise DivergenceError("non-finite gradient; update rejected")
    state.t += 1
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    for p in params:
        g = grads.get(p)
        if g is None:
            g = np.zeros_like(p.data, dtype=np.float64)
        g = g.astype(np.float64)
        m = state.m.get(p)
        if m is None:
            m = np.zeros_like(p.data, dtype=np.float64)
            state.m[p] = m
            state.v[p] = np.zeros_like(p.data, dtype=np.float64)
        v = state.v[p]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        step = lr * (m / bias1) / (np.sqrt(v / bias2) + eps)
        p.data = (p.data.astype(np.float64) - step).astype(np.float32)


def _scatter_rows(rows, shape, g):
    """Backward of the row gather `x[rows]`: zeros of the full shape, `g`
    written at `rows`."""
    out = np.zeros(shape, dtype=g.dtype)
    out[rows] = g
    return (out,)


def _chain_dense(t, x, w, b, relu):
    x = vadd(t, vmatmul(t, x, w), b)
    return vrelu(t, x) if relu else x


def _reference_train(config, images, labels):
    """train_source with per-batch pixel_features, the matmul/add/relu
    chain per dense layer and per-parameter Adam."""
    rng = Rng(config.seed)
    images = np.asarray(images, dtype=np.float32)
    n = images.shape[0]
    model = init_model(
        images.shape[-1],
        int(np.max(labels)) + 1,
        encoder_hidden=config.encoder_hidden,
        rng=rng,
        neighborhood=config.neighborhood,
    )
    params = model.parameters()
    state = _ReferenceAdam()
    losses = []
    flat_labels = np.asarray(labels).reshape(n, -1)
    sections = (
        (model.encoder_layers, True),
        (model.decoder_layers, False),
        (model.classifier_layers, False),
    )
    for _ in range(config.source_steps):
        idx = rng.integers(0, n, config.batch_source)
        feats = pixel_features(images[idx], model.neighborhood)
        t = Tape()
        x = t.leaf(feats, dtype=np.float32)
        for layers, relu_last in sections:
            for i, (w, b) in enumerate(layers):
                relu = relu_last or i < len(layers) - 1
                x = _chain_dense(t, x, t.watch(w, np.float32), t.watch(b, np.float32), relu)
        loss = vcross_entropy(t, vsoftmax(t, x), flat_labels[idx].reshape(-1))
        losses.append(float(loss.data))
        _reference_adam_step(params, backward(t, loss), state, config.lr)
    return model, losses


class TestBitwiseOracle:
    @staticmethod
    def _two_layers(dense, dtype, relu, gather=False):
        """Two dense layers + softmax-CE, backward run.

        Returns (input leaf, first-layer input, output node, parameter
        gradients); with `gather` the first layer reads a row gather of the
        leaf, so its input has a parent and gets a gradient.
        """
        rng = np.random.default_rng(20)
        x = rng.normal(size=(40, 6)).astype(dtype)
        x[:5] = 0.0  # rows whose pre-activations are exactly the bias
        params = [
            Parameter(rng.normal(size=(6, 7))),
            Parameter(np.zeros(7)),
            Parameter(rng.normal(size=(7, 4))),
            Parameter(rng.normal(size=4)),
        ]
        t = Tape()
        leaf = t.leaf(x)
        inp = leaf
        if gather:
            sub = np.arange(0, 40, 2)
            inp = t.op(x[sub], (leaf,), partial(_scatter_rows, sub, x.shape))
        w0, b0, w1, b1 = (t.watch(p, dtype) for p in params)
        hidden = dense(t, inp, w0, b0, True)
        out = dense(t, hidden, w1, b1, relu)
        loss = vcross_entropy(t, vsoftmax(t, out), np.arange(out.data.shape[0]) % 4)
        grads = backward(t, loss)
        return leaf, inp, out, [grads[p] for p in params]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("relu", [True, False])
    def test_vdense_matches_op_chain(self, dtype, relu):
        _, _, out, grads = self._two_layers(vdense, dtype, relu)
        _, _, ref_out, ref_grads = self._two_layers(_chain_dense, dtype, relu)
        assert out.data.dtype == ref_out.data.dtype == dtype
        assert np.array_equal(out.data, ref_out.data)
        assert np.array_equal(np.signbit(out.data), np.signbit(ref_out.data))
        for g, ref in zip(grads, ref_grads):
            assert g.dtype == ref.dtype
            assert np.array_equal(g, ref)

    def test_relu_keeps_negative_zero(self):
        t = Tape()
        x = t.leaf(np.array([[0.0], [-1.0]], np.float32))
        w = t.watch(Parameter(np.array([[1.0]])))
        b = t.watch(Parameter(np.array([-0.0])))
        out = vdense(t, x, w, b, relu=True).data
        assert np.signbit(out[1, 0])
        assert np.array_equal(np.signbit(out), np.signbit(vrelu(t, vadd(t, vmatmul(t, x, w), b)).data))

    def test_input_gradient_only_where_read(self):
        leaf, _, _, _ = self._two_layers(vdense, np.float32, True)
        assert leaf.grad is None
        leaf, inp, _, _ = self._two_layers(vdense, np.float32, True, gather=True)
        ref_leaf, ref_inp, _, _ = self._two_layers(_chain_dense, np.float32, True, gather=True)
        assert inp.grad is not None and leaf.grad is not None
        assert np.array_equal(inp.grad, ref_inp.grad)
        assert np.array_equal(leaf.grad, ref_leaf.grad)

    # Adaptation embeds only its subsampled target rows. On the pinned
    # OpenBLAS core (SkylakeX) a k-row sgemm gives the bits of those rows of
    # the full call, under numpy's AVX-512 or AVX2 loops alike, and the
    # forced Sandybridge core kept them too. The forced Haswell core does
    # not (0 of 20 random batches), so this runs on the pinned core only.
    @pytest.mark.skipif(
        blas_stack() != {k: PINNED_STACK[k] for k in ("openblas", "openblas_core")},
        reason="row bits of a partial sgemm are pinned on one OpenBLAS core",
    )
    @pytest.mark.parametrize("k", [384, 1024])
    def test_subsample_embedding_is_rows_of_full_embedding(self, k):
        images, _ = gen_grid_seg(DomainSpec(K=5, n_images=8, seed=k))
        model = init_model(3, 5, rng=Rng(k), neighborhood=True)
        feats = pixel_features(images, model.neighborhood)
        sub = Rng(k + 1).subsample(feats.shape[0], k)
        full = embed_flat(model, feats, Tape()).data
        assert feats.shape[0] == 2048
        assert _same_bits(embed_flat(model, feats[sub], Tape()).data, full[sub])

    # On OpenBLAS's Haswell core an sgemm with an inner dimension of 8 or
    # more gives row bits that depend on the call's row count, so there a
    # K = 9 classifier (embed_dim 9) run per chunk moves the last bits of
    # the confidences. The SkylakeX and Sandybridge cores keep them.
    @pytest.mark.parametrize(
        "k",
        [2, 5, pytest.param(9, marks=pytest.mark.skipif(
            blas_stack()["openblas_core"].lower() == "haswell",
            reason="row bits of a K >= 8 sgemm depend on its row count on the Haswell core",
        ))],
    )
    def test_chunk_pass_matches_whole_split_classify(self, k):
        """`pixel_embeddings` classifies each chunk's rows as it embeds
        them, with no tape. The reference embeds every chunk on a tape,
        then classifies the whole split's [N, d] rows at once on a tape,
        and takes each row's argmax and its probability. K = 9 rows reach
        numpy's own row sum (`SHORT_ROW`)."""
        images = np.random.default_rng(40 + k).random((150, 16, 16, 3), dtype=np.float32)
        model = init_model(3, k, rng=Rng(k), neighborhood=True)
        emb, pred, conf = pixel_embeddings(model, images)
        chunks = [images[i : i + EMBED_CHUNK] for i in range(0, len(images), EMBED_CHUNK)]
        assert [len(c) for c in chunks] == [64, 64, 22]
        feats = (pixel_features(c, True) for c in chunks)
        whole = np.concatenate([embed_flat(model, f, Tape()).data for f in feats])
        t = Tape()
        probs = vsoftmax(t, classifier_logits(model, t.leaf(whole), t)).data
        labels = probs.argmax(axis=1)
        assert _same_bits(emb, whole)
        assert pred.dtype == np.uint8 and np.array_equal(pred, labels)
        assert _same_bits(conf, probs[np.arange(len(labels)), labels])

    @staticmethod
    def _adversarial_models(k):
        """The standard model (27 -> 64 -> 32 -> k, classifier k -> k -> k)
        with 8 dead layer-0 units, layer-0 biases that are all negative (a
        row of zero features has every pre-activation negative), and exact
        0.0 and -0.0 weights and biases; and the same layers with no
        decoder, whose embedding is a ReLU output."""
        rng = np.random.default_rng(50 + k)
        model = init_model(3, k, rng=Rng(k), neighborhood=True)
        (w0, b0), (w1, b1) = model.encoder_layers
        (w2, b2), = model.decoder_layers
        (w3, b3), (w4, b4) = model.classifier_layers
        b0.data = -np.abs(rng.normal(size=64)).astype(np.float32) * 0.1
        b0.data[:8] = -1e3
        w1.data[::3] = -0.0
        w1.data[1::5] = 0.0
        w2.data[:, 0] = -0.0
        for b in (b1, b2, b3, b4):
            b.data = rng.normal(size=b.data.shape).astype(np.float32)
            b.data[::2] = -0.0
            b.data[1::4] = 0.0
        w3.data[0] = 0.0
        w4.data[-1] = -0.0
        no_decoder = SegModel(
            model.encoder_layers + model.decoder_layers, [], model.classifier_layers, True
        )
        return model, no_decoder

    @staticmethod
    def _adversarial_images(n, seed):
        """One [1, 1, n, 3] image: normal pixels with runs of 0.0 and of
        -0.0 wide enough to give all-zero 3x3 feature rows."""
        rng = np.random.default_rng(seed)
        images = rng.normal(size=(1, 1, n, 3)).astype(np.float32)
        for start in range(0, n, 40):
            images[0, 0, start : start + 5] = 0.0 if start % 80 else -0.0
        return images

    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_tapeless_clamp_keeps_observable_bits(self, k):
        """Tapeless inference clamps a hidden ReLU in place (+0.0 where the
        taped mask product gives -0.0) and adds every bias over rows
        grouped against a tiled copy. Its embeddings, logits,
        probabilities, labels and confidences equal the taped forms bit for
        bit; a ReLU'd embedding keeps -0.0."""
        for model in self._adversarial_models(k):
            for n in (1, 7, 384, 1024, 2048, 4096, 16384):
                images = self._adversarial_images(n, seed=n + k)
                feats = pixel_features(images, True)
                t = Tape()
                emb_node = embed_flat(model, feats, t)
                emb = emb_node.data
                logits = classifier_logits(model, emb_node, t)
                probs = vsoftmax(t, logits).data
                assert _same_bits(embed_flat(model, feats, None), emb), n
                assert _same_bits(forward_embed(model, images).reshape(n, k), emb), n
                assert _same_bits(classifier_logits(model, emb, None), logits.data), n
                assert _same_bits(forward_classify(model, emb), probs), n
                got_emb, pred, conf = pixel_embeddings(model, images)
                labels = probs.argmax(axis=1)
                assert _same_bits(got_emb, emb) and np.array_equal(pred, labels), n
                assert _same_bits(conf, probs[np.arange(n), labels]), n
            # the zero signs did differ where the clamp ran
            w, b = model.encoder_layers[0]
            t = Tape()
            taped = vdense(t, t.leaf(feats), t.leaf(w.data), t.leaf(b.data), relu=True)
            clamped = _tapeless_dense(feats, w, b, relu=True, hidden=True)
            negative_zero = np.signbit(taped.data) & (taped.data == 0)
            assert negative_zero.any() and not np.signbit(clamped).any()
            assert np.array_equal(clamped, taped.data)
        # the ReLU'd embedding of the decoder-less model holds -0.0
        assert (np.signbit(emb) & (emb == 0)).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tiled_bias_matches_plain_add(self, dtype):
        """`_dense_forward`, which adds every bias over tiled row groups,
        against `x @ w + b` at every width below SHORT_ROW and at widths up
        to 200, at row counts that leave a remainder after the groups of
        TILE_ROWS, with zero rows and biases holding ±0.0, ±inf, NaN
        and subnormals."""
        rng = np.random.default_rng(51)
        for k in (*range(1, SHORT_ROW), SHORT_ROW, 13, 16, 32, 64, 127, 128, 200):
            for n in (1, 7, TILE_ROWS - 1, TILE_ROWS + 1, 1000, 4097, 16385):
                x = rng.normal(size=(n, 6)).astype(dtype)
                x[::9] = 0.0
                w = rng.normal(size=(6, k)).astype(dtype)
                b = _hard_rows(1, k, dtype, seed=k * n)[0]
                with np.errstate(invalid="ignore"):
                    assert _same_bits(_dense_forward(x, w, b), x @ w + b), (k, n)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", range(1, 17))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_class_picks_match_argmax(self, dtype, k):
        """`top_class` against `argmax(axis=1)` and its gather (labels by
        value, confidences by bits) on rows in [0, 1) with the maximum tied
        at two or more positions, all-NaN rows of either sign, rows of ±0.0
        only, and `_softmax` of `_hard_rows` logits, whose rows are all NaN
        where a logit is inf or NaN."""
        rng = np.random.default_rng(60 + k)
        for n in (1, 7, 384, 16385):
            rows = rng.random((n, k)).astype(dtype)
            if k > 1:
                ties = rng.integers(2, k + 1, n)[:, None]
                at = rng.permuted(np.tile(np.arange(k), (n, 1)), axis=1) < ties
                tied = (rng.random(n) < 0.5)[:, None] & at
                rows = np.where(tied, rows.max(axis=1, keepdims=True) + 1, rows).astype(dtype)
            rows[1::5] = rng.choice(np.array([np.nan, -np.nan], dtype), (len(rows[1::5]), k))
            rows[2::5] = rng.choice(np.array([0.0, -0.0], dtype), (len(rows[2::5]), k))
            hard = _softmax(_hard_rows(n, k, dtype, seed=61 * k + n))
            for probs in (rows, hard):
                label, conf = top_class(probs)
                want = probs.argmax(axis=1)
                assert label.dtype == np.min_scalar_type(k - 1)
                assert np.array_equal(label, want), (n, probs is hard)
                assert _same_bits(conf, probs[np.arange(n), want]), (n, probs is hard)

    def test_clamp_of_negative_infinity_is_zero(self):
        """The one pre-activation where clamp and mask product differ by
        more than a zero's sign: -inf, from a float32 overflow inside a
        layer, is 0 under the clamp and NaN under the mask product."""
        x = np.array([[3e38, 1.0]], np.float32)
        w, b = Parameter(np.array([[-3e38], [0.0]])), Parameter(np.array([1.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            pre = _dense_forward(x, w.data, b.data)
            t = Tape()
            masked = vdense(t, t.leaf(x), t.leaf(w.data), t.leaf(b.data), relu=True).data
            clamped = _tapeless_dense(x, w, b, relu=True, hidden=True)
        assert pre[0, 0] == -np.inf
        assert np.isnan(masked[0, 0]) and clamped[0, 0] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", range(1, 17))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_softmax_cross_entropy_matches_composed_pair(self, dtype, k):
        """The fused node's loss and logits gradient against `vsoftmax` then
        `vcross_entropy`, for float32 and float64 upstream gradients, a zero
        one and non-finite ones, on finite logits with labels whose
        probability is below the clamp and on `_hard_rows` logits (±0, ±inf,
        NaN, subnormals; a row with an inf or NaN is all NaN after the
        softmax)."""
        rng = np.random.default_rng(35 + k)
        finite = (rng.normal(size=(2048, k)) * 30).astype(dtype)
        hard = _hard_rows(2048, k, dtype, seed=36 + k)
        for logits in (finite, hard):
            labels = rng.integers(0, k, logits.shape[0])
            if k > 1:
                logits[np.arange(40), labels[:40]] = -1e4  # below the clamp
            upstream = (1.0, 0.37, 0.0, -0.0, np.inf, -np.inf, np.nan)
            for g in (dt(v) for v in upstream for dt in (np.float32, np.float64)):
                t = Tape()
                fused = vsoftmax_cross_entropy(t, t.leaf(logits), labels)
                ref_t = Tape()
                probs = vsoftmax(ref_t, ref_t.leaf(logits))
                ref = vcross_entropy(ref_t, probs, labels)
                if k > 1 and logits is finite:
                    assert (probs.data[np.arange(40), labels[:40]] < 1e-12).all()
                assert _same_bits(np.asarray(fused.data), np.asarray(ref.data))
                g = np.asarray(g)
                (got,) = fused.backward_fn(g)
                (want,) = probs.backward_fn(ref.backward_fn(g)[0])
                assert _same_bits(got, want), (logits is finite, g.dtype, float(g))

    def test_train_source_matches_reference_loop(self):
        images, labels = gen_grid_seg(DomainSpec(K=5, n_images=40, seed=3))
        config = ExperimentConfig(source_steps=200, lr=3e-3, seed=4)
        model, losses = train_source(config, images, labels)
        ref_model, ref_losses = _reference_train(config, images, labels)
        assert losses == ref_losses
        for p, ref in zip(model.parameters(), ref_model.parameters()):
            assert p.data.dtype == ref.data.dtype == np.float32
            assert p.data.tobytes() == ref.data.tobytes()

    def test_flat_adam_matches_per_parameter_loop(self):
        rng = np.random.default_rng(21)
        shapes = [(3, 4), (4,), (4, 2), (2,)]
        params = [Parameter(rng.normal(size=s)) for s in shapes]
        # float64 parameters, as the finite-difference tests set them
        params[1].data = params[1].data.astype(np.float64)
        ref_params = [Parameter(p.data.copy()) for p in params]
        ref_params[1].data = params[1].data.copy()
        state, ref_state = AdamState(params), _ReferenceAdam()
        for step in range(6):
            grads = {}
            for i, s in enumerate(shapes):
                if (step + i) % 3 == 0:
                    continue  # missing gradient
                dtype = np.float64 if i % 2 else np.float32
                grads[i] = rng.normal(size=s).astype(dtype)
            adam_step(state, {params[i]: g for i, g in grads.items()}, lr=0.05)
            _reference_adam_step(
                ref_params, {ref_params[i]: g for i, g in grads.items()}, ref_state, lr=0.05
            )
            assert state.t == ref_state.t
            for p, ref in zip(params, ref_params):
                assert p.data.dtype == ref.data.dtype
                assert p.data.tobytes() == ref.data.tobytes()
            assert np.array_equal(state.m, np.concatenate([ref_state.m[p].ravel() for p in ref_params]))
            assert np.array_equal(state.v, np.concatenate([ref_state.v[p].ravel() for p in ref_params]))

    def test_flat_adam_reads_its_views_until_one_is_rebound(self):
        """A parameter rebound between steps (to a new array) is read as
        rebound."""
        rng = np.random.default_rng(22)
        shapes = [(3, 4), (4,), (4, 2), (2,)]
        params = [Parameter(rng.normal(size=s)) for s in shapes]
        ref_params = [Parameter(p.data.copy()) for p in params]
        state, ref_state = AdamState(params), _ReferenceAdam()
        for step in range(6):
            if step == 3:
                params[2].data = rng.normal(size=shapes[2]).astype(np.float32)
                ref_params[2].data = params[2].data.copy()
            grads = {i: rng.normal(size=s).astype(np.float32) for i, s in enumerate(shapes)}
            adam_step(state, {params[i]: g for i, g in grads.items()}, lr=0.05)
            _reference_adam_step(
                ref_params, {ref_params[i]: g for i, g in grads.items()}, ref_state, lr=0.05
            )
            for p, ref in zip(params, ref_params):
                assert p.data.dtype == ref.data.dtype == np.float32
                assert p.data.tobytes() == ref.data.tobytes()

    def test_flat_adam_rejected_step_changes_nothing(self):
        params = [Parameter(np.ones((2, 2))), Parameter(np.zeros(3))]
        state = AdamState(params)
        adam_step(state, {params[0]: np.full((2, 2), 0.5)}, lr=0.1)
        before = ([p.data.copy() for p in params], state.t, state.m.copy(), state.v.copy())
        bad = {params[0]: np.ones((2, 2)), params[1]: np.array([0.0, np.inf, 0.0])}
        with pytest.raises(DivergenceError):
            adam_step(state, bad, lr=0.1)
        for p, old in zip(params, before[0]):
            assert p.data.tobytes() == old.tobytes()
        assert state.t == before[1]
        assert np.array_equal(state.m, before[2]) and np.array_equal(state.v, before[3])


# ---------------------------------------------------------------- kernels
# The short-axis kernels against the numpy forms they replace, compared
# bit for bit (signed zeros and NaN payloads included).


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view({4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(_bits(a), _bits(b))


def _same_values(a, b) -> bool:
    """Equal shape, dtype and values; zeros of either sign and NaNs of any
    payload count as equal."""
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


def _hard_rows(n, k, dtype, seed):
    """[n, k] values spread over 60 decades, a third of them replaced by
    ±0.0, ±inf, NaN, subnormals or ±1e±30, and a tenth of the rows made of
    signed zeros only."""
    rng = np.random.default_rng(seed)
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -3 * tiny, 1e-30, -1e-30, 1e30, -1e30], dtype
    )
    a = (rng.normal(size=(n, k)) * 10.0 ** rng.integers(-30, 31, (n, k))).astype(dtype)
    hit = rng.random((n, k)) < 0.3
    a[hit] = rng.choice(specials, hit.sum())
    zero_rows = rng.random(n) < 0.1
    a[zero_rows] = rng.choice(specials[:2], (zero_rows.sum(), k))
    return a


def _slice_concat_rows(padded, neighborhood):
    """The reference `feature_rows`: nine shifted slices concatenated on the
    channel axis."""
    b, h, w, c = padded.shape
    if not neighborhood:
        return padded.reshape(b * h * w, c)
    h, w = h - 2, w - 2
    patches = [padded[:, dy : dy + h, dx : dx + w, :] for dy in range(3) for dx in range(3)]
    return np.concatenate(patches, axis=-1).reshape(b * h * w, 9 * c)


class TestShortAxisKernels:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", range(1, 17))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_row_reductions_match_numpy(self, dtype, k):
        for n in (1, 7, 2048, 16385):
            a = _hard_rows(n, k, dtype, seed=100 * k + n)
            assert _same_values(_row_max(a), a.max(axis=-1, keepdims=True)), (n, "max")
            assert _same_bits(_row_sum(a), a.sum(axis=-1, keepdims=True)), (n, "sum")
        # leading axes are kept
        a = _hard_rows(12, k, dtype, seed=k).reshape(3, 4, k)
        assert _same_bits(_row_sum(a), a.sum(axis=-1, keepdims=True))
        assert _same_values(_row_max(a), a.max(axis=-1, keepdims=True))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_column_sum_matches_numpy(self, dtype):
        rng = np.random.default_rng(30)
        for width in (1, 2, 3, 5, 7, 8, 9, 32, 64, 200):
            for n in (1, 2, 7, 8, 9, 2048, 16384):
                finite = rng.normal(size=(n, width)).astype(dtype)
                hard = _hard_rows(n, width, dtype, seed=width * n)
                for g in (finite, hard, np.asfortranarray(finite), hard.T.copy().T):
                    assert _same_bits(column_sum(g), g.sum(axis=0)), (width, n)

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("neighborhood", [True, False])
    def test_feature_rows_match_slice_concat(self, channels, neighborhood):
        """Byte for byte against nine concatenated slices, for float32 and
        float64, on 3x5x7 images, 1x1 images and padded inputs that are not
        C-contiguous (a reversed width axis, every other image, Fortran
        order), whole and cut at chosen pixels."""
        rng = np.random.default_rng(31)
        for dtype in (np.float32, np.float64):
            images = rng.normal(size=(3, 5, 7, channels)).astype(dtype)
            images[0, 0, 0, 0] = -0.0
            padded = pad_images(images, neighborhood)
            got = feature_rows(padded, neighborhood)
            want = _slice_concat_rows(padded, neighborhood)
            assert got.dtype == want.dtype == dtype and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            # cut from a batch of a padded split, as training does
            got = feature_rows(padded[[2, 0]], neighborhood)
            assert got.tobytes() == _slice_concat_rows(padded[[2, 0]], neighborhood).tobytes()
            # only the rows of chosen pixels: corners and edges of every image,
            # unsorted and repeated, the -0.0 pixel among them
            pixels = np.array([104, 0, 6, 34, 35, 7, 0, 52, 52, 70, 13, 98])
            got = feature_rows(padded, neighborhood, pixels)
            want = _slice_concat_rows(padded, neighborhood)[pixels]
            assert (np.signbit(want) & (want == 0)).any()
            assert got.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            # 1x1 images: every window is the pixel itself, nine times
            tiny = pad_images(rng.normal(size=(4, 1, 1, channels)).astype(dtype), neighborhood)
            got = feature_rows(tiny, neighborhood)
            assert got.shape == (4, channels * (9 if neighborhood else 1))
            assert got.tobytes() == _slice_concat_rows(tiny, neighborhood).tobytes()
            assert feature_rows(tiny, neighborhood, [3, 1]).tobytes() == got[[3, 1]].tobytes()
            # padded inputs that are not C-contiguous
            wide = rng.normal(size=(6, 7, 9, channels)).astype(dtype)
            for strided in (wide[:, :, ::-1], wide[::2], np.asfortranarray(wide)):
                want = _slice_concat_rows(strided, neighborhood)
                assert feature_rows(strided, neighborhood).tobytes() == want.tobytes()
                cut = np.array([5, want.shape[0] - 1, 0, 5])
                assert feature_rows(strided, neighborhood, cut).tobytes() == want[cut].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pad_images_is_edge_pad(self, dtype):
        """`pad_images` is the edge pad of `np.pad(..., mode="edge")`: each
        padded pixel is its nearest image pixel, byte for byte against a
        clipped-index gather, on 1x1 images, a single image, one-row and
        one-column images and a 64-image chunk, with -0.0 pixels; without
        `neighborhood` it returns its argument."""
        rng = np.random.default_rng(37)
        for shape in ((3, 1, 1, 3), (1, 1, 1, 1), (1, 5, 7, 3), (4, 1, 6, 2), (2, 6, 1, 1),
                      (64, 16, 16, 3)):
            images = rng.normal(size=shape).astype(dtype)
            images.reshape(-1)[::5] = -0.0
            got = pad_images(images, True)
            ys = np.clip(np.arange(-1, shape[1] + 1), 0, shape[1] - 1)
            xs = np.clip(np.arange(-1, shape[2] + 1), 0, shape[2] - 1)
            want = images[:, ys][:, :, xs]
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes(), shape
            assert pad_images(images, False) is images

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 13])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_softmax_matches_numpy_expression(self, dtype, k):
        """On 1, 13, 2048 and 16384 rows (one row; a pseudo-sampling
        refill; a training batch; an inference chunk), with zeros of
        both signs, tiny values, +inf and NaN among them, and on a
        non-contiguous [3, 4, k] input."""
        rng = np.random.default_rng(32 + k)
        for n in (1, 13, 2048, 16384):
            a = (rng.normal(size=(n, k)) * 30).astype(dtype)
            q = max(n // 40, 1)  # the first, second and last q rows are hard
            a[:q] = rng.choice(np.array([0.0, -0.0, 1e-30, -1e-30], dtype), (q, k))
            a[q : 2 * q, 0] = np.inf
            a[-q:, -1] = np.nan
            g = rng.normal(size=a.shape).astype(dtype)
            g[:20] = -0.0
            t = Tape()
            node = vsoftmax(t, t.leaf(a))
            e = np.exp(a - a.max(axis=-1, keepdims=True))
            p = e / e.sum(axis=-1, keepdims=True)
            assert _same_bits(node.data, p), n
            (gp,) = node.backward_fn(g)
            assert _same_bits(gp, p * (g - (g * p).sum(axis=-1, keepdims=True))), n
        a = (rng.normal(size=(4, 3, k)) * 30).astype(dtype).transpose(1, 0, 2)
        e = np.exp(a - a.max(axis=-1, keepdims=True))
        assert _same_bits(_softmax(a), e / e.sum(axis=-1, keepdims=True))

    def test_vdense_bias_promotion_matches_op_chain(self):
        rng = np.random.default_rng(33)
        t = Tape()
        x = t.leaf(rng.normal(size=(9, 4)).astype(np.float32))
        w = t.leaf(rng.normal(size=(4, 3)).astype(np.float32))
        b = t.leaf(rng.normal(size=3))  # float64: the output is promoted
        out = vdense(t, x, w, b, relu=True).data
        ref = vrelu(t, vadd(t, vmatmul(t, x, w), b)).data
        assert out.dtype == ref.dtype == np.float64
        assert _same_bits(out, ref)

    @pytest.mark.parametrize("relu", [True, False])
    def test_vdense_backward_leaves_incoming_gradient(self, relu):
        rng = np.random.default_rng(34)
        t = Tape()
        x = t.watch(Parameter(rng.normal(size=(6, 4))))
        w = t.watch(Parameter(rng.normal(size=(4, 3))))
        b = t.watch(Parameter(rng.normal(size=3)))
        node = vdense(t, x, w, b, relu)
        g = rng.normal(size=node.data.shape).astype(np.float32)
        before = g.copy()
        gx, gw, gb = node.backward_fn(g)
        assert np.array_equal(g, before)
        assert not any(np.shares_memory(g, out) for out in (gx, gw, gb))


# Stacks the oracles above (and the mixture fit's row-order sums in
# tests/test_gmm.py and the grid-seg generator's per-image reference in
# tests/test_datasets.py) must also hold on, each forced for one child
# process: numpy's AVX2 loops in place of the AVX-512 ones this CPU runs
# (float64 rows reduce in 4 lanes, not 8), OpenBLAS's Haswell kernels, and
# the AVX2 loops with OpenBLAS's Sandybridge kernels.
AVX512_TARGETS = {"X86_V4", "AVX512_ICL", "AVX512_SPR"}
AVX2_LOOPS = {"NPY_DISABLE_CPU_FEATURES": ",".join(sorted(AVX512_TARGETS))}
RUNS_AVX512 = pytest.mark.skipif(
    not AVX512_TARGETS <= set(numpy_stack()["simd"].split(",")),
    reason="numpy runs no AVX-512 loops here to switch off",
)
FORCED_STACKS = [
    pytest.param(AVX2_LOOPS, id="avx2-loops", marks=RUNS_AVX512),
    pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, id="haswell-blas"),
    pytest.param(
        {**AVX2_LOOPS, "OPENBLAS_CORETYPE": "Sandybridge"},
        id="sandybridge-blas-avx2-loops",
        marks=RUNS_AVX512,
    ),
]


# A child first checks, through this_stack(), that it runs the stack it was
# given, so a variable that gets ignored cannot pass vacuously.
CHECK_STACK_THEN_TEST = """
import sys, pytest
from test_fingerprint import this_stack
core, avx2_loops, avx512 = sys.argv[1], sys.argv[2] == "1", set(sys.argv[3].split(","))
stack = this_stack()
simd = set(stack["simd"].split(","))
assert not core or stack["openblas_core"].lower() == core.lower(), stack
assert not avx2_loops or ("X86_V3" in simd and not simd & avx512), stack
sys.exit(pytest.main(sys.argv[4:]))
"""


@pytest.mark.parametrize("forced", FORCED_STACKS)
def test_bitwise_oracles_hold_on_forced_stack(forced):
    tests = Path(__file__).resolve().parent
    env = {**os.environ, **forced}
    paths = (str(tests.parent / "src"), str(tests), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    avx2_loops = "1" if "NPY_DISABLE_CPU_FEATURES" in forced else "0"
    run = subprocess.run(
        [sys.executable, "-c", CHECK_STACK_THEN_TEST, forced.get("OPENBLAS_CORETYPE", ""),
         avx2_loops, ",".join(sorted(AVX512_TARGETS)),
         "-q", "-p", "no:cacheprovider", "-o", "addopts=",
         f"{__file__}::TestShortAxisKernels", f"{__file__}::TestBitwiseOracle",
         f"{tests / 'test_swd.py'}::TestBitwiseOracle",
         f"{tests / 'test_datasets.py'}::TestGridSegMatchesPerImageLoop",
         f"{tests / 'test_gmm.py'}::TestEstimate::test_per_class_gathers_match_float64_upfront_bitwise"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]


class TestModel:
    def test_init_shapes_and_inference(self):
        model = init_model(3, 5, embed_dim=4, rng=Rng(5))
        images = np.random.default_rng(6).uniform(size=(2, 8, 8, 3)).astype(np.float32)
        emb = forward_embed(model, images)
        assert emb.shape == (2, 8, 8, 4)
        probs = forward_classify(model, emb)
        assert probs.shape == (2, 8, 8, 5)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-5)

    @pytest.mark.parametrize("hidden,neighborhood", [((6, 5), False), ((), True)])
    def test_sizes_read_from_weights(self, hidden, neighborhood):
        model = init_model(3, 4, embed_dim=7, encoder_hidden=hidden, rng=Rng(7), neighborhood=neighborhood)
        assert len(model.encoder_layers) == len(hidden)
        assert (model.K, model.embed_dim, model.in_channels) == (4, 7, 3)
        assert model.input_features == 3 * (9 if neighborhood else 1)
        images = np.random.default_rng(8).uniform(size=(1, 4, 4, 3)).astype(np.float32)
        assert forward_classify(model, forward_embed(model, images)).shape == (1, 4, 4, 4)

    def test_embedding_dim_guard(self):
        model = init_model(3, 4, embed_dim=3, rng=Rng(9))
        with pytest.raises(DimensionError):
            forward_classify(model, np.zeros((5, 7), np.float32))

    def test_neighborhood_features(self):
        images = np.arange(2 * 3 * 3 * 1, dtype=np.float32).reshape(2, 3, 3, 1)
        flat = pixel_features(images, neighborhood=False)
        assert flat.shape == (18, 1)
        hood = pixel_features(images, neighborhood=True)
        assert hood.shape == (18, 9)
        # edge padding: the corner pixel's out-of-image neighbors replicate it
        assert hood[0].min() >= 0.0

    def test_training_reduces_loss_on_separable_toy(self):
        rng = np.random.default_rng(10)
        n = 256
        labels = rng.integers(0, 2, (1, 16, 16))
        images = np.where(
            labels[..., None] == 1,
            np.array([0.9, 0.1, 0.1], np.float32),
            np.array([0.1, 0.1, 0.9], np.float32),
        ).astype(np.float32)
        images += rng.normal(scale=0.02, size=images.shape).astype(np.float32)
        model = init_model(3, 2, embed_dim=4, encoder_hidden=(16,), rng=Rng(11))
        feats = pixel_features(images, model.neighborhood)
        flat_labels = labels.reshape(-1)
        st = AdamState(model.parameters())
        losses = []
        for _ in range(200):
            t = Tape()
            probs = vsoftmax(t, classifier_logits(model, embed_flat(model, feats, t), t))
            loss = vcross_entropy(t, probs, flat_labels)
            losses.append(float(loss.data))
            adam_step(st, backward(t, loss), lr=3e-3)
        assert losses[-1] < 0.3 * losses[0]
        preds = forward_classify(model, forward_embed(model, images)).argmax(-1)
        assert (preds == labels).mean() >= 0.98


class TestModelFile:
    def test_roundtrip_bytes(self, tmp_path):
        model = init_model(3, 5, embed_dim=4, rng=Rng(12))
        p1, p2 = tmp_path / "a.mdl", tmp_path / "b.mdl"
        save_model(p1, model)
        back = load_model(p1)
        save_model(p2, back)
        assert p1.read_bytes() == p2.read_bytes()
        assert back.K == 5 and back.embed_dim == 4 and back.in_channels == 3
        for pa, pb in zip(model.parameters(), back.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_roundtrip_preserves_predictions(self, tmp_path):
        model = init_model(3, 4, embed_dim=3, rng=Rng(13))
        save_model(tmp_path / "m.mdl", model)
        back = load_model(tmp_path / "m.mdl")
        images = np.random.default_rng(14).uniform(size=(1, 5, 5, 3)).astype(np.float32)
        np.testing.assert_array_equal(
            forward_classify(model, forward_embed(model, images)),
            forward_classify(back, forward_embed(back, images)),
        )


def _write_mdl1(path, tensors, trailer):
    """MDL1 bytes from raw tensors and the seven trailer fields."""
    with open(path, "wb") as f:
        f.write(MDL1_MAGIC)
        write_u32(f, len(tensors))
        for t in tensors:
            write_tns1(f, t)
        for v in trailer:
            write_u32(f, v)


def _trailer(model):
    n = (len(model.encoder_layers), len(model.decoder_layers), len(model.classifier_layers))
    return [model.K, model.embed_dim, *n, model.in_channels, int(model.neighborhood)]


class TestModelFileChecks:
    """`load_model` rejects files whose parts disagree."""

    def model(self):
        return init_model(3, 4, embed_dim=5, encoder_hidden=(6,), rng=Rng(15))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.mdl1"
        save_model(path, self.model())
        with open(path, "ab") as f:
            f.write(b"junk")
        with pytest.raises(FileFormatError, match="trailing"):
            load_model(path)

    @pytest.mark.parametrize("field,value", [(0, 9), (1, 4), (5, 2)])
    def test_trailer_sizes_must_match_weights(self, tmp_path, field, value):
        model = self.model()
        trailer = _trailer(model)
        trailer[field] = value
        path = tmp_path / "m.mdl1"
        _write_mdl1(path, [p.data for p in model.parameters()], trailer)
        with pytest.raises(FileFormatError, match="trailer"):
            load_model(path)

    def test_written_trailer_loads(self, tmp_path):
        model = self.model()
        path = tmp_path / "m.mdl1"
        _write_mdl1(path, [p.data for p in model.parameters()], _trailer(model))
        assert load_model(path).K == 4

    @pytest.mark.parametrize(
        "index,shape",
        [(2, (5, 5)), (3, (7,)), (6, (4, 5)), (0, (27,))],
        ids=["next-w-rows", "bias-length", "classifier-rows", "w-rank"],
    )
    def test_layers_must_chain(self, tmp_path, index, shape):
        model = self.model()
        tensors = [p.data for p in model.parameters()]
        tensors[index] = np.zeros(shape, np.float32)
        path = tmp_path / "m.mdl1"
        _write_mdl1(path, tensors, _trailer(model))
        with pytest.raises(FileFormatError, match="chain"):
            load_model(path)

    @pytest.mark.parametrize("bit", [1, 31])
    def test_neighborhood_flag_must_be_zero_or_one(self, tmp_path, bit):
        model = init_model(3, 4, embed_dim=5, encoder_hidden=(6,), rng=Rng(15), neighborhood=True)
        path = tmp_path / "m.mdl1"
        save_model(path, model)
        data = bytearray(path.read_bytes())
        flag = int.from_bytes(data[-4:], "little")
        assert flag == 1
        data[-4:] = (flag ^ (1 << bit)).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FileFormatError, match="neighborhood flag"):
            load_model(path)

    @pytest.mark.parametrize("section", ["encoder+decoder", "classifier"])
    def test_empty_section_rejected(self, tmp_path, section):
        model = self.model()
        tensors = [p.data for p in model.parameters()]
        trailer = _trailer(model)
        if section == "classifier":
            tensors, trailer[4] = tensors[:4], 0
        else:
            tensors, trailer[2], trailer[3] = tensors[4:], 0, 0
        path = tmp_path / "m.mdl1"
        _write_mdl1(path, tensors, trailer)
        with pytest.raises(FileFormatError, match="no encoder/decoder or no classifier"):
            load_model(path)
