"""Tape autodiff: forward ops, gradients vs finite differences, Adam, MDL1."""

import numpy as np
import pytest

from protoadapt.autodiff import (
    AdamState,
    Parameter,
    SegModel,
    Tape,
    adam_step,
    backward,
    classify_flat,
    classifier_probs_fn,
    embed_flat,
    forward_classify,
    forward_embed,
    init_model,
    load_model,
    pixel_features,
    save_model,
    vadd,
    vcross_entropy,
    vmatmul,
    vrelu,
    vscale,
    vsoftmax,
    vsum2,
)
from protoadapt.errors import DimensionError, DivergenceError, TapeError
from protoadapt.rng import Rng


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
        # loss = sum((x @ w)^2 entries) via vsum2 of two identical halves is
        # awkward; use CE on softmax(xw) against labels and compare with the
        # classic softmax-CE analytic gradient x^T (p - onehot) / n.
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
        grads = backward(t, out, loss_grad=0.0)
        np.testing.assert_array_equal(grads[w], np.zeros((2, 2)))

    def test_scale_and_sum_combination(self):
        t = Tape()
        w = Parameter(np.array([[1.0, 2.0]], np.float32))
        node = t.watch(w, np.float64)
        a = vcross_entropy(t, vsoftmax(t, node), np.array([0]))
        b = vcross_entropy(t, vsoftmax(t, node), np.array([1]))
        total = vsum2(t, a, vscale(t, b, 0.5))
        assert float(total.data) == pytest.approx(
            float(a.data) + 0.5 * float(b.data), abs=1e-9
        )
        grads = backward(t, total)
        t2 = Tape()
        n2 = t2.watch(w, np.float64)
        ga = backward(t2, vcross_entropy(t2, vsoftmax(t2, n2), np.array([0])))
        t3 = Tape()
        n3 = t3.watch(w, np.float64)
        gb = backward(t3, vcross_entropy(t3, vsoftmax(t3, n3), np.array([1])))
        np.testing.assert_allclose(grads[w], ga[w] + 0.5 * gb[w], atol=1e-9)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = Parameter(np.array([1.0, 2.0], np.float32))
        st = AdamState()
        adam_step([p], {p: np.zeros(2)}, st, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_zero_lr_keeps_params(self):
        p = Parameter(np.array([1.0, 2.0], np.float32))
        adam_step([p], {p: np.ones(2)}, AdamState(), lr=0.0)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_first_step_magnitude_is_lr(self):
        # with bias correction, the first Adam step is ~lr * sign(g)
        p = Parameter(np.zeros(3, np.float32))
        adam_step([p], {p: np.array([1.0, -2.0, 0.5])}, AdamState(), lr=0.01)
        np.testing.assert_allclose(p.data, [-0.01, 0.01, -0.01], atol=1e-6)

    def test_nonfinite_gradient_rejected(self):
        p = Parameter(np.zeros(2, np.float32))
        with pytest.raises(DivergenceError):
            adam_step([p], {p: np.array([np.nan, 0.0])}, AdamState(), lr=0.01)
        np.testing.assert_array_equal(p.data, [0.0, 0.0])

    def test_missing_gradient_treated_as_zero(self):
        p = Parameter(np.array([5.0], np.float32))
        adam_step([p], {}, AdamState(), lr=0.1)
        np.testing.assert_array_equal(p.data, [5.0])


class TestModel:
    def test_init_shapes_and_inference(self):
        model = init_model(3, 5, embed_dim=4, rng=Rng(5))
        images = np.random.default_rng(6).uniform(size=(2, 8, 8, 3)).astype(np.float32)
        emb = forward_embed(model, images)
        assert emb.shape == (2, 8, 8, 4)
        probs = forward_classify(model, emb)
        assert probs.shape == (2, 8, 8, 5)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-5)

    def test_classifier_probs_fn_matches_forward(self):
        model = init_model(3, 4, embed_dim=3, rng=Rng(7))
        z = np.random.default_rng(8).normal(size=(10, 3)).astype(np.float32)
        np.testing.assert_array_equal(classifier_probs_fn(model)(z), forward_classify(model, z))

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
        st = AdamState()
        losses = []
        for _ in range(200):
            t = Tape()
            probs = classify_flat(model, embed_flat(model, feats, t), t)
            loss = vcross_entropy(t, probs, flat_labels)
            losses.append(float(loss.data))
            adam_step(model.parameters(), backward(t, loss), st, lr=3e-3)
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
