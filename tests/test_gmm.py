"""Class-conditional mixture: support sets, closed-form fit, sampling."""

import re
import struct

import numpy as np
import pytest

from protoadapt.errors import DimensionError, EstimationError, FileFormatError, GenerationError
from protoadapt.gmm import (
    PrototypicalGMM,
    build_support_sets,
    estimate_gmm,
    generate_pseudo_dataset,
    load_gmm,
    save_gmm,
)
from protoadapt.rng import Rng


def one_hotish(labels, K, conf):
    """Probability rows predicting `labels` with confidence `conf`."""
    n = len(labels)
    if K == 1:
        return np.ones((n, 1))
    p = np.full((n, K), (1.0 - np.asarray(conf))[:, None] / (K - 1))
    p[np.arange(n), labels] = conf
    return p


class TestSupportSets:
    def test_all_confident_correct(self):
        lab = np.array([0, 1, 0, 1])
        probs = one_hotish(lab, 2, [0.99] * 4)
        s = build_support_sets(np.zeros((4, 3)), lab, probs, 0.9)
        np.testing.assert_array_equal(s.counts, [2, 2])
        np.testing.assert_array_equal(s.indices[0], [0, 2])
        np.testing.assert_array_equal(s.indices[1], [1, 3])

    def test_wrong_prediction_excluded(self):
        lab = np.array([0, 0])
        probs = np.array([[0.99, 0.01], [0.01, 0.99]])  # second row predicts 1
        s = build_support_sets(np.zeros((2, 2)), lab, probs, 0.5)
        np.testing.assert_array_equal(s.counts, [1, 0])

    def test_brute_force_filter_oracle(self):
        rng = np.random.default_rng(0)
        n, K = 20, 4
        lab = rng.integers(0, K, n)
        probs = rng.dirichlet(np.ones(K), n)
        tau = 0.3
        s = build_support_sets(rng.normal(size=(n, 2)), lab, probs, tau)
        for j in range(K):
            expected = [
                i
                for i in range(n)
                if lab[i] == j
                and probs[i].argmax() == j
                and probs[i].max() > tau
            ]
            np.testing.assert_array_equal(s.indices[j], expected)

    def test_counts_monotone_in_tau(self):
        rng = np.random.default_rng(1)
        n, K = 500, 3
        lab = rng.integers(0, K, n)
        probs = rng.dirichlet(np.ones(K) * 0.5, n)
        emb = rng.normal(size=(n, 2))
        prev = None
        for tau in (0.0, 0.4, 0.6, 0.8, 0.95):
            counts = build_support_sets(emb, lab, probs, tau).counts
            if prev is not None:
                assert np.all(counts <= prev)
            prev = counts

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            build_support_sets(np.zeros((1, 1)), [0], [[1.0]], 1.0)
        with pytest.raises(ValueError):
            build_support_sets(np.zeros((1, 1)), [0], [[1.0]], -0.1)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            build_support_sets(np.zeros((2, 1)), [0], [[1.0]], 0.5)


class TestEstimate:
    def fit(self, emb, lab, K, tau=0.0, **kw):
        probs = one_hotish(lab, K, [0.99] * len(lab))
        return estimate_gmm(emb, build_support_sets(emb, lab, probs, tau), **kw)

    def test_direct_float64_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(12, 101))
            d = int(rng.integers(1, 6))
            K = 2
            lab = np.arange(n) % K  # both classes get >= d+1 points
            emb = rng.normal(size=(n, d))
            gmm = self.fit(emb, lab, K)
            for j in range(K):
                pts = emb[lab == j].astype(np.float64)
                mu = pts.mean(axis=0)
                c = pts - mu
                cov = (c.T @ c) / pts.shape[0]
                np.testing.assert_allclose(gmm.mu[j], mu, atol=1e-9)
                # stored sigma carries the stabilizing jitter on the diagonal
                off = gmm.sigma[j] - cov
                assert np.abs(off - off[0, 0] * np.eye(d)).max() < 1e-9
                assert 0.0 < off[0, 0] < 1e-4 * max(1.0, np.abs(cov).max())

    def test_alpha_proportions(self):
        emb = np.random.default_rng(3).normal(size=(40, 2))
        lab = np.array([0] * 30 + [1] * 10)
        gmm = self.fit(emb, lab, 2)
        np.testing.assert_allclose(gmm.alpha, [0.75, 0.25], atol=1e-12)

    def test_alpha_sums_to_one(self):
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(200, 3))
        lab = rng.integers(0, 4, 200)
        gmm = self.fit(emb, lab, 4)
        assert abs(gmm.alpha.sum() - 1.0) <= 1e-6

    def test_degenerate_identical_points(self):
        emb = np.tile([1.0, 2.0], (10, 1))
        gmm = self.fit(emb, np.zeros(10, dtype=int), 1)
        np.testing.assert_allclose(gmm.mu[0], [1.0, 2.0])
        np.testing.assert_allclose(gmm.sigma[0], 1e-6 * np.eye(2), atol=1e-12)

    def test_too_few_points_raises(self):
        emb = np.random.default_rng(6).normal(size=(10, 3))
        lab = np.array([0] * 7 + [1] * 3)  # class 1 has exactly d points
        with pytest.raises(EstimationError) as e:
            self.fit(emb, lab, 2)
        assert "class 1" in str(e.value)

    def test_tau_fit_recorded(self):
        emb = np.random.default_rng(7).normal(size=(10, 2))
        gmm = self.fit(emb, np.zeros(10, dtype=int), 1, tau=0.0)
        assert gmm.tau_fit == 0.0


def two_blob_gmm(sep=8.0):
    d = 2
    mu = np.array([[0.0, 0.0], [sep, 0.0]])
    sigma = np.stack([np.eye(d) * 0.25] * 2)
    return PrototypicalGMM(np.array([0.6, 0.4]), mu, sigma, 0.0)


class TestMixtureFacts:
    def test_size_and_factors_derived(self):
        gmm = two_blob_gmm()
        assert (gmm.K, gmm.dim) == (2, 2)
        np.testing.assert_allclose(gmm.chol, 0.5 * np.stack([np.eye(2)] * 2))

    @pytest.mark.parametrize("part", ["alpha", "mu", "sigma"])
    def test_parts_must_agree(self, part):
        gmm = two_blob_gmm()
        parts = {"alpha": gmm.alpha, "mu": gmm.mu, "sigma": gmm.sigma}
        parts[part] = parts[part][:1]
        with pytest.raises(DimensionError):
            PrototypicalGMM(parts["alpha"], parts["mu"], parts["sigma"], 0.0)


def sharp_classifier(sep=8.0, sharp=4.0):
    def probs_fn(z):
        z = np.asarray(z, dtype=np.float64)
        logits = np.stack(
            [-sharp * np.abs(z[:, 0]), -sharp * np.abs(z[:, 0] - sep)], axis=1
        )
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    return probs_fn


class TestGenerate:
    def test_tau_zero_keeps_everything(self):
        gmm = two_blob_gmm()
        ds = generate_pseudo_dataset(gmm, sharp_classifier(), 500, 0.0, Rng(0))
        assert ds.kept_fraction == 1.0
        assert ds.Z.shape == (500, 2)
        probs = sharp_classifier()(ds.Z)
        np.testing.assert_array_equal(ds.Y, probs.argmax(axis=1))

    def test_class_proportions_track_alpha(self):
        gmm = two_blob_gmm()
        ds = generate_pseudo_dataset(gmm, sharp_classifier(), 5000, 0.0, Rng(1))
        np.testing.assert_allclose(ds.class_counts / 5000, gmm.alpha, atol=0.05)

    def test_kept_points_exceed_tau(self):
        gmm = two_blob_gmm()
        fn = sharp_classifier()
        tau = 0.9
        ds = generate_pseudo_dataset(gmm, fn, 1000, tau, Rng(2))
        assert fn(ds.Z).max(axis=1).min() > tau

    def test_kept_fraction_non_increasing_in_tau(self):
        gmm = two_blob_gmm()
        fn = sharp_classifier(sharp=1.0)
        fracs = [
            generate_pseudo_dataset(gmm, fn, 2000, tau, Rng(3)).kept_fraction
            for tau in (0.0, 0.6, 0.8)
        ]
        assert fracs[0] >= fracs[1] >= fracs[2]

    def test_unreachable_tau_raises(self):
        gmm = two_blob_gmm()

        def wishy(z):
            return np.full((len(z), 2), 0.5)

        with pytest.raises(GenerationError) as e:
            generate_pseudo_dataset(gmm, wishy, 100, 0.999, Rng(4))
        assert e.value.kept_fraction == 0.0

    def test_invalid_args(self):
        gmm = two_blob_gmm()
        with pytest.raises(ValueError):
            generate_pseudo_dataset(gmm, sharp_classifier(), 0, 0.0, Rng(5))
        with pytest.raises(ValueError):
            generate_pseudo_dataset(gmm, sharp_classifier(), 10, 1.0, Rng(5))

    def test_determinism(self):
        gmm = two_blob_gmm()
        a = generate_pseudo_dataset(gmm, sharp_classifier(), 300, 0.5, Rng(6))
        b = generate_pseudo_dataset(gmm, sharp_classifier(), 300, 0.5, Rng(6))
        np.testing.assert_array_equal(a.Z, b.Z)
        np.testing.assert_array_equal(a.Y, b.Y)


class TestGmmFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        emb = rng.normal(size=(60, 3)).astype(np.float32)
        lab = np.arange(60) % 3
        probs = one_hotish(lab, 3, [0.99] * 60)
        gmm = estimate_gmm(emb, build_support_sets(emb, lab, probs, 0.5), tau_fit=0.5)
        p = tmp_path / "m.gmm"
        save_gmm(p, gmm)
        back = load_gmm(p)
        assert back.K == gmm.K and back.dim == gmm.dim
        assert back.tau_fit == pytest.approx(0.5)
        np.testing.assert_allclose(back.alpha, gmm.alpha, atol=1e-7)
        np.testing.assert_allclose(back.mu, gmm.mu, atol=1e-6)
        np.testing.assert_allclose(back.sigma, gmm.sigma, atol=1e-6)
        # cached factors reproduce the stored covariance
        for j in range(back.K):
            np.testing.assert_allclose(
                back.chol[j] @ back.chol[j].T, back.sigma[j], atol=1e-5
            )

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "m.gmm"
        save_gmm(p, two_blob_gmm())
        with open(p, "ab") as f:
            f.write(b"junk")
        with pytest.raises(FileFormatError, match="trailing"):
            load_gmm(p)

    @pytest.mark.parametrize("entries", [(1,), (1, 2)], ids=["asymmetric", "indefinite"])
    def test_sigma_bit_flip_is_a_file_error(self, tmp_path, entries):
        p = tmp_path / "m.gmm"
        save_gmm(p, two_blob_gmm())
        data = bytearray(p.read_bytes())
        sigma_at = len(data) - 2 * 2 * 2 * 4  # sigma's float32 payload ends the file
        for e in entries:  # flat indices of sigma[0, 0, 1] and sigma[0, 1, 0]
            data[sigma_at + 4 * e + 3] ^= 0x40  # top exponent bit: 0.0 -> 2.0
        p.write_bytes(bytes(data))
        with pytest.raises(FileFormatError, match=re.escape(str(p))):
            load_gmm(p)

    @pytest.mark.parametrize("tau_fit", [-0.3, 1.02e38, 1.0, float("nan"), float("inf")])
    def test_tau_fit_out_of_range_rejected(self, tmp_path, tau_fit):
        p = tmp_path / "m.gmm"
        save_gmm(p, two_blob_gmm())
        data = bytearray(p.read_bytes())
        data[12:16] = struct.pack("<f", tau_fit)  # after magic, K and d
        p.write_bytes(bytes(data))
        with pytest.raises(FileFormatError, match="tau_fit"):
            load_gmm(p)

    def test_save_is_deterministic(self, tmp_path):
        gmm = two_blob_gmm()
        p1, p2 = tmp_path / "a.gmm", tmp_path / "b.gmm"
        save_gmm(p1, gmm)
        save_gmm(p2, gmm)
        assert p1.read_bytes() == p2.read_bytes()
