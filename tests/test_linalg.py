"""Tensor helpers: Cholesky, Gaussian / unit-sphere sampling."""

import numpy as np
import pytest

from protoadapt.errors import DimensionError, FactorizationError
from protoadapt.linalg import cholesky, default_jitter, sample_gaussian, sample_unit_sphere
from protoadapt.rng import Rng


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0])
        )

    def test_reconstruction_random_spd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            sigma = a.T @ a + np.eye(4)
            L = cholesky(sigma).astype(np.float64)
            err = np.linalg.norm(L @ L.T - sigma)
            assert err <= 1e-4

    def test_singular_matrix_refused(self):
        # one jitter of default_jitter(sigma) would factor it; none is added
        sigma = np.ones((2, 2))
        np.linalg.cholesky(sigma + default_jitter(sigma) * np.eye(2))
        with pytest.raises(FactorizationError, match=r"^matrix not positive definite \(class 0\)$"):
            cholesky(sigma, class_index=0)

    def test_retries_then_fails_on_negative_definite(self):
        with pytest.raises(FactorizationError):
            cholesky(-np.eye(2) * 1e12)

    def test_error_names_class(self):
        with pytest.raises(FactorizationError) as exc:
            cholesky(-np.eye(2) * 1e12, class_index=3)
        assert "3" in str(exc.value)

    def test_asymmetric_rejected(self):
        with pytest.raises(DimensionError):
            cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_default_jitter_formula(self):
        sigma = np.diag([2.0, 4.0])
        assert default_jitter(sigma) == pytest.approx(1e-6 * 6.0 / 2.0)


def _rows(mu, chol, n):
    """`mu` [d] and `chol` [d, d] repeated as the per-row [n, d] and [n, d, d]."""
    return np.tile(mu, (n, 1)), np.tile(chol, (n, 1, 1))


class TestSampleGaussian:
    def test_zero_chol_returns_mu(self):
        mu = np.array([1.0, -2.0], dtype=np.float32)
        out = sample_gaussian(*_rows(mu, np.zeros((2, 2)), 5), 5, Rng(0))
        np.testing.assert_allclose(out, np.tile(mu, (5, 1)))

    def test_standard_normal_mean(self):
        out = sample_gaussian(*_rows(np.zeros(3), np.eye(3), 10000), 10000, Rng(7))
        assert np.all(np.abs(out.mean(axis=0)) < 0.05)

    def test_determinism(self):
        a = sample_gaussian(*_rows(np.zeros(2), np.eye(2), 100), 100, Rng(42))
        b = sample_gaussian(*_rows(np.zeros(2), np.eye(2), 100), 100, Rng(42))
        assert a.tobytes() == b.tobytes()

    def test_shape_check(self):
        with pytest.raises(DimensionError):
            sample_gaussian(np.zeros((5, 3)), np.tile(np.eye(2), (5, 1, 1)), 5, Rng(0))

    def test_covariance_shape(self):
        L = np.array([[2.0, 0.0], [1.0, 1.0]])
        out = sample_gaussian(*_rows(np.zeros(2), L, 50000), 50000, Rng(3)).astype(np.float64)
        emp = np.cov(out.T, bias=True)
        np.testing.assert_allclose(emp, L @ L.T, atol=0.1)


class TestSampleGaussianPerRow:
    """Per-row means [n, d] and factors [n, d, d]: row i is drawn from its own Gaussian."""

    def test_mixture_rows_follow_their_component(self):
        mus = np.array([[0.0, 0.0], [5.0, -3.0], [-4.0, 6.0]])
        chols = np.array(
            [[[1.0, 0.0], [0.5, 0.5]], [[0.3, 0.0], [-0.2, 2.0]], [[2.0, 0.0], [1.0, 0.1]]]
        )
        comps = np.random.default_rng(0).integers(0, 3, 60000)
        out = sample_gaussian(mus[comps], chols[comps], len(comps), Rng(11))
        assert out.dtype == np.float32 and out.shape == (60000, 2)
        for j in range(3):
            rows = out[comps == j].astype(np.float64)
            np.testing.assert_allclose(rows.mean(axis=0), mus[j], atol=0.06)
            emp = np.cov(rows.T, bias=True)
            np.testing.assert_allclose(emp, chols[j] @ chols[j].T, atol=0.12)

    def test_float64_oracle(self):
        rng = np.random.default_rng(5)
        n, d = 50, 4
        mu = rng.normal(size=(n, d))
        chol = np.tril(rng.normal(size=(n, d, d)))
        out = sample_gaussian(mu, chol, n, Rng(8))
        eps = Rng(8).normal((n, d))
        mu32, chol32 = mu.astype(np.float32), chol.astype(np.float32)
        want = mu32 + np.einsum("nij,nj->ni", chol32.astype(np.float64), eps)
        np.testing.assert_allclose(out, want, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize(
        "mu_shape,chol_shape",
        [((5, 3), (3, 3)), ((3,), (5, 3, 3)), ((4, 3), (4, 3, 3)), ((5, 3), (5, 2, 2))],
    )
    def test_shape_mismatch_names_both_shapes(self, mu_shape, chol_shape):
        with pytest.raises(DimensionError) as exc:
            sample_gaussian(np.zeros(mu_shape), np.zeros(chol_shape), 5, Rng(0))
        assert str(mu_shape) in str(exc.value) and str(chol_shape) in str(exc.value)


class TestSampleUnitSphere:
    def test_dim1_is_sign(self):
        out = sample_unit_sphere(1, 100, Rng(0))
        assert np.all(np.isin(out, [-1.0, 1.0]))

    def test_unit_norm(self):
        out = sample_unit_sphere(5, 500, Rng(1))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)

    def test_symmetry(self):
        out = sample_unit_sphere(3, 20000, Rng(2))
        assert np.all(np.abs(out.mean(axis=0)) < 0.02)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sample_unit_sphere(0, 5, Rng(0))
