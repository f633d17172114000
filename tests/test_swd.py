"""Sliced Wasserstein: 1-D transport, sliced estimator, gradient, oracle."""

import itertools
import re

import numpy as np
import pytest

from protoadapt.errors import DimensionError
from protoadapt.linalg import sample_unit_sphere
from protoadapt.rng import Rng
from protoadapt.swd import (
    SlicedConfig,
    _packed_order,
    exact_wasserstein_sq_small,
    sliced_wasserstein_grad,
    sliced_wasserstein_sq,
    wasserstein1d_sq,
)


def _loop_reference(x, y, cfg, rng, directions):
    """Per-projection loop: stable column argsort and np.add.at per direction.

    Draws directions (unless given), then equalizes, from `rng` in the same
    order as the library, so the batched estimator must match it bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if directions is None:
        directions = sample_unit_sphere(x.shape[1], cfg.num_projections, rng)
    dirs = np.asarray(directions, dtype=np.float64)
    L = dirs.shape[0]
    m, n = x.shape[0], y.shape[0]
    x_idx = np.arange(m)
    if m > n:
        x_idx = np.sort(rng.subsample(m, n))
    elif m < n:
        y = y[np.sort(rng.subsample(n, m))]
    xe = x[x_idx]
    k = xe.shape[0]
    proj_x = xe @ dirs.T
    proj_y = y @ dirs.T
    order_x = np.argsort(proj_x, axis=0, kind="stable")
    order_y = np.argsort(proj_y, axis=0, kind="stable")
    diff = np.take_along_axis(proj_x, order_x, axis=0) - np.take_along_axis(
        proj_y, order_y, axis=0
    )
    value = float(np.mean(np.mean(diff * diff, axis=0)))
    grad = np.zeros_like(x)
    scale = 2.0 / (L * k)
    for l in range(L):
        contrib = scale * diff[:, l]
        np.add.at(grad, x_idx[order_x[:, l]], contrib[:, None] * dirs[l][None, :])
    return value, grad


def brute_force_assignment_sq(x: np.ndarray, y: np.ndarray) -> float:
    """Minimum mean squared-distance matching by factorial enumeration."""
    m = x.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(m)):
        cost = float(((x - y[list(perm)]) ** 2).sum())
        best = min(best, cost)
    return best / m


class TestWasserstein1d:
    def test_identical_any_order(self):
        a = np.array([3.0, -1.0, 2.0])
        assert wasserstein1d_sq(a, a[::-1]) == 0.0

    def test_unit_shift(self):
        assert wasserstein1d_sq([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_matches_assignment_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            a = rng.normal(size=m)
            b = rng.normal(size=m)
            oracle = brute_force_assignment_sq(a[:, None], b[:, None])
            assert wasserstein1d_sq(a, b) == pytest.approx(oracle, abs=1e-9)

    def test_inputs_not_mutated(self):
        a = np.array([3.0, 1.0, 2.0])
        b = np.array([2.0, 3.0, 1.0])
        wasserstein1d_sq(a, b)
        np.testing.assert_array_equal(a, [3.0, 1.0, 2.0])
        np.testing.assert_array_equal(b, [2.0, 3.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            wasserstein1d_sq([1.0], [1.0, 2.0])


class TestExactSmall:
    def test_identical_sets(self):
        x = np.random.default_rng(1).normal(size=(10, 3))
        assert exact_wasserstein_sq_small(x, x.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_single_pair(self):
        assert exact_wasserstein_sq_small(
            np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])
        ) == pytest.approx(25.0)

    def test_factorial_enumeration_m7(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.normal(size=(7, 3))
            y = rng.normal(size=(7, 3))
            assert exact_wasserstein_sq_small(x, y) == pytest.approx(
                brute_force_assignment_sq(x, y), abs=1e-9
            )

    def test_size_cap(self):
        big = np.zeros((65, 2))
        with pytest.raises(DimensionError):
            exact_wasserstein_sq_small(big, big)

    def test_empty_sets_rejected(self):
        empty = np.zeros((0, 2))
        with pytest.raises(DimensionError, match="empty point set"):
            exact_wasserstein_sq_small(empty, empty)


class TestSliced:
    def test_identity(self):
        x = np.random.default_rng(3).normal(size=(20, 4))
        cfg = SlicedConfig(num_projections=16)
        assert sliced_wasserstein_sq(x, x.copy(), cfg, Rng(0)) == pytest.approx(
            0.0, abs=1e-7
        )

    def test_translation_expectation(self):
        # For y = x + t*e1, E over directions of <g,e1>^2 is 1/d.
        d, t = 4, 2.0
        x = np.zeros((50, d))
        y = x.copy()
        y[:, 0] += t
        cfg = SlicedConfig(num_projections=8000)
        val = sliced_wasserstein_sq(x, y, cfg, Rng(5))
        assert val == pytest.approx(t * t / d, rel=0.05)

    def test_angular_quadrature_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=(6, 2))
        # deterministic fine quadrature over the half circle
        thetas = (np.arange(2000) + 0.5) * np.pi / 2000
        dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        oracle = np.mean(
            [wasserstein1d_sq(x @ g, y @ g) for g in dirs]
        )
        cfg = SlicedConfig(num_projections=10000)
        val = sliced_wasserstein_sq(x, y, cfg, Rng(6))
        assert val == pytest.approx(oracle, rel=0.10)

    def test_d1_equals_1d_transport_exactly(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(9, 1))
        b = rng.normal(size=(9, 1))
        cfg = SlicedConfig(num_projections=8)  # power of two: exact mean
        val = sliced_wasserstein_sq(a, b, cfg, Rng(7))
        assert val == wasserstein1d_sq(a.ravel(), b.ravel())

    def test_symmetry_frozen_projections(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(12, 3))
        y = rng.normal(size=(12, 3))
        dirs = sample_unit_sphere(3, 32, Rng(8))
        cfg = SlicedConfig(num_projections=32)
        v1 = sliced_wasserstein_sq(x, y, cfg, directions=dirs)
        v2 = sliced_wasserstein_sq(y, x, cfg, directions=dirs)
        assert v1 == pytest.approx(v2, rel=1e-12)
        assert v1 >= 0.0

    def test_translation_growth_frozen(self):
        x = np.random.default_rng(7).normal(size=(15, 3))
        u = np.array([1.0, 0.0, 0.0])
        dirs = sample_unit_sphere(3, 16, Rng(9))
        cfg = SlicedConfig(num_projections=16)
        vals = [
            sliced_wasserstein_sq(x, x + t * u, cfg, directions=dirs)
            for t in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_per_projection_lower_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            m = int(rng.integers(2, 9))
            x = rng.normal(size=(m, 3))
            y = rng.normal(size=(m, 3))
            exact = exact_wasserstein_sq_small(x, y)
            dirs = sample_unit_sphere(3, 64, Rng(10))
            for g in np.asarray(dirs, dtype=np.float64):
                assert wasserstein1d_sq(x @ g, y @ g) <= exact + 1e-9

    def test_unequal_counts_subsample(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 2))
        y = rng.normal(size=(50, 2)) + 3.0
        cfg = SlicedConfig(num_projections=64)
        val = sliced_wasserstein_sq(x, y, cfg, Rng(11))
        assert np.isfinite(val) and val > 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            sliced_wasserstein_sq(np.zeros((3, 2)), np.zeros((3, 3)), SlicedConfig())

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SlicedConfig(num_projections=0)

    @pytest.mark.parametrize(
        "directions",
        [
            np.zeros((0, 3)),
            np.ones((4, 2)),
            np.ones(3),
            np.full((4, 3), np.nan),
            np.array([[1.0, 0.0, 0.0], [np.inf, 0.0, 0.0]]),
        ],
        ids=["no-rows", "wrong-d", "1-d", "nan", "inf"],
    )
    @pytest.mark.parametrize("fn", [sliced_wasserstein_sq, sliced_wasserstein_grad])
    def test_bad_frozen_directions(self, fn, directions):
        x = np.random.default_rng(10).normal(size=(8, 3))
        shapes = re.escape(str(np.shape(directions))) + ".*" + re.escape(str(x.shape))
        with pytest.raises(DimensionError, match=shapes):
            fn(x, x + 1.0, SlicedConfig(num_projections=4), directions=directions)


class TestSlicedGrad:
    def test_identity_gradient_zero(self):
        x = np.random.default_rng(11).normal(size=(10, 3))
        cfg = SlicedConfig(num_projections=32)
        val, grad = sliced_wasserstein_grad(x, x.copy(), cfg, Rng(13))
        assert val == pytest.approx(0.0, abs=1e-7)
        np.testing.assert_allclose(grad, 0.0, atol=1e-7)

    def test_finite_difference_frozen_projections(self):
        rng = np.random.default_rng(12)
        h = 1e-4
        checked = 0
        for _ in range(10):
            m, d = 6, 3
            x = rng.normal(size=(m, d))
            y = rng.normal(size=(m, d))
            dirs = np.asarray(sample_unit_sphere(d, 25, Rng(14)), dtype=np.float64)
            cfg = SlicedConfig(num_projections=25)
            _, grad = sliced_wasserstein_grad(x, y, cfg, directions=dirs)
            # exclude entries whose perturbation can cross a sort tie
            proj_x = x @ dirs.T
            gaps = np.diff(np.sort(proj_x, axis=0), axis=0)
            if gaps.size and gaps.min() < 10 * h:
                continue
            for i in range(m):
                for j in range(d):
                    xp, xm = x.copy(), x.copy()
                    xp[i, j] += h
                    xm[i, j] -= h
                    fp = sliced_wasserstein_sq(xp, y, cfg, directions=dirs)
                    fm = sliced_wasserstein_sq(xm, y, cfg, directions=dirs)
                    num = (fp - fm) / (2 * h)
                    rel = abs(grad[i, j] - num) / (abs(grad[i, j]) + 1e-8)
                    assert rel <= 1e-3
                    checked += 1
        assert checked > 0

    def test_single_point_analytic_expectation(self):
        d = 2
        x = np.zeros((1, d))
        y = np.array([[1.0, 0.0]])
        cfg = SlicedConfig(num_projections=20000)
        _, grad = sliced_wasserstein_grad(x, y, cfg, Rng(15))
        np.testing.assert_allclose(grad[0], [-2.0 / d, 0.0], atol=0.02)

    def test_gradient_descent_reduces_value(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=(20, 3)) + 2.0
        cfg = SlicedConfig(num_projections=64)
        v0 = sliced_wasserstein_sq(x, y, cfg, Rng(16))
        for step in range(50):
            _, g = sliced_wasserstein_grad(x, y, cfg, Rng(100 + step))
            x = x - 0.5 * g
        v1 = sliced_wasserstein_sq(x, y, cfg, Rng(17))
        assert v1 < v0 / 3


EQUAL_COUNTS_M = [1, 2, 3, 10, 384, 1024, 1025, 4097]


class TestBitwiseOracle:
    """The batched estimator against _loop_reference: equal bits, not close."""

    @staticmethod
    def _bits(a):
        return np.asarray(a, dtype=np.float64).view(np.uint64)

    @classmethod
    def _check(cls, x, y, cfg, seed=0, directions=None):
        ref_value, ref_grad = _loop_reference(x, y, cfg, Rng(seed), directions)
        value, grad = sliced_wasserstein_grad(x, y, cfg, Rng(seed), directions)
        assert cls._bits(value) == cls._bits(ref_value)
        value_only = sliced_wasserstein_sq(x, y, cfg, Rng(seed), directions)
        assert cls._bits(value_only) == cls._bits(ref_value)
        assert grad.dtype == np.float64 and grad.shape == np.shape(x)
        assert np.array_equal(cls._bits(grad), cls._bits(ref_grad))
        return grad

    # 2, 3, 1025 and 4097 sit just past a power of two: the packed sort key
    # gives the column index one more bit there.
    @pytest.mark.parametrize("m", EQUAL_COUNTS_M)
    def test_equal_counts(self, m):
        rng = np.random.default_rng(20 + m)
        cfg = SlicedConfig(num_projections=100)
        for seed in range(3):
            self._check(rng.normal(size=(m, 5)), rng.normal(size=(m, 5)), cfg, seed)

    def test_more_x_rows_than_y(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(384, 5))
        y = rng.normal(size=(300, 5)) + 1.0
        grad = self._check(x, y, SlicedConfig(num_projections=100), seed=4)
        rng4 = Rng(4)
        sample_unit_sphere(5, 100, rng4)  # directions come first
        dropped = np.setdiff1d(np.arange(384), rng4.subsample(384, 300))
        assert dropped.size == 84
        assert np.all(grad[dropped] == 0.0) and not np.any(np.signbit(grad[dropped]))
        assert np.count_nonzero(np.any(grad != 0.0, axis=1)) == 300

    def test_fewer_x_rows_than_y(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(380, 5))
        y = rng.normal(size=(384, 5)) - 0.5
        self._check(x, y, SlicedConfig(num_projections=100), seed=5)

    def test_float32_input(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(256, 5)).astype(np.float32)
        y = rng.normal(size=(256, 5)).astype(np.float32)
        self._check(x, y, SlicedConfig(num_projections=100), seed=6)

    def test_frozen_directions(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(200, 4))
        y = rng.normal(size=(150, 4))
        dirs = sample_unit_sphere(4, 37, Rng(9))
        self._check(x, y, SlicedConfig(num_projections=37), seed=7, directions=dirs)

    def test_duplicated_rows_force_ties(self):
        # Repeated x rows project to equal values on every direction, and a
        # repeated +0/-0 pair ties too: only the stable order matches.
        rng = np.random.default_rng(25)
        base = rng.normal(size=(64, 5))
        x = np.concatenate([base, base[::-1], base[:16]])
        x[:2] = 0.0
        x[2] = -0.0
        y = np.concatenate([rng.normal(size=(72, 5))] * 2)
        for seed in range(3):
            grad = self._check(x, y, SlicedConfig(num_projections=100), seed)
            assert not np.array_equal(grad[0], grad[1])

    def test_key_collision_matches(self):
        # Values 1 ulp apart share their packed sort key once its low bits
        # hold the column index; putting the larger value in the earlier
        # column makes the packed order wrong, which must not show.
        rng = np.random.default_rng(26)
        base = rng.normal(size=(200, 1))
        x = np.concatenate([np.nextafter(base, np.inf), base])
        y = rng.normal(size=(400, 1))
        self._check(x, y, SlicedConfig(num_projections=1), directions=np.array([[1.0]]))

    def test_negative_key_collision_matches(self):
        # The mirror of test_key_collision_matches: negative values 1 ulp
        # apart with the larger magnitude in the earlier column, which the
        # float keys order by column, in reverse for negative values.
        rng = np.random.default_rng(32)
        base = -np.abs(rng.normal(size=(200, 1)))
        x = np.concatenate([np.nextafter(base, -np.inf), base])
        y = rng.normal(size=(400, 1))
        self._check(x, y, SlicedConfig(num_projections=1), directions=np.array([[1.0]]))

    @pytest.mark.parametrize("with_nan", [False, True], ids=["inf", "inf-and-nan"])
    def test_rows_holding_inf_and_nan(self, with_nan):
        # Non-negative directions keep an all-inf row at +-inf on every
        # projection; a NaN coordinate makes its row NaN everywhere. The
        # -inf rows of x and y pair up on every projection, and their
        # inf - inf gap is NaN.
        rng = np.random.default_rng(33)
        dirs = np.abs(sample_unit_sphere(3, 20, Rng(14)))
        x = rng.normal(size=(50, 3))
        y = rng.normal(size=(50, 3))
        x[3], x[10], x[30, 0], y[7] = np.inf, -np.inf, np.inf, -np.inf
        if with_nan:
            x[20, 1] = np.nan
        with np.errstate(invalid="ignore"):
            grad = self._check(x, y, SlicedConfig(num_projections=20), directions=dirs)
        assert np.isinf(grad).any() and np.isnan(grad).any()
        assert np.isnan(grad[20]).all() == with_nan

    # (m, d, L): a single projection of several rows; 16 dimensions; and
    # m = d = 1, where the gradient adds one projection at a time.
    @pytest.mark.parametrize("m,d,L", [(2, 5, 1), (384, 5, 1), (384, 16, 100), (1, 16, 1), (1, 1, 100)])
    def test_shapes(self, m, d, L):
        rng = np.random.default_rng(34 + m + d + L)
        cfg = SlicedConfig(num_projections=L)
        for seed in range(3):
            self._check(rng.normal(size=(m, d)), rng.normal(size=(m, d)), cfg, seed)

    @pytest.mark.parametrize("scale", [-1.0, 1e-310, -1e-310, 1e30, -1e-30])
    def test_rows_of_one_sign_and_extreme_magnitude(self, scale):
        # Non-negative directions and same-sign points give projection rows
        # that are all negative, all subnormal or all near 1e+-30.
        rng = np.random.default_rng(27)
        dirs = np.abs(sample_unit_sphere(4, 50, Rng(12)))
        x = scale * np.abs(rng.normal(size=(300, 4)))
        y = scale * np.abs(rng.normal(size=(300, 4)))
        self._check(x, y, SlicedConfig(num_projections=50), directions=dirs)

    def test_zero_direction_component_gives_positive_zero(self):
        # Every rank-paired gap is negative, so each product with the zero
        # component is -0.0; the loop adds them to +0.0 and gets +0.0.
        rng = np.random.default_rng(28)
        dirs = np.abs(sample_unit_sphere(3, 40, Rng(13))).astype(np.float64)
        dirs[:, 1] = 0.0
        y = rng.normal(size=(128, 3))
        x = y - 4.0
        grad = self._check(x, y, SlicedConfig(num_projections=40), directions=dirs)
        assert np.all(grad[:, 1] == 0.0) and not np.any(np.signbit(grad[:, 1]))
        assert np.all(grad[:, [0, 2]] < 0.0)

    def test_tie_free_input_skips_stable_sort(self, monkeypatch):
        # The stable argsort is the fallback for ties; a tie-free call must
        # find the order without it, and a tied call must still use it.
        kinds = []
        argsort = np.argsort

        def spy(*args, **kwargs):
            kinds.append(kwargs.get("kind"))
            return argsort(*args, **kwargs)

        rng = np.random.default_rng(29)
        x = rng.normal(size=(1024, 5))
        y = rng.normal(size=(1024, 5))
        cfg = SlicedConfig(num_projections=100)
        monkeypatch.setattr(np, "argsort", spy)
        sliced_wasserstein_grad(x, y, cfg, Rng(0))
        assert "stable" not in kinds
        sliced_wasserstein_grad(np.concatenate([x[:512], x[:512]]), y, cfg, Rng(0))
        assert "stable" in kinds
        monkeypatch.undo()
        self._check(x, y, cfg)

    @pytest.mark.parametrize("sign", ["positive", "negative", "mixed"])
    @pytest.mark.parametrize("m", EQUAL_COUNTS_M)
    def test_tie_free_rows_never_sort_stably(self, monkeypatch, m, sign):
        # Non-negative directions and points of one sign give projection
        # rows of that sign; random points give rows of mixed sign.
        kinds = []
        argsort = np.argsort

        def spy(*args, **kwargs):
            kinds.append(kwargs.get("kind"))
            return argsort(*args, **kwargs)

        rng = np.random.default_rng(35 + m)
        x, y = rng.normal(size=(m, 5)), rng.normal(size=(m, 5))
        dirs = sample_unit_sphere(5, 100, Rng(15))
        if sign != "mixed":
            s = 1.0 if sign == "positive" else -1.0
            x, y, dirs = s * np.abs(x), s * np.abs(y), np.abs(dirs)
        cfg = SlicedConfig(num_projections=100)
        monkeypatch.setattr(np, "argsort", spy)
        sliced_wasserstein_grad(x, y, cfg, directions=dirs)
        assert "stable" not in kinds
        monkeypatch.undo()
        self._check(x, y, cfg, directions=dirs)

    def test_value_only_call_never_sorts_stably(self, monkeypatch):
        # The value reads sorted values, never an order, so signed zeros
        # and repeated rows, which give every projection row equal
        # neighbours, need no stable sort.
        kinds = []
        for name in ("argsort", "sort"):

            def spy(*args, _fn=getattr(np, name), **kwargs):
                kinds.append(kwargs.get("kind"))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np, name, spy)
        rng = np.random.default_rng(30)
        base = rng.normal(size=(64, 5))
        x = np.concatenate([base, base[::-1], base[:16]])
        x[:2] = 0.0
        x[2] = -0.0
        y = np.concatenate([rng.normal(size=(72, 5))] * 2)
        y[:3] = 0.0
        y[3:5] = -0.0
        cfg = SlicedConfig(num_projections=100)
        for seed in range(3):
            sliced_wasserstein_sq(x, y, cfg, Rng(seed))
        assert kinds and "stable" not in kinds
        monkeypatch.undo()
        for seed in range(3):
            self._check(x, y, cfg, seed)


@pytest.mark.parametrize("m", [1, 2, 3, 64, 1025])
def test_packed_order_rows_are_permutations(m):
    # Any bit pattern (NaNs with payloads, +-inf, signed zeros, subnormals)
    # and rows of ties, near-ties and repeated values.
    rng = np.random.default_rng(36 + m)
    rows = [
        rng.integers(0, 2**64, size=(50, m), dtype=np.uint64).view(np.float64),
        rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 5e-324], size=(50, m)),
        np.nextafter(rng.normal(size=(50, 1)), rng.choice([np.inf, -np.inf], size=(50, m))),
    ]
    for p in rows:
        p = np.ascontiguousarray(p)
        flat = _packed_order(p)
        assert flat.shape == p.shape
        cols = flat - np.arange(0, p.size, m)[:, None]
        assert np.array_equal(np.sort(cols, axis=1), np.broadcast_to(np.arange(m), p.shape))
