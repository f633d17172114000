"""Counter-based RNG: reproducibility and distributional sanity."""

import numpy as np
import pytest

from protoadapt.rng import Rng


def test_equal_seed_equal_million_draws():
    a = Rng(123).uniform(1_000_000)
    b = Rng(123).uniform(1_000_000)
    assert a.tobytes() == b.tobytes()


def test_different_seeds_differ():
    assert Rng(1).uniform(16).tobytes() != Rng(2).uniform(16).tobytes()


def test_normal_reproducible():
    assert Rng(9).normal((3, 4)).tobytes() == Rng(9).normal((3, 4)).tobytes()


def test_normal_moments():
    x = Rng(5).normal(200_000)
    assert abs(x.mean()) < 0.02
    assert abs(x.std() - 1.0) < 0.02


def test_uniform_range():
    x = Rng(11).uniform(10_000)
    assert np.all(x >= 0.0) and np.all(x < 1.0)


def test_integers_range():
    x = Rng(4).integers(2, 7, 10_000)
    assert x.min() >= 2 and x.max() <= 6
    assert set(np.unique(x)) == {2, 3, 4, 5, 6}


def test_uniform_block_takes_the_draws_of_scalar_calls():
    """One uniform(4) gives the bits of four scalar uniform() calls, with
    integers() drawn before and between the blocks as a grid-seg scene
    draws them; an odd count of those leaves half a 64-bit word buffered."""
    block, scalar = Rng(21), Rng(21)
    assert block.integers(2, 6) == scalar.integers(2, 6)
    for K in (5, 3, 9):
        assert block.integers(1, K) == scalar.integers(1, K)
        assert block.integers(0, 2) == scalar.integers(0, 2)
        want = np.array([scalar.uniform() for _ in range(4)])
        assert block.uniform(4).tobytes() == want.tobytes()
    assert block.integers(0, 2**40, 3).tobytes() == scalar.integers(0, 2**40, 3).tobytes()
    assert block.uniform(5).tobytes() == scalar.uniform(5).tobytes()


def test_subsample_no_replacement():
    s = Rng(8).subsample(100, 30)
    assert len(s) == 30
    assert len(set(s.tolist())) == 30
    assert s.min() >= 0 and s.max() < 100


def test_subsample_owns_its_indices():
    """The k indices are a copy of the permutation's first k, not a view
    that keeps all n alive; values and the stream after them are unchanged."""
    rng = Rng(8)
    s = rng.subsample(512_000, 8192)
    gen = np.random.Generator(np.random.Philox(8))
    view = gen.permutation(512_000)[:8192]
    assert view.base is not None
    assert s.base is None and s.nbytes == 8 * 8192
    assert np.array_equal(s, view)
    assert rng.uniform(4).tobytes() == gen.random(4).tobytes()


def test_seed_outside_its_range_rejected():
    """Seeds are [0, 2**64): no seed runs another seed's stream."""
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            Rng(seed)
    assert Rng(2**64 - 1).uniform(2).tobytes() != Rng(0).uniform(2).tobytes()


def test_categorical_distribution():
    w = np.array([0.2, 0.5, 0.3])
    draws = Rng(6).categorical(w, 100_000)
    freq = np.bincount(draws, minlength=3) / 100_000
    np.testing.assert_allclose(freq, w, atol=0.01)


def test_spawn_streams_independent_and_reproducible():
    base = Rng(77)
    a1 = base.spawn(0).uniform(100)
    a2 = Rng(77).spawn(0).uniform(100)
    b = Rng(77).spawn(1).uniform(100)
    assert a1.tobytes() == a2.tobytes()
    assert a1.tobytes() != b.tobytes()
