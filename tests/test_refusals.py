"""Inputs each entry point refuses, one table: the error class, and a message
that names the cause."""

import numpy as np
import pytest

from protoadapt import autodiff as ad
from protoadapt.cli import main
from protoadapt.datasets import DomainSpec, write_dataset
from protoadapt.errors import DimensionError, FileFormatError
from protoadapt.linalg import cholesky, sample_gaussian
from protoadapt.rng import Rng
from protoadapt.swd import (
    SlicedConfig,
    exact_wasserstein_sq_small,
    sliced_wasserstein_sq,
    wasserstein1d_sq,
)


def _leaf(shape):
    return ad.Tape().leaf(np.zeros(shape, np.float32))


REFUSALS = [
    ("subsample k > n", lambda: Rng(0).subsample(3, 5), ValueError, "cannot subsample 5 from 3"),
    (
        "sample_gaussian n < 1",
        lambda: sample_gaussian(np.zeros((0, 2)), np.zeros((0, 2, 2)), 0, Rng(0)),
        ValueError,
        "n >= 1 draws, got 0",
    ),
    ("cholesky not square", lambda: cholesky(np.ones((2, 3))), DimensionError, "square matrix, got (2, 3)"),
    (
        "exact matcher unequal shapes",
        lambda: exact_wasserstein_sq_small(np.zeros((4, 2)), np.zeros((5, 2))),
        DimensionError,
        "must match in shape: (4, 2) vs (5, 2)",
    ),
    ("wasserstein1d_sq empty", lambda: wasserstein1d_sq([], []), DimensionError, "empty input"),
    (
        "sliced estimator empty set",
        lambda: sliced_wasserstein_sq(np.zeros((0, 2)), np.ones((4, 2)), SlicedConfig(5), Rng(0)),
        DimensionError,
        "empty point set",
    ),
    (
        "CE label >= K",
        lambda: ad.vsoftmax_cross_entropy(ad.Tape(), _leaf((3, 4)), np.array([0, 4, 1])),
        IndexError,
        "labels must be in [0, 4), got 0..4",
    ),
    (
        "pixel_features not rank 4",
        lambda: ad.pixel_features(np.zeros((2, 4, 3)), False),
        DimensionError,
        "expected [B,H,W,C] images, got (2, 4, 3)",
    ),
    (
        "forward_embed not rank 4",
        lambda: ad.forward_embed(ad.init_model(3, 4, rng=Rng(0)), np.zeros((2, 4, 3), np.float32)),
        DimensionError,
        "expected [B,H,W,C] images, got (2, 4, 3)",
    ),
    (
        "forward_embed feature width",
        lambda: ad.forward_embed(ad.init_model(3, 4, rng=Rng(0)), np.zeros((1, 2, 2, 4), np.float32)),
        DimensionError,
        "feature dim 4 != model input 3",
    ),
    (
        "embed_flat feature width",
        lambda: ad.embed_flat(ad.init_model(3, 4, rng=Rng(0)), np.zeros((2, 4), np.float32), None),
        DimensionError,
        "feature dim 4 != model input 3",
    ),
    (
        "vmatmul shapes",
        lambda: ad.vmatmul(ad.Tape(), _leaf((2, 3)), _leaf((4, 5))),
        DimensionError,
        "matmul: (2, 3) x (4, 5)",
    ),
    (
        "vdense shapes",
        lambda: ad.vdense(ad.Tape(), _leaf((2, 3)), _leaf((4, 5)), _leaf(5), relu=True),
        DimensionError,
        "matmul: (2, 3) x (4, 5)",
    ),
]


@pytest.mark.parametrize("call,error,message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refused_with_its_cause(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert message in str(exc.value)


def test_zero_width_layer_refused_naming_file(tmp_path, capsys):
    """A checkpoint whose hidden layer has no units: `load_model` names the
    file and the layer, and a command that reads it exits 2."""
    ckpt = tmp_path / "narrow.mdl1"
    ad.save_model(ckpt, ad.init_model(3, 3, encoder_hidden=(0,), rng=Rng(0)))
    with pytest.raises(FileFormatError) as exc:
        ad.load_model(ckpt)
    assert f"{ckpt}: layer 0 has zero width" in str(exc.value)
    paths = write_dataset(tmp_path / "data", DomainSpec(kind="blobs", K=3, n_images=30), n_eval=30)
    assert main(["eval", "--ckpt", str(ckpt), "--data", paths["target_eval"]]) == 2
    assert f"{ckpt}: layer 0 has zero width" in capsys.readouterr().err
