"""The benchmark tracer patches package functions by name; each must exist
and keep the arguments it reads by position where it reads them."""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from protoadapt.adaptation import EMBED_CHUNK, ExperimentConfig, pixel_embeddings, run_experiment
from protoadapt.autodiff import init_model
from protoadapt.datasets import DomainSpec, gen_blobs
from protoadapt.rng import Rng

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def _resolve(module: str, attr: str):
    return getattr(importlib.import_module(f"protoadapt.{module}"), attr, None)


def test_function_spans_resolve():
    missing = [f"{m}.{a}" for m, a, _ in tracer.FUNCTION_SPANS if not callable(_resolve(m, a))]
    assert not missing, f"benchmark spans name missing functions: {missing}"


def test_tape_ops_and_stages_resolve():
    names = [("autodiff", op) for op in (*tracer.DENSE_OPS, *tracer.SOFTMAX_CE_OPS)]
    names += [("adaptation", stage) for stage in tracer.StageClock.STEP_WINDOWS]
    names += [("autodiff", "adam_step"), ("autodiff", "forward_embed")]
    missing = [f"{m}.{a}" for m, a in names if not callable(_resolve(m, a))]
    assert not missing, f"benchmark hooks name missing functions: {missing}"


# Arguments that Tracer's after-hooks and StageClock read by position:
# (module, function, {index: parameter name}).
POSITIONAL_READS = [
    ("swd", "sliced_wasserstein_grad", {0: "x", 1: "y", 2: "cfg", 4: "directions"}),
    ("linalg", "sample_gaussian", {2: "n"}),
    ("datasets", "load_split", {0: "directory"}),
    ("autodiff", "load_model", {0: "path"}),
    ("gmm", "load_gmm", {0: "path"}),
    ("autodiff", "save_model", {0: "path"}),
    ("gmm", "save_gmm", {0: "path"}),
    ("fileformats", "save_embeddings", {0: "path"}),
    ("autodiff", "backward", {0: "tape"}),
]


@pytest.mark.parametrize(
    "module,attr,expected", POSITIONAL_READS, ids=[f"{m}.{a}" for m, a, _ in POSITIONAL_READS]
)
def test_positionally_read_arguments_stay_put(module, attr, expected):
    params = list(inspect.signature(_resolve(module, attr)).parameters.values())
    found = {
        i: params[i].name
        for i in expected
        if i < len(params) and params[i].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    }
    assert found == expected, f"{module}.{attr} moved an argument the benchmark reads by position"


def test_forward_embed_takes_exactly_model_and_images():
    # StageClock's chunk timer wraps it as `timed(model, images)`.
    assert list(inspect.signature(_resolve("autodiff", "forward_embed")).parameters) == ["model", "images"]


def test_stage_clock_sees_every_step():
    """StageClock counts optimizer steps through the patched `adam_step`; a
    step loop that bound it before the patch would record no windows."""
    xs, ys = gen_blobs(DomainSpec(kind="blobs", K=3, n_images=200, seed=0), shifted=False)
    xt, yt = gen_blobs(DomainSpec(kind="blobs", K=3, n_images=200, seed=1), shifted=True)
    config = ExperimentConfig(
        source_steps=100,
        adapt_steps=20,
        lr=1e-2,
        batch_source=16,
        pseudo_batch=64,
        num_projections=25,
        tau_fit=0.5,
        tau_filter=0.5,
        encoder_hidden=(32, 16),
        neighborhood=False,
    )
    with tracer.StageClock(None) as clock:
        run_experiment(config, xs, ys, xt, xt, yt)
    # STEP_WINDOWS: 50 training steps and 10 adaptation steps per window.
    assert len(clock.windows["train_source"]) == 2
    assert len(clock.windows["adapt_source_free"]) == 2


def test_stage_clock_times_every_inference_chunk():
    """StageClock's chunk timer wraps `forward_embed`, which
    `pixel_embeddings` calls once per EMBED_CHUNK images: 130 images make
    chunks of 64, 64 and 2, each timed over its own pixels."""
    model = init_model(3, 4, rng=Rng(0), neighborhood=True)
    images = np.random.default_rng(0).normal(size=(130, 4, 3, 3)).astype(np.float32)
    with tracer.StageClock(None) as clock:
        emb, _, _ = pixel_embeddings(model, images)
    assert EMBED_CHUNK == 64
    assert len(clock.chunks) == 3
    assert all(rate > 0 and reading is None for rate, reading in clock.chunks)
    assert emb.shape == (130 * 4 * 3, model.embed_dim)
