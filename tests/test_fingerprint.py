"""Pinned bits of the pipeline: data, a small run and the CLI artifacts.

Three fingerprints, each a set of constants:
- the SHA-256 of every TNS1 file that `write_dataset(standard_shift_spec(0))`
  writes (format version 1);
- a small in-process grid-seg `run_experiment`: its pre/post mIoU, final
  train loss and every bound-diagnostics value, compared with `==`, and the
  SHA-256 of the adapted model and mixture files;
- the SHA-256 of every artifact of the blobs CLI pipeline in
  `tests/test_cli.py`, with the nondeterministic lines left out.

A constant changes only in a change that says why its results moved. The
float64 arithmetic behind the data runs through numpy's SIMD loops, and the
sgemm bits depend on the OpenBLAS kernel picked for this CPU, so the stack
the constants were made on is stored next to them and named in any failure.

The pins hold on OpenBLAS's SkylakeX core only. Under its Haswell core
(`OPENBLAS_CORETYPE=Haswell`; both stacks numpy 2.4.6 with
X86_V3,X86_V4,AVX512_ICL,AVX512_SPR and OpenBLAS 0.3.31.188.0) the first
array of a one-step `train_source` (the acceptance FROZEN config, the
standard source split, seed 0) whose bits differ is the first layer's
forward sgemm, `feature_rows @ W0` of float32 [2048, 27] @ [27, 64]:
12,643 of its 131,072 values, by at most 4.8e-7. The feature rows before it
are equal, and every later array but the softmax-CE value differs; after
the Adam update 5 of the 4,097 parameters do.
"""

import ctypes
import hashlib
from pathlib import Path

import numpy as np

from protoadapt import adaptation
from protoadapt.adaptation import ExperimentConfig, run_experiment
from protoadapt.autodiff import save_model
from protoadapt.cli import main
from protoadapt.datasets import DomainSpec, Shift, gen_grid_seg, standard_shift_spec, write_dataset
from protoadapt.gmm import save_gmm
from test_cli import CONFIG, SPEC

PINNED_STACK = {
    "numpy": "2.4.6",
    "simd": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR",
    "openblas": "0.3.31.188.0",
    "openblas_core": "SkylakeX",
}

PINNED_SHA256 = {
    "source/images.tns1": "35b145f867a9dac111e36b26d6a5f7b6a137b389c7d8457527941bedccdfd4fd",
    "source/labels.tns1": "c698c1cfe8083abf372a065e106654c03fbe0a3f3ffca5c0010188ec597938f7",
    "target_train/images.tns1": "0d9647362154403930ee94c29467ba8af6917a943c5d26aff68620767f3762f8",
    "target_eval/images.tns1": "a819ec03a6516b207a941f7221376589763cf13026623c6ed1a3680f624a7dd1",
    "target_eval/labels.tns1": "1c23414a29d1d0c9c5cecccc80e06f97ea285b1d37815127ed80525435e14cb5",
}

PINNED_RUN = {
    "pre_miou": 0.22794345406215574,
    "post_miou": 0.6743244297883647,
    "final_train_loss": 0.08229777961969376,
    "w_sp_exact": 7.574695581519822,
    "w_sp_sliced": 0.05962888434748922,
    "w_tp_pre_exact": 44.703871473078564,
    "w_tp_pre_sliced": 9.249456105359235,
    "w_tp_post_exact": 9.826011301604856,
    "w_tp_post_sliced": 0.5887008553775529,
    "one_minus_tau": 0.5,
    "e_source": 0.0294921875,
    "e_target_pre": 0.6734375,
    "e_target_post": 0.1591796875,
    "N": 76800,
    "M": 8192,
    "N_p": 4096,
}

PINNED_RUN_SHA256 = {
    "adapted.mdl1": "79a2b59f87879c6fdcbb0b53d44051db8b2e96777873eea58382e57dbfd0439f",
    "model.gmm1": "adf19541dde87db8d313c1a891d60f48bb854cbe4b0893122b6da6ffe98514e5",
}

PINNED_CLI_SHA256 = {
    "model.mdl1": "55d1242b28e3364c5e51150b6d8ba3de435fbb96c79da3642c6727e9712a6d2e",
    "model.mdl1.trainlog.csv": "ecbb13abda95a7d0645bc30ad0d0c721687b663d50529c4dc6d61eaf8be2600c",
    "model.gmm1": "fa8539c7962d61e85275c461b4bac6c78e75904882f06ba5650d62041076a2a4",
    "model.gmm1.meta": "7e9b7e40a7470e49f80dddf0506b15705311f9422291ec256e923781a430b196",
    "adapted/adapted.mdl1": "ec074a46a7c5d080214592e30010f2c32bfc6e3bcac424e95e79c94791c41377",
    "adapted/report.csv": "28a37667f1fd78dc6812e690ce238ed8256d152ba134fa813eb93ac32881b3c5",
    "adapted/diagnostics.txt": "587f5c42f70f50d980587d28dea7f9a8d794681bff8be5f16bebc38d1ed80f40",
    "adapted/gmm_samples.emb1": "8573ea381aea313673bde73d3b2e274f1e259306ea643635388489957986ddc6",
    "adapted/target_post.emb1": "b68808c9cb956ad0a927c941e8c394385f3df49a24ad43d13937d1db5bf83279",
    "adapted/target_pre.emb1": "cb19af251eed76690ca0950d109db05da53e3c96e9b4203e70ac81b474974967",
    "emb/data.emb1": "b90b779e04837032a7eb238785f3563266ef641a6a4e6626e6be11a0f995a02f",
    "emb/data_pre.emb1": "98a3c8f33f56bfed6da259471a5cf145ea50deb99872b047834e7479099654ed",
    "emb/gmm_samples.emb1": "c1427936127e1fd5e2ec11e38109b3b2d8897bd368f836c9d1d93541da00c560",
}


def numpy_stack() -> dict:
    """numpy's version and the SIMD targets it dispatches to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__, "simd": ",".join(simd)}


def blas_stack() -> dict:
    """OpenBLAS's version and the core kernel it picked on this CPU.

    The core name comes from the OpenBLAS that numpy bundles; "unknown" when
    numpy links another BLAS.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            core = corename().decode()
    return {"openblas": str(blas.get("version")), "openblas_core": core}


def this_stack() -> dict:
    return {**numpy_stack(), **blas_stack()}


def assert_pinned(what: str, got: dict, pinned: dict) -> None:
    """One failure naming every moved pin, with its pinned and new value."""
    keys = sorted({**pinned, **got})
    changed = {k: (pinned.get(k), got.get(k)) for k in keys if got.get(k) != pinned.get(k)}
    assert not changed, (
        f"{what} differ from the pinned ones, as name: (pinned, got), in {changed}; "
        f"pinned on {PINNED_STACK}, this stack is {this_stack()}"
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_standard_preset_split_bytes(tmp_path):
    paths = write_dataset(tmp_path, standard_shift_spec(0))
    got = {
        f"{split}/{path.name}": sha256(path.read_bytes())
        for split, directory in paths.items()
        for path in Path(directory).glob("*.tns1")
    }
    assert_pinned("standard-preset split bytes", got, PINNED_SHA256)


def test_small_run_experiment(tmp_path, monkeypatch):
    shift = Shift(channel_gain=(1.4, 0.7, 1.0), noise_sigma=0.1)
    xs, ys = gen_grid_seg(DomainSpec(K=5, n_images=300, seed=0))
    xt, _ = gen_grid_seg(DomainSpec(K=5, n_images=300, seed=1, shift=shift), shifted=True)
    xe, ye = gen_grid_seg(DomainSpec(K=5, n_images=100, seed=2, shift=shift), shifted=True)
    config = ExperimentConfig(
        source_steps=800, adapt_steps=20, pseudo_batch=128, lr=3e-3, tau_fit=0.5, tau_filter=0.5
    )
    train_losses = []
    train_source = adaptation.train_source

    def recording_train_source(*args):
        model, losses = train_source(*args)
        train_losses.extend(losses)
        return model, losses

    monkeypatch.setattr(adaptation, "train_source", recording_train_source)
    result = run_experiment(config, xs, ys, xt, xe, ye)
    save_model(tmp_path / "adapted.mdl1", result.model)
    save_gmm(tmp_path / "model.gmm1", result.gmm)
    got = {
        "pre_miou": result.pre_miou,
        "post_miou": result.post_miou,
        "final_train_loss": train_losses[-1],
        "e_target_pre": result.e_target_pre,
        "e_target_post": result.e_target_post,
        **vars(result.diagnostics),
        **{name: sha256((tmp_path / name).read_bytes()) for name in ("adapted.mdl1", "model.gmm1")},
    }
    # Values and artifact bytes are compared at once, so one run names
    # every pin a change moved.
    assert_pinned("small run_experiment values and artifact bytes", got, {**PINNED_RUN, **PINNED_RUN_SHA256})


def _without(path: Path, key: str) -> bytes:
    lines = path.read_text().splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith(f"{key}=")).encode()


def test_cli_blobs_pipeline(tmp_path):
    (tmp_path / "spec.txt").write_text(SPEC)
    (tmp_path / "config.txt").write_text(CONFIG)
    data, run = tmp_path / "data", tmp_path / "run"
    config = ["--config", str(tmp_path / "config.txt")]
    model, gmm = run / "model.mdl1", run / "model.gmm1"
    adapted = run / "adapted" / "adapted.mdl1"
    for argv in (
        ["gen-data", "--spec", str(tmp_path / "spec.txt"), "--out", str(data)],
        ["train", *config, "--data", str(data / "source"), "--out", str(model)],
        ["estimate", *config, "--ckpt", str(model), "--data", str(data / "source"), "--out", str(gmm)],
        ["adapt", *config, "--ckpt", str(model), "--gmm", str(gmm),
         "--target", str(data / "target_train"), "--out", str(run / "adapted")],
        ["export-embeddings", "--ckpt", str(adapted), "--ckpt-pre", str(model), "--gmm", str(gmm),
         "--data", str(data / "target_train"), "--seed", "0", "--out", str(run / "emb")],
    ):
        assert main(argv) == 0, argv[0]
    names = ["model.mdl1", "model.mdl1.trainlog.csv", "model.gmm1", "adapted/adapted.mdl1", "adapted/report.csv"]
    names += sorted(str(p.relative_to(run)) for p in run.glob("*/*.emb1"))
    got = {name: sha256((run / name).read_bytes()) for name in names}
    # The source path and the wall clock differ from run to run.
    got["model.gmm1.meta"] = sha256(_without(run / "model.gmm1.meta", "source_data"))
    got["adapted/diagnostics.txt"] = sha256(_without(run / "adapted" / "diagnostics.txt", "wall_clock"))
    assert_pinned("CLI blobs pipeline artifact bytes", got, PINNED_CLI_SHA256)
