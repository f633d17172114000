"""End-to-end command-line workflow and exit-code contract."""

import dataclasses
import os
import re
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from protoadapt import autodiff as ad
from protoadapt.adaptation import EstimateInfo, ExperimentConfig, compute_bound_diagnostics
from protoadapt.cli import load_config, main, read_sidecar
from protoadapt.datasets import DomainSpec, gen_grid_seg, load_split, save_split
from protoadapt.fileformats import (
    load_embeddings,
    load_tensor,
    read_keyvalue,
    save_tensor,
    write_keyvalue,
)
from protoadapt.gmm import PrototypicalGMM, load_gmm, save_gmm
from protoadapt.rng import Rng


SPEC = """\
kind=blobs
K=3
n_images=120
n_eval=60
seed=0
"""

CONFIG = """\
# small, fast settings for workflow tests
source_steps=400
adapt_steps=10
lr=3e-3
batch_source=16
batch_target=16
pseudo_batch=64
num_projections=25
tau_fit=0.5
tau_filter=0.5
lambda=0.5
encoder_hidden=32,16
neighborhood=false
seed=0
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Data, config, checkpoint and mixture shared by the workflow tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "spec.txt").write_text(SPEC)
    (root / "config.txt").write_text(CONFIG)
    assert main(["gen-data", "--spec", str(root / "spec.txt"), "--out", str(root / "data")]) == 0
    assert (
        main(
            [
                "train",
                "--config",
                str(root / "config.txt"),
                "--data",
                str(root / "data" / "source"),
                "--out",
                str(root / "model.mdl1"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "estimate",
                "--config",
                str(root / "config.txt"),
                "--ckpt",
                str(root / "model.mdl1"),
                "--data",
                str(root / "data" / "source"),
                "--out",
                str(root / "model.gmm1"),
            ]
        )
        == 0
    )
    return root


class TestGenData:
    def test_writes_three_splits(self, workspace):
        for split in ("source", "target_train", "target_eval"):
            d = workspace / "data" / split
            assert (d / "images.tns1").exists()
            assert (d / "manifest.txt").exists()
        assert (workspace / "data" / "source" / "labels.tns1").exists()
        assert not (workspace / "data" / "target_train" / "labels.tns1").exists()

    def test_refuses_nonempty_without_force(self, workspace, capsys):
        code = main(
            ["gen-data", "--spec", str(workspace / "spec.txt"), "--out", str(workspace / "data")]
        )
        assert code == 2
        assert "--force" in capsys.readouterr().err

    def test_force_overwrites(self, workspace, tmp_path):
        out = tmp_path / "d"
        spec = str(workspace / "spec.txt")
        assert main(["gen-data", "--spec", spec, "--out", str(out)]) == 0
        assert main(["gen-data", "--spec", spec, "--out", str(out), "--force"]) == 0

    def test_unknown_spec_key_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("kind=blobs\nwibble=3\n")
        code = main(["gen-data", "--spec", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "wibble" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["channels=4", "rotation=1.0", "mean_shift=5.0"])
    def test_grid_seg_spec_field_it_cannot_honour(self, tmp_path, capsys, line):
        # No kind has these knobs any more, so each is an unknown spec key.
        spec = tmp_path / "spec.txt"
        for kind in ("grid-seg", "blobs"):
            spec.write_text(f"kind={kind}\nn_images=2\n{line}\n")
            assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
            assert f"unknown spec key: {line.split('=')[0]}" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "line", ["n_images=0", "height=0", "width=0", "n_images=-2", "n_eval=0"]
    )
    def test_spec_size_below_one_names_field(self, tmp_path, capsys, line):
        spec = tmp_path / "spec.txt"
        key, value = line.split("=")
        fields = {"kind": "grid-seg", "n_images": "2", "n_eval": "2", key: value}
        spec.write_text("".join(f"{k}={v}\n" for k, v in fields.items()))
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert f"{key} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kind,line",
        [
            ("grid-seg", "channel_gain=1.4"),
            ("grid-seg", "channel_gain=1.4,0.7"),
            ("blobs", "channels=0"),
            ("grid-seg", "noise_sigma=-1"),
            ("blobs", "noise_sigma=-1"),
            ("blobs", "channel_gain=1.4,0.7"),
            ("blobs", "channel_gain=1.4,-0.7,1"),
            ("blobs", "rotation=0.7\nchannels=1"),
            ("blobs", "mean_shift=nan"),
            ("blobs", "rotation=inf"),
            ("blobs", "channel_gain=1,nan,1"),
            ("grid-seg", "channel_gain=1.4,-0.7,1"),
        ],
    )
    def test_spec_that_cannot_mean_what_it_says_names_field(self, tmp_path, capsys, kind, line):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"kind={kind}\nn_images=3\nn_eval=3\n{line}\n")
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert line.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", [False, True], ids=["spec-key", "flag"])
    @pytest.mark.parametrize("line", ["n_images=-2", "height=0", "K=3", "noise_sigma=0.5"])
    def test_preset_rejects_other_spec_keys(self, tmp_path, capsys, line, flag):
        spec = tmp_path / "spec.txt"
        spec.write_text(("" if flag else "preset=standard\n") + f"seed=1\nn_eval=4\n{line}\n")
        argv = ["gen-data", "--spec", str(spec), "--out", str(tmp_path / "o")]
        assert main(argv + (["--preset", "standard"] if flag else [])) == 2
        assert line.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_deterministic_output(self, workspace, tmp_path):
        spec = str(workspace / "spec.txt")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--spec", spec, "--out", str(a)]) == 0
        assert main(["gen-data", "--spec", spec, "--out", str(b)]) == 0
        for split in ("source", "target_train", "target_eval"):
            assert (a / split / "images.tns1").read_bytes() == (
                b / split / "images.tns1"
            ).read_bytes()


class TestTrain:
    def test_artifacts(self, workspace):
        assert (workspace / "model.mdl1").exists()
        log = (workspace / "model.mdl1.trainlog.csv").read_text().splitlines()
        assert log[0] == "step,loss"
        assert len(log) == 401
        resolved = read_keyvalue(workspace / "resolved_config.txt")
        assert resolved["source_steps"] == "400"
        assert resolved["lambda"] == "0.5"
        assert resolved["encoder_hidden"] == "32,16"

    def test_resolved_config_round_trips(self, workspace, tmp_path):
        # a default run leaves adapt_lr at None
        first = tmp_path / "first"
        argv = ["train", "--data", str(workspace / "data" / "source"), "--steps", "2"]
        assert main(argv + ["--out", str(first / "m.mdl1")]) == 0
        resolved = first / "resolved_config.txt"
        again = tmp_path / "again"
        assert main(argv + ["--config", str(resolved), "--out", str(again / "m.mdl1")]) == 0
        assert load_config(str(resolved), {}) == load_config(None, {"source_steps": 2})
        assert (again / "resolved_config.txt").read_bytes() == resolved.read_bytes()

    def test_unknown_config_key(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("source_steps=10\nnot_a_key=1\n")
        code = main(
            [
                "train",
                "--config",
                str(bad),
                "--data",
                str(workspace / "data" / "source"),
                "--out",
                str(tmp_path / "m.mdl1"),
            ]
        )
        assert code == 2
        assert "not_a_key" in capsys.readouterr().err

    def test_lambda_has_one_spelling(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("source_steps=1\nlambda_=0.9\n")
        argv = ["train", "--config", str(bad), "--data", str(workspace / "data" / "source")]
        assert main(argv + ["--out", str(tmp_path / "m.mdl1")]) == 2
        assert "unknown config key: lambda_" in capsys.readouterr().err
        assert not (tmp_path / "m.mdl1").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "neighborhood=flase",
            "seed=abc",
            "encoder_hidden=32,x",
            "batch_source=0",
            "source_steps=-3",
            "tau_fit=1.0",
            "encoder_hidden=0",
            "encoder_hidden=64,-3",
        ],
    )
    def test_bad_config_value_names_key(self, workspace, tmp_path, capsys, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"source_steps=10\n{line}\n")
        code = main(
            [
                "train",
                "--config",
                str(bad),
                "--data",
                str(workspace / "data" / "source"),
                "--out",
                str(tmp_path / "m.mdl1"),
            ]
        )
        assert code == 2
        assert line.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "m.mdl1").exists()

    @pytest.mark.filterwarnings("error")
    def test_divergence_exit5(self, workspace, tmp_path, capsys):
        bad = tmp_path / "huge_lr.txt"
        bad.write_text(CONFIG + "lr=1e30\n")
        data, out = workspace / "data" / "source", tmp_path / "m.mdl1"
        code = main(["train", "--config", str(bad), "--data", str(data), "--out", str(out)])
        assert code == 5
        assert "training loss non-finite at step 1" in capsys.readouterr().err

    def test_negative_steps_flag_rejected(self, workspace, tmp_path, capsys):
        argv = ["train", "--data", str(workspace / "data" / "source"), "--steps", "-3"]
        assert main(argv + ["--out", str(tmp_path / "m.mdl1")]) == 2
        assert "source_steps" in capsys.readouterr().err
        assert not (tmp_path / "m.mdl1").exists()

    def test_threads_other_than_one_rejected(self, workspace, tmp_path, capsys):
        argv = ["train", "--data", str(workspace / "data" / "source"), "--out", str(tmp_path / "m.mdl1")]
        assert main(["--threads", "4", *argv]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "m.mdl1").exists()

    def test_missing_data_dir(self, workspace, tmp_path):
        code = main(
            [
                "train",
                "--data",
                str(tmp_path / "nope"),
                "--out",
                str(tmp_path / "m.mdl1"),
            ]
        )
        assert code == 2

    def test_unknown_format_version_exit2(self, workspace, tmp_path, capsys):
        data = tmp_path / "source"
        shutil.copytree(workspace / "data" / "source", data)
        manifest = read_keyvalue(data / "manifest.txt")
        write_keyvalue(data / "manifest.txt", {**manifest, "format_version": "2"})
        argv = ["train", "--data", str(data), "--steps", "1", "--out", str(tmp_path / "m.mdl1")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "format_version" in err and str(data) in err
        assert not (tmp_path / "m.mdl1").exists()

    def test_unlabeled_split_rejected(self, workspace, tmp_path):
        code = main(
            [
                "train",
                "--config",
                str(workspace / "config.txt"),
                "--data",
                str(workspace / "data" / "target_train"),
                "--out",
                str(tmp_path / "m.mdl1"),
            ]
        )
        assert code == 2


class TestEstimate:
    def test_artifacts(self, workspace):
        assert (workspace / "model.gmm1").exists()
        meta = read_keyvalue(str(workspace / "model.gmm1") + ".meta")
        assert meta["source_data"] == os.path.realpath(workspace / "data" / "source")
        assert float(meta["w_sp_exact"]) >= 0.0
        counts = [int(c) for c in meta["support_counts"].split(",")]
        assert len(counts) == 3 and sum(counts) > 0

    def test_unreachable_tau_exit3_names_class(self, workspace, tmp_path, capsys):
        code = main(
            [
                "estimate",
                "--config",
                str(workspace / "config.txt"),
                "--ckpt",
                str(workspace / "model.mdl1"),
                "--data",
                str(workspace / "data" / "source"),
                "--tau",
                "0.99999",
                "--out",
                str(tmp_path / "m.gmm1"),
            ]
        )
        assert code == 3
        assert "class" in capsys.readouterr().err


def run_adapt(workspace, out, seed=None, target=None, extra=()):
    argv = [
        "adapt",
        "--config",
        str(workspace / "config.txt"),
        "--ckpt",
        str(workspace / "model.mdl1"),
        "--gmm",
        str(workspace / "model.gmm1"),
        "--target",
        str(target if target is not None else workspace / "data" / "target_train"),
        "--out",
        str(out),
        *extra,
    ]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv)


def copy_mixture(workspace, tmp_path):
    """A copy of the workspace mixture and its sidecar, to damage freely."""
    gmm = tmp_path / "model.gmm1"
    for suffix in ("", ".meta"):
        shutil.copy(str(workspace / "model.gmm1") + suffix, str(gmm) + suffix)
    return gmm


class TestAdapt:
    def test_artifacts(self, workspace, tmp_path):
        out = tmp_path / "run"
        assert run_adapt(workspace, out) == 0
        assert (out / "adapted.mdl1").exists()
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "step,ce,swd,total"
        assert len(report) == 11
        diag = read_keyvalue(out / "diagnostics.txt")
        for key in ("w_tp_pre_exact", "w_tp_post_exact", "one_minus_tau", "kept_fraction"):
            assert key in diag
        # adapt sees no target labels, so it writes no labelled target error.
        assert not [key for key in diag if key.startswith("e_target_")]
        for name in ("gmm_samples.emb1", "target_pre.emb1", "target_post.emb1"):
            data = load_embeddings(out / name)  # [n, d+2]: embedding|label|pred
            assert data.ndim == 2 and data.shape[0] > 0 and data.shape[1] >= 3
        # pseudo samples are labelled by the classifier that predicts them
        samples = load_embeddings(out / "gmm_samples.emb1")
        np.testing.assert_array_equal(samples[:, -2], samples[:, -1])
        # target rows carry the prediction of the model that embedded them
        for name, ckpt in (("target_pre", workspace / "model.mdl1"), ("target_post", out / "adapted.mdl1")):
            data = load_embeddings(out / f"{name}.emb1")
            pred = ad.forward_classify(ad.load_model(ckpt), data[:, :-2]).argmax(axis=-1)
            np.testing.assert_array_equal(data[:, -1], pred)
            np.testing.assert_array_equal(data[:, -2], -1.0)
        assert (out / "resolved_config.txt").exists()

    @staticmethod
    def library_call(workspace, out):
        """compute_bound_diagnostics on the inputs `adapt` had for `out`."""
        config = load_config(str(workspace / "config.txt"), {})
        images, _, _ = load_split(str(workspace / "data" / "target_train"))
        _, info = read_sidecar(str(workspace / "model.gmm1") + ".meta")
        result = compute_bound_diagnostics(
            load_gmm(workspace / "model.gmm1"),
            ad.load_model(workspace / "model.mdl1"),
            ad.load_model(out / "adapted.mdl1"),
            images,
            config,
            info,
        )
        return result, info

    def test_diagnostics_match_library_call(self, workspace, tmp_path):
        out = tmp_path / "run"
        assert run_adapt(workspace, out) == 0
        (diag, *_), info = self.library_call(workspace, out)
        written = read_keyvalue(out / "diagnostics.txt")
        del written["kept_fraction"], written["wall_clock"]
        assert written == {key: str(value) for key, value in diag.as_dict().items()}
        assert float(written["w_sp_exact"]) == info.w_sp_exact >= 0.0

    def test_exports_are_library_rows(self, workspace, tmp_path):
        out = tmp_path / "run"
        assert run_adapt(workspace, out) == 0
        (_, pseudo, pre_rows, post_rows), _ = self.library_call(workspace, out)
        assert pre_rows.shape == post_rows.shape and len(pre_rows) > 0
        for name, rows in (("target_pre", pre_rows), ("target_post", post_rows)):
            data = load_embeddings(out / f"{name}.emb1")
            np.testing.assert_array_equal(data[:, :-2], rows.astype(np.float32))
        samples = load_embeddings(out / "gmm_samples.emb1")
        np.testing.assert_array_equal(samples[:, :-2], pseudo.Z.astype(np.float32))

    def test_sidecar_is_estimate_info(self, workspace):
        meta = read_keyvalue(str(workspace / "model.gmm1") + ".meta")
        source, info = read_sidecar(str(workspace / "model.gmm1") + ".meta")
        assert source == meta["source_data"]
        fields = [f.name for f in dataclasses.fields(EstimateInfo)]
        assert list(meta) == ["source_data", "tau_fit", *fields]
        assert len(info.support_counts) == 3 and all(type(c) is int for c in info.support_counts)

    @pytest.mark.parametrize("line", ["w_sp_exact=abc", "n_pixels=1.5", "support_counts=3,x", "wibble=1"])
    def test_bad_sidecar_line_names_key(self, workspace, tmp_path, capsys, line):
        gmm = tmp_path / "model.gmm1"
        shutil.copy(workspace / "model.gmm1", gmm)
        meta = read_keyvalue(str(workspace / "model.gmm1") + ".meta")
        key, value = line.split("=")
        write_keyvalue(str(gmm) + ".meta", {**meta, key: value})
        assert run_adapt(workspace, tmp_path / "run", extra=["--gmm", str(gmm)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run" / "adapted.mdl1").exists()

    @pytest.mark.parametrize("damage", ["deleted", "no-source-data"])
    def test_missing_sidecar_exit2(self, workspace, tmp_path, capsys, damage):
        # Without the recorded source path the source-free check cannot run.
        gmm = copy_mixture(workspace, tmp_path)
        meta = Path(str(gmm) + ".meta")
        if damage == "deleted":
            meta.unlink()
        else:
            del (values := read_keyvalue(meta))["source_data"]
            write_keyvalue(meta, values)
        assert run_adapt(workspace, tmp_path / "run", extra=["--gmm", str(gmm)]) == 2
        assert str(meta) in capsys.readouterr().err
        assert not (tmp_path / "run" / "adapted.mdl1").exists()

    def test_truncated_mixture_exit2_names_file(self, workspace, tmp_path, capsys):
        gmm = copy_mixture(workspace, tmp_path)
        gmm.write_bytes(gmm.read_bytes()[:-1])
        assert run_adapt(workspace, tmp_path / "run", extra=["--gmm", str(gmm)]) == 2
        assert f"error: {gmm}: " in capsys.readouterr().err
        assert not (tmp_path / "run" / "adapted.mdl1").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "batch_target=0",
            "pseudo_batch=0",
            "adapt_steps=-3",
            "lr=nan",
            "lr=-1",
            "adapt_lr=inf",
            "lambda=nan",
            "lambda=-2",
        ],
    )
    def test_out_of_range_config_value_names_key(self, workspace, tmp_path, capsys, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(CONFIG + line + "\n")
        assert run_adapt(workspace, tmp_path / "run", extra=["--config", str(bad)]) == 2
        assert line.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "run" / "adapted.mdl1").exists()

    @pytest.mark.filterwarnings("error")
    def test_divergence_exit5(self, workspace, tmp_path, capsys):
        bad = tmp_path / "huge_lr.txt"
        bad.write_text(CONFIG + "adapt_lr=1e30\n")
        assert run_adapt(workspace, tmp_path / "run", extra=["--config", str(bad)]) == 5
        assert "adaptation loss non-finite at step 1" in capsys.readouterr().err

    def test_mismatched_model_and_mixture_exit2(self, workspace, tmp_path, capsys):
        wider = tmp_path / "k5.mdl1"
        ad.save_model(wider, ad.init_model(3, 5, encoder_hidden=(32, 16), rng=Rng(0)))
        assert run_adapt(workspace, tmp_path / "run", extra=["--ckpt", str(wider)]) == 2
        err = capsys.readouterr().err
        assert "K=3" in err and "K=5" in err
        assert not (tmp_path / "run" / "adapted.mdl1").exists()

    def test_corrupt_mixture_sigma_exit2(self, workspace, tmp_path, capsys):
        bad = copy_mixture(workspace, tmp_path)
        data = bytearray(bad.read_bytes())
        n_sigma = load_gmm(bad).sigma.size
        data[len(data) - 4 * n_sigma + 4 + 3] ^= 0x40  # exponent bit of sigma[0, 0, 1]
        bad.write_bytes(bytes(data))
        assert run_adapt(workspace, tmp_path / "run", extra=["--gmm", str(bad)]) == 2
        assert f"error: {bad}: invalid sigma" in capsys.readouterr().err
        assert not (tmp_path / "run" / "adapted.mdl1").exists()

    @pytest.mark.parametrize(
        "command,tensor,at,value,message",
        [
            ("adapt", "mu", (0, 0), float("nan"), "GMM mu value nan at index (0, 0) is not finite"),
            ("export-embeddings", "alpha", (1,), float("inf"),
             "GMM alpha value inf at index (1,) is not finite"),
            ("adapt", "alpha", (2,), -0.25, "is not a set of mixture weights"),
            ("export-embeddings", "alpha", ..., 0.0, "is not a set of mixture weights"),
        ],
        ids=["nan-mu", "inf-alpha", "negative-alpha", "zero-alpha"],
    )
    def test_invalid_mixture_values_exit2_names_file(
        self, workspace, tmp_path, capsys, command, tensor, at, value, message
    ):
        """A mixture with a NaN or +-inf value, a negative weight or weights
        summing to zero is refused on load; each once loaded, and sampling
        drew one class only or NaN pseudo samples without a word."""
        bad = copy_mixture(workspace, tmp_path)
        gmm = load_gmm(bad)
        getattr(gmm, tensor)[at] = value
        save_gmm(bad, gmm)
        out = tmp_path / "out"
        if command == "adapt":
            code = run_adapt(workspace, out, extra=["--gmm", str(bad)])
        else:
            data = workspace / "data" / "source"
            code = main(["export-embeddings", "--ckpt", str(workspace / "model.mdl1"),
                         "--gmm", str(bad), "--data", str(data), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: " in err and message in err
        assert not out.exists()

    def test_source_path_as_target_exit4(self, workspace, tmp_path, capsys):
        code = run_adapt(workspace, tmp_path / "x", target=workspace / "data" / "source")
        assert code == 4
        assert "source data forbidden" in capsys.readouterr().err

    def test_labeled_target_rejected(self, workspace, tmp_path, capsys):
        # a labeled split that is not the source still violates the contract
        code = run_adapt(workspace, tmp_path / "x", target=workspace / "data" / "target_eval")
        assert code == 2
        assert "must not contain a labels file" in capsys.readouterr().err

    def test_source_files_not_needed(self, workspace, tmp_path):
        # copy artifacts, delete all source data, adaptation still works
        import shutil

        iso = tmp_path / "iso"
        iso.mkdir()
        for name in ("model.mdl1", "model.gmm1", "model.gmm1.meta", "config.txt"):
            shutil.copy(workspace / name, iso / name)
        shutil.copytree(workspace / "data" / "target_train", iso / "target")
        argv = [
            "adapt",
            "--config",
            str(iso / "config.txt"),
            "--ckpt",
            str(iso / "model.mdl1"),
            "--gmm",
            str(iso / "model.gmm1"),
            "--target",
            str(iso / "target"),
            "--out",
            str(iso / "run"),
        ]
        assert main(argv) == 0

    def test_determinism(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_adapt(workspace, a, seed=7) == 0
        assert run_adapt(workspace, b, seed=7) == 0
        assert (a / "adapted.mdl1").read_bytes() == (b / "adapted.mdl1").read_bytes()
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
        da = read_keyvalue(a / "diagnostics.txt")
        db = read_keyvalue(b / "diagnostics.txt")
        da.pop("wall_clock"), db.pop("wall_clock")  # timing is not reproducible
        assert da == db

    def test_lambda_zero_override(self, workspace, tmp_path):
        out = tmp_path / "l0"
        assert run_adapt(workspace, out, extra=("--lambda", "0")) == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        for row in rows:
            _, ce, _, total = row.split(",")
            assert float(total) == pytest.approx(float(ce), abs=1e-6)
        resolved = read_keyvalue(out / "resolved_config.txt")
        assert float(resolved["lambda"]) == 0.0


class TestEvalDiagnoseExport:
    def test_eval_prints_per_class_and_mean(self, workspace, tmp_path, capsys):
        out = tmp_path / "metrics.txt"
        code = main(
            [
                "eval",
                "--ckpt",
                str(workspace / "model.mdl1"),
                "--data",
                str(workspace / "data" / "target_eval"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "iou_class_0=" in text and "miou=" in text
        saved = read_keyvalue(out)
        assert 0.0 <= float(saved["miou"]) <= 1.0

    def test_eval_requires_labels(self, workspace):
        code = main(
            [
                "eval",
                "--ckpt",
                str(workspace / "model.mdl1"),
                "--data",
                str(workspace / "data" / "target_train"),
            ]
        )
        assert code == 2

    def test_diagnose_prints_bound_terms(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_adapt(workspace, out) == 0
        capsys.readouterr()
        assert main(["diagnose", "--report", str(out)]) == 0
        text = capsys.readouterr().out
        keys = ("w_tp_pre_exact", "w_tp_post_exact", "one_minus_tau", "kept_fraction", "N", "M", "N_p")
        for key in keys:
            assert f"{key}=" in text

    def test_diagnose_missing_report(self, tmp_path):
        assert main(["diagnose", "--report", str(tmp_path)]) == 2

    def test_export_embeddings(self, workspace, tmp_path):
        out = tmp_path / "emb"
        code = main(
            [
                "export-embeddings",
                "--ckpt",
                str(workspace / "model.mdl1"),
                "--gmm",
                str(workspace / "model.gmm1"),
                "--data",
                str(workspace / "data" / "source"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = load_embeddings(out / "data.emb1")  # [n, d+2]
        assert data.shape[0] == 120  # one embedding per source pixel
        true = data[:, -2]
        assert set(np.unique(true)).issubset({0.0, 1.0, 2.0})
        gmm_data = load_embeddings(out / "gmm_samples.emb1")
        assert gmm_data.shape[1] == data.shape[1]

    @pytest.mark.parametrize("K,dim", [(2, 3), (3, 2)], ids=["K", "dim"])
    def test_export_mixture_not_matching_model_exit2(self, workspace, tmp_path, capsys, K, dim):
        """`export-embeddings --gmm` refuses a mixture whose K or dimension
        is not the K=3, embed_dim=3 model's, as `adapt` does, before it
        creates --out. It once wrote `gmm_samples.emb1` from such a pair."""
        gmm = load_gmm(workspace / "model.gmm1")
        cut = PrototypicalGMM(gmm.alpha[:K], gmm.mu[:K, :dim], gmm.sigma[:K, :dim, :dim], gmm.tau_fit)
        save_gmm(tmp_path / "cut.gmm1", cut)
        out = tmp_path / "emb"
        code = main(["export-embeddings", "--ckpt", str(workspace / "model.mdl1"),
                     "--gmm", str(tmp_path / "cut.gmm1"),
                     "--data", str(workspace / "data" / "source"), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"mixture K={K}, dim={dim} does not match model K=3, embed_dim=3" in err
        assert not out.exists()

    def test_export_embeddings_holds_one_pass(self, tmp_path):
        """Two models over one unlabeled split of 47 chunks: one model's
        pass (embeddings, one label and one confidence per pixel) is held
        at a time, and EMB1 rows go out in blocks. The traced peak was 4.2x
        one file's payload when the whole split was classified into [N, K]
        arrays and the file assembled whole, and is 1.8x now."""
        spec = DomainSpec(K=3, n_images=3000, height=8, width=8, seed=2)
        save_split(tmp_path / "split", spec, "target_train", gen_grid_seg(spec)[0])
        ad.save_model(tmp_path / "m.mdl1", ad.init_model(3, 3, encoder_hidden=(8,), rng=Rng(3), neighborhood=True))
        argv = ["export-embeddings", "--ckpt", str(tmp_path / "m.mdl1"), "--ckpt-pre", str(tmp_path / "m.mdl1")]
        tracemalloc.start()
        try:
            code = main([*argv, "--data", str(tmp_path / "split"), "--out", str(tmp_path / "emb")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        payload = 3000 * 64 * (3 + 2) * 4
        assert (tmp_path / "emb" / "data_pre.emb1").stat().st_size == 4 + 4 * 4 + payload
        assert peak < 2.5 * payload, peak / payload

    def test_missing_checkpoint_is_usage_error(self, workspace, tmp_path):
        code = main(
            [
                "eval",
                "--ckpt",
                str(tmp_path / "nope.mdl1"),
                "--data",
                str(workspace / "data" / "source"),
            ]
        )
        assert code == 2


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("value", [7.0, -1.0, 1.5, float("nan")])
def test_label_outside_classes_exit2_names_split(workspace, tmp_path, capsys, command, value):
    split = "source" if command == "train" else "target_eval"
    data = tmp_path / split
    shutil.copytree(workspace / "data" / split, data)
    labels = load_tensor(data / "labels.tns1")
    labels[0, 0, 0] = value
    save_tensor(data / "labels.tns1", labels)
    if command == "train":
        argv = ["train", "--data", str(data), "--steps", "1", "--out", str(tmp_path / "m.mdl1")]
    else:
        argv = ["eval", "--ckpt", str(workspace / "model.mdl1"), "--data", str(data)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(data) in err and f"label {value:g} is not an integer in [0, 3)" in err
    assert not (tmp_path / "m.mdl1").exists()


def _split_and_model_argv(workspace, command, data, ckpt, out):
    """`command` reading the split `data` and the checkpoint `ckpt`."""
    if command == "train":
        return ["train", "--data", str(data), "--steps", "1", "--out", str(out)]
    if command == "adapt":
        return ["adapt", "--config", str(workspace / "config.txt"), "--ckpt", str(ckpt),
                "--gmm", str(workspace / "model.gmm1"), "--target", str(data), "--out", str(out)]
    argv = [command, "--ckpt", str(ckpt), "--data", str(data)]
    return argv if command == "eval" else [*argv, "--out", str(out)]


SPLIT_OF = {"train": "source", "estimate": "source", "eval": "target_eval"}


@pytest.mark.parametrize(
    "command,value",
    [("train", float("nan")), ("estimate", float("inf")), ("eval", float("nan")),
     ("eval", -float("inf")), ("adapt", float("nan")), ("export-embeddings", float("inf"))],
)
def test_nonfinite_pixel_exit2_names_file(workspace, tmp_path, capsys, command, value):
    """A split with one NaN or +-inf pixel value is refused where it is
    loaded (`eval` once scored such a split, miou=0.2333)."""
    split = SPLIT_OF.get(command, "target_train")
    data = tmp_path / split
    shutil.copytree(workspace / "data" / split, data)
    images = load_tensor(data / "images.tns1")
    images[3, 0, 0, 1] = value
    save_tensor(data / "images.tns1", images)
    out = tmp_path / "out"
    assert main(_split_and_model_argv(workspace, command, data, workspace / "model.mdl1", out)) == 2
    err = capsys.readouterr().err
    assert f"{data / 'images.tns1'}: image value {value:g} at index (3, 0, 0, 1) is not finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,rank", [("adapt", 3), ("export-embeddings", 2), ("eval", 3), ("train", 5)]
)
def test_images_not_rank4_exit2_names_file(workspace, tmp_path, capsys, command, rank):
    """Images that are not [n, H, W, C] are refused where they are loaded,
    labeled split or not (an unlabeled one once failed deep in numpy with
    a message naming no file)."""
    split = SPLIT_OF.get(command, "target_train")
    data = tmp_path / split
    shutil.copytree(workspace / "data" / split, data)
    images = load_tensor(data / "images.tns1")
    images = images.reshape(images.shape[: rank - 1] + (-1,)) if rank < 4 else images[..., None]
    save_tensor(data / "images.tns1", images)
    out = tmp_path / "out"
    assert main(_split_and_model_argv(workspace, command, data, workspace / "model.mdl1", out)) == 2
    err = capsys.readouterr().err
    assert f"{data / 'images.tns1'}: images shape {images.shape} is not [n, H, W, C]" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,tensor,value",
    [("eval", 0, float("nan")), ("estimate", 1, float("inf")),
     ("adapt", 4, -float("inf")), ("export-embeddings", 5, float("nan"))],
)
def test_nonfinite_weight_exit2_names_file(workspace, tmp_path, capsys, command, tensor, value):
    """A checkpoint with one NaN or +-inf weight or bias is refused on load."""
    model = ad.load_model(workspace / "model.mdl1")
    param = model.parameters()[tensor]
    param.data = param.data.copy()
    param.data.reshape(-1)[-1] = value
    ckpt = tmp_path / "bad.mdl1"
    ad.save_model(ckpt, model)
    data = workspace / "data" / SPLIT_OF.get(command, "target_train")
    out = tmp_path / "out"
    assert main(_split_and_model_argv(workspace, command, data, ckpt, out)) == 2
    err = capsys.readouterr().err
    kind = "bias" if tensor % 2 else "weight"
    index = (param.data.size - 1,) if tensor % 2 else tuple(d - 1 for d in param.data.shape)
    assert f"{ckpt}: layer {tensor // 2} {kind} value {value:g} at index {index} is not finite" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def grid8(tmp_path_factory):
    """A K=8 grid-seg workspace whose source labels only use classes 0-5."""
    root = tmp_path_factory.mktemp("grid8")
    (root / "spec.txt").write_text("kind=grid-seg\nK=8\nn_images=2\nn_eval=4\nseed=0\n")
    (root / "config.txt").write_text(CONFIG)
    assert main(["gen-data", "--spec", str(root / "spec.txt"), "--out", str(root / "data")]) == 0
    labels_path = root / "data" / "source" / "labels.tns1"
    save_tensor(labels_path, np.minimum(load_tensor(labels_path), 5))
    argv = ["train", "--config", str(root / "config.txt"), "--data", str(root / "data" / "source")]
    assert main([*argv, "--steps", "20", "--out", str(root / "model.mdl1")]) == 0
    return root


class TestClassCount:
    """The model's K is the manifest's, and a split with another K is refused."""

    def test_train_takes_k_from_the_manifest(self, grid8, capsys):
        assert ad.load_model(grid8 / "model.mdl1").K == 8
        data = grid8 / "data" / "target_eval"
        assert main(["eval", "--ckpt", str(grid8 / "model.mdl1"), "--data", str(data)]) == 0
        assert "iou_class_7=" in capsys.readouterr().out

    def test_estimate_names_the_absent_classes(self, grid8, tmp_path, capsys):
        argv = ["estimate", "--config", str(grid8 / "config.txt")]
        argv += ["--ckpt", str(grid8 / "model.mdl1"), "--data", str(grid8 / "data" / "source")]
        argv += ["--out", str(tmp_path / "m.gmm1")]
        assert main(argv) == 3
        present = np.unique(load_tensor(grid8 / "data" / "source" / "labels.tns1")).astype(int)
        absent = ", ".join(str(j) for j in range(8) if j not in present)
        assert f"classes {absent} are absent from the split" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "estimate", "export-embeddings", "adapt"])
    def test_split_with_another_k_exit2_names_both(self, workspace, tmp_path, capsys, command):
        split = {"eval": "target_eval", "estimate": "source"}.get(command, "target_train")
        data = tmp_path / split
        shutil.copytree(workspace / "data" / split, data)
        write_keyvalue(data / "manifest.txt", {**read_keyvalue(data / "manifest.txt"), "K": "4"})
        out = str(tmp_path / "out")
        if command == "adapt":
            assert run_adapt(workspace, out, target=data) == 2
        else:
            argv = [command, "--ckpt", str(workspace / "model.mdl1"), "--data", str(data)]
            assert main(argv + ([] if command == "eval" else ["--out", out])) == 2
        err = capsys.readouterr().err
        assert f"{data}: split K=4 does not match the model's K=3" in err
        assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command,flag,value,key",
    [
        ("train", "--steps", "3", "source_steps"),
        ("estimate", "--tau", "0.25", "tau_fit"),
        ("adapt", "--tau", "0.25", "tau_filter"),
        ("adapt", "--iters", "3", "adapt_steps"),
        ("adapt", "--lambda", "0.25", "lambda"),
    ],
)
def test_flag_overrides_its_config_field(workspace, tmp_path, command, flag, value, key):
    """Each flag replaces the config file's value of its field; `estimate`
    records `tau_fit` in the mixture's sidecar."""
    assert read_keyvalue(workspace / "config.txt")[key] != value
    if command == "adapt":
        assert run_adapt(workspace, tmp_path, extra=(flag, value)) == 0
    else:
        argv = [command, "--config", str(workspace / "config.txt"), flag, value]
        argv += ["--data", str(workspace / "data" / "source"), "--out", str(tmp_path / "m")]
        if command == "estimate":
            argv += ["--ckpt", str(workspace / "model.mdl1")]
        assert main(argv) == 0
    written = tmp_path / ("m.meta" if command == "estimate" else "resolved_config.txt")
    assert read_keyvalue(written)[key] == value


def test_readme_config_keys_match_experiment_config():
    """README's lists of config and sidecar keys name every ExperimentConfig
    and EstimateInfo field."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Keys mirror\s+`ExperimentConfig`:(.*?)\. Values are parsed", readme, re.S)
    keys = re.findall(r"`(\w+)`", listed.group(1))
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert keys == ["lambda" if name == "lambda_" else name for name in fields]
    listed = re.search(r"the `EstimateInfo` fields:(.*?)\. `adapt` reads it", readme, re.S)
    keys = re.findall(r"`(\w+)`", listed.group(1))
    assert keys == [f.name for f in dataclasses.fields(EstimateInfo)]


class TestSeedRange:
    """Seeds are integers in [0, 2**64). Every place a seed enters refuses
    one outside with exit 2, naming the key, instead of running the streams
    of the seed it aliases (2**64 ran seed 0's, -1 ran seed 2**64-1's)."""

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_experiment_seed(self, workspace, tmp_path, capsys, seed, where):
        out = tmp_path / "m.mdl1"
        argv = ["train", "--data", str(workspace / "data" / "source"), "--out", str(out)]
        if where == "flag":
            argv += ["--steps", "1", "--seed", str(seed)]
        else:
            (tmp_path / "c.txt").write_text(f"source_steps=1\nseed={seed}\n")
            argv += ["--config", str(tmp_path / "c.txt")]
        assert main(argv) == 2
        assert f"config seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines,message",
        [
            ("kind=blobs\nseed=-1", "seed must be in [0, 2**64), got -1"),
            (f"kind=blobs\nseed={2**64}", f"seed must be in [0, 2**64), got {2**64}"),
            (f"preset=standard\nseed={2**64}", f"seed must be in [0, 2**64), got {2**64}"),
            # the target splits would run seed+1 and seed+2
            (f"kind=blobs\nseed={2**64 - 2}", "target splits take seed+1 and seed+2"),
        ],
    )
    def test_spec_seed(self, tmp_path, capsys, lines, message):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"{lines}\nn_eval=2\n" + ("" if "preset" in lines else "n_images=2\n"))
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_largest_spec_seed_runs(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"kind=blobs\nn_images=2\nn_eval=2\nseed={2**64 - 3}\n")
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
        manifest = read_keyvalue(tmp_path / "o" / "target_eval" / "manifest.txt")
        assert manifest["seed"] == str(2**64 - 1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_export_seed(self, workspace, tmp_path, capsys, seed):
        out = tmp_path / "emb"
        argv = ["export-embeddings", "--ckpt", str(workspace / "model.mdl1")]
        argv += ["--gmm", str(workspace / "model.gmm1")]
        argv += ["--data", str(workspace / "data" / "source")]
        assert main(argv + ["--out", str(out), "--seed", str(seed)]) == 2
        assert f"--seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not out.exists()
