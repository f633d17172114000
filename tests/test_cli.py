"""End-to-end command-line workflow and exit-code contract."""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from protoadapt import adaptation as adapt_mod
from protoadapt import autodiff as ad
from protoadapt import cli
from protoadapt import datasets as ds
from protoadapt import fileformats
from protoadapt import gmm as gmm_mod
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
            ("grid-seg", "preset=standrad"),
            ("blobs", "preset="),
            # a blobs image is 1x1
            ("blobs", "height=99"),
            ("blobs", "width=7"),
            ("blobs", "width=16\nheight=1"),
            # images that overflow float32, which no command reads back
            ("blobs", "noise_sigma=inf"),
            ("blobs", "channel_gain=1e39,1,1"),
            ("grid-seg", "noise_sigma=1e39"),
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
        assert "divergence: training loss non-finite at step 1" in capsys.readouterr().err

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
        assert capsys.readouterr().err.startswith("estimation error: class ")


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


def flip_low_mu_bit(gmm):
    """Flip the low bit of mu[0, 0] in the GMM1 file `gmm`, which still loads."""
    fit, data = load_gmm(gmm), bytearray(gmm.read_bytes())
    # mu's payload ends where sigma's 20-byte TNS1 header begins.
    data[len(data) - 4 * fit.sigma.size - 20 - 4 * fit.mu.size] ^= 1
    gmm.write_bytes(bytes(data))
    assert load_gmm(gmm).mu[0, 0] != fit.mu[0, 0]


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
        _, _, info = read_sidecar(str(workspace / "model.gmm1") + ".meta")
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
        assert written == {key: str(value) for key, value in vars(diag).items()}
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
        source, _, info = read_sidecar(str(workspace / "model.gmm1") + ".meta")
        assert source == meta["source_data"]
        fields = [f.name for f in dataclasses.fields(EstimateInfo)]
        assert list(meta) == ["source_data", "tau_fit", "gmm_sha256", *fields]
        assert len(info.support_counts) == 3 and all(type(c) is int for c in info.support_counts)

    @pytest.mark.parametrize(
        "line",
        ["w_sp_exact=abc", "n_pixels=1.5", "support_counts=3,x", "wibble=1",
         pytest.param("support_counts=1" + "0" * 400 + ",1,1", id="support_counts=10**400,1,1"),
         # values no estimate writes
         "w_sp_exact=-inf", "w_sp_exact=-0.5", "w_sp_sliced=nan", "w_sp_sliced=inf",
         "e_source=nan", "e_source=1.5", "e_source=-0.25", "n_pixels=-5", "n_pixels=0"],
    )
    def test_bad_sidecar_line_names_key(self, workspace, tmp_path, capsys, line):
        gmm = tmp_path / "model.gmm1"
        shutil.copy(workspace / "model.gmm1", gmm)
        meta = read_keyvalue(str(workspace / "model.gmm1") + ".meta")
        key, value = line.split("=")
        write_keyvalue(str(gmm) + ".meta", {**meta, key: value})
        assert run_adapt(workspace, tmp_path / "run", extra=["--gmm", str(gmm)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run" / "adapted.mdl1").exists()

    @pytest.mark.parametrize(
        "damage",
        ["deleted", "no-source-data", "no-gmm-sha256", *(f"no-{f.name}" for f in dataclasses.fields(EstimateInfo))],
    )
    def test_missing_sidecar_exit2(self, workspace, tmp_path, capsys, damage):
        # Without the recorded source path the source-free check cannot run,
        # and no EstimateInfo field has a stand-in value.
        gmm = copy_mixture(workspace, tmp_path)
        meta = Path(str(gmm) + ".meta")
        key = damage.removeprefix("no-").replace("-", "_")
        if damage == "deleted":
            meta.unlink()
        else:
            del (values := read_keyvalue(meta))[key]
            write_keyvalue(meta, values)
        assert run_adapt(workspace, tmp_path / "run", extra=["--gmm", str(gmm)]) == 2
        err = capsys.readouterr().err
        assert str(meta) in err and (damage == "deleted" or f"no {key} line" in err)
        assert not (tmp_path / "run" / "adapted.mdl1").exists()

    def test_sidecar_of_another_fit_exit2_names_both(self, tmp_path, capsys):
        """A mixture beside the sidecar of an `estimate` at another tau would
        adapt with that fit's w_sp, e_source and N. The blobs workspace
        keeps every source pixel at each tau its fit reaches, so this runs
        on a grid-seg split, whose support shrinks as tau rises."""
        (tmp_path / "spec.txt").write_text("kind=grid-seg\nK=3\nn_images=8\nn_eval=2\nseed=0\n")
        (tmp_path / "config.txt").write_text(CONFIG)
        assert main(["gen-data", "--spec", str(tmp_path / "spec.txt"), "--out", str(tmp_path / "data")]) == 0
        config, data = ["--config", str(tmp_path / "config.txt")], str(tmp_path / "data" / "source")
        ckpt, gmm, other = (str(tmp_path / name) for name in ("model.mdl1", "model.gmm1", "other.gmm1"))
        assert main(["train", *config, "--data", data, "--out", ckpt]) == 0
        for tau, out in (("0.6", gmm), ("0", other)):
            assert main(["estimate", *config, "--ckpt", ckpt, "--data", data, "--tau", tau, "--out", out]) == 0
        counts = [read_sidecar(path + ".meta")[2].support_counts for path in (gmm, other)]
        assert counts[0] != counts[1]
        shutil.copy(other + ".meta", gmm + ".meta")
        capsys.readouterr()
        argv = ["adapt", *config, "--ckpt", ckpt, "--gmm", gmm, "--target", str(tmp_path / "data" / "target_train")]
        assert main([*argv, "--out", str(tmp_path / "run")]) == 2
        assert f"error: {gmm}.meta was written by another estimate than {gmm}:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_sidecar_of_another_model_exit2_names_both(self, workspace, tmp_path, capsys):
        """On blobs every source pixel is supported at any tau a fit reaches,
        so a model trained at another seed gives the same support_counts.
        Its sidecar still names its own mixture, not the workspace's."""
        config, data = ["--config", str(workspace / "config.txt")], str(workspace / "data" / "source")
        ckpt, other = str(tmp_path / "seed2.mdl1"), str(tmp_path / "seed2.gmm1")
        assert main(["train", *config, "--data", data, "--seed", "2", "--out", ckpt]) == 0
        assert main(["estimate", *config, "--ckpt", ckpt, "--data", data, "--out", other]) == 0
        gmm = copy_mixture(workspace, tmp_path)
        infos = [read_sidecar(path)[2] for path in (other + ".meta", f"{gmm}.meta")]
        assert infos[0].support_counts == infos[1].support_counts and infos[0] != infos[1]
        shutil.copy(other + ".meta", f"{gmm}.meta")
        capsys.readouterr()
        assert run_adapt(workspace, tmp_path / "run", extra=["--gmm", str(gmm)]) == 2
        assert f"error: {gmm}.meta was written by another estimate than {gmm}:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_mu_bit_flip_exit2_names_both(self, workspace, tmp_path, capsys):
        """One flipped `mu` bit leaves a mixture that loads; only the
        sidecar's gmm_sha256 tells it from the one `estimate` wrote."""
        gmm = copy_mixture(workspace, tmp_path)
        flip_low_mu_bit(gmm)
        assert run_adapt(workspace, tmp_path / "run", extra=["--gmm", str(gmm)]) == 2
        assert f"error: {gmm}.meta was written by another estimate than {gmm}:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("counts", ["-1,41,80", "0,0,0", "41,40,40"])
    def test_sidecar_counts_no_fit_gives_names_key(self, workspace, tmp_path, counts):
        """Support counts count source pixels: none is negative, and their
        sum lies in [1, n_pixels] (120 on the blobs workspace)."""
        meta = read_keyvalue(str(workspace / "model.gmm1") + ".meta")
        assert meta["n_pixels"] == "120"
        write_keyvalue(tmp_path / "m.meta", {**meta, "support_counts": counts})
        with pytest.raises(cli.CliError, match=re.escape(f"{tmp_path / 'm.meta'}: sidecar support_counts")) as refused:
            read_sidecar(str(tmp_path / "m.meta"))
        assert str(refused.value).endswith(f"got ({counts.replace(',', ', ')})")

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
        assert "divergence: adaptation loss non-finite at step 1" in capsys.readouterr().err

    def test_mismatched_model_and_mixture_exit2(self, workspace, tmp_path, capsys):
        wider = tmp_path / "k5.mdl1"
        ad.save_model(wider, ad.init_model(3, 5, encoder_hidden=(32, 16), rng=Rng(0)))
        assert run_adapt(workspace, tmp_path / "run", extra=["--ckpt", str(wider)]) == 2
        err = capsys.readouterr().err
        assert "K=3" in err and "K=5" in err
        assert not (tmp_path / "run" / "adapted.mdl1").exists()

    def test_pseudo_sampling_keeps_too_few_exit3(self, workspace, tmp_path, capsys):
        """A classifier whose last layer is all zeros gives every class 1/3,
        so pseudo sampling at tau 0.9 keeps none of the mixture's draws."""
        model = ad.init_model(3, 3, encoder_hidden=(32, 16), rng=Rng(0))
        model.classifier_layers[-1][0].data[:] = 0.0
        flat = tmp_path / "flat.mdl1"
        ad.save_model(flat, model)
        extra = ["--ckpt", str(flat), "--tau", "0.9"]
        assert run_adapt(workspace, tmp_path / "run", extra=extra) == 3
        assert "generation error: retained 0/64" in capsys.readouterr().err
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

    @pytest.mark.parametrize("where", ["split", "under-split", "above-split"])
    def test_source_path_as_target_exit4(self, workspace, tmp_path, capsys, where):
        """The recorded source split, a directory under it or one that holds it."""
        source = workspace / "data" / "source"
        target = {"split": source, "under-split": source / "sub", "above-split": source.parent}[where]
        assert run_adapt(workspace, tmp_path / "x", target=target) == 4
        assert "source data forbidden" in capsys.readouterr().err

    def test_out_in_checkpoint_dir_exit2_keeps_train_record(self, workspace, tmp_path, capsys):
        """adapt writes its own resolved_config.txt into --out, so an --out
        that is the checkpoint's directory would replace train's record."""
        run = tmp_path / "run"
        run.mkdir()
        for name in ("model.mdl1", "model.gmm1", "model.gmm1.meta", "resolved_config.txt"):
            shutil.copy(workspace / name, run / name)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        argv = ["adapt", "--config", str(workspace / "config.txt"), "--ckpt", str(run / "model.mdl1"),
                "--gmm", str(run / "model.gmm1"), "--target", str(workspace / "data" / "target_train"),
                "--lambda", "0.9", "--out", str(run)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"--out {run} " in err and str(run / "model.mdl1") in err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("inside", ["", "run"], ids=["split", "under-split"])
    def test_out_in_target_split_exit2_writes_nothing(self, workspace, tmp_path, capsys, inside):
        target = tmp_path / "target"
        shutil.copytree(workspace / "data" / "target_train", target)
        before = sorted(p.relative_to(target) for p in target.rglob("*"))
        assert run_adapt(workspace, target / inside, target=target) == 2
        err = capsys.readouterr().err
        assert f"--out {target / inside} " in err and f"target split {target}" in err
        assert sorted(p.relative_to(target) for p in target.rglob("*")) == before

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

    def test_export_seed_without_gmm_exit2(self, workspace, tmp_path, capsys):
        """The seed drives only the pseudo draw of --gmm; without one it
        would be ignored."""
        out = tmp_path / "emb"
        argv = ["export-embeddings", "--ckpt", str(workspace / "model.mdl1"),
                "--data", str(workspace / "data" / "source"), "--seed", "3", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "--gmm" in err
        assert not out.exists()

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

    def test_export_mu_bit_flip_exit2_names_both(self, workspace, tmp_path, capsys):
        """`export-embeddings --gmm` pairs the mixture with its sidecar by
        SHA-256, as `adapt` does: one flipped `mu` bit is refused."""
        gmm = copy_mixture(workspace, tmp_path)
        flip_low_mu_bit(gmm)
        out = tmp_path / "emb"
        code = main(["export-embeddings", "--ckpt", str(workspace / "model.mdl1"), "--gmm", str(gmm),
                     "--data", str(workspace / "data" / "source"), "--out", str(out)])
        assert code == 2
        assert f"error: {gmm}.meta was written by another estimate than {gmm}:" in capsys.readouterr().err
        assert not out.exists()

    def test_export_out_over_sidecar_exit2_names_it(self, workspace, tmp_path, capsys):
        """The sidecar of `--gmm` is one of export-embeddings' reads."""
        gmm = copy_mixture(workspace, tmp_path)
        meta = Path(f"{gmm}.meta")
        before = meta.read_bytes()
        code = main(["export-embeddings", "--ckpt", str(workspace / "model.mdl1"), "--gmm", str(gmm),
                     "--data", str(workspace / "data" / "source"), "--out", str(meta)])
        assert code == 2
        assert f"lies in the mixture sidecar {meta}" in capsys.readouterr().err
        assert meta.read_bytes() == before

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

    def test_internal_error_is_not_a_usage_error(self, workspace, monkeypatch):
        """An IndexError raised inside a command is a bug, not a bad input:
        `main` lets it through, so the process exits 1 with its traceback.
        It once printed `error: index 7 is out of bounds ...` and exited 2."""

        def bug(*args):
            raise IndexError("index 7 is out of bounds for axis 0 with size 3")

        monkeypatch.setattr(adapt_mod, "evaluate_miou", bug)
        argv = ["eval", "--ckpt", str(workspace / "model.mdl1")]
        with pytest.raises(IndexError, match="index 7 is out of bounds"):
            main([*argv, "--data", str(workspace / "data" / "target_eval")])


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


def split_argv(workspace, command, split, out):
    """argv of `command` reading the split `split` and writing `out`."""
    ckpt, config = str(workspace / "model.mdl1"), ["--config", str(workspace / "config.txt")]
    argv = {
        "train": ["train", *config],
        "estimate": ["estimate", *config, "--ckpt", ckpt],
        "adapt": ["adapt", *config, "--ckpt", ckpt, "--gmm", str(workspace / "model.gmm1")],
        "eval": ["eval", "--ckpt", ckpt],
        "export-embeddings": ["export-embeddings", "--ckpt", ckpt],
    }[command]
    return [*argv, "--target" if command == "adapt" else "--data", str(split), "--out", str(out)]


# The split each command reads in the walkthrough.
USUAL_SPLIT = {"train": "source", "estimate": "source", "adapt": "target_train",
               "eval": "target_eval", "export-embeddings": "target_train"}

# (command, bad input, message): every refusal of a bad input that a command
# can meet, each exit 2 naming the file or the key. The split reader's rows
# come first: labels are required by train, estimate and eval, forbidden by
# adapt and optional for export-embeddings; train has no model whose K the
# split could contradict. A damaged artifact (`<file>-<damage>`) is missing,
# truncated by its last byte, padded by one byte or has another magic. An
# indefinite mixture has class 1's first variance set to -1e-7 and that
# dimension's covariances to 0: indefinite by 1e-7 only, less than one jitter
# of `default_jitter`, so a loader that retried with jitter would accept it.
DAMAGES = {
    "missing": None,
    "truncated": lambda data: data[:-1],
    "padded": lambda data: data + b"\0",
    "magic": lambda data: b"XXXX" + data[4:],
}
DAMAGE_MESSAGE = {"missing": "No such file or directory", "padded": "trailing bytes after payload",
                  "magic": "magic b'XXXX'"}
# MDL1 ends with u32 fields; TNS1 and GMM1 end with a tensor payload.
TRUNCATED_MESSAGE = {"images": "bytes left", "ckpt": "truncated file: wanted 4 bytes", "gmm": "bytes left"}
# A checkpoint handed over where a key=value text file belongs.
NOT_TEXT = "not a key=value text file: 'utf-8' codec can't decode"
# gen-data specs (after kind=) too large to allocate: (lines, what the
# refusal names, the rest of its message).
E17 = "0" * 17
OVERSIZED = {
    "grid-seg-n_images=10**11": ("grid-seg\nn_images=100000000000\nn_eval=2", "n_images=100000000000", "cannot be"),
    "grid-seg-n_images=10**18": (f"grid-seg\nn_images=10{E17}\nn_eval=2", f"n_images=10{E17}", "cannot be"),
    "blobs-n_images=10**18": (f"blobs\nn_images=10{E17}\nn_eval=2", f"n_images=10{E17}", "cannot be"),
    "blobs-n_eval=10**18": (f"blobs\nn_images=10\nn_eval=10{E17}", f"n_eval=10{E17}", "cannot be"),
    "blobs-K=10**18": (f"blobs\nK=10{E17}\nn_images=2\nn_eval=2", "K must be in [2, 2**24]", f"got 10{E17}"),
}
# Config lines out of range, for commands whose other tests do not try them.
CONFIG_LINES = {
    "estimate": ["tau_fit=1.5", f"seed={2**64}", f"num_projections={10**18}"],
    "train": [f"encoder_hidden=32,{10**18}", f"batch_source={10**18}"],
    "adapt": [f"num_projections={10**18}", f"pseudo_batch={10**18}", f"batch_target={10**18}"],
}
SPLIT_REFUSALS = (
    [(c, "missing", "directory not found: ") for c in USUAL_SPLIT]
    + [(c, "unlabeled", "labels missing in ") for c in ("train", "estimate", "eval")]
    + [("adapt", "labeled", ": target directory must not contain a labels file")]
    + [(c, "other-k", ": split K=4 does not match the model's K=3")
       for c in ("estimate", "adapt", "eval", "export-embeddings")]
    + [(c, case, ", channels=3 differs from images (") for c in USUAL_SPLIT
       for case in ("short-images", "edited-height")]
    + [(c, f"images-{d}", DAMAGE_MESSAGE.get(d, TRUNCATED_MESSAGE["images"]))
       for c in USUAL_SPLIT for d in DAMAGES]
    + [(c, "manifest-not-text", NOT_TEXT) for c in USUAL_SPLIT]
    + [(c, f"ckpt-{d}", DAMAGE_MESSAGE.get(d, TRUNCATED_MESSAGE["ckpt"]))
       for c in ("estimate", "adapt", "eval", "export-embeddings") for d in DAMAGES]
    + [(c, f"gmm-{d}", DAMAGE_MESSAGE.get(d, TRUNCATED_MESSAGE["gmm"]))
       for c in ("adapt", "export-embeddings") for d in DAMAGES]
    + [(c, "gmm-indefinite", "invalid sigma: matrix not positive definite (class 1)")
       for c in ("adapt", "export-embeddings")]
    + [("adapt", "meta-not-text", NOT_TEXT)]
    + [(c, "config-not-text", NOT_TEXT) for c in ("train", "estimate", "adapt")]
    + [(c, f"config-{line}", line.split("=")[0]) for c, lines in CONFIG_LINES.items() for line in lines]
    + [("gen-data", "spec-not-text", NOT_TEXT)]
    + [("gen-data", f"spec-{case}", message) for case, (_, _, message) in OVERSIZED.items()]
    + [("diagnose", "report-missing", "no diagnostics.txt under "), ("diagnose", "diagnostics-not-text", NOT_TEXT)]
)


def bad_input_argv(workspace, tmp_path, command, case):
    """(argv, what its refusal must name) for `command` meeting the bad input
    `case`. Inputs are copies under `tmp_path`; outputs go under its `run`."""
    out, not_text = tmp_path / "run" / "out", (workspace / "model.mdl1").read_bytes()
    if command == "gen-data":
        spec = tmp_path / "spec.txt"
        if case == "spec-not-text":
            spec.write_bytes(not_text)
            return ["gen-data", "--spec", str(spec), "--out", str(out)], spec
        text, named, _ = OVERSIZED[case[len("spec-"):]]
        spec.write_text(f"kind={text}\n")
        return ["gen-data", "--spec", str(spec), "--out", str(out)], named
    if command == "diagnose":
        report = tmp_path / "report"
        report.mkdir()
        if case == "diagnostics-not-text":
            (report / "diagnostics.txt").write_bytes(not_text)
            return ["diagnose", "--report", str(report)], report / "diagnostics.txt"
        return ["diagnose", "--report", str(report)], report
    split = tmp_path / "split"
    argv = split_argv(workspace, command, split, out)
    if case != "missing":
        name = {"unlabeled": "target_train", "labeled": "target_eval"}.get(case, USUAL_SPLIT[command])
        shutil.copytree(workspace / "data" / name, split)
    if case == "short-images":
        save_tensor(split / "images.tns1", load_tensor(split / "images.tns1")[:-1])
    edit = {"other-k": {"K": "4"}, "edited-height": {"height": "2"}}.get(case)
    if edit:
        write_keyvalue(split / "manifest.txt", read_keyvalue(split / "manifest.txt") | edit)
    kind, _, how = case.partition("-")
    if kind == "config":
        config = tmp_path / "config.txt"
        argv[argv.index("--config") + 1] = str(config)
        if how == "not-text":
            config.write_bytes(not_text)
            return argv, config
        config.write_text(CONFIG + how + "\n")
        return argv, how.split("=")[0]
    named = {"images": split / "images.tns1", "manifest": split / "manifest.txt"}.get(kind, split)
    if kind in ("ckpt", "gmm", "meta"):  # a copy to damage takes the workspace file's place
        flag = "--ckpt" if kind == "ckpt" else "--gmm"
        if kind == "ckpt":
            named = tmp_path / "model.mdl1"
            shutil.copy(workspace / "model.mdl1", named)
        else:
            named = copy_mixture(workspace, tmp_path)
        if flag not in argv:  # export-embeddings reads a mixture only when given one
            argv += [flag, ""]
        argv[argv.index(flag) + 1] = str(named)
        if kind == "meta":
            named = tmp_path / "model.gmm1.meta"
    if how == "not-text":
        named.write_bytes(not_text)
    elif how == "indefinite":  # in sigma's payload, which ends the file
        shape, data = load_gmm(named).sigma.shape, named.read_bytes()
        at = len(data) - 4 * int(np.prod(shape))
        sigma = np.frombuffer(data[at:], "<f4").reshape(shape).copy()
        sigma[1, 0, 1:] = sigma[1, 1:, 0] = 0.0
        sigma[1, 0, 0] = -1e-7
        named.write_bytes(data[:at] + sigma.tobytes())
    elif how in DAMAGES:
        data = named.read_bytes()
        named.unlink()
        if DAMAGES[how]:
            named.write_bytes(DAMAGES[how](data))
    return argv, named


class TestSplitReader:
    """Every command refuses a bad input, exit 2 naming the file or the key,
    before it writes anything: the split reader's refusals, a damaged
    artifact, a key=value file that is not text, a config value out of
    range and a spec too large to allocate. None relies on `main` mapping a
    bare ValueError, KeyError or IndexError to exit 2, which it no longer
    does."""

    @pytest.mark.parametrize("command,case,message", SPLIT_REFUSALS,
                             ids=[f"{c}-{case}" for c, case, _ in SPLIT_REFUSALS])
    def test_bad_split_exit2_names_it(self, workspace, tmp_path, capsys, command, case, message):
        argv, named = bad_input_argv(workspace, tmp_path, command, case)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(named) in err and message in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "estimate", "eval", "export-embeddings"])
    def test_out_in_split_exit2_writes_nothing(self, workspace, tmp_path, capsys, command):
        """README step 4 deletes the source split: nothing may be written into
        a split a command reads."""
        split = tmp_path / "split"
        shutil.copytree(workspace / "data" / USUAL_SPLIT[command], split)
        before = {p.relative_to(split): p.read_bytes() for p in split.rglob("*") if p.is_file()}
        assert main(split_argv(workspace, command, split, split / "out")) == 2
        err = capsys.readouterr().err
        assert f"--out {split / 'out'} " in err and f"data split {split}" in err
        assert {p.relative_to(split): p.read_bytes() for p in split.rglob("*") if p.is_file()} == before


class TestOutFile:
    """`estimate` and `eval` write `--out` as a file. One that would land on
    the checkpoint they read exits 2 before any work, naming both paths; a
    missing parent directory is created, as `train` creates its own."""

    @pytest.mark.parametrize("command,ckpt_name,out_name", [
        ("eval", "model.mdl1", "model.mdl1"),
        ("estimate", "model.mdl1", "model.mdl1"),
        ("estimate", "model.gmm1.meta", "model.gmm1"),
    ], ids=["eval", "estimate", "estimate-meta"])
    def test_out_over_checkpoint_exit2_keeps_it(
        self, workspace, tmp_path, capsys, monkeypatch, command, ckpt_name, out_name
    ):
        ckpt = tmp_path / ckpt_name
        shutil.copy(workspace / "model.mdl1", ckpt)
        before = ckpt.read_bytes()
        out = tmp_path / "elsewhere" / ".." / out_name  # the same file, spelled otherwise
        argv = split_argv(workspace, command, workspace / "data" / USUAL_SPLIT[command], out)
        argv[argv.index("--ckpt") + 1] = str(ckpt)

        def no_work(*args):
            raise AssertionError("the checkpoint was read")

        monkeypatch.setattr(ad, "load_model", no_work)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"--out {out} " in err and str(ckpt) in err
        assert ckpt.read_bytes() == before

    @pytest.mark.parametrize("command", ["estimate", "eval"])
    def test_missing_out_directory_is_made(self, workspace, tmp_path, command):
        out = tmp_path / "new" / "deeper" / "out.txt"
        assert main(split_argv(workspace, command, workspace / "data" / USUAL_SPLIT[command], out)) == 0
        assert out.is_file()
        if command == "estimate":
            assert load_gmm(out).K == 3 and read_sidecar(f"{out}.meta")[2].n_pixels > 0


# (command, --out, another command's file placed there, its workspace
# source): the command would replace it with a file of its own kind.
OTHER_KIND = [
    ("eval", "model.gmm1", "model.gmm1", "model.gmm1"),
    ("eval", "resolved_config.txt", "resolved_config.txt", "resolved_config.txt"),
    ("train", "model.gmm1", "model.gmm1", "model.gmm1"),
    ("estimate", "adapted/adapted.mdl1", "adapted/adapted.mdl1", "model.mdl1"),
    ("estimate", "new.gmm1", "new.gmm1.meta", "resolved_config.txt"),
]


class TestOutKind:
    """An existing non-empty --out (and estimate's --out.meta) must begin as
    the command's own output does: MDL1 for train, GMM1 and `source_data=`
    for estimate, `iou_class_0=` for eval. Another command's file there
    exits 2 before any work, naming it, and keeps its bytes."""

    WORK = {"train": "train_source", "estimate": "estimate_stage", "eval": "evaluate_miou"}

    @pytest.mark.parametrize("command,out,placed,source", OTHER_KIND,
                             ids=[f"{c}-{placed}" for c, _, placed, _ in OTHER_KIND])
    def test_other_commands_file_exit2_keeps_it(
        self, workspace, tmp_path, capsys, monkeypatch, command, out, placed, source
    ):
        run = tmp_path / "run"
        (run / placed).parent.mkdir(parents=True)
        shutil.copy(workspace / source, run / placed)
        before = (run / placed).read_bytes()

        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} ran")

        monkeypatch.setattr(adapt_mod, self.WORK[command], no_work)
        argv = split_argv(workspace, command, workspace / "data" / USUAL_SPLIT[command], run / out)
        assert main(argv) == 2
        assert f"--out would replace {run / placed}, " in capsys.readouterr().err
        assert (run / placed).read_bytes() == before

    @pytest.mark.parametrize("command", ["train", "estimate", "eval"])
    def test_rerun_onto_own_output(self, workspace, tmp_path, command):
        out = tmp_path / "out"
        argv = split_argv(workspace, command, workspace / "data" / USUAL_SPLIT[command], out)
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first


# (command, paths made under the run directory first, a trailing / making a
# directory, --out, the path the refusal names): a path in the way of what the
# command writes, or an input that its --out directory holds.
IN_THE_WAY = {
    "train-trainlog-is-dir": ("train", ["m.mdl1.trainlog.csv/"], "m.mdl1", "m.mdl1.trainlog.csv"),
    "eval-out-is-dir": ("eval", ["ev/"], "ev", "ev"),
    "estimate-meta-is-dir": ("estimate", ["g2.gmm1.meta/"], "g2.gmm1", "g2.gmm1.meta"),
    "adapt-out-is-file": ("adapt", ["afile"], "afile", "afile"),
    "export-out-under-file": ("export-embeddings", ["afile"], "afile/sub", "afile"),
    "gen-data-out-is-file": ("gen-data", ["afile"], "afile", "afile"),
    "export-out-holds-ckpt": ("export-embeddings", ["adapted/adapted.mdl1"], "adapted", "adapted/adapted.mdl1"),
    "adapt-report-is-dir": ("adapt", ["ad/report.csv/"], "ad", "ad/report.csv"),
    "export-data-is-dir": ("export-embeddings", ["emb/data.emb1/"], "emb", "emb/data.emb1"),
    "gen-data-force-images-is-dir": ("gen-data", ["g/source/images.tns1/"], "g", "g/source/images.tns1"),
}
# The functions that do each command's work, and those that load its
# inputs or generate gen-data's splits.
WORK = [(adapt_mod, "train_source"), (adapt_mod, "estimate_stage"), (adapt_mod, "adapt_source_free"),
        (adapt_mod, "evaluate_miou"), (adapt_mod, "pixel_embeddings"), (ds, "write_dataset")]
LOADS = [(ad, "load_model"), (ds, "load_split"), (cli, "load_gmm"), (ds, "write_dataset")]


def _fail(*args, **kwargs):
    raise AssertionError("work began before --out was checked")


def claim_argv(workspace, command, out):
    """argv of `command` writing `out`, with every input of the walkthrough."""
    if command == "gen-data":
        return ["gen-data", "--spec", str(workspace / "spec.txt"), "--out", str(out)]
    argv = split_argv(workspace, command, workspace / "data" / USUAL_SPLIT[command], out)
    return argv + (["--gmm", str(workspace / "model.gmm1")] if command == "export-embeddings" else [])


class TestOutClaim:
    """One rule for where a command may write, checked before any work: no
    path written overlaps an input, no directory stands where a file goes,
    nothing goes into a file, and no non-empty file of another kind is
    replaced (TestOutKind)."""

    @pytest.mark.parametrize("case", IN_THE_WAY)
    def test_in_the_way_exit2_before_any_work(self, workspace, tmp_path, capsys, monkeypatch, case):
        command, made, out, named = IN_THE_WAY[case]
        run = tmp_path / "run"
        for rel in made:
            (run / rel).parent.mkdir(parents=True, exist_ok=True)
            if rel.endswith("/"):
                (run / rel).mkdir()
                (run / rel / "kept.txt").write_text("kept\n")
            else:
                shutil.copy(workspace / "model.mdl1", run / rel)
        before = {p: p.is_dir() or p.read_bytes() for p in run.rglob("*")}
        for module, name in WORK:
            monkeypatch.setattr(module, name, _fail)
        argv = claim_argv(workspace, command, run / out)
        if case == "export-out-holds-ckpt":
            argv[argv.index("--ckpt") + 1] = str(run / named)
        if case == "gen-data-force-images-is-dir":  # past the refusal of a non-empty --out
            argv.append("--force")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"--out {run / out} " in err and f" {run / named}" in err
        assert {p: p.is_dir() or p.read_bytes() for p in run.rglob("*")} == before

    @pytest.mark.parametrize("command", ["gen-data", "train", "estimate", "adapt", "eval", "export-embeddings"])
    def test_claim_comes_before_any_load(self, workspace, tmp_path, monkeypatch, command):
        class Claimed(Exception):
            pass

        def claim(*args, **kwargs):
            raise Claimed

        monkeypatch.setattr(cli, "_claim_outputs", claim)
        for module, name in LOADS:
            monkeypatch.setattr(module, name, _fail)
        with pytest.raises(Claimed):
            main(claim_argv(workspace, command, tmp_path / "out"))

    @pytest.mark.parametrize("command", ["gen-data", "train", "estimate", "adapt", "eval", "export-embeddings"])
    def test_writes_only_what_it_claimed(self, workspace, tmp_path, monkeypatch, command):
        """Every path a command hands to `open_output` is a file it claimed,
        and a binary file's claimed head is the magic its writer begins with."""
        claimed, written = {}, {}
        claim, opener = cli._claim_outputs, fileformats.open_output

        def record_claim(out, reads, files=None):  # a call naming no files claims none
            claimed.update((os.path.abspath(p), head) for p, head in (files or {}).items())
            return claim(out, reads, files)

        def record_write(path, magic=b"", text=False):
            written[os.path.abspath(path)] = None if text else magic
            return opener(path, magic, text)

        monkeypatch.setattr(cli, "_claim_outputs", record_claim)
        for module in (fileformats, ad, gmm_mod, cli):
            monkeypatch.setattr(module, "open_output", record_write)
        argv = claim_argv(workspace, command, tmp_path / "out")
        if command == "export-embeddings":
            argv += ["--ckpt-pre", str(workspace / "model.mdl1")]
        assert main(argv) == 0
        assert written and [p for p in written if p not in claimed] == []
        assert {p: claimed[p] for p, magic in written.items() if magic} == {p: m for p, m in written.items() if m}


def test_frozen_config_copies_agree(tmp_path):
    """README's walkthrough config and `tests/same_bits.py`'s CONFIG both load
    as the acceptance FROZEN config at tau 0.97 and seed 0."""
    from same_bits import CONFIG as SAME_BITS_CONFIG
    from test_acceptance import FROZEN

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    frozen = ExperimentConfig(**FROZEN, tau_fit=0.97, tau_filter=0.97, seed=0)
    for name, text in (("readme", blocks[0]), ("same_bits", SAME_BITS_CONFIG)):
        (tmp_path / name).write_text(text)
        assert load_config(str(tmp_path / name), {}) == frozen, name


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


FOOTPRINT_CHILD = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

from protoadapt.cli import main

seen = {"import protoadapt.cli": scipy_modules()}
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    seen[argv[0]] = scipy_modules()
print(json.dumps(seen))
"""


def test_commands_import_only_what_they_run(workspace, tmp_path):
    """Each command is its own process. Importing the CLI, and the commands
    that compute no exact transport term, load no scipy module; `estimate`
    and `adapt` load scipy's assignment solver alone, not scipy.optimize."""
    report = tmp_path / "report"
    assert run_adapt(workspace, report) == 0
    ws, config, ckpt = str(workspace), str(workspace / "config.txt"), str(workspace / "model.mdl1")
    commands = [
        ["gen-data", "--spec", f"{ws}/spec.txt", "--out", str(tmp_path / "data")],
        ["train", "--config", config, "--data", f"{ws}/data/source", "--steps", "2", "--out", str(tmp_path / "m.mdl1")],
        ["eval", "--ckpt", ckpt, "--data", f"{ws}/data/target_eval"],
        ["diagnose", "--report", str(report)],
        ["export-embeddings", "--ckpt", ckpt, "--data", f"{ws}/data/source", "--out", str(tmp_path / "emb")],
        ["estimate", "--config", config, "--ckpt", ckpt, "--data", f"{ws}/data/source",
         "--out", str(tmp_path / "g.gmm1")],
        ["adapt", "--config", config, "--ckpt", ckpt, "--gmm", str(tmp_path / "g.gmm1"),
         "--target", f"{ws}/data/target_train", "--out", str(tmp_path / "run")],
    ]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", FOOTPRINT_CHILD, json.dumps(commands)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    seen = json.loads(run.stdout.strip().splitlines()[-1])
    assert seen == {
        "import protoadapt.cli": [], "gen-data": [], "train": [], "eval": [], "diagnose": [],
        "export-embeddings": [], "estimate": ["scipy.optimize._lsap"], "adapt": ["scipy.optimize._lsap"],
    }
