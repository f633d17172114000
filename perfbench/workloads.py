"""The three benchmark workloads.

Each workload has a set-up (inputs made from the seed, plus whatever must
exist before the timed phase) and a pass (the timed phase, run as many times
as the run length allows). A pass returns an `Outcome`; `checks` turns the
outcomes into pass/fail output checks after every wrapper is removed.

Seeds follow the acceptance suite: experiment seed s generates the source,
target-train and target-eval splits from data seeds 10s, 10s+1 and 10s+2,
and seeds the experiment itself. The benchmark's `--seed n` selects
experiment seed EXPERIMENT_SEEDS[n % len(EXPERIMENT_SEEDS)].
"""

from __future__ import annotations

import io
import math
import os
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace

from protoadapt import adaptation, autodiff, cli, datasets, fileformats
from protoadapt.adaptation import ExperimentConfig
from protoadapt.datasets import DomainSpec, Shift

# The acceptance suite's frozen configuration (tests/test_acceptance.py,
# FROZEN with tau_fit = tau_filter = 0.97).
FROZEN = dict(
    source_steps=2500,
    lr=3e-3,
    adapt_lr=1.2e-3,
    adapt_steps=350,
    pseudo_batch=384,
    tau_fit=0.97,
    tau_filter=0.97,
)
STANDARD_SHIFT = Shift(channel_gain=(1.4, 0.7, 1.0), noise_sigma=0.1)

# Experiment seeds at which the frozen configuration runs to the end. At
# seed 9 the trained model is never confident above tau_fit = 0.97 on class
# 1, so estimation stops with EstimationError (the CLI's exit code 3): the
# documented outcome of a tau too high for the model, not a speed property,
# so the benchmark leaves that seed out. Seed 0 is the acceptance run.
EXPERIMENT_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 10)


def experiment_seed(n: int) -> int:
    return EXPERIMENT_SEEDS[n % len(EXPERIMENT_SEEDS)]

# Criterion 4's bar on the mIoU gain of the frozen standard-shift run.
MIN_GAIN = 0.10


@dataclass
class Outcome:
    """What one timed pass produced."""

    fingerprint: dict  # exact result values; every pass of a run must agree
    ops: int  # operations attempted in the pass
    infer: tuple = (0, 0.0)  # (pixels, seconds) when the pass times inference itself
    extra: dict = field(default_factory=dict)


def frozen_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(seed=seed, **FROZEN)


def standard_splits(seed: int):
    """(source images, source labels, target images, eval images, eval labels)."""
    xs, ys = datasets.gen_grid_seg(DomainSpec(K=5, n_images=2000, seed=10 * seed))
    xt, _ = datasets.gen_grid_seg(
        DomainSpec(K=5, n_images=2000, seed=10 * seed + 1, shift=STANDARD_SHIFT), shifted=True
    )
    xe, ye = datasets.gen_grid_seg(
        DomainSpec(K=5, n_images=500, seed=10 * seed + 2, shift=STANDARD_SHIFT), shifted=True
    )
    return xs, ys, xt, xe, ye


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class PipelineStandard:
    """`run_experiment` on the frozen standard shift: train-dominated."""

    name = "pipeline-standard"
    setups = 2

    def setup(self, seed, workdir):
        return {"config": frozen_config(seed), "splits": standard_splits(seed)}

    def run_pass(self, state, clock) -> Outcome:
        result = adaptation.run_experiment(state["config"], *state["splits"])
        _, train_losses = clock.results["train_source"][-1]
        return Outcome(
            fingerprint={
                "pre_miou": result.pre_miou,
                "post_miou": result.post_miou,
                "final_train_loss": train_losses[-1],
            },
            ops=1,
            extra={"train_losses": train_losses, "adapt_steps": result.report.steps},
        )

    def checks(self, state, outcome: Outcome):
        fp = outcome.fingerprint
        adapt_losses = [v for step in outcome.extra["adapt_steps"] for v in step[1:]]
        return [
            ("train losses finite", _all_finite(outcome.extra["train_losses"]), ""),
            ("adapt losses finite", _all_finite(adapt_losses), ""),
            (
                f"post - pre mIoU >= {MIN_GAIN}",
                fp["post_miou"] - fp["pre_miou"] >= MIN_GAIN,
                f"{fp['post_miou'] - fp['pre_miou']:.4f}",
            ),
        ]


class AdaptSwd:
    """Only adaptation and evaluation are timed: SWD-gradient-dominated."""

    name = "adapt-swd"
    setups = 2
    PSEUDO_BATCH = 1024

    def setup(self, seed, workdir):
        config = frozen_config(seed)
        xs, ys, xt, xe, ye = standard_splits(seed)
        model, _ = adaptation.train_source(config, xs, ys)
        gmm, _ = adaptation.estimate_stage(model, xs, ys, config)
        _, pre_miou = adaptation.evaluate_miou(model, xe, ye)
        return {
            "config": replace(config, pseudo_batch=self.PSEUDO_BATCH),
            "model": model,
            "gmm": gmm,
            "target": xt,
            "eval": (xe, ye),
            "pre_miou": pre_miou,
        }

    def run_pass(self, state, clock) -> Outcome:
        model, report = adaptation.adapt_source_free(
            state["model"], state["gmm"], state["target"], state["config"]
        )
        _, post_miou = adaptation.evaluate_miou(model, *state["eval"])
        return Outcome(
            fingerprint={
                "pre_miou": state["pre_miou"],
                "post_miou": post_miou,
                "final_adapt_loss": report.steps[-1][3],
            },
            ops=2,
            extra={"adapt_steps": report.steps},
        )

    def checks(self, state, outcome: Outcome):
        fp = outcome.fingerprint
        adapt_losses = [v for step in outcome.extra["adapt_steps"] for v in step[1:]]
        return [
            ("adapt losses finite", _all_finite(adapt_losses), ""),
            ("post > pre mIoU", fp["post_miou"] > fp["pre_miou"], f"{fp['post_miou'] - fp['pre_miou']:.4f}"),
        ]


def _run_cli(argv):
    """(exit code, stdout, seconds) of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - t0


def _printed_miou(stdout: str) -> str:
    for line in stdout.splitlines():
        if line.startswith("miou="):
            return line.split("=", 1)[1]
    return ""


def _split_pixels(directory) -> int:
    manifest = fileformats.read_keyvalue(os.path.join(directory, "manifest.txt"))
    return int(manifest["n_images"]) * int(manifest["height"]) * int(manifest["width"])


class CliWalkthrough:
    """README walkthrough steps 3-6 through `protoadapt.cli.main` on files."""

    name = "cli-walkthrough"
    setups = 2
    ADAPT_ITERS = 50
    # Commands whose wall time counts as forward-only inference, and the
    # split (by key) each one pushes through the model, once per model.
    INFER_COMMANDS = {
        "estimate": ("source",),
        "eval-pre": ("target_eval",),
        "eval-post": ("target_eval",),
        "export-embeddings": ("target_train", "target_train"),
    }

    def setup(self, seed, workdir):
        if os.path.isdir(workdir):
            shutil.rmtree(workdir)
        data, run = os.path.join(workdir, "data"), os.path.join(workdir, "run")
        os.makedirs(run)
        config_path = os.path.join(workdir, "config.txt")
        fileformats.write_keyvalue(config_path, {**FROZEN, "seed": seed})
        spec_path = os.path.join(workdir, "spec.txt")
        fileformats.write_keyvalue(spec_path, {"preset": "standard", "seed": 10 * seed})
        model = os.path.join(run, "model.mdl1")
        for argv in (
            ["gen-data", "--spec", spec_path, "--out", data],
            ["train", "--config", config_path, "--data", os.path.join(data, "source"), "--out", model],
        ):
            code, _, _ = _run_cli(argv)
            if code != 0:
                raise RuntimeError(f"set-up command {argv[0]} exited {code}")
        split = {s: os.path.join(data, s) for s in ("source", "target_train", "target_eval")}
        gmm = os.path.join(run, "model.gmm1")
        adapted = os.path.join(run, "adapted")
        emb = os.path.join(run, "emb")
        commands = [
            ("estimate", ["estimate", "--config", config_path, "--ckpt", model, "--data", split["source"], "--out", gmm]),
            (
                "adapt",
                ["adapt", "--config", config_path, "--ckpt", model, "--gmm", gmm,
                 "--target", split["target_train"], "--iters", str(self.ADAPT_ITERS), "--out", adapted],
            ),
            ("eval-pre", ["eval", "--ckpt", model, "--data", split["target_eval"]]),
            ("eval-post", ["eval", "--ckpt", os.path.join(adapted, "adapted.mdl1"), "--data", split["target_eval"]]),
            (
                "export-embeddings",
                ["export-embeddings", "--ckpt", os.path.join(adapted, "adapted.mdl1"), "--ckpt-pre", model,
                 "--gmm", gmm, "--data", split["target_train"], "--seed", str(seed), "--out", emb],
            ),
            ("diagnose", ["diagnose", "--report", adapted]),
        ]
        pixels = {s: _split_pixels(path) for s, path in split.items()}
        return {"commands": commands, "pixels": pixels, "split": split, "model": model, "adapted": adapted, "emb": emb}

    def run_pass(self, state, clock) -> Outcome:
        codes, stdout, infer_px, infer_s = {}, {}, 0, 0.0
        for label, argv in state["commands"]:
            codes[label], stdout[label], dt = _run_cli(argv)
            if label in self.INFER_COMMANDS:
                infer_px += sum(state["pixels"][s] for s in self.INFER_COMMANDS[label])
                infer_s += dt
        return Outcome(
            fingerprint={
                "eval_pre": _printed_miou(stdout["eval-pre"]),
                "eval_post": _printed_miou(stdout["eval-post"]),
                # The summary line minus its leading "adapted: <out dir>".
                "adapt": stdout["adapt"].strip().split(" ", 2)[-1],
                "exit_codes": codes,
            },
            ops=len(codes),
            infer=(infer_px, infer_s),
        )

    def checks(self, state, outcome: Outcome):
        # Exit codes are part of the fingerprint, which every pass must repeat.
        codes = outcome.fingerprint["exit_codes"]
        checks = [(f"exit code 0: {label}", code == 0, str(code)) for label, code in codes.items()]
        rows = state["pixels"]["target_train"]
        for name in ("data.emb1", "data_pre.emb1"):
            path = os.path.join(state["emb"], name)
            n = fileformats.load_embeddings(path).shape[0] if os.path.exists(path) else -1
            checks.append((f"{name} has one row per pixel", n == rows, f"{n} rows, {rows} pixels"))
        images, labels, _ = datasets.load_split(state["split"]["target_eval"])
        for key, ckpt in (("eval_pre", state["model"]), ("eval_post", os.path.join(state["adapted"], "adapted.mdl1"))):
            _, miou = adaptation.evaluate_miou(autodiff.load_model(ckpt), images, labels)
            printed = outcome.fingerprint[key]
            checks.append((f"{key} printed mIoU = evaluate_miou", printed == f"{miou:.4f}", f"{printed} vs {miou!r}"))
            outcome.extra[key.replace("eval_", "") + "_miou"] = miou
        return checks


WORKLOADS = {w.name: w for w in (PipelineStandard(), AdaptSwd(), CliWalkthrough())}
