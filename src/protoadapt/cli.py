"""Command-line surface for the full workflow.

Subcommands: gen-data, train, estimate, adapt, eval, diagnose,
export-embeddings. Exit codes: 0 success, 1 internal error (a bug, with its
traceback), 2 usage/config error, 3 estimation failure, 4 source-freeness
violation, 5 numerical divergence; each is set on its error class.

Config files are plain key=value lines (# comments); command-line flags
override file values. `train` and `adapt` echo their fully-resolved config
next to their outputs so result directories are self-describing.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import typing
from functools import partial

import numpy as np

from . import adaptation as adapt_mod
from . import autodiff as ad
from . import datasets as ds
from .adaptation import PSEUDO_CLOUD, EstimateInfo, ExperimentConfig
from .errors import ConfigError, ProtoAdaptError
from .fileformats import EMB1_MAGIC, GMM1_MAGIC, MDL1_MAGIC, TNS1_MAGIC, format_values, open_output, parse_values
from .fileformats import file_sha256, read_keyvalue, save_embeddings, write_keyvalue
from .gmm import generate_pseudo_dataset, load_gmm, save_gmm
from .rng import Rng, seed_in_range


class CliError(ProtoAdaptError):
    """A command-line input that the command cannot honour."""


class SourceFreedomError(CliError):
    exit_code = 4  # source data offered to source-free adaptation


# ---------------------------------------------------------------- config

_CONFIG_TYPES = typing.get_type_hints(ExperimentConfig)
# Config-file key -> ExperimentConfig field: `lambda` is a Python keyword.
_CONFIG_KEYS = {("lambda" if f == "lambda_" else f): f for f in _CONFIG_TYPES}


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    """The file's values, then every `overrides` entry that names a field
    and is not None."""
    raw = read_keyvalue(path) if path else {}
    types = {key: _CONFIG_TYPES[f] for key, f in _CONFIG_KEYS.items()}
    values = {_CONFIG_KEYS[k]: v for k, v in parse_values(types, raw, "config").items()}
    values.update((k, v) for k, v in overrides.items() if k in _CONFIG_TYPES and v is not None)
    return ExperimentConfig(**values)


def echo_config(config: ExperimentConfig, path: str) -> None:
    """Write `config` to `path`, a resolved_config.txt for `--config` to read back."""
    keys = {f: key for key, f in _CONFIG_KEYS.items()}
    write_keyvalue(path, {keys[f]: v for f, v in format_values(vars(config)).items()})


_INFO_TYPES = typing.get_type_hints(EstimateInfo)


def read_sidecar(path: str) -> tuple[str, str, EstimateInfo]:
    """(source data path, mixture SHA-256, EstimateInfo) from a mixture's
    `.meta` sidecar.

    One that is missing, or lacks `source_data`, `gmm_sha256` or any
    EstimateInfo field, is refused: the source-free check needs the path,
    the pairing check the digest, and a field has no stand-in value. So is
    a value that does not parse or that EstimateInfo refuses, naming the
    file and the key. `tau_fit` is skipped: the mixture file holds it.
    """
    if not os.path.isfile(path):
        raise CliError(f"mixture sidecar not found: {path}")
    meta = read_keyvalue(path)
    for key in ("source_data", "gmm_sha256", *_INFO_TYPES):
        if not meta.get(key):
            raise CliError(f"{path}: no {key} line")
    source, digest = meta.pop("source_data"), meta.pop("gmm_sha256")
    meta.pop("tau_fit", None)
    try:
        info = EstimateInfo(**parse_values(_INFO_TYPES, meta, "sidecar"))
    except ConfigError as exc:
        raise CliError(f"{path}: {exc}") from None
    return source, digest, info


def _paired_sidecar(gmm_path: str) -> tuple[str, EstimateInfo]:
    """(source data path, EstimateInfo) from the sidecar of the mixture at
    `gmm_path`, refused unless it names that mixture by SHA-256. Called after
    load_gmm, so that a damaged mixture keeps load_gmm's message."""
    source, digest, info = read_sidecar(gmm_path + ".meta")
    if file_sha256(gmm_path) != digest:
        raise CliError(f"{gmm_path}.meta was written by another estimate than {gmm_path}: "
                       "its gmm_sha256 is not the mixture's SHA-256")
    return source, info


def _overlap(a: str, b: str) -> bool:
    """Whether `a` and `b` resolve to the same path or one lies under the other."""
    a, b = os.path.realpath(a), os.path.realpath(b)
    return os.path.commonpath([a, b]) in (a, b)


def _claim_outputs(out: str, reads: dict, files: dict) -> None:
    """Exit 2 naming the path, before any work, unless the command may write
    `files` (path -> the bytes its writer begins with, or None for text):
    neither `out` nor a file may overlap a path of `reads` (path -> what it
    is), and no file may stand where a directory is, go into a file, or
    replace a non-empty file that begins otherwise."""
    for path in (out, *files):
        for read, what in reads.items():
            if read and _overlap(path, read):
                raise CliError(f"--out {out} would write {path}, which is, holds or lies in the {what} {read}")
    for path, head in files.items():
        if os.path.isdir(path):
            raise CliError(f"--out {out} would write the file {path}, which is a directory")
        above = os.path.abspath(os.path.join(path, os.pardir))
        while not os.path.exists(above):  # up to the nearest path that exists
            above = os.path.dirname(above)
        if not os.path.isdir(above):
            raise CliError(f"--out {out} would write into {above}, which is a file")
        if head and os.path.isfile(path) and os.path.getsize(path):
            with open(path, "rb") as f:
                if f.read(len(head)) != head:
                    raise CliError(f"--out would replace {path}, which does not begin with {head!r}")


def _load_split(path: str, models, labels: bool | None):
    """(images, labels, manifest) of the split at `path`, for every command
    that reads one. Exit 2 naming `path` when the directory is missing, when
    `ds.load_split` refuses it, when labels are absent and `labels` is True
    or present and it is False (None: optional), or when its K is not each
    of `models`'. Only `adapt` forbids labels: its split is the target."""
    what = "target" if labels is False else "data"
    if not os.path.isdir(path):
        raise CliError(f"{what} directory not found: {path}")
    images, found, manifest = ds.load_split(path)
    if labels and found is None:
        raise CliError(f"labels missing in {path}")
    if labels is False and found is not None:
        raise CliError(f"{path}: target directory must not contain a labels file")
    for model in models:
        if manifest.get("K") != str(model.K):
            raise CliError(
                f"{path}: split K={manifest.get('K')} does not match the model's K={model.K}"
            )
    return images, found, manifest


# ---------------------------------------------------------------- commands


def cmd_gen_data(args) -> int:
    files = {os.path.join(args.out, split, name): TNS1_MAGIC if name.endswith(".tns1") else None
             for split, names in ds.SPLIT_FILES.items() for name in names}
    _claim_outputs(args.out, {}, files)
    types = ds.SPEC_TYPES | {"n_eval": int, "preset": str}
    values = parse_values(types, read_keyvalue(args.spec) if args.spec else {}, "spec")
    n_eval = values.pop("n_eval", 500)
    preset = values.pop("preset", None)
    if preset not in (None, "standard"):
        raise CliError(f"spec preset must be standard, got preset={preset!r}")
    if preset or args.preset:
        # The preset fixes every field but the seed: any other key would be
        # silently ignored.
        for key in values:
            if key != "seed":
                raise CliError(f"spec key {key} cannot be combined with preset=standard")
        spec = ds.standard_shift_spec(seed=values.get("seed", 0))
    else:
        spec = ds.spec_from_values(values)

    if os.path.isdir(args.out) and os.listdir(args.out) and not args.force:
        raise CliError(f"output directory {args.out} is not empty (use --force)")
    paths = ds.write_dataset(args.out, spec, n_eval=n_eval)
    for split, path in paths.items():
        manifest = read_keyvalue(os.path.join(path, "manifest.txt"))
        print(f"{split}: {path} n={manifest['n_images']} labeled={manifest['labeled']}")
    return 0


def cmd_train(args) -> int:
    log = args.out + ".trainlog.csv"
    resolved = os.path.join(os.path.dirname(os.path.abspath(args.out)), "resolved_config.txt")
    _claim_outputs(args.out, {args.data: "data split"}, {args.out: MDL1_MAGIC, log: None, resolved: None})
    config = load_config(args.config, vars(args))
    images, labels, manifest = _load_split(args.data, (), labels=True)
    # load_split has checked every label against the manifest's K.
    model, losses = adapt_mod.train_source(config, images, labels, K=int(manifest["K"]))
    ad.save_model(args.out, model)
    with open_output(log, text=True) as f:
        writer = csv.writer(f)
        writer.writerow(["step", "loss"])
        writer.writerows((i, f"{v:.8g}") for i, v in enumerate(losses))
    echo_config(config, resolved)
    final = losses[-1] if losses else float("nan")
    print(f"checkpoint: {args.out} (steps={len(losses)}, final_loss={final:.6g})")
    return 0


def cmd_estimate(args) -> int:
    meta = args.out + ".meta"
    reads = {args.ckpt: "checkpoint", args.data: "data split"}
    _claim_outputs(args.out, reads, {args.out: GMM1_MAGIC, meta: b"source_data="})
    config = load_config(args.config, vars(args))
    model = ad.load_model(args.ckpt)
    images, labels, _ = _load_split(args.data, [model], labels=True)
    gmm, info = adapt_mod.estimate_stage(model, images, labels, config)
    save_gmm(args.out, gmm)
    sidecar = {"source_data": os.path.realpath(args.data), "tau_fit": config.tau_fit}
    write_keyvalue(meta, sidecar | {"gmm_sha256": file_sha256(args.out)} | format_values(vars(info)))
    print(
        f"gmm: {args.out} K={gmm.K} d={gmm.dim} tau_fit={gmm.tau_fit} "
        f"w_sp_exact={info.w_sp_exact:.6g} w_sp_sliced={info.w_sp_sliced:.6g}"
    )
    return 0


def cmd_adapt(args) -> int:
    reads = {args.ckpt: "checkpoint", args.gmm: "mixture", args.gmm + ".meta": "mixture sidecar"}
    heads = {"adapted.mdl1": MDL1_MAGIC, "report.csv": None, "diagnostics.txt": None, "gmm_samples.emb1": EMB1_MAGIC,
             "target_pre.emb1": EMB1_MAGIC, "target_post.emb1": EMB1_MAGIC, "resolved_config.txt": None}
    out = {name: os.path.join(args.out, name) for name in heads}
    _claim_outputs(args.out, reads | {args.target: "target split"}, {out[n]: h for n, h in heads.items()})
    config = load_config(args.config, vars(args))
    gmm = load_gmm(args.gmm)
    source, info = _paired_sidecar(args.gmm)
    if _overlap(args.target, source):
        raise SourceFreedomError("source data forbidden during adaptation")
    model = ad.load_model(args.ckpt)
    images, _, _ = _load_split(args.target, [model], labels=False)
    adapted, report = adapt_mod.adapt_source_free(model, gmm, images, config)

    ad.save_model(out["adapted.mdl1"], adapted)
    with open_output(out["report.csv"], text=True) as f:
        writer = csv.writer(f)
        writer.writerow(["step", "ce", "swd", "total"])
        writer.writerows((s, f"{ce:.8g}", f"{sw:.8g}", f"{t:.8g}") for s, ce, sw, t in report.steps)

    diag, pseudo, pre_rows, post_rows = adapt_mod.compute_bound_diagnostics(
        gmm, model, adapted, images, config, info
    )
    run = {"kept_fraction": report.kept_fraction, "wall_clock": f"{report.wall_clock:.3f}"}
    write_keyvalue(out["diagnostics.txt"], vars(diag) | run)

    # Fig.-3-style embedding exports (labels for target are unknown: -1).
    # The pseudo cloud was labelled by the source classifier, so its labels
    # are also that classifier's predictions.
    save_embeddings(out["gmm_samples.emb1"], pseudo.Z, pseudo.Y, pseudo.Y)
    for name, m, rows in (("target_pre", model, pre_rows), ("target_post", adapted, post_rows)):
        pred, _ = ad.top_class(ad.forward_classify(m, rows))
        save_embeddings(out[f"{name}.emb1"], rows, -1, pred)
    echo_config(config, out["resolved_config.txt"])
    print(
        f"adapted: {args.out} steps={len(report.steps)} "
        f"kept_fraction={report.kept_fraction:.4f} "
        f"w_tp_pre={diag.w_tp_pre_exact:.6g} w_tp_post={diag.w_tp_post_exact:.6g}"
    )
    return 0


def cmd_eval(args) -> int:
    if args.out:
        reads = {args.ckpt: "checkpoint", args.data: "data split"}
        _claim_outputs(args.out, reads, {args.out: b"iou_class_0="})
    model = ad.load_model(args.ckpt)
    images, labels, _ = _load_split(args.data, [model], labels=True)
    iou, miou = adapt_mod.evaluate_miou(model, images, labels)
    for k, value in enumerate(iou):
        shown = "undefined" if np.isnan(value) else f"{value:.4f}"
        print(f"iou_class_{k}={shown}")
    print(f"miou={miou:.4f}")
    if args.out:
        write_keyvalue(args.out, {f"iou_class_{k}": v for k, v in enumerate(iou)} | {"miou": miou})
    return 0


def cmd_diagnose(args) -> int:
    path = os.path.join(args.report, "diagnostics.txt")
    if not os.path.exists(path):
        raise CliError(f"no diagnostics.txt under {args.report}")
    for key, value in read_keyvalue(path).items():
        if key != "wall_clock":
            print(f"{key}={value}")
    return 0


def cmd_export_embeddings(args) -> int:
    if args.seed is not None and not args.gmm:
        raise CliError("--seed sets only the pseudo draw of --gmm, and no --gmm was given")
    if args.seed is not None and not seed_in_range(args.seed):
        raise CliError(f"--seed must be in [0, 2**64), got {args.seed}")
    reads = {args.ckpt: "checkpoint", args.ckpt_pre: "checkpoint", args.gmm: "mixture",
             args.gmm and args.gmm + ".meta": "mixture sidecar"}
    given = {"data.emb1": True, "data_pre.emb1": args.ckpt_pre, "gmm_samples.emb1": args.gmm}
    written = [os.path.join(args.out, name) for name, flag in given.items() if flag]
    _claim_outputs(args.out, reads | {args.data: "data split"}, dict.fromkeys(written, EMB1_MAGIC))
    model = ad.load_model(args.ckpt)
    models = [model] + ([ad.load_model(args.ckpt_pre)] if args.ckpt_pre else [])
    images, labels, _ = _load_split(args.data, models, labels=None)
    gmm = load_gmm(args.gmm) if args.gmm else None
    if gmm is not None:
        adapt_mod.check_mixture_matches(model, gmm)
        _paired_sidecar(args.gmm)
    true = -1 if labels is None else labels  # -1: unknown, on every row
    for path, m in zip(written, models):
        emb, pred, conf = adapt_mod.pixel_embeddings(m, images)
        save_embeddings(path, emb, true, pred)
        del emb, pred, conf  # one model's pass held at a time
    if gmm is not None:
        rng = Rng(args.seed or 0)
        probs_fn = partial(ad.forward_classify, model)
        pseudo = generate_pseudo_dataset(gmm, probs_fn, PSEUDO_CLOUD, 0.0, rng)
        # Labels come from this model's classifier, so they are its predictions.
        save_embeddings(written[-1], pseudo.Z, pseudo.Y, pseudo.Y)
    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protoadapt",
        description="Source-free adaptation via prototypical GMMs and sliced Wasserstein alignment",
    )
    parser.add_argument("--threads", type=int, default=1, help="worker threads; only 1 is accepted")
    sub = parser.add_subparsers(dest="command", required=True)
    # A flag that sets a config value stores under its ExperimentConfig
    # field, and `load_config` takes `vars(args)` as its overrides.

    p = sub.add_parser("gen-data", help="write source/target/eval splits")
    p.add_argument("--spec", help="key=value domain spec file")
    p.add_argument("--preset", choices=["standard"], help="named frozen preset")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train on the labeled source split")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, dest="source_steps")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("estimate", help="fit the prototypical mixture")
    p.add_argument("--config")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--tau", type=float, dest="tau_fit")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("adapt", help="source-free adaptation on unlabeled target data")
    p.add_argument("--config")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--gmm", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--lambda", type=float, dest="lambda_")
    p.add_argument("--tau", type=float, dest="tau_filter")
    p.add_argument("--iters", type=int, dest="adapt_steps")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_adapt)

    p = sub.add_parser("eval", help="per-class IoU / mIoU on a labeled split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("diagnose", help="print alignment diagnostics from a report dir")
    p.add_argument("--report", required=True)
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("export-embeddings", help="EMB1 embedding exports")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--ckpt-pre", dest="ckpt_pre")
    p.add_argument("--gmm")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export_embeddings)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads != 1:
            raise CliError(f"--threads {args.threads} is not supported; only 1 is accepted")
        return args.fn(args)
    except (ProtoAdaptError, OSError) as exc:
        kind = exc if isinstance(exc, ProtoAdaptError) else ProtoAdaptError
        print(f"{kind.label}: {exc}", file=sys.stderr)
        return kind.exit_code


if __name__ == "__main__":
    sys.exit(main())
