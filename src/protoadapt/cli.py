"""Command-line surface for the full workflow.

Subcommands: gen-data, train, estimate, adapt, eval, diagnose,
export-embeddings. Exit codes: 0 success, 2 usage/config error,
3 estimation failure, 4 source-freeness violation, 5 numerical divergence.

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
from .errors import DivergenceError, EstimationError, GenerationError, ProtoAdaptError
from .fileformats import format_values, parse_values, read_keyvalue, save_embeddings, write_keyvalue
from .gmm import generate_pseudo_dataset, load_gmm, save_gmm
from .rng import Rng, seed_in_range

EXIT_USAGE = 2
EXIT_ESTIMATION = 3
EXIT_SOURCE_FREEDOM = 4
EXIT_DIVERGENCE = 5


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


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


def echo_config(config: ExperimentConfig, out_dir: str) -> None:
    """Write resolved_config.txt so that `--config` reads it back as `config`."""
    os.makedirs(out_dir, exist_ok=True)
    keys = {f: key for key, f in _CONFIG_KEYS.items()}
    payload = {keys[f]: v for f, v in format_values(vars(config)).items()}
    write_keyvalue(os.path.join(out_dir, "resolved_config.txt"), payload)


_INFO_TYPES = typing.get_type_hints(EstimateInfo)


def read_sidecar(path: str) -> tuple[str, EstimateInfo]:
    """(source data path, EstimateInfo) from a mixture's `.meta` sidecar.

    One that is missing or lacks `source_data` is refused: the source-free
    check needs it. `tau_fit` is skipped: the mixture file holds it.
    """
    if not os.path.isfile(path):
        raise CliError(f"mixture sidecar not found: {path}")
    meta = read_keyvalue(path)
    source = meta.pop("source_data", "")
    if not source:
        raise CliError(f"{path}: no source_data line")
    meta.pop("tau_fit", None)
    return source, EstimateInfo(**parse_values(_INFO_TYPES, meta, "sidecar"))


def _require_dir(path: str, what: str) -> str:
    if not os.path.isdir(path):
        raise CliError(f"{what} directory not found: {path}")
    return path


def _load_labeled(path: str):
    images, labels, manifest = ds.load_split(path)
    if labels is None:
        raise CliError(f"labels missing in {path}")
    return images, labels, manifest


def _check_classes(path: str, manifest: dict, *models) -> None:
    """Refuse a split whose manifest K is not each model's class count."""
    for model in models:
        if manifest.get("K") != str(model.K):
            raise CliError(
                f"{path}: split K={manifest.get('K')} does not match the model's K={model.K}"
            )


# ---------------------------------------------------------------- commands


def cmd_gen_data(args) -> int:
    values = parse_values(
        ds.SPEC_TYPES | {"n_eval": int, "preset": str},
        read_keyvalue(args.spec) if args.spec else {},
        "spec",
    )
    n_eval = values.pop("n_eval", 500)
    if values.pop("preset", "") == "standard" or args.preset == "standard":
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
    config = load_config(args.config, vars(args))
    images, labels, manifest = _load_labeled(_require_dir(args.data, "data"))
    # load_split has checked every label against the manifest's K.
    model, losses = adapt_mod.train_source(config, images, labels, K=int(manifest["K"]))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    ad.save_model(args.out, model)
    log_path = args.out + ".trainlog.csv"
    with open(log_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "loss"])
        writer.writerows((i, f"{v:.8g}") for i, v in enumerate(losses))
    echo_config(config, os.path.dirname(os.path.abspath(args.out)) or ".")
    final = losses[-1] if losses else float("nan")
    print(f"checkpoint: {args.out} (steps={len(losses)}, final_loss={final:.6g})")
    return 0


def cmd_estimate(args) -> int:
    config = load_config(args.config, vars(args))
    model = ad.load_model(args.ckpt)
    data_dir = _require_dir(args.data, "data")
    images, labels, manifest = _load_labeled(data_dir)
    _check_classes(data_dir, manifest, model)
    gmm, info = adapt_mod.estimate_stage(model, images, labels, config)
    save_gmm(args.out, gmm)
    sidecar = {"source_data": os.path.realpath(data_dir), "tau_fit": config.tau_fit}
    write_keyvalue(args.out + ".meta", sidecar | format_values(vars(info)))
    print(
        f"gmm: {args.out} K={gmm.K} d={gmm.dim} tau_fit={gmm.tau_fit} "
        f"w_sp_exact={info.w_sp_exact:.6g} w_sp_sliced={info.w_sp_sliced:.6g}"
    )
    return 0


def _check_source_freedom(target_dir: str, source: str) -> None:
    target = os.path.realpath(target_dir)
    src = os.path.realpath(source)
    if target == src or target.startswith(src + os.sep) or src.startswith(target + os.sep):
        raise CliError("source data forbidden during adaptation", code=EXIT_SOURCE_FREEDOM)


def cmd_adapt(args) -> int:
    config = load_config(args.config, vars(args))
    target_dir = _require_dir(args.target, "target")
    source, info = read_sidecar(args.gmm + ".meta")
    _check_source_freedom(target_dir, source)
    images, labels, manifest = ds.load_split(target_dir)
    if labels is not None:
        raise CliError("target directory must not contain a labels file")

    model = ad.load_model(args.ckpt)
    _check_classes(target_dir, manifest, model)
    gmm = load_gmm(args.gmm)
    adapted, report = adapt_mod.adapt_source_free(model, gmm, images, config)

    os.makedirs(args.out, exist_ok=True)
    ad.save_model(os.path.join(args.out, "adapted.mdl1"), adapted)
    with open(os.path.join(args.out, "report.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "ce", "swd", "total"])
        writer.writerows(
            (s, f"{ce:.8g}", f"{sw:.8g}", f"{t:.8g}") for s, ce, sw, t in report.steps
        )

    diag, pseudo, pre_rows, post_rows = adapt_mod.compute_bound_diagnostics(
        gmm, model, adapted, images, config, info
    )
    diag_map = diag.as_dict()
    diag_map["kept_fraction"] = report.kept_fraction
    diag_map["wall_clock"] = f"{report.wall_clock:.3f}"
    write_keyvalue(os.path.join(args.out, "diagnostics.txt"), diag_map)

    # Fig.-3-style embedding exports (labels for target are unknown: -1).
    # The pseudo cloud was labelled by the source classifier, so its labels
    # are also that classifier's predictions.
    save_embeddings(os.path.join(args.out, "gmm_samples.emb1"), pseudo.Z, pseudo.Y, pseudo.Y)
    for name, m, rows in (("target_pre", model, pre_rows), ("target_post", adapted, post_rows)):
        pred, _ = ad.top_class(ad.forward_classify(m, rows))
        save_embeddings(os.path.join(args.out, f"{name}.emb1"), rows, -1, pred)
    echo_config(config, args.out)
    print(
        f"adapted: {args.out} steps={len(report.steps)} "
        f"kept_fraction={report.kept_fraction:.4f} "
        f"w_tp_pre={diag.w_tp_pre_exact:.6g} w_tp_post={diag.w_tp_post_exact:.6g}"
    )
    return 0


def cmd_eval(args) -> int:
    model = ad.load_model(args.ckpt)
    data_dir = _require_dir(args.data, "data")
    images, labels, manifest = _load_labeled(data_dir)
    _check_classes(data_dir, manifest, model)
    iou, miou = adapt_mod.evaluate_miou(model, images, labels)
    for k, value in enumerate(iou):
        shown = "undefined" if np.isnan(value) else f"{value:.4f}"
        print(f"iou_class_{k}={shown}")
    print(f"miou={miou:.4f}")
    if args.out:
        write_keyvalue(
            args.out,
            {f"iou_class_{k}": v for k, v in enumerate(iou)} | {"miou": miou},
        )
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
    if args.seed is not None and not seed_in_range(args.seed):
        raise CliError(f"--seed must be in [0, 2**64), got {args.seed}")
    model = ad.load_model(args.ckpt)
    models = [("data.emb1", model)]
    if args.ckpt_pre:
        models.append(("data_pre.emb1", ad.load_model(args.ckpt_pre)))
    data_dir = _require_dir(args.data, "data")
    images, labels, manifest = ds.load_split(data_dir)
    _check_classes(data_dir, manifest, *(m for _, m in models))
    gmm = load_gmm(args.gmm) if args.gmm else None
    if gmm is not None:
        adapt_mod.check_mixture_matches(model, gmm)
    true = -1 if labels is None else labels  # -1: unknown, on every row
    os.makedirs(args.out, exist_ok=True)
    written = []
    for name, m in models:
        emb, pred, conf = adapt_mod.pixel_embeddings(m, images)
        written.append(os.path.join(args.out, name))
        save_embeddings(written[-1], emb, true, pred)
        del emb, pred, conf  # one model's pass held at a time
    if gmm is not None:
        rng = Rng(args.seed or 0)
        probs_fn = partial(ad.forward_classify, model)
        pseudo = generate_pseudo_dataset(gmm, probs_fn, PSEUDO_CLOUD, 0.0, rng)
        written.append(os.path.join(args.out, "gmm_samples.emb1"))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads != 1:
            raise CliError(f"--threads {args.threads} is not supported; only 1 is accepted")
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except GenerationError as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ProtoAdaptError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
