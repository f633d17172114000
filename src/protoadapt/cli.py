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
from .fileformats import read_keyvalue, save_embeddings, write_keyvalue
from .gmm import generate_pseudo_dataset, load_gmm, save_gmm
from .rng import Rng

EXIT_USAGE = 2
EXIT_ESTIMATION = 3
EXIT_SOURCE_FREEDOM = 4
EXIT_DIVERGENCE = 5


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------- config

_BOOL_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_scalar(kind, key: str, raw: str):
    try:
        return _BOOL_VALUES[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise CliError(f"invalid value for {key}: {raw!r}") from None


def _parse_values(types: dict, raw_values: dict, what: str) -> dict:
    """Coerce key=value strings to the annotated field types in `types`.

    `types` maps keys to annotations as `typing.get_type_hints` returns
    them: scalars, `X | None` (parsed as X) and `tuple[X, ...]` (comma
    separated). Unknown keys and values that fail to parse raise CliError
    naming the key.
    """
    values = {}
    for key, raw in raw_values.items():
        if key not in types:
            raise CliError(f"unknown {what} key: {key}")
        kind = types[key]
        args = [a for a in typing.get_args(kind) if a is not type(None)]
        if typing.get_origin(kind) is tuple:
            values[key] = tuple(_parse_scalar(args[0], key, x) for x in raw.split(",") if x)
        else:
            values[key] = _parse_scalar(args[0] if args else kind, key, raw)
    return values


_CONFIG_TYPES = typing.get_type_hints(ExperimentConfig)


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    raw = read_keyvalue(path) if path else {}
    values = _parse_values({**_CONFIG_TYPES, "lambda": float}, raw, "config")
    if "lambda" in values:
        values["lambda_"] = values.pop("lambda")
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    return ExperimentConfig(**values)


def _format_values(record) -> dict:
    """A dataclass's fields as `_parse_values` reads them back: tuples as
    comma lists, and fields at None omitted (key=value has no spelling
    for None)."""
    return {
        k: ",".join(str(x) for x in v) if isinstance(v, tuple) else v
        for k, v in record.__dict__.items()
        if v is not None
    }


def echo_config(config: ExperimentConfig, out_dir: str) -> None:
    """Write resolved_config.txt so that `--config` reads it back as `config`."""
    os.makedirs(out_dir, exist_ok=True)
    payload = {("lambda" if k == "lambda_" else k): v for k, v in _format_values(config).items()}
    write_keyvalue(os.path.join(out_dir, "resolved_config.txt"), payload)


_INFO_TYPES = typing.get_type_hints(EstimateInfo)


def read_sidecar(path: str) -> tuple[str, EstimateInfo]:
    """(source data path, EstimateInfo) from a mixture's `.meta` sidecar.

    A missing sidecar gives ("", EstimateInfo()), whose source terms are
    NaN. `tau_fit` is skipped: the mixture file holds it.
    """
    meta = read_keyvalue(path) if os.path.exists(path) else {}
    source = meta.pop("source_data", "")
    meta.pop("tau_fit", None)
    return source, EstimateInfo(**_parse_values(_INFO_TYPES, meta, "sidecar"))


def _require_dir(path: str, what: str) -> str:
    if not os.path.isdir(path):
        raise CliError(f"{what} directory not found: {path}")
    return path


def _load_labeled(path: str):
    images, labels, manifest = ds.load_split(path)
    if labels is None:
        raise CliError(f"labels missing in {path}")
    return images, labels, manifest


# ---------------------------------------------------------------- commands


def cmd_gen_data(args) -> int:
    shift_types = typing.get_type_hints(ds.Shift)
    spec_types = typing.get_type_hints(ds.DomainSpec)
    del spec_types["shift"]
    values = _parse_values(
        {**spec_types, **shift_types, "n_eval": int, "preset": str},
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
        shift = ds.Shift(**{k: values.pop(k) for k in shift_types if k in values})
        spec = ds.DomainSpec(shift=shift, **values)

    if os.path.isdir(args.out) and os.listdir(args.out) and not args.force:
        raise CliError(f"output directory {args.out} is not empty (use --force)")
    paths = ds.write_dataset(args.out, spec, n_eval=n_eval)
    for split, path in paths.items():
        manifest = read_keyvalue(os.path.join(path, "manifest.txt"))
        print(f"{split}: {path} n={manifest['n_images']} labeled={manifest['labeled']}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config, {"seed": args.seed, "source_steps": args.steps})
    images, labels, _ = _load_labeled(_require_dir(args.data, "data"))
    model, losses = adapt_mod.train_source(config, images, labels)
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
    config = load_config(args.config, {"seed": args.seed, "tau_fit": args.tau})
    model = ad.load_model(args.ckpt)
    data_dir = _require_dir(args.data, "data")
    images, labels, _ = _load_labeled(data_dir)
    gmm, info = adapt_mod.estimate_stage(model, images, labels, config)
    save_gmm(args.out, gmm)
    sidecar = {"source_data": os.path.realpath(data_dir), "tau_fit": config.tau_fit}
    write_keyvalue(args.out + ".meta", sidecar | _format_values(info))
    print(
        f"gmm: {args.out} K={gmm.K} d={gmm.dim} tau_fit={gmm.tau_fit} "
        f"w_sp_exact={info.w_sp_exact:.6g} w_sp_sliced={info.w_sp_sliced:.6g}"
    )
    return 0


def _check_source_freedom(target_dir: str, source: str) -> None:
    if not source:
        return
    target = os.path.realpath(target_dir)
    src = os.path.realpath(source)
    if target == src or target.startswith(src + os.sep) or src.startswith(target + os.sep):
        raise CliError("source data forbidden during adaptation", code=EXIT_SOURCE_FREEDOM)


def cmd_adapt(args) -> int:
    config = load_config(
        args.config,
        {
            "seed": args.seed,
            "adapt_steps": args.iters,
            "lambda_": getattr(args, "lambda"),
            "tau_filter": args.tau,
        },
    )
    target_dir = _require_dir(args.target, "target")
    source, info = read_sidecar(args.gmm + ".meta")
    _check_source_freedom(target_dir, source)
    if os.path.exists(os.path.join(target_dir, "labels.tns1")):
        raise CliError("target directory must not contain a labels file")

    model = ad.load_model(args.ckpt)
    gmm = load_gmm(args.gmm)
    images, _, _ = ds.load_split(target_dir)
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
        pred = ad.forward_classify(m, rows).argmax(axis=-1)
        save_embeddings(os.path.join(args.out, f"{name}.emb1"), rows, -np.ones(len(rows)), pred)
    echo_config(config, args.out)
    print(
        f"adapted: {args.out} steps={len(report.steps)} "
        f"kept_fraction={report.kept_fraction:.4f} "
        f"w_tp_pre={diag.w_tp_pre_exact:.6g} w_tp_post={diag.w_tp_post_exact:.6g}"
    )
    return 0


def cmd_eval(args) -> int:
    model = ad.load_model(args.ckpt)
    images, labels, _ = _load_labeled(_require_dir(args.data, "data"))
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
    diag = read_keyvalue(path)
    for key in (
        "w_sp_exact",
        "w_sp_sliced",
        "w_tp_pre_exact",
        "w_tp_pre_sliced",
        "w_tp_post_exact",
        "w_tp_post_sliced",
        "one_minus_tau",
        "e_source",
        "kept_fraction",
    ):
        if key in diag:
            print(f"{key}={diag[key]}")
    return 0


def cmd_export_embeddings(args) -> int:
    model = ad.load_model(args.ckpt)
    models = [("data.emb1", model)]
    if args.ckpt_pre:
        models.append(("data_pre.emb1", ad.load_model(args.ckpt_pre)))
    images, labels, _ = ds.load_split(_require_dir(args.data, "data"))
    true = labels.reshape(-1) if labels is not None else -np.ones(np.prod(images.shape[:3]))
    os.makedirs(args.out, exist_ok=True)
    written = []
    for name, m in models:
        emb = adapt_mod.pixel_embeddings(m, images)
        pred = ad.forward_classify(m, emb).argmax(axis=-1)
        written.append(os.path.join(args.out, name))
        save_embeddings(written[-1], emb, true, pred)
    if args.gmm:
        gmm = load_gmm(args.gmm)
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
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("estimate", help="fit the prototypical mixture")
    p.add_argument("--config")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--tau", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("adapt", help="source-free adaptation on unlabeled target data")
    p.add_argument("--config")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--gmm", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--lambda", type=float, dest="lambda")
    p.add_argument("--tau", type=float)
    p.add_argument("--iters", type=int)
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
