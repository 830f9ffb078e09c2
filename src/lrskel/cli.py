"""Command-line pipeline: gen, train, compress, sweep, finetune, info.

Every command resolves its settings from flags plus an optional JSON config
file (flags win), echoes the resolved config for reproducibility, and exits
0 on success, 1 on runtime or data errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .compress import PlanParseError, compress_model, parse_plan, rank_sweep, sweep_to_csv
from .container import ContainerError
from .data import DatasetSpec, generate_dataset, load_dataset, save_dataset
from .finetune import TrainConfig, evaluate, train
from .model import (
    ModelConfig,
    build_model,
    count_flops,
    count_params,
    load_model,
    named_layers,
    save_model,
)

TRAIN_FILE = "train.lrsk"
TEST_FILE = "test.lrsk"

GEN_DEFAULTS = {
    "classes": 8, "train_per_class": 250, "test_per_class": 60,
    "frames": 16, "joints": 8, "noise": 0.05, "seed": 0,
}
MODEL_DEFAULTS = {"d_model": 32, "heads": 4, "blocks": 2}
TRAIN_DEFAULTS = {
    "epochs": 30, "lr": 0.1, "batch": 32, "milestones": "20,26",
    "decay": 0.1, "warmup": 0, "seed": 0,
}
FINETUNE_DEFAULTS = {
    "epochs": 50, "lr": 0.01, "batch": 32, "milestones": "5,15,25,40",
    "decay": 0.1, "warmup": 0, "seed": 1,
}


class UsageError(Exception):
    pass


def _as_int(settings, key):
    try:
        return int(settings[key])
    except (TypeError, ValueError):
        raise UsageError(f"--{key.replace('_', '-')} must be an integer") from None


def _as_float(settings, key):
    try:
        return float(settings[key])
    except (TypeError, ValueError):
        raise UsageError(f"--{key.replace('_', '-')} must be a number") from None


def _positive(settings, *keys):
    for key in keys:
        if _as_int(settings, key) < 1:
            raise UsageError(f"--{key.replace('_', '-')} must be >= 1")


def _resolve(args, defaults, extra):
    """Merge flag values over config-file values over defaults."""
    file_values = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    settings = {}
    for key, default in defaults.items():
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = flag
        elif key in file_values:
            settings[key] = file_values[key]
        else:
            settings[key] = default
    settings.update(extra)
    print("config:", json.dumps(settings, sort_keys=True))
    return settings


def _parse_milestones(value):
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    text = str(value).strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"bad milestones {value!r}; expected e.g. 5,15,25") from None


def _load_splits(data_dir):
    train_path = os.path.join(data_dir, TRAIN_FILE)
    test_path = os.path.join(data_dir, TEST_FILE)
    return load_dataset(train_path), load_dataset(test_path)


def _train_config(settings):
    _positive(settings, "epochs", "batch")
    if _as_float(settings, "lr") < 0:
        raise UsageError("--lr must be non-negative")
    try:
        return TrainConfig(
            base_lr=_as_float(settings, "lr"),
            epochs=_as_int(settings, "epochs"),
            batch_size=_as_int(settings, "batch"),
            decay_factor=_as_float(settings, "decay"),
            milestones=_parse_milestones(settings["milestones"]),
            warmup_epochs=_as_int(settings, "warmup"),
            seed=_as_int(settings, "seed"),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _history_path(settings):
    return settings["history"] or settings["out"] + ".history.csv"


def cmd_gen(args):
    settings = _resolve(args, GEN_DEFAULTS, {"out": args.out})
    _positive(settings, "classes", "train_per_class", "test_per_class",
              "frames", "joints")
    try:
        spec = DatasetSpec(
            classes=_as_int(settings, "classes"),
            train_per_class=_as_int(settings, "train_per_class"),
            test_per_class=_as_int(settings, "test_per_class"),
            frames=_as_int(settings, "frames"),
            joints=_as_int(settings, "joints"),
            noise_sigma=_as_float(settings, "noise"),
            seed=_as_int(settings, "seed"),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    train_samples, test_samples = generate_dataset(spec)
    os.makedirs(args.out, exist_ok=True)
    save_dataset(os.path.join(args.out, TRAIN_FILE), train_samples)
    save_dataset(os.path.join(args.out, TEST_FILE), test_samples)
    print(f"train samples: {len(train_samples)}")
    print(f"test samples: {len(test_samples)}")
    return 0


def cmd_train(args):
    settings = _resolve(args, {**MODEL_DEFAULTS, **TRAIN_DEFAULTS}, {
        "data": args.data, "out": args.out, "history": args.history,
    })
    _positive(settings, "d_model", "heads")
    if _as_int(settings, "blocks") < 0:
        raise UsageError("--blocks must be >= 0")
    tcfg = _train_config(settings)
    train_samples, test_samples = _load_splits(args.data)
    if not train_samples or not test_samples:
        raise ValueError("dataset is empty")
    frames, joints, _ = train_samples[0].coords.shape
    classes = 1 + max(s.label for s in train_samples + test_samples)
    try:
        mcfg = ModelConfig(
            joints=joints, frames=frames,
            d_model=_as_int(settings, "d_model"),
            heads=_as_int(settings, "heads"),
            blocks=_as_int(settings, "blocks"),
            classes=classes, seed=_as_int(settings, "seed"),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    model = build_model(mcfg)
    trained, history = train(model, train_samples, test_samples, tcfg)
    save_model(args.out, trained)
    history_path = _history_path(settings)
    with open(history_path, "w") as fh:
        fh.write(history.to_csv())
    last = history.records[-1]
    print(f"final test top-1: {last.test_top1:.4f} "
          f"(best {history.best_top1:.4f} at epoch {history.best_epoch})")
    print(f"wrote {args.out} and {history_path}")
    return 0


def cmd_compress(args):
    settings = _resolve(args, {"plan": ""}, {
        "weights": args.weights, "out": args.out, "report": args.report,
    })
    try:
        plan = parse_plan(str(settings["plan"]))
    except PlanParseError as exc:
        raise UsageError(f"bad --plan: {exc}") from exc
    model = load_model(args.weights)
    compressed, report = compress_model(model, plan)
    save_model(args.out, compressed)
    report_path = settings["report"] or args.out + ".report.csv"
    with open(report_path, "w") as fh:
        fh.write(report.to_csv())
    print(f"params: {report.params_before} -> {report.params_after}")
    print(f"flops (T={report.reference_frames}): "
          f"{report.flops_before} -> {report.flops_after}")
    print(f"wrote {args.out} and {report_path}")
    return 0


def cmd_sweep(args):
    settings = _resolve(args, {}, {
        "weights": args.weights, "data": args.data,
        "grid": args.grid, "out": args.out,
    })
    model = load_model(args.weights)
    test_samples = load_dataset(os.path.join(args.data, TEST_FILE))
    grid = []
    with open(args.grid) as fh:
        for line in fh:
            text = line.split("#", 1)[0].strip()
            if text:
                grid.append(parse_plan(text))
    if not grid:
        raise ValueError(f"no plans found in grid file {args.grid}")
    rows = rank_sweep(model, test_samples, grid)
    with open(args.out, "w") as fh:
        fh.write(sweep_to_csv(rows))
    for row in rows:
        print(f"{row.plan}: params={row.params} top1={row.top1:.4f}")
    print(f"wrote {args.out}")
    return 0


def cmd_finetune(args):
    settings = _resolve(args, dict(FINETUNE_DEFAULTS), {
        "weights": args.weights, "data": args.data,
        "out": args.out, "history": args.history,
    })
    tcfg = _train_config(settings)
    model = load_model(args.weights)
    train_samples, test_samples = _load_splits(args.data)
    tuned, history = train(model, train_samples, test_samples, tcfg)
    save_model(args.out, tuned)
    history_path = _history_path(settings)
    with open(history_path, "w") as fh:
        fh.write(history.to_csv())
    last = history.records[-1]
    print(f"final test top-1: {last.test_top1:.4f} "
          f"(best {history.best_top1:.4f} at epoch {history.best_epoch})")
    print(f"wrote {args.out} and {history_path}")
    return 0


def cmd_info(args):
    model = load_model(args.weights)
    cfg = model.config
    print(f"config: joints={cfg.joints} frames={cfg.frames} "
          f"d_model={cfg.d_model} heads={cfg.heads} blocks={cfg.blocks} "
          f"classes={cfg.classes} seed={cfg.seed}")
    for name, layer, group in named_layers(model):
        if layer.kind == "dense":
            shape = f"{layer.c_in}x{layer.c_out}"
            rank = "full"
        else:
            shape = f"{layer.c_in}x{layer.k}x{layer.c_out}"
            rank = str(layer.k)
        print(f"{name} [{group}] {layer.kind} {shape} rank={rank} "
              f"params={layer.param_count()}")
    print(f"total params: {count_params(model)}")
    print(f"total flops (T={cfg.frames}): {count_flops(model, cfg.frames)}")
    return 0


def _add_config_flags(p, seed=False):
    p.add_argument("--config", help="JSON config file; flags override it")
    if seed:
        p.add_argument("--seed", type=int)


def _add_train_flags(p):
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--milestones", help="comma-separated epoch indices")
    p.add_argument("--decay", type=float)
    p.add_argument("--warmup", type=int)
    p.add_argument("--history", help="history CSV path (default <out>.history.csv)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lrskel",
        description="Low-rank compression pipeline for a small "
                    "skeleton-sequence attention classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic skeleton dataset")
    _add_config_flags(p, seed=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classes", type=int)
    p.add_argument("--train-per-class", type=int, dest="train_per_class")
    p.add_argument("--test-per-class", type=int, dest="test_per_class")
    p.add_argument("--frames", type=int)
    p.add_argument("--joints", type=int)
    p.add_argument("--noise", type=float)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model from scratch")
    p.add_argument("data", help="dataset directory from 'gen'")
    _add_config_flags(p, seed=True)
    p.add_argument("--out", required=True, help="weights file")
    p.add_argument("--d-model", type=int, dest="d_model")
    p.add_argument("--heads", type=int)
    p.add_argument("--blocks", type=int)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compress", help="apply a low-rank plan to weights")
    p.add_argument("weights", help="input weights file")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="compressed weights file")
    p.add_argument("--plan", help='e.g. "q=1,k=3" (omitted groups stay dense)')
    p.add_argument("--report", help="report CSV path (default <out>.report.csv)")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("sweep", help="score a grid of plans without fine-tuning")
    p.add_argument("weights", help="input weights file")
    p.add_argument("data", help="dataset directory")
    _add_config_flags(p)
    p.add_argument("--grid", required=True,
                   help="file with one plan per line, '#' comments allowed")
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("finetune", help="fine-tune compressed weights")
    p.add_argument("weights", help="input weights file")
    p.add_argument("data", help="dataset directory")
    _add_config_flags(p, seed=True)
    p.add_argument("--out", required=True, help="output weights file")
    _add_train_flags(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("info", help="summarize a weights file")
    p.add_argument("weights", help="weights file")
    p.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ContainerError as exc:
        print(f"error: corrupt container: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
