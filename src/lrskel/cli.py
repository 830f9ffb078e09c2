"""Command-line pipeline: gen, train, compress, sweep, finetune, info.

Every command resolves its settings from flags plus an optional JSON config
file (flags win), echoes the resolved config for reproducibility, and exits
0 on success, 1 on runtime or data errors, 2 on usage errors. A command's
defaults dict names its settings: each entry is a ``--<key>`` flag of the
default's type, and a value from a flag or the config file is converted by
that type once, as it is read.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

from .compress import (PlanParseError, check_plan, compress_model, parse_plan,
                       rank_sweep, sweep_to_csv)
from .container import ContainerError, samples_bytes, weights_bytes, write_all
from .data import DatasetSpec, generate_dataset, load_dataset
from .finetune import TrainConfig, TrainingDiverged, train
from .model import (
    ModelConfig,
    build_model,
    count_flops,
    count_params,
    load_model,
    model_to_tensors,
    named_layers,
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
COMPRESS_DEFAULTS = {"plan": ""}
# Settings whose config dataclass field has another name.
_FIELDS = {"noise": "noise_sigma", "lr": "base_lr", "batch": "batch_size",
          "decay": "decay_factor", "warmup": "warmup_epochs"}


class UsageError(Exception):
    pass


def _integer(value, what):
    """``value`` as an int; a bool or a non-integral number is a UsageError."""
    fractional = isinstance(value, float) and not value.is_integer()
    try:
        if not (isinstance(value, bool) or fractional):
            return int(value)
    except (TypeError, ValueError):
        pass
    raise UsageError(f"{what} must be an integer, got {value!r}")


def _finite(value, what):
    """``value`` as a float; a bool, a non-number or a non-finite value is a
    UsageError."""
    try:
        if not isinstance(value, bool):
            number = float(value)
            if math.isfinite(number):
                return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise UsageError(f"{what} must be a finite number, got {value!r}")


def _milestones(value, what):
    """A comma-separated string (or a JSON list) as a tuple of ints."""
    if not isinstance(value, (list, tuple)):
        text = str(value).strip()
        value = text.split(",") if text else ()
    return tuple(_integer(v, f"each of {what}") for v in value)


# A setting has its default's type; only milestones is parsed further.
_CONVERT = {int: _integer, float: _finite, str: lambda value, what: str(value)}


def _flag(key):
    return "--" + key.replace("_", "-")


def _resolve(args, defaults):
    """Merge flag values over config-file values over defaults, echo them
    with the command's path arguments, set a ``--history`` or ``--report``
    not given to ``<out>.history.csv`` or ``<out>.report.csv``, and return
    each setting converted by its default's type."""
    file_values = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    settings = {}
    for key, default in defaults.items():
        flag = getattr(args, key)
        settings[key] = flag if flag is not None else file_values.get(key, default)
    paths = {key: value for key, value in vars(args).items()
             if key not in defaults and key not in ("command", "config", "func")}
    print("config:", json.dumps({**settings, **paths}, sort_keys=True))
    for key in ("history", "report"):
        if key in paths and paths[key] is None:
            setattr(args, key, f"{args.out}.{key}.csv")
    for key, value in settings.items():
        convert = _milestones if key == "milestones" else _CONVERT[type(defaults[key])]
        settings[key] = convert(value, _flag(key))
    return settings


def _fields(settings, defaults):
    """The settings named in ``defaults``, keyed by their config field."""
    return {_FIELDS.get(key, key): settings[key] for key in defaults}


@contextlib.contextmanager
def _usage_errors():
    """Report a ValueError from the settings' checks as a usage error; a
    config dataclass's message names the field."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_out_dirs(args, outputs):
    """Admit a command's ``(path, format)`` outputs; the folder of a
    dataset may be missing, as ``write_all`` makes it."""
    paths = [path for path, _ in outputs]
    if not all(paths):
        raise ValueError("output path is empty")
    inputs = [(vars(args).get(key), key) for key in ("weights", "grid", "config")]
    if "data" in vars(args):
        inputs += [(path, "dataset") for path in _splits(args.data)]
    real = {path: os.path.realpath(path) for path, _ in outputs + inputs if path}
    if len({real[path] for path in paths}) < len(paths):
        raise ValueError(f"output paths {' and '.join(paths)} name one file")
    for path, kind in outputs:
        folder = parent = os.path.dirname(path)
        while parent and not os.path.exists(parent):
            parent = os.path.dirname(parent)
        if parent and not os.path.isdir(parent):
            raise ValueError(f"output directory {parent} is not a directory")
        if kind != "dataset" and folder and not os.path.isdir(folder):
            raise ValueError(f"output directory {folder} does not exist")
        if os.path.isdir(path):
            raise ValueError(f"output path {path} is a directory")
        for source, form in inputs:
            if real.get(source) == real[path] and form != kind:
                raise ValueError(f"output path {path} would overwrite input {source}")


def _splits(folder):
    return [os.path.join(folder, name) for name in (TRAIN_FILE, TEST_FILE)]


def _fit(args, model, train_samples, test_samples, tcfg):
    """Train ``model``, then write its weights and history and report."""
    try:
        fitted, history = train(model, train_samples, test_samples, tcfg)
    except TrainingDiverged as exc:
        # The completed epochs' history, header only if there are none;
        # no weights file.
        write_all([(args.history, exc.history.to_csv().encode())])
        raise
    write_all([(args.out, weights_bytes(model_to_tensors(fitted))),
               (args.history, history.to_csv().encode())])
    last = history.records[-1]
    print(f"final test top-1: {last.test_top1:.4f} "
          f"(best {history.best_top1:.4f} at epoch {history.best_epoch})")
    print(f"wrote {args.out} and {args.history}")
    return 0


def cmd_gen(args):
    settings = _resolve(args, GEN_DEFAULTS)
    with _usage_errors():
        spec = DatasetSpec(**_fields(settings, GEN_DEFAULTS))
        train_samples, test_samples = generate_dataset(spec)
    if not args.out:
        raise ValueError("output path is empty")
    _check_out_dirs(args, [(p, "dataset") for p in _splits(args.out)])
    write_all(zip(_splits(args.out), map(samples_bytes, (train_samples, test_samples))))
    print(f"train samples: {len(train_samples)}")
    print(f"test samples: {len(test_samples)}")
    return 0


def cmd_train(args):
    settings = _resolve(args, {**MODEL_DEFAULTS, **TRAIN_DEFAULTS})
    with _usage_errors():
        tcfg = TrainConfig(**_fields(settings, TRAIN_DEFAULTS))
        # The data sets joints, frames and classes; 1 stands in for them so
        # that the model settings are checked before any file is read.
        mcfg = ModelConfig(joints=1, frames=1, classes=1, seed=tcfg.seed,
                           **_fields(settings, MODEL_DEFAULTS))
    _check_out_dirs(args, [(args.out, "weights"), (args.history, "csv")])
    train_samples, test_samples = map(load_dataset, _splits(args.data))
    if not train_samples or not test_samples:
        raise ValueError("dataset is empty")
    frames, joints, _ = train_samples[0].coords.shape
    classes = 1 + max(s.label for s in train_samples + test_samples)
    mcfg = dataclasses.replace(mcfg, joints=joints, frames=frames, classes=classes)
    return _fit(args, build_model(mcfg), train_samples, test_samples, tcfg)


def cmd_compress(args):
    settings = _resolve(args, COMPRESS_DEFAULTS)
    try:
        plan = parse_plan(settings["plan"])
    except PlanParseError as exc:
        raise UsageError(f"bad --plan: {exc}") from exc
    _check_out_dirs(args, [(args.out, "weights"), (args.report, "csv")])
    model = load_model(args.weights)
    compressed, report = compress_model(model, plan)
    write_all([(args.out, weights_bytes(model_to_tensors(compressed))),
               (args.report, report.to_csv().encode())])
    print(f"params: {report.params_before} -> {report.params_after}")
    print(f"flops (T={report.reference_frames}): "
          f"{report.flops_before} -> {report.flops_after}")
    print(f"wrote {args.out} and {args.report}")
    return 0


def cmd_sweep(args):
    _resolve(args, {})
    _check_out_dirs(args, [(args.out, "csv")])
    model = load_model(args.weights)
    test_samples = load_dataset(os.path.join(args.data, TEST_FILE))
    grid = []
    with open(args.grid) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                plan = parse_plan(text)
                check_plan(model, plan)
            except ValueError as exc:
                raise ValueError(f"{args.grid}:{lineno}: {exc}") from None
            grid.append(plan)
    if not grid:
        raise ValueError(f"no plans found in grid file {args.grid}")
    rows = rank_sweep(model, test_samples, grid)
    write_all([(args.out, sweep_to_csv(rows).encode())])
    for row in rows:
        print(f"{row.plan}: params={row.params} top1={row.top1:.4f}")
    print(f"wrote {args.out}")
    return 0


def cmd_finetune(args):
    settings = _resolve(args, FINETUNE_DEFAULTS)
    with _usage_errors():
        tcfg = TrainConfig(**_fields(settings, FINETUNE_DEFAULTS))
    _check_out_dirs(args, [(args.out, "weights"), (args.history, "csv")])
    model = load_model(args.weights)
    return _fit(args, model, *map(load_dataset, _splits(args.data)), tcfg)


def cmd_info(args):
    model = load_model(args.weights)
    cfg = model.config
    print(f"config: joints={cfg.joints} frames={cfg.frames} "
          f"d_model={cfg.d_model} heads={cfg.heads} blocks={cfg.blocks} "
          f"classes={cfg.classes} seed={cfg.seed}")
    for name, layer, group in named_layers(model):
        dims = [f.shape[0] for f in layer.factors] + [layer.c_out]
        rank = layer.factors[1].shape[0] if len(layer.factors) > 1 else "full"
        print(f"{name} [{group}] {layer.kind} {'x'.join(map(str, dims))} "
              f"rank={rank} params={layer.param_count()}")
    print(f"total params: {count_params(model)}")
    print(f"total flops (T={cfg.frames}): {count_flops(model, cfg.frames)}")
    return 0


def _add_settings(p, defaults):
    p.add_argument("--config", help="JSON config file; flags override it")
    for key, default in defaults.items():
        p.add_argument(_flag(key), dest=key, type=type(default),
                       help=f"default: {default!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lrskel",
        description="Low-rank compression pipeline for a small "
                    "skeleton-sequence attention classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic skeleton dataset")
    p.add_argument("--out", required=True, help="output directory")
    _add_settings(p, GEN_DEFAULTS)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model from scratch")
    p.add_argument("data", help="dataset directory from 'gen'")
    p.add_argument("--out", required=True, help="weights file")
    p.add_argument("--history", help="history CSV path (default <out>.history.csv)")
    _add_settings(p, {**MODEL_DEFAULTS, **TRAIN_DEFAULTS})
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compress", help="apply a low-rank plan such as "
                       '"q=1,k=3" to weights (omitted groups stay dense)')
    p.add_argument("weights", help="input weights file")
    p.add_argument("--out", required=True, help="compressed weights file")
    p.add_argument("--report", help="report CSV path (default <out>.report.csv)")
    _add_settings(p, COMPRESS_DEFAULTS)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("sweep", help="score a grid of plans without fine-tuning")
    p.add_argument("weights", help="input weights file")
    p.add_argument("data", help="dataset directory")
    p.add_argument("--grid", required=True,
                   help="file with one plan per line, '#' comments allowed")
    p.add_argument("--out", required=True, help="sweep CSV path")
    _add_settings(p, {})
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("finetune", help="fine-tune compressed weights")
    p.add_argument("weights", help="input weights file")
    p.add_argument("data", help="dataset directory")
    p.add_argument("--out", required=True, help="output weights file")
    p.add_argument("--history", help="history CSV path (default <out>.history.csv)")
    _add_settings(p, FINETUNE_DEFAULTS)
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
