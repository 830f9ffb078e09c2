import argparse
import contextlib
import errno
import io
import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_no_children, counting_svd, forced_cpus, hooked_compress
from lrskel import cli
from lrskel.cli import (COMPRESS_DEFAULTS, FINETUNE_DEFAULTS, GEN_DEFAULTS,
                        MODEL_DEFAULTS, TRAIN_DEFAULTS, build_parser, main)
from lrskel.compress import compress_model, parse_plan
from lrskel.data import load_dataset, save_dataset
from lrskel.finetune import evaluate
from lrskel.container import write_weights
from lrskel.model import build_model, count_params, load_model, model_to_tensors, ModelConfig

SMALL_GEN = ["--classes", "3", "--train-per-class", "6", "--test-per-class", "4",
             "--frames", "8", "--joints", "2", "--noise", "0.05", "--seed", "9"]
SMALL_MODEL = ["--d-model", "8", "--heads", "2", "--blocks", "1"]
SMALL_TRAIN = ["--epochs", "3", "--lr", "0.1", "--milestones", "", "--batch", "8"]


@pytest.fixture()
def workspace(tmp_path):
    data = tmp_path / "data"
    assert main(["gen", "--out", str(data)] + SMALL_GEN) == 0
    model = tmp_path / "model.lrts"
    args = ["train", str(data), "--out", str(model)]
    assert main(args + SMALL_MODEL + SMALL_TRAIN) == 0
    return tmp_path, data, model


def test_gen_reports_counts(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen", "--out", str(out)] + SMALL_GEN) == 0
    text = capsys.readouterr().out
    assert "train samples: 18" in text
    assert "test samples: 12" in text
    assert (out / "train.lrsk").exists()
    assert (out / "test.lrsk").exists()


def test_gen_default_spec_counts(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen", "--out", str(out),
                 "--train-per-class", "2", "--test-per-class", "1"]) == 0
    text = capsys.readouterr().out
    # default 8 classes
    assert "train samples: 16" in text
    assert "test samples: 8" in text


def test_gen_repeat_identical_files(tmp_path):
    # The last two name a fresh folder and a fresh nested one with the
    # trailing separator that shell completion adds.
    folders = [tmp_path / "a", tmp_path / "b", tmp_path / "c", tmp_path / "d" / "sub"]
    outs = [str(f) + end for f, end in zip(folders, ["", "", os.sep, os.sep])]
    assert [main(["gen", "--out", out] + SMALL_GEN) for out in outs] == [0] * 4
    for name in ("train.lrsk", "test.lrsk"):
        assert len({(folder / name).read_bytes() for folder in folders}) == 1


def test_gen_zero_classes_is_usage_error(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "d"), "--classes", "0"]) == 2
    assert "classes" in capsys.readouterr().err


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_gen_non_finite_noise_is_usage_error(tmp_path, capsys, noise):
    out = tmp_path / "d"
    assert main(["gen", "--out", str(out), "--noise", noise]) == 2
    assert "--noise must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_gen_overflowing_noise_is_usage_error(tmp_path, capsys):
    out = tmp_path / "d"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["gen", "--out", str(out), "--noise", "1e308", "--classes",
                     "2", "--train-per-class", "1", "--test-per-class", "1"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")
    assert "overflows" in err[0]
    assert not caught
    assert not out.exists()


@pytest.mark.parametrize("command, values", [
    ("train", {"lr": True}), ("train", {"decay": True}), ("gen", {"noise": True}),
    ("train", {"lr": 10 ** 400}),
], ids=["lr", "decay", "noise", "int-overflowing-float"])
def test_non_finite_float_setting_is_usage_error(tmp_path, capsys, command, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    args = [command, str(tmp_path / "data")] if command == "train" else [command]
    assert main(args + ["--out", str(out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")
    assert f"must be a finite number, got {list(values.values())[0]!r}" in err[0]
    assert not out.exists()


def test_train_infinite_lr_is_usage_error(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen", "--out", str(data)] + SMALL_GEN) == 0
    capsys.readouterr()
    out = tmp_path / "m.lrts"
    assert main(["train", str(data), "--out", str(out), "--lr", "inf"]
                + SMALL_MODEL) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["usage error: --lr must be a finite number, got inf"]
    assert not out.exists()


@pytest.mark.parametrize("values", [
    {"epochs": 1.9}, {"epochs": True},
    {"milestones": [0.5]}, {"milestones": [None]},
], ids=["fractional", "bool", "fractional-milestone", "null-milestone"])
def test_train_non_integer_setting_is_usage_error(tmp_path, capsys, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "m.lrts"
    assert main(["train", str(tmp_path / "data"), "--out", str(out),
                 "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")
    assert "must be an integer" in err[0]
    assert not out.exists()


# Sizes that ask for one array of more than 2**57 bytes, which no 64-bit
# Linux process can map, and less than 2**63, so numpy raises MemoryError
# without allocating anything (a larger one is numpy's ValueError).
@pytest.mark.parametrize("command, flags", [
    ("gen", ["--classes", "1", "--train-per-class", str(10 ** 15)]),
    ("train", SMALL_MODEL + ["--d-model", str(10 ** 16), "--heads", "1"]),
    ("gen", ["--noise", "0", "--classes", "1", "--train-per-class", str(10 ** 15)]),
], ids=["gen-clips", "train-d-model", "gen-noiseless-clips"])
def test_impossible_size_is_one_error_line(tmp_path, command, flags):
    data = tmp_path / "data"
    assert main(["gen", "--out", str(data)] + SMALL_GEN) == 0
    out = tmp_path / "out"
    args = [command, str(data)] if command == "train" else [command]
    code, err = _run_quietly(args + ["--out", str(out)] + flags)
    _assert_one_error_line(code, err)
    assert "out of memory" in err
    assert not out.exists()


def test_gen_echoes_config(tmp_path, capsys):
    main(["gen", "--out", str(tmp_path / "d")] + SMALL_GEN)
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("config:"))
    resolved = json.loads(line.split(":", 1)[1])
    assert resolved["classes"] == 3
    assert resolved["seed"] == 9


def test_config_file_merge_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"classes": 4, "seed": 5}))
    out = tmp_path / "d"
    assert main(["gen", "--out", str(out), "--config", str(cfg),
                 "--seed", "6", "--train-per-class", "2",
                 "--test-per-class", "1", "--frames", "8", "--joints", "2"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("config:"))
    resolved = json.loads(line.split(":", 1)[1])
    assert resolved["classes"] == 4   # from file
    assert resolved["seed"] == 6      # flag wins


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"clases": 4}))
    assert main(["gen", "--out", str(tmp_path / "d"),
                 "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"[" * 100000, b"\xff\xfe{}"],
                         ids=["nested-too-deep", "not-utf8"])
def test_unreadable_config_file_is_usage_error(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    out = tmp_path / "d"
    assert main(["gen", "--out", str(out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: cannot read config file: ")
    assert not out.exists()


@pytest.mark.parametrize("content", ["[1, 2]", "3", '"epochs"', "null"])
def test_config_file_that_is_not_a_json_object_is_usage_error(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    out = tmp_path / "d"
    assert main(["gen", "--out", str(out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["usage error: config file must hold a JSON object"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "finetune"])
def test_negative_warmup_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "m.lrts"
    inputs = [str(tmp_path / "data")]
    if command == "finetune":
        inputs.insert(0, str(tmp_path / "none.lrts"))
    assert main([command, *inputs, "--out", str(out), "--warmup", "-1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["usage error: warmup_epochs must be >= 0"]
    assert not out.exists()


def test_train_writes_weights_and_history(workspace):
    tmp_path, data, model = workspace
    history = tmp_path / "model.lrts.history.csv"
    assert model.exists()
    assert history.exists()
    lines = history.read_text().strip().split("\n")
    assert lines[0] == "epoch,lr,train_loss,test_top1"
    assert len(lines) == 1 + 3  # header + epochs rows


def test_train_zero_lr_keeps_untrained_accuracy(tmp_path, capsys):
    data = tmp_path / "data"
    main(["gen", "--out", str(data)] + SMALL_GEN)
    model_path = tmp_path / "m.lrts"
    assert main(["train", str(data), "--out", str(model_path)]
                + SMALL_MODEL
                + ["--epochs", "1", "--lr", "0", "--milestones", "",
                   "--seed", "4"]) == 0
    trained = load_model(model_path)
    untrained = build_model(trained.config)
    test = load_dataset(data / "test.lrsk")
    assert evaluate(trained, test) == evaluate(untrained, test)


def test_train_epochs_zero_usage_error(tmp_path, capsys):
    data = tmp_path / "data"
    main(["gen", "--out", str(data)] + SMALL_GEN)
    code = main(["train", str(data), "--out", str(tmp_path / "m.lrts"),
                 "--epochs", "0"])
    assert code == 2


def test_train_missing_data_is_runtime_error(tmp_path, capsys):
    code = main(["train", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "m.lrts")] + SMALL_TRAIN)
    assert code == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns as it overflows
def test_train_divergence_is_runtime_error(tmp_path, capsys):
    data = tmp_path / "data"
    main(["gen", "--out", str(data)] + SMALL_GEN)
    capsys.readouterr()
    weights = tmp_path / "m.lrts"
    # pytest collects warnings instead of printing them, so record them to
    # see what a user would find on stderr.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", str(data), "--out", str(weights)] + SMALL_MODEL
                    + ["--epochs", "3", "--lr", "1000", "--milestones", "",
                       "--batch", "8"])
    err = capsys.readouterr().err
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "epoch" in errors[0] and "lr" in errors[0]
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not weights.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_keeps_the_completed_epochs_history(tmp_path, capsys):
    data = tmp_path / "data"
    main(["gen", "--out", str(data)] + SMALL_GEN)
    weights, history = tmp_path / "m.lrts", tmp_path / "h.csv"
    # A two-epoch warm-up: epoch 0 runs at lr 50 and completes, epoch 1
    # runs at lr 100 and diverges.
    code = main(["train", str(data), "--out", str(weights), "--history",
                 str(history)] + SMALL_MODEL
                + ["--epochs", "4", "--lr", "100", "--warmup", "2",
                   "--milestones", "", "--batch", "8"])
    err = capsys.readouterr().err
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: training diverged at epoch 1,")
    assert "(lr 100.0)" in errors[0]
    lines = history.read_text().splitlines()
    assert lines[0] == "epoch,lr,train_loss,test_top1"
    assert len(lines) == 2
    assert lines[1].startswith("0,50.0,")
    assert not weights.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_in_the_first_epoch_writes_a_header_only_history(tmp_path):
    data = tmp_path / "data"
    main(["gen", "--out", str(data)] + SMALL_GEN)
    weights = tmp_path / "m.lrts"
    code = main(["train", str(data), "--out", str(weights)] + SMALL_MODEL
                + ["--epochs", "2", "--lr", "1e300", "--milestones", "",
                   "--batch", "8"])
    assert code == 1
    history = tmp_path / "m.lrts.history.csv"
    assert history.read_text() == "epoch,lr,train_loss,test_top1\n"
    assert not weights.exists()


@pytest.mark.parametrize("command, flag", [
    ("train", "--out"), ("train", "--history"), ("finetune", "--out"),
    ("finetune", "--history"), ("compress", "--out"), ("compress", "--report"),
    ("sweep", "--out"),
])
def test_missing_output_directory_fails_before_any_work(workspace, capsys,
                                                         command, flag):
    tmp_path, data, model = workspace
    grid = tmp_path / "grid.txt"
    grid.write_text("full\nv=1\n")
    missing = tmp_path / "nodir"
    outputs = {"--out": str(tmp_path / "out"), flag: str(missing / "file")}
    # train is given a missing data directory too: the output check comes first.
    inputs = {"train": [str(tmp_path / "no-data")] + SMALL_MODEL + SMALL_TRAIN,
              "finetune": [str(model), str(data)] + SMALL_TRAIN,
              "compress": [str(model), "--plan", "v=1"],
              "sweep": [str(model), str(data), "--grid", str(grid)]}[command]
    files = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    code = main([command, *inputs, *(a for pair in outputs.items() for a in pair)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error: output directory {missing} does not exist"]
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("command, flag", [
    ("train", "--out"), ("train", "--history"), ("finetune", "--out"),
    ("finetune", "--history"), ("compress", "--out"), ("compress", "--report"),
    ("sweep", "--out"),
])
def test_output_path_that_is_a_directory_fails_before_any_work(workspace, capsys,
                                                               command, flag):
    tmp_path, data, model = workspace
    grid = tmp_path / "grid.txt"
    grid.write_text("full\nv=1\n")
    folder = tmp_path / "outdir"
    folder.mkdir()
    outputs = {"--out": str(tmp_path / "out"), flag: str(folder)}
    inputs = {"train": [str(data)] + SMALL_MODEL + SMALL_TRAIN,
              "finetune": [str(model), str(data)] + SMALL_TRAIN,
              "compress": [str(model), "--plan", "v=1"],
              "sweep": [str(model), str(data), "--grid", str(grid)]}[command]
    files = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    code = main([command, *inputs, *(a for pair in outputs.items() for a in pair)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error: output path {folder} is a directory"]
    assert sorted(tmp_path.rglob("*")) == files


def test_default_report_path_that_is_a_directory_fails_before_any_work(
        workspace, capsys):
    tmp_path, _, model = workspace
    folder = tmp_path / "c.lrts.report.csv"
    folder.mkdir()
    files = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(["compress", str(model), "--plan", "v=1",
                 "--out", str(tmp_path / "c.lrts")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: output path {folder} is a directory"]
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("command", ["train", "finetune"])
def test_default_history_path_that_is_a_directory_fails_before_any_work(
        workspace, capsys, command):
    tmp_path, data, model = workspace
    out = tmp_path / "m2.lrts"
    folder = tmp_path / "m2.lrts.history.csv"
    folder.mkdir()
    inputs = {"train": [str(data)] + SMALL_MODEL + SMALL_TRAIN,
              "finetune": [str(model), str(data)] + SMALL_TRAIN}[command]
    files = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([command, *inputs, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: output path {folder} is a directory"]
    assert not out.exists()
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("command, flag", [
    ("train", "--history"), ("finetune", "--history"), ("compress", "--report"),
])
def test_two_outputs_that_name_one_file_fail_before_any_work(workspace, capsys,
                                                             command, flag):
    tmp_path, data, _ = workspace
    out = str(tmp_path / "out.lrts")
    same = os.path.join(str(tmp_path), ".", "out.lrts")
    # The input is missing too: the output check comes first.
    missing = str(tmp_path / "missing")
    inputs = {"train": [missing] + SMALL_MODEL + SMALL_TRAIN,
              "finetune": [missing, str(data)] + SMALL_TRAIN,
              "compress": [missing, "--plan", "v=1"]}[command]
    files = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([command, *inputs, "--out", out, flag, same]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: output paths {out} and {same} name one file"]
    assert sorted(tmp_path.rglob("*")) == files


def test_train_on_an_empty_test_split_fails_and_writes_nothing(workspace, capsys):
    tmp_path, data, _ = workspace
    save_dataset(data / "test.lrsk", [])
    files = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(["train", str(data), "--out", str(tmp_path / "m2.lrts")]
                + SMALL_MODEL + SMALL_TRAIN) == 1
    assert capsys.readouterr().err.splitlines() == ["error: dataset is empty"]
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("command", ["sweep", "finetune"])
def test_test_labels_outside_the_model_classes_fail_before_any_work(
        workspace, capsys, monkeypatch, command):
    tmp_path, data, model = workspace
    wide = tmp_path / "wide"
    assert main(["gen", "--out", str(wide)] + SMALL_GEN + ["--classes", "5"]) == 0
    (data / "test.lrsk").write_bytes((wide / "test.lrsk").read_bytes())
    grid = tmp_path / "grid.txt"
    grid.write_text("full\nv=1\n")
    calls = counting_svd(monkeypatch)
    args = {"sweep": [str(model), str(data), "--grid", str(grid),
                      "--out", str(tmp_path / "s.csv")],
            "finetune": [str(model), str(data), "--out", str(tmp_path / "f.lrts")]
            + SMALL_TRAIN}[command]
    files = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([command, *args]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: label out of range [0, 3) in evaluation set"]
    assert sorted(tmp_path.rglob("*")) == files
    assert calls == []


@pytest.mark.parametrize("command", ["compress", "sweep"])
def test_svd_nonconvergence_names_the_layer(workspace, capsys, monkeypatch,
                                            command):
    import lrskel.linalg

    tmp_path, data, model = workspace
    grid = tmp_path / "grid.txt"
    grid.write_text("full\nv=1\nq=1\n")
    out = tmp_path / "out"
    args = {"compress": ["compress", str(model), "--plan", "k=1,q=1"],
            "sweep": ["sweep", str(model), str(data), "--grid", str(grid)]}
    monkeypatch.setattr(lrskel.linalg, "MAX_SWEEPS", 0)
    capsys.readouterr()
    assert main(args[command] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: blocks.0.heads.0.wq: no convergence "
                             "after 0 sweeps; max relative column coupling ")
    assert not out.exists()


def test_compress_identity_plan_keeps_payload(workspace):
    tmp_path, data, model = workspace
    out = tmp_path / "same.lrts"
    assert main(["compress", str(model), "--plan", "", "--out", str(out)]) == 0
    assert out.read_bytes() == model.read_bytes()


def test_compress_reduces_totals(workspace, capsys):
    tmp_path, data, model = workspace
    out = tmp_path / "small.lrts"
    assert main(["compress", str(model), "--plan", "q=1,k=3",
                 "--out", str(out)]) == 0
    report = (tmp_path / "small.lrts.report.csv").read_text().strip().split("\n")
    total = report[-1].split(",")
    assert int(total[6]) < int(total[5])
    compressed = load_model(out)
    assert count_params(compressed) == int(total[6])


def test_compress_rank_too_large_is_runtime_error(workspace, capsys):
    tmp_path, data, model = workspace
    code = main(["compress", str(model), "--plan", "v=9999",
                 "--out", str(tmp_path / "x.lrts")])
    assert code == 1
    assert "wv" in capsys.readouterr().err


def test_compress_bad_plan_is_usage_error(workspace, capsys):
    tmp_path, data, model = workspace
    code = main(["compress", str(model), "--plan", "q=zero",
                 "--out", str(tmp_path / "x.lrts")])
    assert code == 2


def test_sweep_grid(workspace, capsys):
    tmp_path, data, model = workspace
    grid = tmp_path / "grid.txt"
    grid.write_text("# plans, most accurate first\nfull\nv=3\nv=2\nv=1\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(model), str(data), "--grid", str(grid),
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "plan,params,top1"
    plans = [l.split(",")[0] for l in lines[1:]]
    assert plans == ["full", "v=3", "v=2", "v=1"]
    baseline = evaluate(load_model(model), load_dataset(data / "test.lrsk"))
    assert float(lines[1].split(",")[2]) == baseline
    # params column recounts exactly
    for line in lines[1:]:
        cells = line.split(",")
        assert int(cells[1]) > 0


def _fail_in_child(text, in_child):
    if in_child and text == "v=2":
        raise ValueError("logits contain non-finite entries")


def _die_in_child(text, in_child):
    if in_child and text == "v=2":
        os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("hook, message", [
    (_fail_in_child, "error: logits contain non-finite entries"),
    (_die_in_child, "error: a sweep worker ended without its rows (exit status -9)"),
])
def test_sweep_failure_in_a_worker_writes_nothing(workspace, capsys, monkeypatch,
                                                 hook, message):
    tmp_path, data, model = workspace
    grid = tmp_path / "grid.txt"
    grid.write_text("full\nv=3\nv=2\nv=1\n")  # v=2 is the second child's
    out = tmp_path / "s.csv"
    forced_cpus(monkeypatch, 3)
    hooked_compress(monkeypatch, hook)
    assert main(["sweep", str(model), str(data), "--grid", str(grid),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [message]
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["config"]
    assert not out.exists()
    assert_no_children()


def test_sweep_on_a_pipe_prints_each_line_once(workspace):
    # Three workers whatever the machine. The "config:" line sits in
    # stdout's block buffer at each fork, so a child that flushed it on
    # exit would print it again.
    tmp_path, data, model = workspace
    grid = tmp_path / "grid.txt"
    grid.write_text("full\nv=3\nv=2\nv=1\n")
    out = tmp_path / "s.csv"
    script = ("import os, sys\n"
              "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
              "from lrskel.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, "sweep", str(model), str(data),
         "--grid", str(grid), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().strip().split("\n")[1:]
    expected = [proc.stdout.splitlines()[0]] + [
        f"{plan}: params={params} top1={float(top1):.4f}"
        for plan, params, top1 in (row.split(",") for row in rows)
    ] + [f"wrote {out}"]
    assert proc.stdout.splitlines() == expected
    assert [line.split(":")[0] for line in expected] == [
        "config", "full", "v=3", "v=2", "v=1", "wrote " + str(out)]


def _stat(pid):
    """The fields of /proc/<pid>/stat after the command name (state, parent
    pid, ...), or None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _children(pid):
    return [int(e) for e in os.listdir("/proc")
            if e.isdigit() and (_stat(e) or [None, None])[1] == str(pid)]


def _running(pid):
    """True while ``pid`` runs; a zombie left for its new parent has ended."""
    return (_stat(pid) or ["Z"])[0] != "Z"


def _poll(predicate, seconds):
    deadline = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs Linux's /proc and two CPUs in the affinity mask")
def test_sweep_worker_does_not_outlive_a_killed_caller(workspace):
    # A SIGTERM raises nothing in the caller, so it cannot reap its worker.
    # The worker, reparented, used to score the rest of its plans: here
    # 200 plans of 50 ms each, 10 s.
    tmp_path, data, model = workspace
    grid = tmp_path / "grid.txt"
    grid.write_text("q=1\n" * 400)
    script = ("import os, sys, time\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "from lrskel import compress\n"
              "real = compress._compress\n"
              "def slow(*args):\n"
              "    time.sleep(0.05)\n"
              "    return real(*args)\n"
              "compress._compress = slow\n"
              "from lrskel.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "sweep", str(model), str(data),
         "--grid", str(grid), "--out", str(tmp_path / "s.csv")],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
    workers = []
    try:
        assert _poll(lambda: workers.extend(_children(proc.pid)) or workers, 60)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(60) == -signal.SIGTERM
        assert _poll(lambda: not any(map(_running, workers)), 5)
    finally:
        proc.kill()  # a no-op once it is reaped
        proc.wait(60)
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)


def test_sweep_reads_only_the_test_split(workspace):
    tmp_path, data, model = workspace
    (data / "train.lrsk").unlink()
    grid = tmp_path / "grid.txt"
    grid.write_text("full\n")
    assert main(["sweep", str(model), str(data), "--grid", str(grid),
                 "--out", str(tmp_path / "s.csv")]) == 0


def test_sweep_empty_grid_is_runtime_error(workspace, capsys):
    tmp_path, data, model = workspace
    grid = tmp_path / "grid.txt"
    grid.write_text("# nothing here\n")
    assert main(["sweep", str(model), str(data), "--grid", str(grid),
                 "--out", str(tmp_path / "s.csv")]) == 1


def test_sweep_bad_grid_line_fails_before_any_svd(workspace, capsys, monkeypatch):
    tmp_path, data, model = workspace
    calls = counting_svd(monkeypatch)
    grid = tmp_path / "grid.txt"
    out = tmp_path / "s.csv"
    cases = (
        ("q=1\nq=9\n", "grid.txt:2: rank 9 exceeds min dimension"),
        ("full\n# comment\nq=\n", "grid.txt:3: bad rank ''"),
    )
    for text, message in cases:
        grid.write_text(text)
        capsys.readouterr()
        assert main(["sweep", str(model), str(data), "--grid", str(grid),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0]
        assert not out.exists()
        assert calls == []


def test_finetune_runs_and_is_deterministic(workspace):
    tmp_path, data, model = workspace
    compressed = tmp_path / "c.lrts"
    main(["compress", str(model), "--plan", "v=1", "--out", str(compressed)])
    ft_args = ["finetune", str(compressed), str(data),
               "--epochs", "2", "--lr", "0.01", "--milestones", "1",
               "--batch", "8", "--seed", "3"]
    out1, out2 = tmp_path / "f1.lrts", tmp_path / "f2.lrts"
    assert main(ft_args + ["--out", str(out1)]) == 0
    assert main(ft_args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    h1 = (tmp_path / "f1.lrts.history.csv").read_text()
    h2 = (tmp_path / "f2.lrts.history.csv").read_text()
    assert h1 == h2
    assert len(h1.strip().split("\n")) == 3


def test_finetune_epochs_zero_usage_error(workspace):
    tmp_path, data, model = workspace
    assert main(["finetune", str(model), str(data),
                 "--out", str(tmp_path / "f.lrts"), "--epochs", "0"]) == 2


def test_info_lists_layers(workspace, capsys):
    tmp_path, data, model = workspace
    assert main(["info", str(model)]) == 0
    text = capsys.readouterr().out
    assert "embed [EMBED] dense" in text
    assert "blocks.0.heads.0.wq [Q] dense" in text
    trained = load_model(model)
    assert f"total params: {count_params(trained)}" in text


def test_info_distinguishes_compressed_layers(workspace, capsys):
    tmp_path, data, model = workspace
    compressed = tmp_path / "c.lrts"
    main(["compress", str(model), "--plan", "v=2", "--out", str(compressed)])
    capsys.readouterr()
    assert main(["info", str(compressed)]) == 0
    text = capsys.readouterr().out
    assert "wv [V] lowrank" in text
    assert "rank=2" in text
    assert "wq [Q] dense" in text


def test_info_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.lrts"
    bad.write_bytes(b"LRTS\x01\x00\x00\x00\xff")
    assert main(["info", str(bad)]) == 1
    assert "corrupt container" in capsys.readouterr().err


def test_info_wrong_magic(tmp_path, capsys):
    bad = tmp_path / "bad.lrts"
    bad.write_bytes(b"ELF7" + bytes(40))
    assert main(["info", str(bad)]) == 1
    assert "corrupt container" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("inf"), 2.5])
def test_info_rejects_bad_config_entry(tmp_path, capsys, value):
    tensors = model_to_tensors(build_model(ModelConfig(
        joints=2, frames=3, d_model=4, heads=2, blocks=1, classes=3, seed=0)))
    # The writer refuses non-finite tensors, so a marker entry is patched
    # to ``value`` in the written bytes.
    marker = 0.123456789
    tensors["config"][1] = marker
    path = tmp_path / "bad.lrts"
    write_weights(path, tensors)
    data = path.read_bytes()
    assert data.count(struct.pack("<d", marker)) == 1
    path.write_bytes(data.replace(struct.pack("<d", marker), struct.pack("<d", value)))
    assert main(["info", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"config entry frames must be a non-negative integer, got {value}" in err


TINY_CFG = ModelConfig(joints=2, frames=3, d_model=4, heads=2, blocks=1,
                       classes=3, seed=0)
# TINY_CFG with plan v=1, so every head's wv is low-rank and factor pairs are
# fuzzed too; LOWRANK names the first of them.
LOWRANK = "blocks.0.heads.0.wv"
FUZZ_BASE = model_to_tensors(compress_model(build_model(TINY_CFG), parse_plan("v=1"))[0])


def _run_quietly(argv):
    """``main(argv)`` with stdout dropped; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_one_error_line(code, err):
    assert code == 1, err
    assert err.count("error:") == 1 and err.startswith("error:"), err
    assert "Traceback" not in err, err


@pytest.mark.parametrize("edit, message", [
    (lambda t: t["config"].__setitem__(7, 2.0 ** 32 + 5),
     "config entry seed_lo must be below 2**32, got 4294967301.0"),
    (lambda t: t.update({"embed.bias": t["embed.bias"].reshape(2, 2)}),
     "bias shape (2, 2) != output width (4,)"),
    (lambda t: t.update({"blocks.0.heads.1.wk.bias": np.ones((2, 2))}),
     "error: blocks.0.heads.1.wk: bias shape (2, 2) != output width (2,)"),
])
def test_info_rejects_file_that_would_not_round_trip(tmp_path, edit, message):
    tensors = {name: arr.copy() for name, arr in FUZZ_BASE.items()}
    edit(tensors)
    path = tmp_path / "bad.lrts"
    write_weights(path, tensors)
    code, err = _run_quietly(["info", str(path)])
    _assert_one_error_line(code, err)
    assert message in err


# Q/K projections that read 5 columns on a d_model 4 config: every command
# that loads weights fails with one line naming the first layer at fault,
# before it writes anything. Before, ``info`` and ``compress`` accepted the
# file and ``sweep`` and ``finetune`` failed at their first forward.
@pytest.mark.parametrize("command", ["info", "compress", "sweep", "finetune"])
def test_layer_of_another_shape_than_its_config_fails_on_load(tmp_path, command):
    assert _run_quietly(["gen", "--out", str(tmp_path / "data"), "--frames", "3",
                         "--joints", "2", "--classes", "3", "--train-per-class", "2",
                         "--test-per-class", "2"])[0] == 0
    tensors = dict(FUZZ_BASE)
    for head in range(2):
        for proj in ("wq", "wk"):
            tensors[f"blocks.0.heads.{head}.{proj}.weight"] = np.ones((5, 2))
    write_weights(tmp_path / "bad.lrts", tensors)
    (tmp_path / "g.txt").write_text("full\nq=1\n")
    weights, data, out = (str(tmp_path / name) for name in ("bad.lrts", "data", "out"))
    argv = {"info": ["info", weights],
            "compress": ["compress", weights, "--plan", "q=1", "--out", out],
            "sweep": ["sweep", weights, data, "--grid", str(tmp_path / "g.txt"),
                      "--out", out],
            "finetune": ["finetune", weights, data, "--out", out, "--epochs", "1"]}
    before = _snapshot(tmp_path)
    code, err = _run_quietly(argv[command])
    _assert_one_error_line(code, err)
    assert err.strip() == "error: blocks.0.heads.0.wq: shape (5, 2), expected (4, 2)"
    assert _snapshot(tmp_path) == before


# Weights files that parse but cannot hold a model: one tensor of another
# shape (a bias of the right size but not 1-D among them), a factor pair of
# a rank above min(C_in, C_out), or a config entry that disagrees with the
# tensors or is out of range. ``info`` and ``compress`` must exit 1 with one
# ``error:`` line, and ``compress`` must write nothing.
CLI_FUZZ_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None,
                             database=None)


@st.composite
def reshaped_tensor(draw):
    name = draw(st.sampled_from(sorted(FUZZ_BASE)))
    old = FUZZ_BASE[name].shape
    shape = draw(st.sampled_from([(old[0], 1, 1), old[::-1], (1,) + old, ()])
                 | st.lists(st.integers(0, 5), max_size=3).map(tuple))
    if name.endswith(".bias"):
        shape = draw(st.sampled_from([(2, 2), (1, old[0]), (old[0], 1), shape]))
    if shape == old:
        shape = old + (1,)
    return {name: np.ones(shape)}


@st.composite
def oversized_rank(draw):
    rank = draw(st.integers(3, 6))
    return {f"{LOWRANK}.w1": np.ones((4, rank)), f"{LOWRANK}.w2": np.ones((rank, 2))}


@st.composite
def bad_config_entry(draw):
    config = FUZZ_BASE["config"].copy()
    index = draw(st.sampled_from([0, 2, 3, 4, 5]))
    value = draw(st.integers(0, 8) | st.integers(0, 2 ** 52) | st.just(2 ** 40))
    if value == config[index]:
        value += 1
    config[index] = value
    bad = draw(st.sampled_from([None, 6, 7, 1]))
    if bad is not None:
        # Independently, put one entry out of the integer range.
        config[bad] = draw(st.sampled_from([-1.0, 0.5, 2.0 ** 32, 1e300])
                           if bad != 1 else st.sampled_from([-1.0, 0.5, 3.25]))
    return {"config": config}


@CLI_FUZZ_SETTINGS
@given(edit=st.one_of(reshaped_tensor(), oversized_rank(), bad_config_entry()))
def test_fuzz_cli_rejects_weights_that_hold_no_model(tmp_path_factory, edit):
    root = tmp_path_factory.mktemp("cli_fuzz")
    path = root / "bad.lrts"
    write_weights(path, {**FUZZ_BASE, **edit})
    _assert_one_error_line(*_run_quietly(["info", str(path)]))
    out = root / "out.lrts"
    _assert_one_error_line(*_run_quietly(
        ["compress", str(path), "--plan", "q=1", "--out", str(out)]))
    assert not out.exists()


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_missing_required_flag_is_usage_error():
    assert main(["gen"]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0


# A command's defaults dict is the one place its settings are named: the
# parser has one --<key> flag of the default's type for each entry, and no
# other setting flag.
COMMAND_DEFAULTS = {
    "gen": GEN_DEFAULTS, "train": {**MODEL_DEFAULTS, **TRAIN_DEFAULTS},
    "compress": COMPRESS_DEFAULTS, "sweep": {}, "finetune": FINETUNE_DEFAULTS,
    "info": {},
}
PATH_OPTIONS = {"help", "config", "out", "history", "report", "grid"}


@pytest.mark.parametrize("command", sorted(COMMAND_DEFAULTS))
def test_setting_flags_are_the_defaults(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMAND_DEFAULTS)
    flags = [a for a in sub.choices[command]._actions
             if a.option_strings and a.dest not in PATH_OPTIONS]
    defaults = COMMAND_DEFAULTS[command]
    assert sorted(a.dest for a in flags) == sorted(defaults)
    for action in flags:
        expected = str if action.dest == "milestones" else type(defaults[action.dest])
        assert action.type is expected, action.dest
        assert action.option_strings == ["--" + action.dest.replace("_", "-")]
        assert action.default is None


# Any JSON object of known and unknown keys holding any JSON value, through
# commands whose data and weights are missing: a value is either rejected
# as a usage error or reaches the first file read, so no run generates data,
# builds a model or trains.
EDGE_VALUES = st.sampled_from([10 ** 400, -10 ** 400, 2 ** 64, -1, 0, float("inf"),
                               float("-inf"), float("nan"), True, None, "", "1,2"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3), max_leaves=6)


@pytest.mark.parametrize("command", ["train", "finetune", "compress"])
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_fuzz_config_file_fails_cleanly(tmp_path_factory, command, data):
    defaults = COMMAND_DEFAULTS[command]
    values = data.draw(st.fixed_dictionaries({}, optional={
        key: st.just(default) | EDGE_VALUES | JSON_VALUES
        for key, default in defaults.items()}))
    if data.draw(st.sampled_from([False, False, False, True])):
        values.update(data.draw(st.dictionaries(st.text(max_size=8), JSON_VALUES,
                                                min_size=1, max_size=2)))
    root = tmp_path_factory.mktemp("config_fuzz")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(values))
    weights, missing_data, out = root / "none.lrts", root / "no-data", root / "out"
    inputs = {"train": [str(missing_data)], "compress": [str(weights)],
              "finetune": [str(weights), str(missing_data)]}[command]
    code, err = _run_quietly([command, *inputs, "--out", str(out), "--config", str(cfg)])
    assert code in (1, 2), err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:" if code == 2 else "error:"), err
    assert "Traceback" not in err
    assert not out.exists()


# One path rule for every writing command: an output may not resolve to an
# input of another format. Each case names (argv, the one error line), with
# paths relative to the workspace; no case may read data or weights, and
# every file keeps its bytes.
OVERWRITE_CASES = [
    (["sweep", "model.lrts", "data", "--grid", "g.txt", "--out", "model.lrts"],
     "error: output path model.lrts would overwrite input model.lrts"),
    (["sweep", "link.lrts", "data", "--grid", "g.txt", "--out", "model.lrts"],
     "error: output path model.lrts would overwrite input link.lrts"),
    (["sweep", "model.lrts", "data", "--grid", "g.txt", "--out", "g.txt"],
     "error: output path g.txt would overwrite input g.txt"),
    (["compress", "model.lrts", "--plan", "q=1", "--out", "c.lrts",
      "--report", "model.lrts"],
     "error: output path model.lrts would overwrite input model.lrts"),
    (["finetune", "model.lrts", "data", "--out", "data/train.lrsk", *SMALL_TRAIN],
     "error: output path data/train.lrsk would overwrite input data/train.lrsk"),
    (["finetune", "model.lrts", "data", "--out", "f.lrts", "--history", "model.lrts",
      *SMALL_TRAIN],
     "error: output path model.lrts would overwrite input model.lrts"),
    (["train", "data", "--out", "t.lrts", "--history", "data/test.lrsk", *SMALL_MODEL,
      *SMALL_TRAIN],
     "error: output path data/test.lrsk would overwrite input data/test.lrsk"),
    (["train", "data", "--out", "c.json", "--config", "c.json", *SMALL_MODEL],
     "error: output path c.json would overwrite input c.json"),
    (["gen", "--out", "model.lrts", *SMALL_GEN],
     "error: output directory model.lrts is not a directory"),
    (["gen", "--out", "model.lrts/sub", *SMALL_GEN],
     "error: output directory model.lrts is not a directory"),
    (["gen", "--out", "model.lrts/sub/deeper", *SMALL_GEN],
     "error: output directory model.lrts is not a directory"),
    (["train", "data", "--out", "model.lrts/sub/t.lrts", *SMALL_MODEL, *SMALL_TRAIN],
     "error: output directory model.lrts is not a directory"),
    (["train", "data", "--out", "", *SMALL_MODEL, *SMALL_TRAIN],
     "error: output path is empty"),
    (["compress", "model.lrts", "--plan", "q=1", "--out", ""],
     "error: output path is empty"),
    (["sweep", "model.lrts", "data", "--grid", "g.txt", "--out", ""],
     "error: output path is empty"),
    (["finetune", "model.lrts", "data", "--out", "", *SMALL_TRAIN],
     "error: output path is empty"),
    (["train", "data", "--out", "t.lrts", "--history", "", *SMALL_MODEL, *SMALL_TRAIN],
     "error: output path is empty"),
    (["finetune", "model.lrts", "data", "--out", "f.lrts", "--history", "", *SMALL_TRAIN],
     "error: output path is empty"),
    (["compress", "model.lrts", "--plan", "q=1", "--out", "c.lrts", "--report", ""],
     "error: output path is empty"),
    (["gen", "--out", "", *SMALL_GEN], "error: output path is empty"),
]


def _snapshot(root):
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("argv, line", OVERWRITE_CASES)
def test_output_over_an_input_of_another_format_fails_before_any_read(
        workspace, capsys, monkeypatch, argv, line):
    tmp_path, _, _ = workspace
    (tmp_path / "g.txt").write_text("full\nv=1\n")
    (tmp_path / "c.json").write_text('{"epochs": 1}')
    (tmp_path / "link.lrts").symlink_to(tmp_path / "model.lrts")
    monkeypatch.chdir(tmp_path)

    def no_read(path):
        raise AssertionError(f"read {path} before the path rule")

    monkeypatch.setattr(cli, "load_model", no_read)
    monkeypatch.setattr(cli, "load_dataset", no_read)
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("command", ["compress", "finetune"])
def test_in_place_run_replaces_its_input_weights(workspace, monkeypatch, command):
    tmp_path, _, model = workspace
    monkeypatch.chdir(tmp_path)
    argv = {"compress": ["compress", "model.lrts", "--plan", "q=1"],
            "finetune": ["finetune", "model.lrts", "data", *SMALL_TRAIN]}[command]
    trained = model.read_bytes()
    assert main(argv + ["--out", "copy.lrts"]) == 0
    assert main(argv + ["--out", "model.lrts"]) == 0
    assert model.read_bytes() == (tmp_path / "copy.lrts").read_bytes() != trained


# Per command: a run that writes a weights file and its CSV, a change of
# flags that makes it write other bytes, and the two outputs.
SECOND_RUNS = {
    "train": (["train", "data", "--out", "t.lrts", *SMALL_MODEL, *SMALL_TRAIN],
              ["--seed", "5"], ["t.lrts", "t.lrts.history.csv"]),
    "finetune": (["finetune", "model.lrts", "data", "--out", "f.lrts", *SMALL_TRAIN],
                 ["--seed", "5"], ["f.lrts", "f.lrts.history.csv"]),
    "compress": (["compress", "model.lrts", "--out", "c.lrts", "--plan", "q=1"],
                 ["--plan", "q=2"], ["c.lrts", "c.lrts.report.csv"]),
}


@pytest.mark.parametrize("command", sorted(SECOND_RUNS))
def test_failed_second_write_keeps_the_old_weights_and_csv(
        workspace, capsys, monkeypatch, command):
    import lrskel.container as container

    tmp_path, _, _ = workspace
    monkeypatch.chdir(tmp_path)
    first, change, outputs = SECOND_RUNS[command]
    assert main(first) == 0
    before = _snapshot(tmp_path)
    writes = []

    def second_write_fails(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "w" in mode:
            writes.append(path)
            if len(writes) == 2:
                fh.write(b"half")
                fh.close()
                raise OSError(28, "No space left on device", path)
        return fh

    monkeypatch.setattr(container, "open", second_write_fails, raising=False)
    capsys.readouterr()
    assert main(first + change) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 28] No space left")
    assert writes == [f"{path}.{os.getpid()}.tmp" for path in outputs]
    assert _snapshot(tmp_path) == before
    monkeypatch.undo()
    monkeypatch.chdir(tmp_path)
    assert main(first + change) == 0
    assert all((tmp_path / path).read_bytes() != before[tmp_path / path]
               for path in outputs)


# The same runs, and gen's two splits over those of another seed.
RENAME_RUNS = {**SECOND_RUNS,
               "gen": (["gen", "--out", "data", *SMALL_GEN], ["--seed", "10"],
                       ["data/train.lrsk", "data/test.lrsk"])}


@pytest.mark.parametrize("command", sorted(RENAME_RUNS))
def test_failed_second_rename_puts_the_first_output_back(
        workspace, capsys, monkeypatch, command):
    tmp_path, _, _ = workspace
    monkeypatch.chdir(tmp_path)
    first, change, outputs = RENAME_RUNS[command]
    assert main(first) == 0
    before = _snapshot(tmp_path)
    renamed, real = [], os.replace

    def second_rename_fails(src, dst):
        renamed.append(dst)
        if len(renamed) == 2:
            raise OSError(errno.EBUSY, "Device or resource busy", dst)
        real(src, dst)

    monkeypatch.setattr(os, "replace", second_rename_fails)
    capsys.readouterr()
    assert main(first + change) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: [Errno 16] Device or resource busy: '{outputs[1]}'"]
    assert renamed == [*outputs, outputs[0]]  # the last puts the first back
    assert _snapshot(tmp_path) == before
    monkeypatch.undo()
    monkeypatch.chdir(tmp_path)
    assert main(first + change) == 0
    assert all((tmp_path / path).read_bytes() != before[tmp_path / path]
               for path in outputs)


def test_gen_that_cannot_write_its_test_split_keeps_both_old_splits(tmp_path):
    # The test split is the larger one here, so a file size limit between
    # the two lets the train split's temp file be written in full.
    resource = pytest.importorskip("resource")
    data = tmp_path / "data"
    spec = ["--classes", "3", "--train-per-class", "1", "--test-per-class", "6",
            "--frames", "8", "--joints", "2"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--out", str(data), *spec, "--seed", "0"]) == 0
        assert main(["gen", "--out", str(tmp_path / "seed1"), *spec, "--seed", "1"]) == 0
    old = {name: (data / name).read_bytes() for name in ("train.lrsk", "test.lrsk")}
    assert (tmp_path / "seed1" / "train.lrsk").read_bytes() != old["train.lrsk"]
    limit = (len(old["train.lrsk"]) + len(old["test.lrsk"])) // 2
    assert len(old["train.lrsk"]) < limit < len(old["test.lrsk"])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "lrskel.cli", "gen", "--out", str(data), *spec,
         "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: [Errno 27] File too large"]
    assert sorted(os.listdir(data)) == ["test.lrsk", "train.lrsk"]
    assert {name: (data / name).read_bytes() for name in old} == old


def test_gen_that_cannot_write_removes_only_the_folders_it_made(tmp_path):
    resource = pytest.importorskip("resource")
    (tmp_path / "kept").mkdir()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
               PYTHONDONTWRITEBYTECODE="1")
    for out in ("fresh/sub", "new/sub/", "kept/sub"):
        proc = subprocess.run(
            [sys.executable, "-m", "lrskel.cli", "gen", "--out", out, *SMALL_GEN],
            cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (1, 1)))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: [Errno 27] File too large"]
    assert os.listdir(tmp_path) == ["kept"]
    assert os.listdir(tmp_path / "kept") == []


# Every output flag of a writing command aims, at random, at a fresh path,
# one of the command's inputs, another output's fresh path, an existing
# directory or a path in a missing directory. Per command: the argv before
# the outputs, the inputs by format and the output flags by format; paths
# are relative to a copy of one tiny workspace.
SPLITS = {"data/train.lrsk": "dataset", "data/test.lrsk": "dataset"}
PATH_COMMANDS = {
    "gen": ([*SMALL_GEN], {}, {"--out": "dataset"}),
    "train": (["data", *SMALL_MODEL, *SMALL_TRAIN], SPLITS,
              {"--out": "weights", "--history": "csv"}),
    "compress": (["model.lrts", "--plan", "v=1"], {"model.lrts": "weights"},
                 {"--out": "weights", "--report": "csv"}),
    "sweep": (["model.lrts", "data", "--grid", "grid.txt"],
              {"model.lrts": "weights", "grid.txt": "grid", **SPLITS}, {"--out": "csv"}),
    "finetune": (["model.lrts", "data", *SMALL_TRAIN], {"model.lrts": "weights", **SPLITS},
                 {"--out": "weights", "--history": "csv"}),
}
WORKSPACE_NAMES = {"data", "model.lrts", "grid.txt"}


@pytest.fixture(scope="module")
def path_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("path_base")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--out", str(root / "data")] + SMALL_GEN) == 0
        assert main(["train", str(root / "data"), "--out", str(root / "model.lrts")]
                    + SMALL_MODEL + SMALL_TRAIN) == 0
    (root / "grid.txt").write_text("full\nv=1\n")
    (root / "cfg.json").write_text("{}")
    (root / "adir").mkdir()
    return root


@pytest.mark.parametrize("command", sorted(PATH_COMMANDS))
@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_fuzz_output_paths_never_overwrite_another_format(
        tmp_path_factory, path_workspace, command, data):
    head, inputs, outputs = PATH_COMMANDS[command]
    inputs = {**inputs, "cfg.json": "config"}
    fresh = {flag: "new" + flag for flag in outputs}
    targets = {flag: data.draw(st.sampled_from(
        [fresh[flag], *sorted(inputs), *(fresh[f] for f in outputs if f != flag),
         "adir", "nodir/x"]), label=flag) for flag in outputs}
    root = tmp_path_factory.mktemp("paths")
    shutil.copytree(path_workspace, root, dirs_exist_ok=True)
    before = _snapshot(root)
    argv = [command, *(str(root / a) if a in WORKSPACE_NAMES else a for a in head),
            "--config", str(root / "cfg.json"),
            *(a for flag, target in targets.items() for a in (flag, str(root / target)))]
    code, err = _run_quietly(argv)
    for flag, target in targets.items():
        if target in inputs and inputs[target] != outputs[flag]:
            assert (root / target).read_bytes() == before[root / target], (flag, target)
    if code == 0:
        for flag, target in targets.items():
            written = ([root / target / "train.lrsk", root / target / "test.lrsk"]
                       if command == "gen" else [root / target])
            assert all(p.is_file() and p.stat().st_size for p in written), err
        return
    lines = err.splitlines()
    assert code in (1, 2) and len(lines) == 1, err
    assert lines[0].startswith("usage error:" if code == 2 else "error:"), err
    assert {p: b for p, b in _snapshot(root).items() if p in before} == before
