import json

import numpy as np
import pytest

from lrskel.cli import main
from lrskel.data import load_dataset
from lrskel.finetune import evaluate
from lrskel.model import build_model, count_params, load_model, ModelConfig

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
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen", "--out", str(a)] + SMALL_GEN)
    main(["gen", "--out", str(b)] + SMALL_GEN)
    assert (a / "train.lrsk").read_bytes() == (b / "train.lrsk").read_bytes()
    assert (a / "test.lrsk").read_bytes() == (b / "test.lrsk").read_bytes()


def test_gen_zero_classes_is_usage_error(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "d"), "--classes", "0"]) == 2
    assert "classes" in capsys.readouterr().err


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
    code = main(["train", str(data), "--out", str(weights)] + SMALL_MODEL
                + ["--epochs", "3", "--lr", "1000", "--milestones", "",
                   "--batch", "8"])
    err = capsys.readouterr().err
    assert code == 1
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err
    assert not weights.exists()


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


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_missing_required_flag_is_usage_error():
    assert main(["gen"]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0
