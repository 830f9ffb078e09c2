import re
import warnings

import numpy as np
import pytest

from lrskel.data import DatasetSpec, SkeletonSample, generate_dataset
from lrskel.finetune import (
    HISTORY_HEADER,
    TrainConfig,
    evaluate,
    lr_at_epoch,
    train,
)
from lrskel.layers import DenseLinear, LowRankLinear
from lrskel.model import (ModelConfig, backward_features, build_model,
                          cross_entropy, forward, forward_features_tape,
                          map_layers, named_layers, named_params,
                          sample_features)

SCHEDULE_105 = TrainConfig(base_lr=0.0025, epochs=105, batch_size=64,
                             decay_factor=0.1, milestones=(5, 25, 45, 65, 85))


def test_lr_schedule_step_decay_values():
    # 0.0025 decayed by 0.1 at epochs 5, 25, 45, 65, 85.
    assert lr_at_epoch(SCHEDULE_105, 0) == 0.0025
    assert lr_at_epoch(SCHEDULE_105, 4) == 0.0025
    assert lr_at_epoch(SCHEDULE_105, 5) == 0.0025 * 0.1
    assert lr_at_epoch(SCHEDULE_105, 24) == 0.0025 * 0.1
    assert lr_at_epoch(SCHEDULE_105, 85) == 0.0025 * 0.1 ** 5
    assert lr_at_epoch(SCHEDULE_105, 104) == 0.0025 * 0.1 ** 5


def test_lr_schedule_exact_at_every_epoch():
    milestones = (5, 25, 45, 65, 85)
    for epoch in range(105):
        passed = sum(1 for m in milestones if m <= epoch)
        assert lr_at_epoch(SCHEDULE_105, epoch) == 0.0025 * 0.1 ** passed


def test_lr_schedule_warmup_ramp():
    # 0.06 with a 5-epoch linear warm-up: 0.012 at epoch 0, full at epoch 4.
    cfg = TrainConfig(base_lr=0.06, epochs=160, batch_size=90,
                      decay_factor=0.1, milestones=(125, 135, 150),
                      warmup_epochs=5)
    assert lr_at_epoch(cfg, 0) == pytest.approx(0.012, abs=0)
    assert lr_at_epoch(cfg, 4) == 0.06
    assert lr_at_epoch(cfg, 5) == 0.06
    assert lr_at_epoch(cfg, 125) == 0.06 * 0.1
    assert lr_at_epoch(cfg, 150) == pytest.approx(0.06 * 0.1 ** 3)


def test_lr_schedule_unit_decay_is_constant():
    cfg = TrainConfig(base_lr=0.5, epochs=10, decay_factor=1.0,
                      milestones=(2, 5))
    for epoch in range(10):
        assert lr_at_epoch(cfg, epoch) == 0.5


def test_lr_schedule_non_increasing_and_piecewise_constant():
    values = [lr_at_epoch(SCHEDULE_105, e) for e in range(105)]
    for a, b in zip(values, values[1:]):
        assert b <= a
    # constant between milestones
    assert len(set(values[5:25])) == 1
    assert len(set(values[25:45])) == 1


def test_lr_epoch_out_of_range():
    with pytest.raises(ValueError):
        lr_at_epoch(SCHEDULE_105, -1)
    with pytest.raises(ValueError):
        lr_at_epoch(SCHEDULE_105, 105)


@pytest.mark.parametrize("epoch", [1.5, True])
def test_lr_epoch_must_be_an_integer(epoch):
    # A cast to int would give both epoch 1's rate.
    with pytest.raises(ValueError, match=re.escape(f"epoch must be an integer, got {epoch!r}")):
        lr_at_epoch(SCHEDULE_105, epoch)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(base_lr=-0.1, epochs=1)
    with pytest.raises(ValueError):
        TrainConfig(base_lr=0.1, epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(base_lr=0.1, epochs=5, milestones=(3, 3))
    with pytest.raises(ValueError):
        TrainConfig(base_lr=0.1, epochs=5, milestones=(2,), warmup_epochs=3)
    with pytest.raises(ValueError):
        TrainConfig(base_lr=0.1, epochs=5, decay_factor=0.0)
    with pytest.raises(ValueError):
        TrainConfig(base_lr=0.1, epochs=5, batch_size=0)


@pytest.mark.parametrize("name, value", [
    ("epochs", 2.5), ("epochs", True), ("batch_size", 2.0), ("warmup_epochs", 0.5),
    ("seed", 1.5),
])
def test_counts_must_be_integers(name, value):
    # warmup_epochs=0.5 used to train epoch 0 at twice base_lr.
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        TrainConfig(**{"base_lr": 0.1, "epochs": 1, name: value})


@pytest.mark.parametrize("name", ["base_lr", "decay_factor"])
def test_rates_must_not_be_bools(name):
    # base_lr=True used to train at lr 1, decay_factor=True with no decay;
    # "0.1" and None were a raw TypeError from a comparison.
    for value in (True, "0.1", None):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a number, got {value!r}")):
            TrainConfig(**{"base_lr": 0.1, "epochs": 1, name: value})


@pytest.mark.parametrize("name", ["base_lr", "decay_factor"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), 10 ** 400],
                         ids=["inf", "nan", "10**400"])
def test_rates_must_be_finite(name, value):
    # base_lr=inf and base_lr=10**400 used to be admitted; train then ran
    # at an infinite rate or raised a raw OverflowError.
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite, got {value!r}")):
        TrainConfig(**{"base_lr": 0.1, "epochs": 1, name: value})


@pytest.mark.parametrize("seed", [2 ** 70, -1])
def test_seed_must_fit_64_bits(seed):
    # seed=2**70 used to be admitted here, though train's model seed is not.
    with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
        TrainConfig(base_lr=0.1, epochs=1, seed=seed)


@pytest.mark.parametrize("entry", [1.9, "2", True, float("inf"), float("nan"), None])
def test_milestones_must_be_integers(entry):
    # int() alone would turn 1.9 into 1, '2' into 2 and True into 1.
    with pytest.raises(ValueError,
                       match=re.escape(f"milestones entry must be an integer, got {entry!r}")):
        TrainConfig(base_lr=0.1, epochs=5, milestones=(entry,))


def test_integral_milestones_are_kept_as_ints():
    cfg = TrainConfig(base_lr=0.1, epochs=5, milestones=(np.int64(1), 2, 3))
    assert cfg.milestones == (1, 2, 3)
    assert all(type(m) is int for m in cfg.milestones)
    # A float is no integer, whatever its value: the rule of epochs=2.0.
    with pytest.raises(ValueError, match="milestones entry must be an integer, got 2.0"):
        TrainConfig(base_lr=0.1, epochs=5, milestones=(np.int64(1), 2.0, 3))


def small_setup():
    spec = DatasetSpec(classes=3, train_per_class=8, test_per_class=4,
                       frames=8, joints=2, noise_sigma=0.05, seed=2)
    tr, te = generate_dataset(spec)
    model = build_model(ModelConfig(joints=2, frames=8, d_model=8, heads=2,
                                    blocks=1, classes=3, seed=2))
    return model, tr, te


def test_zero_lr_leaves_parameters_unchanged():
    model, tr, te = small_setup()
    before = evaluate(model, te)
    trained, history = train(model, tr, te,
                             TrainConfig(base_lr=0.0, epochs=1, batch_size=4))
    for name, arr in named_params(model).items():
        assert np.array_equal(arr, named_params(trained)[name])
    assert history.records[0].test_top1 == before


def test_one_step_matches_hand_sgd():
    # One sample, one batch, blocks=0: the update is lr * d(loss)/d(param)
    # with loss = cross-entropy of head(mean_t(embed(x))).
    cfg = ModelConfig(joints=1, frames=2, d_model=2, heads=1, blocks=0,
                      classes=2, seed=3)
    model = build_model(cfg)
    rng = np.random.default_rng(8)
    coords = rng.normal(size=(2, 1, 3))
    sample = SkeletonSample(coords=coords, label=1)
    lr = 0.25

    x = coords.reshape(2, 3)
    we, be = model.embed.weight.copy(), model.embed.bias.copy()
    wh, bh = model.head.weight.copy(), model.head.bias.copy()
    pooled = (x @ we + be).mean(axis=0, keepdims=True)
    logits = pooled @ wh + bh
    p = np.exp(logits - logits.max())
    p /= p.sum()
    glogits = p.copy()
    glogits[0, 1] -= 1.0
    gwh = pooled.T @ glogits
    gbh = glogits[0]
    gpooled = glogits @ wh.T
    gx_rows = np.repeat(gpooled / 2.0, 2, axis=0)
    gwe = x.T @ gx_rows
    gbe = gx_rows.sum(axis=0)

    trained, _ = train(model, [sample], [sample],
                       TrainConfig(base_lr=lr, epochs=1, batch_size=1))
    assert np.abs(trained.embed.weight - (we - lr * gwe)).max() < 1e-12
    assert np.abs(trained.embed.bias - (be - lr * gbe)).max() < 1e-12
    assert np.abs(trained.head.weight - (wh - lr * gwh)).max() < 1e-12
    assert np.abs(trained.head.bias - (bh - lr * gbh)).max() < 1e-12


def test_training_deterministic():
    model, tr, te = small_setup()
    cfg = TrainConfig(base_lr=0.05, epochs=3, batch_size=4, seed=7)
    m1, h1 = train(model, tr, te, cfg)
    m2, h2 = train(model, tr, te, cfg)
    assert h1 == h2
    for name, arr in named_params(m1).items():
        assert np.array_equal(arr, named_params(m2)[name])


def test_train_validates_each_clip_once(monkeypatch):
    # The test clips are validated once, not again by every epoch's scoring.
    import lrskel.finetune
    import lrskel.model

    calls = []
    original = lrskel.model.sample_features

    def counted(coords, cfg):
        calls.append(1)
        return original(coords, cfg)

    monkeypatch.setattr(lrskel.model, "sample_features", counted)
    model, tr, te = small_setup()
    train(model, tr, te, TrainConfig(base_lr=0.05, epochs=3, batch_size=4))
    assert len(calls) == len(tr) + len(te)


def test_evaluate_validates_each_clip_once(monkeypatch):
    import lrskel.model

    calls = []
    original = lrskel.model.sample_features

    def counted(coords, cfg):
        calls.append(1)
        return original(coords, cfg)

    monkeypatch.setattr(lrskel.model, "sample_features", counted)
    model, _, te = small_setup()
    evaluate(model, te)
    assert len(calls) == len(te)


def test_history_csv_writes_numbers_not_their_reprs():
    model, tr, te = small_setup()
    cfg = TrainConfig(base_lr=np.float64(0.1), epochs=1, batch_size=4)
    _, history = train(model, tr, te, cfg)
    r = history.records[0]
    assert history.to_csv().splitlines()[1].split(",") == [
        "0", "0.1", repr(float(r.train_loss)), repr(float(r.test_top1))]


def test_training_does_not_mutate_input_model():
    model, tr, te = small_setup()
    before = {n: a.copy() for n, a in named_params(model).items()}
    train(model, tr, te, TrainConfig(base_lr=0.05, epochs=1, batch_size=4))
    for name, arr in named_params(model).items():
        assert np.array_equal(arr, before[name])


def test_history_shape_and_csv():
    model, tr, te = small_setup()
    cfg = TrainConfig(base_lr=0.05, epochs=4, batch_size=4,
                      milestones=(2,), seed=1)
    _, history = train(model, tr, te, cfg)
    assert len(history.records) == 4
    assert [r.epoch for r in history.records] == [0, 1, 2, 3]
    assert history.best_top1 == max(r.test_top1 for r in history.records)
    assert history.best_top1 >= history.records[0].test_top1
    lines = history.to_csv().strip().split("\n")
    assert lines[0] == HISTORY_HEADER
    assert len(lines) == 5


def test_training_learns_small_task():
    model, tr, te = small_setup()
    trained, history = train(
        model, tr, te,
        TrainConfig(base_lr=0.1, epochs=10, batch_size=8, seed=0))
    assert history.records[-1].test_top1 > evaluate(model, te)
    assert history.records[-1].test_top1 >= 0.9


def mixed_setup():
    """``small_setup`` with some projections low-rank, one of them without
    a bias, and random biases everywhere else."""
    model, tr, te = small_setup()
    rng = np.random.default_rng(11)
    # Low-rank layer name -> whether it has a bias.
    lowrank = {"blocks.0.heads.0.wq": True, "blocks.0.heads.1.wv": True,
               "blocks.0.wo": True, "blocks.0.heads.1.wk": False}

    def swap(name, layer, group):
        if name not in lowrank:
            return DenseLinear(layer.weight, rng.normal(size=layer.c_out))
        bias = rng.normal(size=layer.c_out) if lowrank[name] else None
        return LowRankLinear(rng.normal(size=(layer.c_in, 1)),
                             rng.normal(size=(1, layer.c_out)), bias)

    return map_layers(model, swap), tr, te


def test_buffered_update_is_bit_identical_to_per_array_sgd():
    model, tr, te = mixed_setup()
    cfg = TrainConfig(base_lr=0.05, epochs=2, batch_size=4, seed=3)
    trained, _ = train(model, tr, te, cfg)

    ref = model.copy()
    params = named_params(ref)
    feats = [sample_features(s.coords, ref.config) for s in tr]
    labels = np.array([s.label for s in tr])
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(cfg, epoch)
        order = np.random.default_rng(cfg.seed + epoch).permutation(len(tr))
        for start in range(0, len(tr), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            logits, tape = forward_features_tape(
                ref, np.stack([feats[i] for i in batch]))
            _, grad_logits = cross_entropy(logits, labels[batch])
            grads = backward_features(ref, tape, grad_logits)
            for name, value in params.items():
                value -= lr * grads[name]

    assert {layer.kind for _, layer, _ in named_layers(model)} == {"dense", "lowrank"}
    got = named_params(trained)
    assert list(got) == list(params)
    for name, value in params.items():
        assert got[name].tobytes() == value.tobytes(), name


def test_trained_parameters_are_one_buffer_apart_from_the_input():
    model, tr, te = mixed_setup()
    before = {n: a.copy() for n, a in named_params(model).items()}
    trained, _ = train(model, tr, te,
                       TrainConfig(base_lr=0.05, epochs=1, batch_size=4))
    for name, arr in named_params(model).items():
        assert np.array_equal(arr, before[name])
    params = named_params(trained)
    got = list(params.values())
    for arr in named_params(model).values():
        assert not any(np.shares_memory(arr, other) for other in got)
    # One C-contiguous segment per parameter, end to end in named_params order.
    start = got[0].__array_interface__["data"][0]
    for arr in got:
        assert arr.flags.c_contiguous
        assert arr.__array_interface__["data"][0] == start
        start += arr.nbytes
    # The layers run on those segments: a dense layer, and a low-rank factor
    # inside the block's stacked chain.
    for name in ("head.weight", "blocks.0.heads.0.wq.w1"):
        out = forward(trained, te[:2])
        params[name][0, 0] += 1.0
        assert not np.array_equal(forward(trained, te[:2]), out), name


def test_train_rejects_mismatched_shapes():
    model, tr, te = small_setup()
    spec = DatasetSpec(classes=3, train_per_class=2, test_per_class=2,
                       frames=4, joints=2, seed=0)
    wrong_train, wrong_test = generate_dataset(spec)
    with pytest.raises(ValueError):
        train(model, wrong_train, wrong_test,
              TrainConfig(base_lr=0.1, epochs=1))
    with pytest.raises(ValueError):
        train(model, [], te, TrainConfig(base_lr=0.1, epochs=1))


BAD_LABELS = [(3, r"label out of range \[0, 3\)"), (-1, r"label out of range \[0, 3\)"),
              # A cast to int64 would score 2.7 as class 2 and True as class 1.
              (2.7, "label must be an integer, got 2.7"),
              (True, "label must be an integer, got True")]


def test_train_rejects_labels_out_of_range(monkeypatch):
    import lrskel.finetune

    model, tr, te = small_setup()
    epochs = []
    monkeypatch.setattr(lrskel.finetune, "lr_at_epoch",
                        lambda cfg, epoch: epochs.append(epoch) or 0.1)
    for label, message in BAD_LABELS:
        bad = tr[:2] + [SkeletonSample(coords=tr[0].coords, label=label)]
        with pytest.raises(ValueError, match=f"{message} in training set"):
            train(model, bad, te, TrainConfig(base_lr=0.1, epochs=1))
        bad = te[:2] + [SkeletonSample(coords=te[0].coords, label=label)]
        with pytest.raises(ValueError, match=f"{message} in evaluation set"):
            train(model, tr, bad, TrainConfig(base_lr=0.1, epochs=1))
    assert epochs == []


def test_evaluate_and_forward_reject_labels_out_of_range():
    model, _, te = small_setup()
    for label, message in BAD_LABELS:
        bad = te[:2] + [SkeletonSample(coords=te[0].coords, label=label)]
        with pytest.raises(ValueError, match=f"{message} in evaluation set"):
            evaluate(model, bad)
        with pytest.raises(ValueError, match=f"{message} in batch"):
            forward(model, bad)


def test_finite_logits_with_a_non_finite_loss_diverge():
    # Logits (1e308, -1e308) are finite, but label 1's log-probability is
    # -inf, so the loss is not.
    cfg = ModelConfig(joints=1, frames=2, d_model=2, heads=1, blocks=0,
                      classes=2, seed=3)
    model = build_model(cfg)
    model.head.weight[:] = 0.0
    model.head.bias[:] = [1e308, -1e308]
    sample = SkeletonSample(coords=np.ones((2, 1, 3)), label=1)
    with pytest.raises(RuntimeError,
                       match=r"^training diverged at epoch 0, batch 0 \(lr 0\.1\)$"):
        train(model, [sample], [sample],
              TrainConfig(base_lr=0.1, epochs=1, batch_size=1))


def test_divergence_after_the_last_batch_is_named():
    # The only batch's logits are finite; its update overflows the weights,
    # which shows when the epoch's test set is scored with them.
    cfg = ModelConfig(joints=1, frames=2, d_model=2, heads=1, blocks=0,
                      classes=2, seed=3)
    coords = np.random.default_rng(8).normal(size=(2, 1, 3))
    sample = SkeletonSample(coords=coords, label=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError,
                           match=r"epoch 0, batch 0 \(lr 1e\+300\)"):
            train(build_model(cfg), [sample], [sample],
                  TrainConfig(base_lr=1e300, epochs=1, batch_size=1))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_evaluate_constant_logits_on_balanced_set():
    # All-zero weights predict class 0 everywhere: uniform-prior accuracy.
    cfg = ModelConfig(joints=2, frames=4, d_model=4, heads=1, blocks=0,
                      classes=8, seed=0)
    model = build_model(cfg)
    for arr in named_params(model).values():
        arr[:] = 0.0
    spec = DatasetSpec(classes=8, train_per_class=1, test_per_class=4,
                       frames=4, joints=2, seed=0)
    _, te = generate_dataset(spec)
    assert evaluate(model, te) == pytest.approx(1.0 / 8.0)


def test_evaluate_perfect_predictor():
    model, tr, te = small_setup()
    trained, _ = train(model, tr, te,
                       TrainConfig(base_lr=0.1, epochs=15, batch_size=8,
                                   seed=0))
    assert evaluate(trained, te) == 1.0


def test_evaluate_scale_invariance():
    model, _, te = small_setup()
    base = evaluate(model, te)
    for scale in (0.5, 3.0, 250.0):
        scaled = model.copy()
        scaled.head.weight[:] *= scale
        scaled.head.bias[:] *= scale
        assert evaluate(scaled, te) == base


def test_evaluate_empty_set_rejected():
    model, _, _ = small_setup()
    with pytest.raises(ValueError):
        evaluate(model, [])
