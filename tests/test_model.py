import numpy as np
import pytest
from helpers import assert_grads_close, finite_difference

from lrskel.data import DatasetSpec, generate_dataset
from lrskel.layers import LowRankLinear
from lrskel.linalg import svd, truncate_to_factors
from lrskel.model import (
    ModelConfig,
    backward_features,
    build_model,
    count_flops,
    count_params,
    cross_entropy,
    forward,
    forward_features,
    forward_features_tape,
    load_model,
    model_from_tensors,
    model_to_tensors,
    named_layers,
    named_params,
    sample_features,
    save_model,
)

TOY = ModelConfig(joints=8, frames=16, d_model=32, heads=4, blocks=2,
                  classes=8, seed=0)
TINY = ModelConfig(joints=2, frames=3, d_model=4, heads=2, blocks=1,
                   classes=3, seed=9)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(joints=0, frames=1, d_model=4, heads=1, blocks=1,
                    classes=2, seed=0)
    with pytest.raises(ValueError):
        ModelConfig(joints=1, frames=1, d_model=5, heads=2, blocks=1,
                    classes=2, seed=0)
    with pytest.raises(ValueError):
        ModelConfig(joints=1, frames=1, d_model=4, heads=1, blocks=-1,
                    classes=2, seed=0)


def test_build_determinism():
    a = build_model(TOY)
    b = build_model(TOY)
    for (na, pa), (nb, pb) in zip(named_params(a).items(),
                                  named_params(b).items()):
        assert na == nb
        assert np.array_equal(pa, pb)


def test_build_different_seeds_differ():
    import dataclasses
    a = build_model(TOY)
    b = build_model(dataclasses.replace(TOY, seed=1))
    assert not np.array_equal(a.embed.weight, b.embed.weight)


def test_zero_blocks_still_classifies():
    cfg = ModelConfig(joints=2, frames=4, d_model=6, heads=2, blocks=0,
                      classes=3, seed=1)
    m = build_model(cfg)
    rng = np.random.default_rng(0)
    logits = forward(m, [rng.normal(size=(4, 2, 3))])
    assert logits.shape == (1, 3)
    assert np.isfinite(logits).all()


def test_param_count_matches_hand_formula():
    m = build_model(TOY)
    embed = 24 * 32 + 32
    proj = 32 * 8 + 8
    wo = 32 * 32 + 32
    block = 4 * 3 * proj + wo
    head = 32 * 8 + 8
    assert count_params(m) == embed + 2 * block + head


def test_param_count_216_cases():
    dense = 216 * 216
    assert dense == 46656
    lowrank = 3 * (216 + 216)
    assert lowrank == 1296
    layer = LowRankLinear(np.zeros((216, 3)), np.zeros((3, 216)))
    assert layer.param_count() == 1296


def test_flop_count_216_cases():
    from lrskel.layers import DenseLinear
    dense = DenseLinear(np.zeros((216, 216)))
    assert dense.flops(1) == 93312
    low = LowRankLinear(np.zeros((216, 3)), np.zeros((3, 216)))
    assert low.flops(1) == 2592


def test_flop_count_toy_model_closed_form():
    m = build_model(TOY)
    t = 16
    embed = 2 * t * 24 * 32
    proj = 2 * t * 32 * 8
    attn = 2 * t * t * 8 + 2 * t * t * 8 + 5 * t * t
    wo = 2 * t * 32 * 32
    block = 4 * (3 * proj + attn) + wo
    head = 2 * 1 * 32 * 8
    assert count_flops(m, t) == embed + 2 * block + head


def test_compression_break_even_inequality():
    # k*(C_in + C_out) < C_in*C_out exactly when k is below the ratio.
    for c_in, c_out in [(216, 216), (24, 32), (32, 8), (7, 5)]:
        threshold = c_in * c_out / (c_in + c_out)
        for k in range(1, min(c_in, c_out) + 1):
            dense = c_in * c_out
            low = k * (c_in + c_out)
            assert (low < dense) == (k < threshold)


def test_forward_matches_manual_composition():
    m = build_model(TOY)
    rng = np.random.default_rng(2)
    coords = rng.normal(size=(16, 8, 3))
    x = sample_features(coords, m.config)
    h = m.embed.forward(x)
    for block in m.blocks:
        h = h + block.forward(h)
    expected = m.head.forward(h.mean(axis=0, keepdims=True))
    got = forward(m, [coords])
    assert np.abs(got - expected).max() < 1e-12


def test_forward_batch_independence():
    m = build_model(TOY)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(16, 8, 3))
    b = rng.normal(size=(16, 8, 3))
    batch = forward(m, [a, b])
    assert np.array_equal(batch[0], forward(m, [a])[0])
    assert np.array_equal(batch[1], forward(m, [b])[0])


def test_forward_zero_input_uniform_logits():
    m = build_model(TOY)
    logits = forward(m, [np.zeros((16, 8, 3))])
    assert np.abs(logits - logits[0, 0]).max() < 1e-12


def test_forward_shape_mismatch():
    m = build_model(TOY)
    with pytest.raises(ValueError):
        forward(m, [np.zeros((15, 8, 3))])


def test_forward_rejects_nonfinite():
    m = build_model(TOY)
    bad = np.zeros((16, 8, 3))
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        forward(m, [bad])


def test_forward_rejects_nonfinite_logits():
    m = build_model(TOY)
    m.head.weight[0, 0] = np.inf
    coords = np.random.default_rng(6).normal(size=(16, 8, 3))
    with pytest.raises(ValueError, match="logits"):
        forward(m, [coords])


def test_cross_entropy_uniform_logits():
    loss, _ = cross_entropy(np.zeros((5, 8)), [0, 1, 2, 3, 4])
    assert abs(loss - np.log(8.0)) < 1e-12


def test_cross_entropy_confident_logit():
    logits = np.zeros((1, 4))
    logits[0, 2] = 50.0
    loss, _ = cross_entropy(logits, [2])
    assert loss < 1e-12


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), [0, 3])
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), [-1, 0])


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(3, 4))
    labels = [1, 0, 3]
    _, grad = cross_entropy(logits, labels)

    def scalar():
        return cross_entropy(logits, labels)[0]

    assert_grads_close(grad, finite_difference(scalar, logits), 1e-6)


def test_model_gradient_matches_finite_differences():
    m = build_model(TINY)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 6))
    probe = rng.normal(size=(1, 3))
    _, tape = forward_features_tape(m, x)
    grads = backward_features(m, tape, probe)

    def scalar():
        return float((forward_features(m, x) * probe).sum())

    params = named_params(m)
    assert set(grads) == set(params)
    for name, arr in params.items():
        assert_grads_close(grads[name], finite_difference(scalar, arr), 1e-4)


def test_full_rank_compression_keeps_logits():
    m = build_model(TOY)

    def full_rank(name, layer, group):
        f = truncate_to_factors(svd(layer.weight), min(layer.weight.shape))
        return LowRankLinear(f.w1, f.w2, layer.bias.copy())

    from lrskel.model import map_layers
    low = map_layers(m, full_rank)
    spec = DatasetSpec(classes=4, train_per_class=1, test_per_class=3,
                       frames=16, joints=8, seed=0)
    _, test = generate_dataset(spec)
    a = forward(m, test)
    b = forward(low, test)
    assert np.abs(a - b).max() < 1e-8
    assert np.array_equal(np.argmax(a, axis=1), np.argmax(b, axis=1))


def test_tensor_round_trip(tmp_path):
    m = build_model(TOY)
    path = tmp_path / "model.lrts"
    save_model(path, m)
    loaded = load_model(path)
    assert loaded.config == m.config
    for (na, pa), (nb, pb) in zip(named_params(m).items(),
                                  named_params(loaded).items()):
        assert na == nb
        assert np.array_equal(pa, pb)
    # saving the loaded model reproduces the file byte for byte
    again = tmp_path / "again.lrts"
    save_model(again, loaded)
    assert path.read_bytes() == again.read_bytes()


def test_lowrank_layers_survive_round_trip(tmp_path):
    m = build_model(TINY)
    dense = m.blocks[0].heads[0].wv
    f = truncate_to_factors(svd(dense.weight), 1)
    m.blocks[0].heads[0].wv = LowRankLinear(f.w1, f.w2, dense.bias)
    path = tmp_path / "model.lrts"
    save_model(path, m)
    loaded = load_model(path)
    layer = loaded.blocks[0].heads[0].wv
    assert layer.kind == "lowrank"
    assert layer.k == 1
    assert np.array_equal(layer.w1, f.w1)


def test_from_tensors_rejects_garbage():
    m = build_model(TINY)
    tensors = model_to_tensors(m)
    broken = dict(tensors)
    del broken["head.weight"]
    with pytest.raises(ValueError):
        model_from_tensors(broken)
    extra = dict(tensors)
    extra["unrelated"] = np.zeros(3)
    with pytest.raises(ValueError):
        model_from_tensors(extra)
    no_config = dict(tensors)
    del no_config["config"]
    with pytest.raises(ValueError):
        model_from_tensors(no_config)


def test_seed_survives_round_trip(tmp_path):
    big_seed = (123 << 40) | 456
    cfg = ModelConfig(joints=1, frames=2, d_model=2, heads=1, blocks=0,
                      classes=2, seed=big_seed)
    path = tmp_path / "m.lrts"
    save_model(path, build_model(cfg))
    assert load_model(path).config.seed == big_seed
