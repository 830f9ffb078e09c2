import re

import numpy as np
import pytest
from helpers import assert_grads_close, finite_difference
from hypothesis import given, settings
from hypothesis import strategies as st

from lrskel.compress import compress_model, parse_plan
from lrskel.data import DatasetSpec, SkeletonSample, generate_dataset
from lrskel.layers import DenseLinear, LowRankLinear, backward
from lrskel.linalg import svd, truncate_to_factors
from lrskel.model import (
    ModelConfig,
    SkeletonModel,
    _config_tensor,
    backward_features,
    build_model,
    count_flops,
    count_params,
    cross_entropy,
    forward,
    forward_features,
    forward_features_tape,
    load_model,
    map_layers,
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


def dense_and_lowrank(cfg):
    """A freshly built model and its copy with every attention group
    low-rank."""
    dense = build_model(cfg)
    return dense, compress_model(dense, parse_plan("q=1,k=2,v=3,o=4"))[0]


def tiny_dense_and_lowrank():
    dense = build_model(TINY)
    return dense, compress_model(dense, parse_plan("q=1,v=1,o=2,embed=1"))[0]


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


@pytest.mark.parametrize("name, value", [
    ("joints", 2.0), ("frames", 3.5), ("d_model", "4"), ("heads", True),
    ("blocks", None), ("classes", 2.5), ("seed", 1.5),
])
def test_config_sizes_must_be_integers(name, value):
    # frames=3.5 used to build and save a file that load_model rejects.
    fields = dict(joints=1, frames=1, d_model=4, heads=1, blocks=1, classes=2, seed=0)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        ModelConfig(**{**fields, name: value})


@pytest.mark.parametrize("seed", [2 ** 64, 2 ** 70, -1])
def test_config_seed_must_fit_64_bits(seed):
    with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
        ModelConfig(joints=1, frames=1, d_model=4, heads=1, blocks=1,
                    classes=2, seed=seed)


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
    logits = forward(m, [SkeletonSample(rng.normal(size=(4, 2, 3)), 0)])
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
    got = forward(m, [SkeletonSample(coords, 0)])
    assert np.abs(got - expected).max() < 1e-12


def test_forward_batch_independence():
    # 70 samples span several of forward's stacked chunks, the last one
    # partial; every row must equal that sample scored on its own.
    rng = np.random.default_rng(3)
    samples = [SkeletonSample(c, 0) for c in rng.normal(size=(70, 16, 8, 3))]
    for m in dense_and_lowrank(TOY):
        batch = forward(m, samples)
        assert batch.shape == (70, 8)
        for row, sample in zip(batch, samples):
            assert np.array_equal(row, forward(m, [sample])[0])


def test_forward_validates_each_clip_once(monkeypatch):
    import lrskel.model

    calls = []
    original = lrskel.model.sample_features

    def counted(coords, cfg):
        calls.append(1)
        return original(coords, cfg)

    monkeypatch.setattr(lrskel.model, "sample_features", counted)
    rng = np.random.default_rng(4)
    samples = [SkeletonSample(rng.normal(size=(16, 8, 3)), i % 8)
               for i in range(5)]
    assert forward(build_model(TOY), samples).shape == (5, 8)
    assert len(calls) == len(samples)


def test_forward_zero_input_uniform_logits():
    m = build_model(TOY)
    logits = forward(m, [SkeletonSample(np.zeros((16, 8, 3)), 0)])
    assert np.abs(logits - logits[0, 0]).max() < 1e-12


def test_forward_shape_mismatch():
    m = build_model(TOY)
    with pytest.raises(ValueError):
        forward(m, [SkeletonSample(np.zeros((15, 8, 3)), 0)])


def test_forward_rejects_nonfinite():
    m = build_model(TOY)
    bad = np.zeros((16, 8, 3))
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        forward(m, [SkeletonSample(bad, 0)])


def test_forward_rejects_nonfinite_logits():
    m = build_model(TOY)
    m.head.weight[0, 0] = np.inf
    coords = np.random.default_rng(6).normal(size=(16, 8, 3))
    with pytest.raises(ValueError, match="logits"):
        forward(m, [SkeletonSample(coords, 0)])


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


@pytest.mark.parametrize("labels", [[0], [0, 1, 2], []])
def test_cross_entropy_needs_one_label_per_logit_row(labels):
    with pytest.raises(ValueError, match=f"{len(labels)} labels for 2 logit rows"):
        cross_entropy(np.zeros((2, 3)), labels)


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


def test_batch_gradients_sum_per_sample_gradients():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 16, 24))
    probe = rng.normal(size=(5, 8))
    for m in dense_and_lowrank(TOY):
        logits, tape = forward_features_tape(m, x)
        assert logits.shape == (5, 8)
        batched = backward_features(m, tape, probe)
        summed = {}
        for sample, row in zip(x, probe):
            _, tape = forward_features_tape(m, sample)
            for name, g in backward_features(m, tape, row[None, :]).items():
                summed[name] = summed.get(name, 0.0) + g
        assert list(batched) == list(summed) == list(named_params(m))
        # Relative to the largest entry of the whole gradient: the batch
        # sums its rows in another order, and some entries (the K biases)
        # are 0 in exact arithmetic, so they hold only rounding noise.
        scale = max(np.abs(g).max() for g in summed.values())
        for name, g in summed.items():
            assert np.abs(batched[name] - g).max() <= 1e-12 * scale, name


# The model's tape is a GradTape like any op's: ``backward`` checks its
# gradient, names the result from ``named_params`` and returns the input
# features' gradient as ``grad_in``.

@pytest.mark.parametrize("shape", [(9,), (3, 1, 3), (1, 9), (3, 4)])
def test_backward_features_rejects_misshaped_grad_logits(shape):
    m = build_model(TINY)
    logits, tape = forward_features_tape(m, np.ones((3, 3, 6)))
    assert logits.shape == (3, 3)
    with pytest.raises(ValueError, match="does not match forward output"):
        backward_features(m, tape, np.ones(shape))


def test_model_tape_backward_equals_backward_features():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 16, 24))
    probe = rng.normal(size=(4, 8))
    for m in dense_and_lowrank(TOY):
        via_tape = backward(forward_features_tape(m, x)[1], probe)[1]
        via_features = backward_features(m, forward_features_tape(m, x)[1], probe)
        assert list(via_tape) == list(via_features) == list(named_params(m))
        for name, g in via_tape.items():
            assert g.tobytes() == via_features[name].tobytes(), name


def test_model_tape_grad_in_matches_finite_differences():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 6))
    probe = rng.normal(size=(2, 3))
    for m in tiny_dense_and_lowrank():
        _, tape = forward_features_tape(m, x)
        grad_x, _ = backward(tape, probe)

        def scalar():
            return float((forward_features(m, x) * probe).sum())

        assert_grads_close(grad_x, finite_difference(scalar, x), 1e-5)


def test_model_tape_is_single_use():
    m = build_model(TINY)
    logits, tape = forward_features_tape(m, np.ones((3, 6)))
    backward(tape, np.ones_like(logits))
    with pytest.raises(RuntimeError, match="already consumed"):
        backward(tape, np.ones_like(logits))


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


# The loader-diagnostic cases run on TINY with plan v=1: every head's wv is
# low-rank (LV names the first) beside dense wq/wk (LQ).
LV = "blocks.0.heads.0.wv"
LQ = "blocks.0.heads.0.wq"


def _drop(tensors, *names):
    for name in names:
        del tensors[name]


def _resize(tensors, c_in, c_out, *layers):
    """Give each dense layer a ``c_in x c_out`` weight and a ``c_out`` bias."""
    for layer in layers:
        tensors.update({f"{layer}.weight": np.ones((c_in, c_out)),
                        f"{layer}.bias": np.zeros(c_out)})


# Every dense projection of a TINY head (the V projections are low-rank).
DENSE_QK = ("blocks.0.heads.0.wq", "blocks.0.heads.0.wk", "blocks.0.heads.1.wq",
            "blocks.0.heads.1.wk")


LOADER_CASES = {
    "w1_without_w2": (lambda t: _drop(t, f"{LV}.w2"),
                      f"layer {LV} has w1 but no w2"),
    "w2_without_w1": (lambda t: _drop(t, f"{LV}.w1"),
                      f"no tensors found for layer {LV}"),
    "weight_and_w1": (lambda t: t.update({f"{LV}.weight": np.ones((4, 2))}),
                      f"unexpected tensors in weights file: ['{LV}.w1', '{LV}.w2']"),
    "extra_tensor": (lambda t: t.update(unrelated=np.zeros(3)),
                     "unexpected tensors in weights file: ['unrelated']"),
    "missing_layer": (lambda t: _drop(t, "head.weight", "head.bias"),
                      "no tensors found for layer head"),
    "no_config": (lambda t: _drop(t, "config"),
                  "weights file has no config tensor"),
    "short_config": (lambda t: t.update(config=t["config"][:7]),
                     "config tensor must have 8 entries, got (7,)"),
    # A layer constructor's error is prefixed with the layer's name.
    "square_bias": (lambda t: t.update({"blocks.0.heads.1.wk.bias": np.ones((2, 2))}),
                    "blocks.0.heads.1.wk: bias shape (2, 2) != output width (2,)"),
    "w1_ndim_3": (lambda t: t.update({f"{LV}.w1": np.ones((4, 1, 1))}),
                  f"{LV}: w1 must be 2-D, got ndim=3"),
    "non_finite_bias": (lambda t: t["head.bias"].__setitem__(0, np.inf),
                        "head: bias contains non-finite entries"),
    # Each layer's outer shape is fixed by the config, not by its neighbours.
    "qkv_reads_5_on_d_model_4": (lambda t: _resize(t, 5, 2, *DENSE_QK),
                                 f"{LQ}: shape (5, 2), expected (4, 2)"),
    "qkv_and_wo_agree_on_d_k_3": (
        lambda t: (_resize(t, 4, 3, *DENSE_QK), _resize(t, 6, 4, "blocks.0.wo")),
        f"{LQ}: shape (4, 3), expected (4, 2)"),
    "one_head_d_k_1": (lambda t: _resize(t, 4, 1, "blocks.0.heads.1.wk"),
                       "blocks.0.heads.1.wk: shape (4, 1), expected (4, 2)"),
    "wo_reads_3": (lambda t: _resize(t, 3, 4, "blocks.0.wo"),
                   "blocks.0.wo: shape (3, 4), expected (4, 4)"),
    "embed_writes_5": (lambda t: _resize(t, 6, 5, "embed"),
                       "embed: shape (6, 5), expected (6, 4)"),
    "head_writes_2": (lambda t: _resize(t, 4, 2, "head"),
                      "head: shape (4, 2), expected (4, 3)"),
}


@pytest.mark.parametrize("case", sorted(LOADER_CASES))
def test_loader_diagnostics(case):
    edit, message = LOADER_CASES[case]
    tensors = model_to_tensors(compress_model(build_model(TINY), parse_plan("v=1"))[0])
    edit(tensors)
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_tensors(tensors)


@pytest.mark.parametrize("drop, extra", [(1, 0), (0, 1), (4, 0)])
def test_model_needs_one_layer_per_table_entry(drop, extra):
    layers = [layer for _, layer, _ in named_layers(build_model(TINY))]
    layers = layers[:len(layers) - drop] + layers[:extra]
    with pytest.raises(ValueError):
        SkeletonModel(layers, TINY)


@pytest.mark.parametrize("index, value, entry", [
    (1, np.inf, "frames"), (1, 2.5, "frames"), (0, -1.0, "joints"),
    (7, np.nan, "seed_lo"), (6, 0.5, "seed_hi"),
])
def test_config_entries_must_be_non_negative_integers(index, value, entry):
    tensors = model_to_tensors(build_model(TINY))
    tensors["config"][index] = value
    with pytest.raises(ValueError, match=rf"config entry {entry} .*{value}"):
        model_from_tensors(tensors)


@pytest.mark.parametrize("index, entry", [(7, "seed_lo"), (6, "seed_hi")])
@pytest.mark.parametrize("value", [2.0 ** 32, 2.0 ** 32 + 5])
def test_config_seed_words_must_fit_32_bits(index, entry, value):
    # Before this check, seed words (0, 2**32 + 5) loaded as seed 2**32 + 5
    # and saved back as (1, 5).
    tensors = model_to_tensors(build_model(TINY))
    tensors["config"][index] = value
    with pytest.raises(ValueError, match=rf"config entry {entry} must be below 2\*\*32"):
        model_from_tensors(tensors)


@pytest.mark.parametrize("blocks, message", [
    (1, "config asks for 1 blocks"), (2 ** 30, "config asks for"),
    (0, "unexpected tensors"),
])
def test_loader_bounds_the_layer_walk_by_the_file(blocks, message):
    # heads = d_model = 2**40 is a valid config on its own; walking its
    # layer names would build 3 * 2**40 of them before any tensor is missed.
    # With no blocks, no per-head name may be built at all.
    tensors = model_to_tensors(build_model(TINY))
    tensors["config"][2:5] = [2.0 ** 40, 2.0 ** 40, blocks]
    with pytest.raises(ValueError, match=message):
        model_from_tensors(tensors)


def _round_trips_or_raises(tensors):
    try:
        loaded = model_from_tensors(tensors)
    except ValueError:
        return
    again = model_to_tensors(loaded)
    assert list(again) == list(tensors)
    for name, arr in tensors.items():
        assert again[name].shape == arr.shape, name
        assert again[name].tobytes() == arr.tobytes(), name


# Any config entry set to any number, a bias reshaped or dropped and a
# low-rank pair given any rank: the loader either rejects the tensors or
# gives a model that saves them back unchanged. Before, a (2, 2) bias and
# seed words (0, 2**32 + 5) loaded and saved back as other tensors.
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(entries=st.dictionaries(st.integers(0, 7), st.integers(0, 2 ** 34)
                               | st.sampled_from([-1.0, 0.5, 1e300])),
       bias=st.sampled_from(["embed", "head", "blocks.0.wo"]),
       bias_shape=st.sampled_from([None, (4,), (3,), (2, 2), (1, 4), (4, 1), ()]),
       rank=st.integers(1, 4))
def test_loader_round_trips_or_rejects(entries, bias, bias_shape, rank):
    tensors = model_to_tensors(tiny_dense_and_lowrank()[1])
    for index, value in entries.items():
        tensors["config"][index] = value
    if bias_shape is None:
        del tensors[f"{bias}.bias"]
    else:
        tensors[f"{bias}.bias"] = np.ones(bias_shape)
    tensors["blocks.0.heads.0.wq.w1"] = np.ones((4, rank))
    tensors["blocks.0.heads.0.wq.w2"] = np.ones((rank, 2))
    _round_trips_or_raises(tensors)


def test_config_tensor_round_trips_every_entry():
    cfg = ModelConfig(joints=3, frames=5, d_model=6, heads=3, blocks=2,
                      classes=4, seed=(7 << 32) | 11)
    assert model_from_tensors(model_to_tensors(build_model(cfg))).config == cfg
    assert _config_tensor(cfg).tolist() == [3, 5, 6, 3, 2, 4, 7, 11]


def test_copy_shares_no_array_and_keeps_layout():
    # Dense, low-rank and bias-less layers side by side.
    low = compress_model(build_model(TINY), parse_plan("v=1,o=1"))[0]
    src = map_layers(low, lambda name, layer, group: DenseLinear(
        layer.weight.copy()) if group == "Q" else layer)
    assert src.blocks[0].heads[0].wq.bias is None
    dup = src.copy()
    src_params, dup_params = named_params(src), named_params(dup)
    assert list(dup_params) == list(src_params)
    for a in src_params.values():
        for b in dup_params.values():
            assert not np.shares_memory(a, b)
    assert ([layer.kind for _, layer, _ in named_layers(dup)]
            == [layer.kind for _, layer, _ in named_layers(src)])
    before = {name: arr.tobytes() for name, arr in src_params.items()}
    for arr in dup_params.values():
        arr += 1.0
    assert {name: arr.tobytes() for name, arr in src_params.items()} == before
