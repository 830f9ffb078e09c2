import math
import re

import numpy as np
import pytest
from helpers import assert_grads_close, finite_difference, naive_matmul

from lrskel.layers import (
    AttentionHead,
    DenseLinear,
    LowRankLinear,
    MhsaBlock,
    attention_forward,
    attention_forward_tape,
    backward,
    softmax_rows,
    softmax_rows_tape,
)
from lrskel.linalg import svd, truncate_to_factors


def rand_dense(rng, c_in, c_out, bias=True):
    return DenseLinear(rng.normal(size=(c_in, c_out)),
                       rng.normal(size=c_out) if bias else None)


def test_dense_identity_input():
    rng = np.random.default_rng(0)
    layer = DenseLinear(rng.normal(size=(4, 4)), np.zeros(4))
    assert np.allclose(layer.forward(np.eye(4)), layer.weight, atol=0)


def test_dense_zero_input_gives_bias_rows():
    rng = np.random.default_rng(1)
    layer = rand_dense(rng, 3, 5)
    out = layer.forward(np.zeros((4, 3)))
    assert np.allclose(out, np.tile(layer.bias, (4, 1)), atol=0)


def test_dense_matches_naive_loops():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 3))
    layer = rand_dense(rng, 3, 4, bias=False)
    assert np.abs(layer.forward(x) - naive_matmul(x, layer.weight)).max() < 1e-12


def test_lowrank_full_rank_matches_dense():
    rng = np.random.default_rng(3)
    dense = rand_dense(rng, 6, 4)
    factors = truncate_to_factors(svd(dense.weight), 4)
    low = LowRankLinear(factors.w1, factors.w2, dense.bias)
    x = rng.normal(size=(5, 6))
    assert np.abs(low.forward(x) - dense.forward(x)).max() < 1e-8


def test_lowrank_rank_one_structure():
    rng = np.random.default_rng(4)
    s = svd(rng.normal(size=(5, 4)))
    f = truncate_to_factors(s, 1)
    low = LowRankLinear(f.w1, f.w2)
    out = low.forward(rng.normal(size=(6, 5)))
    # every output row is a multiple of the top right singular vector
    assert np.linalg.matrix_rank(out, tol=1e-10) == 1


def test_lowrank_matches_materialized_dense():
    rng = np.random.default_rng(5)
    w1 = rng.normal(size=(6, 2))
    w2 = rng.normal(size=(2, 5))
    bias = rng.normal(size=5)
    low = LowRankLinear(w1, w2, bias)
    dense = DenseLinear(w1 @ w2, bias)
    x = rng.normal(size=(7, 6))
    assert np.abs(low.forward(x) - dense.forward(x)).max() < 1e-12


def test_lowrank_rejects_oversized_rank():
    with pytest.raises(ValueError):
        LowRankLinear(np.ones((3, 4)), np.ones((4, 5)))


@pytest.mark.parametrize("bias", [np.zeros((2, 2)), np.zeros((1, 4)), np.zeros(()),
                                  np.zeros(3)])
def test_linear_rejects_bias_not_1d_of_output_width(bias):
    # A (2, 2) bias used to be flattened, so a weights file holding one
    # loaded and saved back with other bytes.
    for make in (lambda b: DenseLinear(np.ones((3, 4)), b),
                 lambda b: LowRankLinear(np.ones((3, 2)), np.ones((2, 4)), b)):
        with pytest.raises(ValueError, match=re.escape(f"bias shape {bias.shape}")):
            make(bias)


def test_lowrank_param_count():
    low = LowRankLinear(np.ones((6, 2)), np.ones((2, 5)))
    assert low.param_count() == 2 * (6 + 5)
    with_bias = LowRankLinear(np.ones((6, 2)), np.ones((2, 5)), np.zeros(5))
    assert with_bias.param_count() == 2 * (6 + 5) + 5


def test_softmax_equal_values():
    out = softmax_rows(np.full((2, 5), 3.25))
    assert np.abs(out - 0.2).max() < 1e-15


def test_softmax_single_column():
    out = softmax_rows(np.array([[4.0], [-2.0]]))
    assert np.array_equal(out, np.ones((2, 1)))


def test_softmax_hand_oracle():
    out = softmax_rows(np.array([[0.0, math.log(3.0)]]))
    assert np.abs(out - [0.25, 0.75]).max() < 1e-15


def test_softmax_odd_width_keeps_a_large_last_column():
    # The stabilizing max must see every column, the odd last one included:
    # a shift by any smaller value overflows exp.
    for width in (3, 5, 7, 9, 17):
        row = np.zeros((1, width))
        row[0, -1] = 1000.0
        expected = np.zeros((1, width))
        expected[0, -1] = 1.0
        assert np.array_equal(softmax_rows(row), expected), width


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(6)
    out = softmax_rows(rng.normal(size=(20, 9)) * 50.0)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
    assert (out >= 0.0).all()


def test_softmax_shift_invariance():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(10, 6))
    shift = rng.normal(size=(10, 1)) * 100.0
    assert np.abs(softmax_rows(a) - softmax_rows(a + shift)).max() < 1e-12


def test_attention_single_position():
    rng = np.random.default_rng(8)
    q = rng.normal(size=(1, 4))
    k = rng.normal(size=(1, 4))
    v = rng.normal(size=(1, 3))
    assert np.allclose(attention_forward(q, k, v), v, atol=0)


def test_attention_zero_queries_average_values():
    rng = np.random.default_rng(9)
    k = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 3))
    out = attention_forward(np.zeros((2, 4)), k, v)
    mean = v.mean(axis=0)
    assert np.abs(out - mean).max() < 1e-12


def test_attention_hand_oracle():
    q = np.array([[1.0], [1.0]])
    k = np.array([[0.0], [math.log(9.0)]])
    v = np.array([[0.0], [1.0]])
    out = attention_forward(q, k, v)
    assert np.abs(out - 0.9).max() < 1e-12


def test_attention_shape_checks():
    with pytest.raises(ValueError):
        attention_forward(np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        attention_forward(np.ones((2, 3)), np.ones((4, 3)), np.ones((2, 2)))


def test_attention_permutation_equivariance():
    rng = np.random.default_rng(10)
    q = rng.normal(size=(6, 3))
    k = rng.normal(size=(6, 3))
    v = rng.normal(size=(6, 2))
    perm = rng.permutation(6)
    direct = attention_forward(q, k, v)[perm]
    permuted = attention_forward(q[perm], k[perm], v[perm])
    assert np.abs(direct - permuted).max() < 1e-12


def make_block(rng, d_model, n_heads, d_k, bias=True):
    heads = [
        AttentionHead(
            wq=rand_dense(rng, d_model, d_k, bias),
            wk=rand_dense(rng, d_model, d_k, bias),
            wv=rand_dense(rng, d_model, d_k, bias),
        )
        for _ in range(n_heads)
    ]
    return MhsaBlock(heads, rand_dense(rng, n_heads * d_k, d_model, bias))


def test_mhsa_single_head_identity_output_projection():
    rng = np.random.default_rng(11)
    head = AttentionHead(
        wq=rand_dense(rng, 4, 4, bias=False),
        wk=rand_dense(rng, 4, 4, bias=False),
        wv=rand_dense(rng, 4, 4, bias=False),
    )
    block = MhsaBlock([head], DenseLinear(np.eye(4)))
    x = rng.normal(size=(5, 4))
    expected = attention_forward(
        head.wq.forward(x), head.wk.forward(x), head.wv.forward(x))
    assert np.abs(block.forward(x) - expected).max() < 1e-15


def test_mhsa_zero_values_leave_only_wo_bias():
    rng = np.random.default_rng(12)
    block = make_block(rng, 6, 2, 3)
    for head in block.heads:
        head.wv.weight[:] = 0.0
        head.wv.bias[:] = 0.0
    out = block.forward(rng.normal(size=(4, 6)))
    assert np.abs(out - block.wo.bias).max() < 1e-12


def test_mhsa_matches_manual_concat():
    rng = np.random.default_rng(13)
    block = make_block(rng, 6, 2, 3)
    x = rng.normal(size=(5, 6))
    parts = []
    for head in block.heads:
        parts.append(attention_forward(
            head.wq.forward(x), head.wk.forward(x), head.wv.forward(x)))
    manual = block.wo.forward(np.hstack(parts))
    assert np.abs(block.forward(x) - manual).max() < 1e-12


def test_mhsa_rejects_mismatched_heads():
    rng = np.random.default_rng(14)
    heads = [
        AttentionHead(rand_dense(rng, 6, 3), rand_dense(rng, 6, 3), rand_dense(rng, 6, 3)),
        AttentionHead(rand_dense(rng, 6, 2), rand_dense(rng, 6, 2), rand_dense(rng, 6, 2)),
    ]
    with pytest.raises(ValueError):
        MhsaBlock(heads, rand_dense(rng, 5, 6))


def _heads(rng, shapes):
    """One head per ``(d_model, d_k, d_v)``; wq, wk and wv read d_model."""
    return [AttentionHead(rand_dense(rng, d, k), rand_dense(rng, d, k),
                          rand_dense(rng, d, v)) for d, k, v in shapes]


@pytest.mark.parametrize("shapes, wo_in, message", [
    ([], 6, "need at least one head"),
    ([(6, 3, 3), (6, 3, 2)], 6, "heads.1.wv: shape (6, 2), expected (6, 3)"),
    ([(6, 3, 3), (5, 3, 3)], 6, "heads.1.wq: shape (5, 3), expected (6, 3)"),
    ([(6, 3, 3), (6, 3, 3)], 5, "wo: shape (5, 6), expected (6, 6)"),
])
def test_mhsa_rejects_heads_that_disagree(shapes, wo_in, message):
    rng = np.random.default_rng(15)
    with pytest.raises(ValueError, match=re.escape(message)):
        MhsaBlock(_heads(rng, shapes), rand_dense(rng, wo_in, 6))


@pytest.mark.parametrize("make, width", [
    (lambda rng: DenseLinear(np.ones((3, 2))), 4),
    (lambda rng: rand_lowrank(rng, 3, 2, 1), 4),
    (lambda rng: make_block(rng, 6, 2, 3), 5),
], ids=["DenseLinear", "LowRankLinear", "MhsaBlock"])
def test_layer_rejects_input_of_the_wrong_width(make, width):
    layer = make(np.random.default_rng(14))
    with pytest.raises(ValueError):
        layer.forward(np.ones((4, width)))


def test_mhsa_full_rank_replacement_keeps_forward():
    rng = np.random.default_rng(15)
    block = make_block(rng, 6, 2, 3)
    x = rng.normal(size=(5, 6))
    before = block.forward(x)
    for head in block.heads:
        for attr in ("wq", "wk", "wv"):
            dense = getattr(head, attr)
            f = truncate_to_factors(svd(dense.weight), min(dense.weight.shape))
            setattr(head, attr, LowRankLinear(f.w1, f.w2, dense.bias))
    f = truncate_to_factors(svd(block.wo.weight), min(block.wo.weight.shape))
    block = MhsaBlock(block.heads, LowRankLinear(f.w1, f.w2, block.wo.bias))
    assert np.abs(block.forward(x) - before).max() < 1e-8


def test_backward_zero_grad_out_gives_zero_grads():
    rng = np.random.default_rng(16)
    layer = rand_dense(rng, 3, 4)
    y, tape = layer.forward_tape(rng.normal(size=(5, 3)))
    grad_in, grads = backward(tape, np.zeros_like(y))
    assert not grad_in.any()
    assert not grads["weight"].any()
    assert not grads["bias"].any()


def test_backward_dense_weight_is_adjoint():
    rng = np.random.default_rng(17)
    layer = rand_dense(rng, 3, 4, bias=False)
    x = rng.normal(size=(5, 3))
    _, tape = layer.forward_tape(x)
    g = rng.normal(size=(5, 4))
    _, grads = backward(tape, g)
    assert np.abs(grads["weight"] - x.T @ g).max() < 1e-12


def test_backward_tape_single_use():
    rng = np.random.default_rng(18)
    layer = rand_dense(rng, 3, 3)
    y, tape = layer.forward_tape(rng.normal(size=(2, 3)))
    backward(tape, np.zeros_like(y))
    with pytest.raises(RuntimeError):
        backward(tape, np.zeros_like(y))


def test_backward_rejects_wrong_grad_shape():
    rng = np.random.default_rng(19)
    layer = rand_dense(rng, 3, 4)
    _, tape = layer.forward_tape(rng.normal(size=(5, 3)))
    with pytest.raises(ValueError):
        backward(tape, np.zeros((5, 3)))


def _layer_grad_check(layer, x, rng, rtol=1e-5):
    y, tape = layer.forward_tape(x)
    probe = rng.normal(size=y.shape)
    grad_in, grads = backward(tape, probe)

    def scalar():
        return float((layer.forward(x) * probe).sum())

    assert_grads_close(grad_in, finite_difference(scalar, x), rtol)
    for name, arr in layer.params().items():
        assert_grads_close(grads[name], finite_difference(scalar, arr), rtol)


# Leading batch shapes each gradient check runs with: none (one T x d
# sample) and a B x T x d batch.
BATCHES = [(), (2,)]


def test_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(20)
    layer = rand_dense(rng, 4, 3)
    for batch in BATCHES:
        _layer_grad_check(layer, rng.normal(size=batch + (5, 4)), rng)


def test_lowrank_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    layer = LowRankLinear(rng.normal(size=(5, 2)), rng.normal(size=(2, 4)),
                          rng.normal(size=4))
    for batch in BATCHES:
        _layer_grad_check(layer, rng.normal(size=batch + (6, 5)), rng)


def test_softmax_gradients_match_finite_differences():
    rng = np.random.default_rng(22)
    a = rng.normal(size=(4, 5))
    s, tape = softmax_rows_tape(a)
    probe = rng.normal(size=s.shape)
    grad_in, grads = backward(tape, probe)
    assert grads == {}

    def scalar():
        return float((softmax_rows(a) * probe).sum())

    assert_grads_close(grad_in, finite_difference(scalar, a), 1e-5)


def test_attention_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    for batch in BATCHES:
        q = rng.normal(size=batch + (5, 3))
        k = rng.normal(size=batch + (5, 3))
        v = rng.normal(size=batch + (5, 2))
        y, tape = attention_forward_tape(q, k, v)
        probe = rng.normal(size=y.shape)
        (gq, gk, gv), _ = backward(tape, probe)

        def scalar():
            return float((attention_forward(q, k, v) * probe).sum())

        assert_grads_close(gq, finite_difference(scalar, q), 1e-5)
        assert_grads_close(gk, finite_difference(scalar, k), 1e-5)
        assert_grads_close(gv, finite_difference(scalar, v), 1e-5)


def test_mhsa_gradients_match_finite_differences():
    rng = np.random.default_rng(24)
    block = make_block(rng, 4, 2, 2)
    for batch in BATCHES:
        _layer_grad_check(block, rng.normal(size=batch + (3, 4)), rng)


def test_mhsa_gradients_with_lowrank_projection():
    rng = np.random.default_rng(25)
    block = make_block(rng, 4, 2, 2)
    dense = block.heads[0].wv
    f = truncate_to_factors(svd(dense.weight), 1)
    block.heads[0].wv = LowRankLinear(f.w1, f.w2, dense.bias)
    for batch in BATCHES:
        _layer_grad_check(block, rng.normal(size=batch + (3, 4)), rng)


def per_head_reference(block, x, grad_out):
    """The per-head loop ``MhsaBlock`` ran before its heads were stacked:
    three projections and one attention call per head, outputs concatenated
    into ``wo``. Returns the forward output, the input gradient and the
    named parameter gradients for ``grad_out``."""
    head_tapes, outs = [], []
    for h in block.heads:
        q, tq = h.wq.forward_tape(x)
        k, tk = h.wk.forward_tape(x)
        v, tv = h.wv.forward_tape(x)
        out, ta = attention_forward_tape(q, k, v)
        head_tapes.append((tq, tk, tv, ta))
        outs.append(out)
    y, to = block.wo.forward_tape(np.concatenate(outs, axis=-1))
    grad_concat, wo_grads = backward(to, grad_out)
    layer_grads, grad_x, d = [], None, block.d_k
    for i, (tq, tk, tv, ta) in enumerate(head_tapes):
        (gq, gk, gv), _ = backward(ta, grad_concat[..., i * d:(i + 1) * d])
        gx_q, q_grads = backward(tq, gq)
        gx_k, k_grads = backward(tk, gk)
        gx_v, v_grads = backward(tv, gv)
        layer_grads += [q_grads, k_grads, v_grads]
        part = gx_q + gx_k + gx_v
        grad_x = part if grad_x is None else grad_x + part
    layer_grads.append(wo_grads)
    grads = {
        f"{name}.{n}": g
        for (name, _), named in zip(block.named_projections(), layer_grads,
                                    strict=True)
        for n, g in named.items()
    }
    return y, grad_x, grads


def rand_lowrank(rng, c_in, c_out, rank, bias=True):
    return LowRankLinear(rng.normal(size=(c_in, rank)),
                         rng.normal(size=(rank, c_out)),
                         rng.normal(size=c_out) if bias else None)


def _projection(rng, spec, c_in, c_out):
    """A projection from a spec: ``"d"`` dense, ``"d-"`` dense without a
    bias, ``r`` (an int) low rank r, ``-r`` low rank r without a bias."""
    if isinstance(spec, str):
        return rand_dense(rng, c_in, c_out, bias=spec == "d")
    return rand_lowrank(rng, c_in, c_out, abs(spec), bias=spec > 0)


def spec_block(rng, specs, d_model=6, d_k=3, wo="d"):
    """A block whose head i has projections ``specs[i] = (q, k, v)``."""
    heads = [
        AttentionHead(_projection(rng, q, d_model, d_k),
                      _projection(rng, k, d_model, d_k),
                      _projection(rng, v, d_model, d_k))
        for q, k, v in specs
    ]
    return MhsaBlock(heads, _projection(rng, wo, len(specs) * d_k, d_model))


def _assert_relative(got, want, scale=None):
    assert got.shape == want.shape
    scale = np.abs(want).max() if scale is None else scale
    assert np.abs(got - want).max() <= 1e-12 * scale


def assert_matches_per_head(block, x, rng, exact_forward=False):
    y, tape = block.forward_tape(x)
    probe = rng.normal(size=y.shape)
    grad_x, grads = backward(tape, probe)
    ref_y, ref_grad_x, ref_grads = per_head_reference(block, x, probe)
    if exact_forward:
        assert np.array_equal(y, ref_y)
    else:
        _assert_relative(y, ref_y)
    _assert_relative(grad_x, ref_grad_x)
    assert list(grads) == list(ref_grads) == list(block.params())
    # A key bias has a zero gradient in exact arithmetic (softmax ignores a
    # shift shared by a row), so its entries are rounding noise: each
    # gradient is measured against the largest entry of its projection's.
    for name in ref_grads:
        layer = name.rsplit(".", 1)[0]
        scale = max(np.abs(g).max() for key, g in ref_grads.items()
                    if key.rsplit(".", 1)[0] == layer)
        _assert_relative(grads[name], ref_grads[name], scale)


STACK_CASES = {
    "all_dense": dict(specs=[("d", "d", "d")] * 3),
    "uniform_lowrank": dict(specs=[(1, 1, 1)] * 3),
    "unequal_ranks": dict(specs=[(1, 2, 3), (3, 1, 2), (2, 3, 1)], wo=2),
    "mixed_in_group": dict(specs=[("d", 2, "d"), (1, "d", 3), ("d", "d", 1)]),
    "no_bias": dict(specs=[("d-", "d-", "d-")] * 2, wo="d-"),
    "some_bias": dict(specs=[("d", -1, "d-"), (2, "d-", -3)]),
}


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_block_matches_per_head_loop(case):
    rng = np.random.default_rng(26)
    block = spec_block(rng, **STACK_CASES[case])
    for batch in [(), (3,)]:
        assert_matches_per_head(block, rng.normal(size=batch + (5, 6)), rng,
                                exact_forward=case == "all_dense")


def test_stacked_block_follows_in_place_projection_swap():
    rng = np.random.default_rng(27)
    block = spec_block(rng, [("d", "d", "d")] * 2)
    x = rng.normal(size=(2, 5, 6))
    before = block.forward(x)
    block.heads[0].wv = rand_lowrank(rng, 6, 3, 2)
    assert not np.array_equal(block.forward(x), before)
    assert_matches_per_head(block, x, rng)
    block.heads[1].wq.weight[:] = 0.0
    assert_matches_per_head(block, x, rng)
