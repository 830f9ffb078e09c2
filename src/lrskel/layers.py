"""Differentiable building blocks, one forward body per op.

A linear layer is a chain of factors, ``y = x @ f_0 @ ... @ f_last + bias``,
run by one private body: a dense affine map is a chain of one factor
(``weight``), its low-rank replacement the cascaded pair (``w1``, ``w2``).
Attention is the standard scaled dot-product form. A multi-head block keeps
separate per-head Q/K/V projections, so ranks can be assigned per matrix
type, but runs its heads stacked: each call concatenates the projections'
first factors and block-diagonalises their second ones into one chain, runs
it through the same body, and makes one attention call over a head axis.

Every op acts on the trailing ``T x d`` axes and takes any leading batch
axes, so a ``T x d`` input is one sample and a ``B x T x d`` input is a
mini-batch run through the same body; a weight or bias gradient sums over
every leading row. Each op computes its output in one place, its
``forward_tape`` (``attention_forward_tape``), which also returns a
single-use :class:`GradTape` whose backward function closes over the
activations it needs; ``forward`` is that output with the tape dropped.
A backward function lists its parameter gradients in ``params()`` order;
:func:`backward_list`, for every op up to the whole model, checks
``grad_out`` and returns that list; :func:`backward` names it. Gradients
are exact analytic adjoints. Inputs are validated where they enter (the
constructors here, a low-rank pair's rank by ``linalg.check_rank``, and the
model's sample features), not on every internal matmul. Attention's
operands too: a block fixes their shapes; a direct call raises numpy's
``ValueError`` on a width or row-count mismatch, and batch dims broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import as_matrix, check_rank


@dataclass
class GradTape:
    """One op call's backward function ``fn(grad_out) -> (grad_in, [grads
    in params() order])``, closed over that call's activations, the shape of
    its output and the owner's ``params`` method (``dict`` for an op with
    no parameters); consumable exactly once."""

    fn: Callable
    out_shape: tuple
    params: Callable = dict
    used: bool = field(default=False)


def backward_list(tape: GradTape, grad_out):
    """``(grad_in, [grads in params() order])`` from ``tape``, used once."""
    if tape.used:
        raise RuntimeError("gradient tape already consumed")
    tape.used = True
    if grad_out.shape != tape.out_shape:
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward output "
            f"{tape.out_shape}"
        )
    return tape.fn(grad_out)


def backward(tape: GradTape, grad_out):
    """:func:`backward_list` with the gradients named.

    Returns ``(grad_in, grad_params)`` where ``grad_params`` maps the names
    of ``tape.params()`` to gradients (empty for parameter-free ops).
    ``grad_in`` is a tuple for multi-input ops such as attention.
    """
    grad_in, grads = backward_list(tape, grad_out)
    return grad_in, dict(zip(tape.params(), grads, strict=True))


def _check_bias(bias, c_out):
    if bias is None:
        return None
    b = np.asarray(bias, dtype=np.float64)
    if b.shape != (c_out,):
        raise ValueError(f"bias shape {b.shape} != output width ({c_out},)")
    if not np.isfinite(b).all():
        raise ValueError("bias contains non-finite entries")
    return b


def _chain(factors, bias, x):
    """``x @ f_0 @ ... @ f_last (+ bias)`` and its backward function, which
    maps ``grad_out`` to ``(grad_in, [grad of each factor, then of the
    bias when there is one])``."""
    inputs = [x]
    for f in factors[:-1]:
        inputs.append(inputs[-1] @ f)
    y = inputs[-1] @ factors[-1]
    if bias is not None:
        y += bias

    def grad(grad_out):
        grad_bias = [] if bias is None else [grad_out.reshape(-1, bias.size).sum(axis=0)]
        grads = []
        for f, a in zip(reversed(factors), reversed(inputs)):
            grads.append(a.reshape(-1, f.shape[0]).T @ grad_out.reshape(-1, f.shape[1]))
            grad_out = grad_out @ f.T
        return grad_out, grads[::-1] + grad_bias

    return y, grad


class _Linear:
    """Factor-chain body shared by both linear kinds. A subclass names its
    factors in ``FACTORS``; the bias, when present, sits on the last
    factor's output."""

    FACTORS: tuple

    def __init__(self, factors, bias):
        self.factors = factors
        self.bias = _check_bias(bias, self.c_out)

    @property
    def c_in(self) -> int:
        return self.factors[0].shape[0]

    @property
    def c_out(self) -> int:
        return self.factors[-1].shape[1]

    def copy(self, take=np.copy):
        return type(self)(*(take(f) for f in self.factors),
                          None if self.bias is None else take(self.bias))

    def forward(self, x) -> np.ndarray:
        return self.forward_tape(x)[0]

    def forward_tape(self, x):
        y, grad = _chain(self.factors, self.bias, x)
        return y, GradTape(grad, y.shape, self.params)

    def params(self) -> dict:
        out = dict(zip(self.FACTORS, self.factors))
        if self.bias is not None:
            out["bias"] = self.bias
        return out

    def param_count(self) -> int:
        return sum(a.size for a in self.params().values())

    def flops(self, rows: int) -> int:
        return 2 * rows * sum(f.size for f in self.factors)


def check_shapes(rows, layers):
    """A ValueError naming the first layer whose ``(c_in, c_out)`` is not its
    ``(name, shape)`` row of a shape table, or when the two differ in length."""
    for (name, shape), layer in zip(rows, layers, strict=True):
        if (layer.c_in, layer.c_out) != shape:
            raise ValueError(f"{name}: shape {(layer.c_in, layer.c_out)}, "
                             f"expected {shape}")


class DenseLinear(_Linear):
    """Affine map ``y = x @ weight + bias`` with weight C_in x C_out."""

    kind = "dense"
    FACTORS = ("weight",)

    def __init__(self, weight, bias=None):
        super().__init__((as_matrix(weight, "weight"),), bias)

    @property
    def weight(self) -> np.ndarray:
        return self.factors[0]


class LowRankLinear(_Linear):
    """Cascaded pair ``y = (x @ w1) @ w2 + bias``; w1 is C_in x k, w2 is
    k x C_out. The weight parameter count is k*(C_in + C_out)."""

    kind = "lowrank"
    FACTORS = ("w1", "w2")

    def __init__(self, w1, w2, bias=None):
        self.factors = (as_matrix(w1, "w1"), as_matrix(w2, "w2"))
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ValueError(
                f"factor ranks disagree: w1 is {self.w1.shape}, w2 is {self.w2.shape}"
            )
        check_rank(self.k, (self.c_in, self.c_out))
        super().__init__(self.factors, bias)

    @property
    def w1(self) -> np.ndarray:
        return self.factors[0]

    @property
    def w2(self) -> np.ndarray:
        return self.factors[1]

    @property
    def k(self) -> int:
        return self.w1.shape[1]


def _row_max(a):
    """``a.max(axis=-1, keepdims=True)`` as a pairwise ``np.maximum`` tree
    over column halves, folding an odd last column into the first. Max is
    exact, so the bits are the same; on short rows this beats numpy's
    reduction over a contiguous last axis."""
    while a.shape[-1] > 1:
        w, h = a.shape[-1], a.shape[-1] // 2
        top = np.maximum(a[..., :h], a[..., h:2 * h])
        if w % 2:
            np.maximum(top[..., :1], a[..., w - 1:], out=top[..., :1])
        a = top
    return a


def softmax_rows(a) -> np.ndarray:
    """Softmax over the last axis, stabilized by subtracting each row's
    maximum."""
    # In place after the first subtraction: a stacked batch's B x H x T x T
    # scores pass glibc's mmap threshold, so each further temporary would
    # be a fresh mapping whose pages fault in on every call.
    e = a - _row_max(a)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_adjoint(s, grad_s):
    out = grad_s * s
    np.subtract(grad_s, out.sum(axis=-1, keepdims=True), out=out)
    out *= s
    return out


def softmax_rows_tape(a):
    s = softmax_rows(a)
    return s, GradTape(lambda grad_out: (_softmax_adjoint(s, grad_out), []), s.shape)


def attention_forward(q, k, v) -> np.ndarray:
    """Scaled dot-product attention: softmax(q @ k.T / sqrt(d_k)) @ v."""
    return attention_forward_tape(q, k, v)[0]


def attention_forward_tape(q, k, v):
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    s = softmax_rows(scores)
    y = s @ v

    def grad(grad_out):
        grad_v = s.swapaxes(-1, -2) @ grad_out
        grad_z = _softmax_adjoint(s, grad_out @ v.swapaxes(-1, -2))
        grad_q = (grad_z @ k) * scale
        grad_k = (grad_z.swapaxes(-1, -2) @ q) * scale
        return (grad_q, grad_k, grad_v), []

    return y, GradTape(grad, y.shape)


@dataclass
class AttentionHead:
    """Per-head Q/K/V projections; dense or low-rank independently."""

    wq: object
    wk: object
    wv: object


def _split_heads(a, n_heads):
    """``(..., T, n_heads * d)`` columns as ``(..., n_heads, T, d)`` heads."""
    return a.reshape(a.shape[:-1] + (n_heads, -1)).swapaxes(-2, -3)


def _merge_heads(a):
    """Inverse of ``_split_heads``: ``(..., H, T, d)`` to ``(..., T, H * d)``."""
    a = a.swapaxes(-2, -3)
    return a.reshape(a.shape[:-2] + (-1,))


class MhsaBlock:
    """Multi-head self-attention: per-head attention over projected inputs,
    outputs concatenated and mixed by the output projection ``wo``.

    The heads run stacked, with the 3H Q/K/V projections in group order
    (every head's wq, then wk, then wv) as one factor chain through the
    linear body: their first factors side by side and, when any projection
    has a second factor, one block-diagonal matrix of those (an identity
    block for a single-factor projection). One attention call runs on
    ``(..., H, T, d)`` arrays. Every call rebuilds the chain from the live
    per-head arrays, so ``params()`` and in-place edits of ``heads`` stay
    authoritative; the backward splits the chain's gradients back per
    projection, in ``params()`` order."""

    def __init__(self, heads, wo):
        self.heads = list(heads)
        if not self.heads:
            raise ValueError("need at least one head")
        self.wo = wo
        n, wq = self.n_heads, self.heads[0].wq
        shapes = self.projection_shapes(n, wq.c_in, wq.c_out)
        check_shapes(zip(self.projection_names(n), shapes),
                     [layer for _, layer in self.named_projections()])

    @property
    def n_heads(self) -> int:
        return len(self.heads)

    @property
    def d_k(self) -> int:
        return self.heads[0].wq.c_out

    @staticmethod
    def projection_names(n_heads) -> tuple:
        """Names of a block's projections in canonical order: each head's
        wq, wk, wv, then wo. Parameter and gradient keys are
        ``<name>.<param>``."""
        return tuple(f"heads.{i}.{attr}" for i in range(n_heads)
                     for attr in ("wq", "wk", "wv")) + ("wo",)

    @staticmethod
    def projection_shapes(n_heads, d_model, d) -> list:
        """``(c_in, c_out)`` per ``projection_names`` entry: each wq, wk and wv
        maps d_model to the one head width d, and wo maps H*d to d_model."""
        return [(d_model, d)] * (3 * n_heads) + [(n_heads * d, d_model)]

    def named_projections(self):
        """(name, layer) for every projection, in ``projection_names`` order."""
        layers = [p for h in self.heads for p in (h.wq, h.wk, h.wv)] + [self.wo]
        return list(zip(self.projection_names(self.n_heads), layers, strict=True))

    def forward(self, x) -> np.ndarray:
        return self.forward_tape(x)[0]

    def forward_tape(self, x):
        n, d = self.n_heads, self.d_k
        # ``layout``: (layer, first-factor columns, output columns), group order.
        projections = [getattr(h, attr) for attr in ("wq", "wk", "wv")
                       for h in self.heads]
        layout, a = [], 0
        for j, p in enumerate(projections):
            r = p.factors[0].shape[1]
            layout.append((p, slice(a, a + r), slice(j * d, (j + 1) * d)))
            a += r
        factors = (np.concatenate([p.factors[0] for p in projections], axis=1),)
        if any(len(p.factors) > 1 for p in projections):
            second = np.zeros((a, 3 * n * d))
            for p, cols, outs in layout:
                second[cols, outs] = p.factors[1] if len(p.factors) > 1 else np.eye(d)
            factors += (second,)
        bias = np.concatenate([np.zeros(d) if p.bias is None else p.bias
                               for p in projections])
        qkv, chain_grad = _chain(factors, bias, x)
        q, k, v = np.split(_split_heads(qkv, 3 * n), 3, axis=-3)
        heads_out, ta = attention_forward_tape(q, k, v)
        y, to = self.wo.forward_tape(_merge_heads(heads_out))

        def grad(grad_out):
            grad_heads, wo_grads = backward_list(to, grad_out)
            grad_qkv, _ = backward_list(ta, _split_heads(grad_heads, n))
            # The chain's gradients: first factor, then the second factor
            # when any projection has one, then the stacked bias.
            grad_in, (first, *rest) = chain_grad(
                _merge_heads(np.concatenate(grad_qkv, axis=-3)))
            grads = []
            for p, cols, outs in (layout[g * n + i] for i in range(n) for g in range(3)):
                grads.append(first[:, cols])
                if len(p.factors) > 1:
                    grads.append(rest[0][cols, outs])
                if p.bias is not None:
                    grads.append(rest[-1][outs])
            return grad_in, grads + wo_grads

        return y, GradTape(grad, y.shape, self.params)

    def params(self) -> dict:
        return {
            f"{name}.{n}": arr
            for name, layer in self.named_projections()
            for n, arr in layer.params().items()
        }
