"""Differentiable building blocks, one forward body per op.

Linear layers come in two flavours: a dense affine map, and its low-rank
replacement holding the cascaded factor pair. Attention is the standard
scaled dot-product form. A multi-head block keeps separate per-head Q/K/V
projections, so ranks can be assigned per matrix type, but runs its heads
stacked: each call concatenates the projections' first factors into one
matrix product, applies every low-rank second factor through one
block-diagonal product, and makes one attention call over a head axis.

Every op acts on the trailing ``T x d`` axes and takes any leading batch
axes, so a ``T x d`` input is one sample and a ``B x T x d`` input is a
mini-batch run through the same body; a weight or bias gradient sums over
every leading row. Each op computes its output in one place, which also
returns a single-use :class:`GradTape` holding the cached activations and
the op's backward function; ``forward`` is that output with the tape
dropped. Gradients are exact analytic adjoints. Inputs are validated where
they enter (the constructors here, and the model's sample features), not on
every internal matmul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import as_matrix


@dataclass
class GradTape:
    """Cached activations plus the function ``fn(cache, grad_out)`` that
    turns them into gradients; consumable exactly once."""

    fn: Callable
    cache: dict
    used: bool = field(default=False)


def backward(tape: GradTape, grad_out):
    """Run the backward pass recorded on ``tape``.

    Returns ``(grad_in, grad_params)`` where ``grad_params`` maps parameter
    names to arrays (empty for parameter-free ops). ``grad_in`` is a tuple
    for multi-input ops such as attention.
    """
    if tape.used:
        raise RuntimeError("gradient tape already consumed")
    tape.used = True
    if grad_out.shape != tape.cache["out_shape"]:
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match forward output "
            f"{tape.cache['out_shape']}"
        )
    return tape.fn(tape.cache, grad_out)


def _check_bias(bias, c_out):
    if bias is None:
        return None
    b = np.asarray(bias, dtype=np.float64).reshape(-1)
    if b.shape[0] != c_out:
        raise ValueError(f"bias length {b.shape[0]} != output width {c_out}")
    if not np.isfinite(b).all():
        raise ValueError("bias contains non-finite entries")
    return b


class DenseLinear:
    """Affine map ``y = x @ weight + bias`` with weight C_in x C_out."""

    kind = "dense"

    def __init__(self, weight, bias=None):
        self.weight = as_matrix(weight, "weight")
        self.bias = _check_bias(bias, self.weight.shape[1])

    @property
    def c_in(self) -> int:
        return self.weight.shape[0]

    @property
    def c_out(self) -> int:
        return self.weight.shape[1]

    def copy(self) -> "DenseLinear":
        return DenseLinear(self.weight.copy(),
                           None if self.bias is None else self.bias.copy())

    def forward(self, x) -> np.ndarray:
        return self.forward_tape(x)[0]

    def forward_tape(self, x):
        if x.shape[-1] != self.c_in:
            raise ValueError(f"input width {x.shape[-1]} != C_in {self.c_in}")
        y = x @ self.weight
        if self.bias is not None:
            y = y + self.bias
        return y, GradTape(self._backward, {"x": x, "out_shape": y.shape})

    def _backward(self, cache, grad_out):
        grad_in = grad_out @ self.weight.T
        rows = grad_out.reshape(-1, self.c_out)
        grads = {"weight": cache["x"].reshape(-1, self.c_in).T @ rows}
        if self.bias is not None:
            grads["bias"] = rows.sum(axis=0)
        return grad_in, grads

    def params(self) -> dict:
        out = {"weight": self.weight}
        if self.bias is not None:
            out["bias"] = self.bias
        return out

    def param_count(self) -> int:
        return self.weight.size + (0 if self.bias is None else self.bias.size)

    def flops(self, rows: int) -> int:
        return 2 * rows * self.c_in * self.c_out


class LowRankLinear:
    """Cascaded pair ``y = (x @ w1) @ w2 + bias``; w1 is C_in x k, w2 is
    k x C_out. The weight parameter count is k*(C_in + C_out); the bias, when
    present, sits on the second factor's output."""

    kind = "lowrank"

    def __init__(self, w1, w2, bias=None):
        self.w1 = as_matrix(w1, "w1")
        self.w2 = as_matrix(w2, "w2")
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ValueError(
                f"factor ranks disagree: w1 is {self.w1.shape}, w2 is {self.w2.shape}"
            )
        if self.k > min(self.c_in, self.c_out):
            raise ValueError(
                f"rank {self.k} exceeds min(C_in, C_out) = {min(self.c_in, self.c_out)}"
            )
        self.bias = _check_bias(bias, self.c_out)

    @property
    def k(self) -> int:
        return self.w1.shape[1]

    @property
    def c_in(self) -> int:
        return self.w1.shape[0]

    @property
    def c_out(self) -> int:
        return self.w2.shape[1]

    def copy(self) -> "LowRankLinear":
        return LowRankLinear(self.w1.copy(), self.w2.copy(),
                             None if self.bias is None else self.bias.copy())

    def forward(self, x) -> np.ndarray:
        return self.forward_tape(x)[0]

    def forward_tape(self, x):
        if x.shape[-1] != self.c_in:
            raise ValueError(f"input width {x.shape[-1]} != C_in {self.c_in}")
        hidden = x @ self.w1
        y = hidden @ self.w2
        if self.bias is not None:
            y = y + self.bias
        return y, GradTape(self._backward,
                           {"x": x, "hidden": hidden, "out_shape": y.shape})

    def _backward(self, cache, grad_out):
        grad_hidden = grad_out @ self.w2.T
        grad_in = grad_hidden @ self.w1.T
        rows = grad_out.reshape(-1, self.c_out)
        grads = {
            "w1": cache["x"].reshape(-1, self.c_in).T
            @ grad_hidden.reshape(-1, self.k),
            "w2": cache["hidden"].reshape(-1, self.k).T @ rows,
        }
        if self.bias is not None:
            grads["bias"] = rows.sum(axis=0)
        return grad_in, grads

    def params(self) -> dict:
        out = {"w1": self.w1, "w2": self.w2}
        if self.bias is not None:
            out["bias"] = self.bias
        return out

    def param_count(self) -> int:
        n = self.k * (self.c_in + self.c_out)
        return n + (0 if self.bias is None else self.bias.size)

    def flops(self, rows: int) -> int:
        return 2 * rows * self.k * (self.c_in + self.c_out)


def softmax_rows(a) -> np.ndarray:
    """Softmax over the last axis, stabilized by subtracting each row's
    maximum."""
    # In place after the first subtraction: a stacked batch's B x H x T x T
    # scores pass glibc's mmap threshold, so each further temporary would
    # be a fresh mapping whose pages fault in on every call.
    e = a - a.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_adjoint(s, grad_s):
    out = grad_s * s
    np.subtract(grad_s, out.sum(axis=-1, keepdims=True), out=out)
    out *= s
    return out


def _softmax_backward(cache, grad_out):
    return _softmax_adjoint(cache["s"], grad_out), {}


def softmax_rows_tape(a):
    s = softmax_rows(a)
    return s, GradTape(_softmax_backward, {"s": s, "out_shape": s.shape})


def _attention(q, k, v):
    """Body of both attention entry points. Neither entry point calls the
    other, so a traced call to either records one span."""
    if q.shape[-1] != k.shape[-1]:
        raise ValueError(f"q width {q.shape[-1]} != k width {k.shape[-1]}")
    if k.shape[:-1] != v.shape[:-1]:
        raise ValueError(f"k rows {k.shape[:-1]} != v rows {v.shape[:-1]}")
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    s = softmax_rows(scores)
    y = s @ v
    cache = {"q": q, "k": k, "v": v, "s": s, "scale": scale, "out_shape": y.shape}
    return y, GradTape(_attention_backward, cache)


def _attention_backward(cache, grad_out):
    q, k, v, s, scale = (cache[n] for n in ("q", "k", "v", "s", "scale"))
    grad_v = s.swapaxes(-1, -2) @ grad_out
    grad_z = _softmax_adjoint(s, grad_out @ v.swapaxes(-1, -2))
    grad_q = (grad_z @ k) * scale
    grad_k = (grad_z.swapaxes(-1, -2) @ q) * scale
    return (grad_q, grad_k, grad_v), {}


def attention_forward(q, k, v) -> np.ndarray:
    """Scaled dot-product attention: softmax(q @ k.T / sqrt(d_k)) @ v."""
    return _attention(q, k, v)[0]


def attention_forward_tape(q, k, v):
    return _attention(q, k, v)


@dataclass
class AttentionHead:
    """Per-head Q/K/V projections; dense or low-rank independently."""

    wq: object
    wk: object
    wv: object

    def copy(self) -> "AttentionHead":
        return AttentionHead(self.wq.copy(), self.wk.copy(), self.wv.copy())


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
    (every head's wq, then wk, then wv). One product with their first
    factors (``weight`` or ``w1``) side by side projects every head; when
    any is low rank, one block-diagonal matrix of the ``w2`` factors, with
    an identity block per dense projection, follows. One attention call
    runs on ``(..., H, T, d_k)`` arrays. Every call rebuilds these matrices
    from the live per-head arrays, so ``params()`` and in-place edits of
    ``heads`` stay authoritative."""

    def __init__(self, heads, wo):
        heads = list(heads)
        if not heads:
            raise ValueError("need at least one head")
        d_k = heads[0].wq.c_out
        d_v = heads[0].wv.c_out
        d_model = heads[0].wq.c_in
        for i, h in enumerate(heads):
            if h.wq.c_out != d_k or h.wk.c_out != d_k:
                raise ValueError(f"head {i} disagrees on d_k")
            if h.wv.c_out != d_v:
                raise ValueError(f"head {i} disagrees on d_v")
            if h.wq.c_in != d_model or h.wk.c_in != d_model or h.wv.c_in != d_model:
                raise ValueError(f"head {i} disagrees on d_model")
        if wo.c_in != len(heads) * d_v:
            raise ValueError(
                f"wo input width {wo.c_in} != heads*d_v {len(heads) * d_v}"
            )
        self.heads = heads
        self.wo = wo

    @property
    def n_heads(self) -> int:
        return len(self.heads)

    @property
    def d_k(self) -> int:
        return self.heads[0].wq.c_out

    @property
    def d_v(self) -> int:
        return self.heads[0].wv.c_out

    def copy(self) -> "MhsaBlock":
        return MhsaBlock([h.copy() for h in self.heads], self.wo.copy())

    def named_projections(self):
        """(name, layer) for every projection in canonical order: each
        head's wq, wk, wv, then wo. Parameter and gradient keys are
        ``<name>.<param>``."""
        out = []
        for i, h in enumerate(self.heads):
            out += [(f"heads.{i}.wq", h.wq), (f"heads.{i}.wk", h.wk),
                    (f"heads.{i}.wv", h.wv)]
        out.append(("wo", self.wo))
        return out

    def _stacked(self):
        """``(layout, first, second, bias)`` of the stacked projection. The
        layout holds ``(layer, first-factor columns, output columns)`` per
        projection in group order; ``second`` is None when every projection
        is dense, and ``bias`` when none has one."""
        projections = [getattr(h, attr) for attr in ("wq", "wk", "wv")
                       for h in self.heads]
        firsts = [p.weight if p.kind == "dense" else p.w1 for p in projections]
        layout, a, o = [], 0, 0
        for p, f in zip(projections, firsts):
            layout.append((p, slice(a, a + f.shape[1]), slice(o, o + p.c_out)))
            a, o = a + f.shape[1], o + p.c_out
        second = None
        if any(p.kind != "dense" for p in projections):
            second = np.zeros((a, o))
            for p, cols, outs in layout:
                second[cols, outs] = np.eye(p.c_out) if p.kind == "dense" else p.w2
        bias = None
        if any(p.bias is not None for p in projections):
            bias = np.concatenate([np.zeros(p.c_out) if p.bias is None else p.bias
                                   for p in projections])
        return layout, np.concatenate(firsts, axis=1), second, bias

    def forward(self, x) -> np.ndarray:
        return self.forward_tape(x)[0]

    def forward_tape(self, x):
        if x.shape[-1] != self.heads[0].wq.c_in:
            raise ValueError(
                f"input width {x.shape[-1]} != d_model {self.heads[0].wq.c_in}")
        layout, first, second, bias = self._stacked()
        qkv = x @ first
        hidden = None
        if second is not None:
            hidden, qkv = qkv, qkv @ second
        if bias is not None:
            qkv += bias
        n, d_k = self.n_heads, self.d_k
        q, k, v = (_split_heads(a, n)
                   for a in np.split(qkv, [n * d_k, 2 * n * d_k], axis=-1))
        heads_out, ta = attention_forward_tape(q, k, v)
        y, to = self.wo.forward_tape(_merge_heads(heads_out))
        cache = {"x": x, "hidden": hidden, "layout": layout, "first": first,
                 "second": second, "attention_tape": ta, "wo_tape": to,
                 "out_shape": y.shape}
        return y, GradTape(self._backward, cache)

    def _backward(self, cache, grad_out):
        grad_heads, wo_grads = backward(cache["wo_tape"], grad_out)
        n, layout = self.n_heads, cache["layout"]
        first, second = cache["first"], cache["second"]
        grad_qkv, _ = backward(cache["attention_tape"], _split_heads(grad_heads, n))
        grad_qkv = np.concatenate([_merge_heads(g) for g in grad_qkv], axis=-1)
        qkv_rows = grad_qkv.reshape(-1, grad_qkv.shape[-1])
        grad_hidden = grad_qkv
        if second is not None:
            grad_hidden = grad_qkv @ second.T
            grad_second = cache["hidden"].reshape(-1, first.shape[1]).T @ qkv_rows
        grad_first = (cache["x"].reshape(-1, first.shape[0]).T
                      @ grad_hidden.reshape(-1, first.shape[1]))
        grad_bias = qkv_rows.sum(axis=0)
        # Split per projection, in params() order (head by head).
        grads = {}
        for i in range(n):
            for g, attr in enumerate(("wq", "wk", "wv")):
                p, cols, outs = layout[g * n + i]
                name = f"heads.{i}.{attr}"
                if p.kind == "dense":
                    grads[name + ".weight"] = grad_first[:, cols]
                else:
                    grads[name + ".w1"] = grad_first[:, cols]
                    grads[name + ".w2"] = grad_second[cols, outs]
                if p.bias is not None:
                    grads[name + ".bias"] = grad_bias[outs]
        grads.update({f"wo.{k}": g for k, g in wo_grads.items()})
        return grad_hidden @ first.T, grads

    def params(self) -> dict:
        return {
            f"{name}.{n}": arr
            for name, layer in self.named_projections()
            for n, arr in layer.params().items()
        }

    def param_count(self) -> int:
        return sum(layer.param_count() for _, layer in self.named_projections())
