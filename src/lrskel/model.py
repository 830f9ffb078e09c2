"""A minimal skeleton-sequence classifier for compression experiments.

Each sample's frames flatten to a T x 3J feature matrix; a mini-batch is
those matrices stacked to B x T x 3J and runs through the same body: embed
to d_model, a stack of multi-head self-attention blocks with residual
connections, mean-pool over time, and a linear head. Small by design; the
point is the compression pass, not the architecture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import container
from .layers import (AttentionHead, DenseLinear, GradTape, LowRankLinear,
                     MhsaBlock, backward, backward_list)
from .linalg import as_matrix

# Layer group tags used by compression plans.
GROUP_EMBED = "EMBED"
GROUP_Q = "Q"
GROUP_K = "K"
GROUP_V = "V"
GROUP_O = "O"
GROUP_HEAD = "HEAD"

_MAX_SEED = 2 ** 64

# Samples per stacked forward in ``forward``: bounds the activations held at
# once when a whole evaluation set is scored.
_FORWARD_CHUNK = 32


@dataclass(frozen=True)
class ModelConfig:
    joints: int
    frames: int
    d_model: int
    heads: int
    blocks: int
    classes: int
    seed: int

    def __post_init__(self):
        for name in ("joints", "frames", "d_model", "heads", "classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.blocks < 0:
            raise ValueError("blocks must be >= 0")
        if self.d_model % self.heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by heads {self.heads}"
            )
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    @property
    def input_width(self) -> int:
        return 3 * self.joints

    @property
    def d_k(self) -> int:
        return self.d_model // self.heads


class SkeletonModel:
    def __init__(self, embed, blocks, head, config: ModelConfig):
        blocks = list(blocks)
        if embed.c_in != config.input_width or embed.c_out != config.d_model:
            raise ValueError("embedding shape disagrees with config")
        if head.c_in != config.d_model or head.c_out != config.classes:
            raise ValueError("classifier head shape disagrees with config")
        if len(blocks) != config.blocks:
            raise ValueError("block count disagrees with config")
        for b in blocks:
            if b.n_heads != config.heads or b.wo.c_out != config.d_model:
                raise ValueError("attention block shape disagrees with config")
        self.embed = embed
        self.blocks = blocks
        self.head = head
        self.config = config

    def copy(self) -> "SkeletonModel":
        return map_layers(self, lambda name, layer, group: layer.copy())


def build_model(cfg: ModelConfig) -> SkeletonModel:
    """Build a freshly initialized model; same seed, same bits.

    Weights are uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)), drawn
    in a fixed order from one seeded generator; biases start at zero.
    """
    rng = np.random.default_rng(cfg.seed)
    shapes = {
        GROUP_EMBED: (cfg.input_width, cfg.d_model),
        GROUP_Q: (cfg.d_model, cfg.d_k),
        GROUP_K: (cfg.d_model, cfg.d_k),
        GROUP_V: (cfg.d_model, cfg.d_k),
        GROUP_O: (cfg.heads * cfg.d_k, cfg.d_model),
        GROUP_HEAD: (cfg.d_model, cfg.classes),
    }

    def linear(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        return DenseLinear(weight, np.zeros(fan_out))

    return _assemble(cfg, [linear(*shapes[group]) for _, group in layer_specs(cfg)])


def layer_specs(cfg: ModelConfig):
    """(name, group) of every linear layer, in canonical order.

    The one table of the dotted layer names of weights files and parameter
    keys (a block's part comes from ``MhsaBlock.projection_names``);
    building, loading, listing and rebuilding a model all walk this
    sequence.
    """
    yield "embed", GROUP_EMBED
    for b in range(cfg.blocks):
        names = MhsaBlock.projection_names(cfg.heads)
        groups = [GROUP_Q, GROUP_K, GROUP_V] * cfg.heads + [GROUP_O]
        for name, group in zip(names, groups, strict=True):
            yield f"blocks.{b}.{name}", group
    yield "head", GROUP_HEAD


def _assemble(cfg: ModelConfig, layers) -> SkeletonModel:
    """Build a model from its linear layers given in ``layer_specs`` order."""
    it = iter(layers)
    embed = next(it)
    blocks = []
    for _ in range(cfg.blocks):
        heads = [AttentionHead(next(it), next(it), next(it))
                 for _ in range(cfg.heads)]
        blocks.append(MhsaBlock(heads, next(it)))
    return SkeletonModel(embed, blocks, next(it), cfg)


def named_layers(model: SkeletonModel):
    """All linear layers as (name, layer, group), in canonical order."""
    layers = [model.embed]
    for block in model.blocks:
        layers += [layer for _, layer in block.named_projections()]
    layers.append(model.head)
    return [(name, layer, group) for (name, group), layer
            in zip(layer_specs(model.config), layers, strict=True)]


def map_layers(model: SkeletonModel, fn) -> SkeletonModel:
    """Rebuild the model with ``fn(name, layer, group)`` replacing each
    linear layer; visits layers in ``named_layers`` order."""
    return _assemble(model.config, [fn(*entry) for entry in named_layers(model)])


def named_params(model: SkeletonModel) -> dict:
    """Live parameter arrays keyed by dotted path, in canonical order."""
    out = {}
    for lname, layer, _ in named_layers(model):
        for pname, arr in layer.params().items():
            out[f"{lname}.{pname}"] = arr
    return out


def packed_copy(model: SkeletonModel):
    """``(copy, flat)``: a copy of ``model`` whose parameters are C-contiguous
    views, in ``named_params`` order, into the one float64 buffer ``flat``."""
    arrays = list(named_params(model).values())
    flat = np.concatenate(arrays, axis=None)
    views = iter(np.split(flat, np.cumsum([a.size for a in arrays[:-1]])))
    return map_layers(model, lambda name, layer, group: layer.copy(
        lambda a: next(views).reshape(a.shape))), flat


def sample_features(coords, cfg: ModelConfig) -> np.ndarray:
    """Flatten a T x J x 3 coordinate array to the T x 3J feature matrix."""
    coords = np.asarray(coords, dtype=np.float64)
    expected = (cfg.frames, cfg.joints, 3)
    if coords.shape != expected:
        raise ValueError(f"coords shape {coords.shape}, expected {expected}")
    if not np.isfinite(coords).all():
        raise ValueError("coords contain non-finite entries")
    return coords.reshape(cfg.frames, cfg.input_width)


def _features(model: SkeletonModel, x):
    """Body of both feature entry points: logits for one sample already
    flattened to T x 3J (1 x classes) or for a B x T x 3J stack of them
    (B x classes), and the model's tape: its ``grad_in`` is the gradient of
    ``x``, its names are ``named_params``. Neither entry point calls the
    other, so a traced call to either records one span."""
    frames = x.shape[-2]
    x, embed_tape = model.embed.forward_tape(x)
    block_tapes = []
    for block in model.blocks:
        out, tape = block.forward_tape(x)
        block_tapes.append(tape)
        x = x + out
    # Pooling keeps a 1-row matrix per sample, so each sample's head product
    # is the same 1-row matmul whatever the batch size; a B x d head input
    # would switch BLAS kernels and change the logits in the last bit.
    pooled = x.mean(axis=-2, keepdims=True)
    logits, head_tape = model.head.forward_tape(pooled)

    def grad(grad_logits):
        grad_pooled, head_grads = backward_list(
            head_tape, grad_logits.reshape(head_tape.out_shape))
        grad_x = np.repeat(grad_pooled / frames, frames, axis=-2)
        parts = [head_grads]
        for tape in reversed(block_tapes):
            grad_block, block_grads = backward_list(tape, grad_x)
            parts.append(block_grads)
            grad_x = grad_x + grad_block
        grad_x, embed_grads = backward_list(embed_tape, grad_x)
        parts.append(embed_grads)
        # Every layer and block lists its gradients in its params() order,
        # so the parts, read from the embedding up, line up with named_params.
        return grad_x, [g for part in reversed(parts) for g in part]

    logits = logits.reshape(-1, model.config.classes)
    return logits, GradTape(grad, logits.shape, partial(named_params, model))


def forward_features(model: SkeletonModel, x) -> np.ndarray:
    """Forward one sample already flattened to T x 3J (returns 1 x classes)
    or a B x T x 3J batch of them (returns B x classes)."""
    return _features(model, x)[0]


def forward_features_tape(model: SkeletonModel, x):
    return _features(model, x)


def forward(model: SkeletonModel, samples) -> np.ndarray:
    """Logits for a batch of skeleton samples.

    Raises ValueError when a logit is not finite, as a diverged model's are.
    """
    feats = [sample_features(s.coords, model.config) for s in samples]
    if not feats:
        raise ValueError("empty batch")
    return _score_features(model, feats)


def _score_features(model: SkeletonModel, feats) -> np.ndarray:
    """Logits for a list of validated T x 3J feature matrices, run through
    the model in stacked chunks of ``_FORWARD_CHUNK`` samples; raises
    ValueError when a logit is not finite."""
    logits = np.vstack([
        forward_features(model, np.stack(feats[i:i + _FORWARD_CHUNK]))
        for i in range(0, len(feats), _FORWARD_CHUNK)
    ])
    if not np.isfinite(logits).all():
        raise ValueError("logits contain non-finite entries")
    return logits


def backward_features(model: SkeletonModel, tape, grad_logits) -> dict:
    """``backward(tape, grad_logits)[1]`` for the model's ``tape``: parameter
    gradients keyed as ``named_params``, summed over a batch. A
    ``grad_logits`` that is not of the logits' shape is a ValueError."""
    return backward(tape, grad_logits)[1]


def cross_entropy(logits, labels):
    """Mean cross-entropy and its logits gradient (softmax minus one-hot,
    divided by the batch size)."""
    logits = as_matrix(logits, "logits")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    batch, classes = logits.shape
    if labels.shape[0] != batch:
        raise ValueError(f"{labels.shape[0]} labels for {batch} logit rows")
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(f"label out of range [0, {classes})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    loss = float(-log_p[np.arange(batch), labels].mean())
    grad = np.exp(log_p)
    grad[np.arange(batch), labels] -= 1.0
    return loss, grad / batch


def count_params(model: SkeletonModel) -> int:
    return sum(layer.param_count() for _, layer, _ in named_layers(model))


def count_flops(model: SkeletonModel, frames: int) -> int:
    """Forward FLOPs for one sample of ``frames`` rows, two per
    multiply-accumulate. Counts the linear layers (the head on its one
    pooled row), the two attention matrix products per head (2*T^2*d_k and
    2*T^2*d_v) and softmax at five ops per element of the T x T weight
    matrix; pooling and residual adds are not counted."""
    total = sum(layer.flops(1 if group == GROUP_HEAD else frames)
                for _, layer, group in named_layers(model))
    for block in model.blocks:
        total += block.n_heads * frames * frames * (2 * block.d_k + 2 * block.d_v + 5)
    return total


# The config tensor's entries: the config fields but the seed, then the
# seed's high and low 32-bit words.
_CONFIG_ENTRIES = ("joints", "frames", "d_model", "heads", "blocks", "classes",
                   "seed_hi", "seed_lo")


def _config_tensor(cfg: ModelConfig) -> np.ndarray:
    fields = [getattr(cfg, name) for name in _CONFIG_ENTRIES[:6]]
    return np.array(fields + [cfg.seed >> 32, cfg.seed & 0xFFFFFFFF],
                    dtype=np.float64)


def _config_from_tensor(arr) -> ModelConfig:
    arr = np.asarray(arr)
    if arr.shape != (8,):
        raise ValueError(f"config tensor must have 8 entries, got {arr.shape}")
    vals = arr.tolist()
    for name, v in zip(_CONFIG_ENTRIES, vals):
        if not (math.isfinite(v) and v >= 0 and v == int(v)):
            raise ValueError(f"config entry {name} must be a non-negative integer, got {v}")
        if name.startswith("seed") and v >= 2 ** 32:
            raise ValueError(f"config entry {name} must be below 2**32, got {v}")
    *fields, hi, lo = map(int, vals)
    return ModelConfig(*fields, seed=(hi << 32) | lo)


def model_to_tensors(model: SkeletonModel) -> dict:
    return {"config": _config_tensor(model.config), **named_params(model)}


def model_from_tensors(tensors: dict) -> SkeletonModel:
    if "config" not in tensors:
        raise ValueError("weights file has no config tensor")
    cfg = _config_from_tensor(tensors["config"])
    # A head holds 3+ tensors: bound the walk over names by the file's size.
    if cfg.blocks * cfg.heads >= len(tensors):
        raise ValueError(f"config asks for {cfg.blocks} blocks of {cfg.heads} "
                         f"heads, more than the file's {len(tensors)} tensors hold")
    consumed = {"config"}

    def rebuild(name):
        # The first linear class whose first factor is present.
        cls = next((c for c in (DenseLinear, LowRankLinear)
                    if f"{name}.{c.FACTORS[0]}" in tensors), None)
        if cls is None:
            raise ValueError(f"no tensors found for layer {name}")
        missing = [f for f in cls.FACTORS if f"{name}.{f}" not in tensors]
        if missing:
            raise ValueError(f"layer {name} has {cls.FACTORS[0]} but no {missing[0]}")
        keys = [f"{name}.{p}" for p in cls.FACTORS + ("bias",)]
        consumed.update(keys)
        try:
            return cls(*(tensors.get(key) for key in keys))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None

    layers = [rebuild(name) for name, _ in layer_specs(cfg)]
    extra = set(tensors) - consumed
    if extra:
        raise ValueError(f"unexpected tensors in weights file: {sorted(extra)}")
    return _assemble(cfg, layers)


def save_model(path, model: SkeletonModel) -> None:
    container.write_weights(path, model_to_tensors(model))


def load_model(path) -> SkeletonModel:
    return model_from_tensors(container.read_weights(path))
