"""A minimal skeleton-sequence classifier for compression experiments.

Per sample: flatten each frame's J joints into a 3J feature row, embed to
d_model, run a stack of multi-head self-attention blocks with residual
connections, mean-pool over time, and classify with a linear head. Small by
design; the point is the compression pass, not the architecture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container
from .layers import (
    AttentionHead,
    DenseLinear,
    LowRankLinear,
    MhsaBlock,
    backward,
)
from .linalg import as_matrix

# Layer group tags used by compression plans.
GROUP_EMBED = "EMBED"
GROUP_Q = "Q"
GROUP_K = "K"
GROUP_V = "V"
GROUP_O = "O"
GROUP_HEAD = "HEAD"

_MAX_SEED = 2 ** 64


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
        return SkeletonModel(
            self.embed.copy(),
            [b.copy() for b in self.blocks],
            self.head.copy(),
            self.config,
        )


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

    The one place the dotted layer names of weights files and parameter keys
    are spelled out; building, loading, listing and rebuilding a model all
    walk this sequence.
    """
    yield "embed", GROUP_EMBED
    for b in range(cfg.blocks):
        for h in range(cfg.heads):
            yield f"blocks.{b}.heads.{h}.wq", GROUP_Q
            yield f"blocks.{b}.heads.{h}.wk", GROUP_K
            yield f"blocks.{b}.heads.{h}.wv", GROUP_V
        yield f"blocks.{b}.wo", GROUP_O
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


def sample_features(coords, cfg: ModelConfig) -> np.ndarray:
    """Flatten a T x J x 3 coordinate array to the T x 3J feature matrix."""
    coords = np.asarray(coords, dtype=np.float64)
    expected = (cfg.frames, cfg.joints, 3)
    if coords.shape != expected:
        raise ValueError(f"coords shape {coords.shape}, expected {expected}")
    if not np.isfinite(coords).all():
        raise ValueError("coords contain non-finite entries")
    return coords.reshape(cfg.frames, cfg.input_width)


def _coords_of(sample):
    return getattr(sample, "coords", sample)


def _features(model: SkeletonModel, x):
    """Body of both feature entry points: logits for one sample already
    flattened to T x 3J, plus the tapes ``backward_features`` consumes.
    Neither entry point calls the other, so a traced call to either records
    one span."""
    frames = x.shape[0]
    x, embed_tape = model.embed.forward_tape(x)
    block_tapes = []
    for block in model.blocks:
        out, tape = block.forward_tape(x)
        block_tapes.append(tape)
        x = x + out
    pooled = x.mean(axis=0, keepdims=True)
    logits, head_tape = model.head.forward_tape(pooled)
    return logits, {
        "embed": embed_tape,
        "blocks": block_tapes,
        "head": head_tape,
        "frames": frames,
    }


def forward_features(model: SkeletonModel, x) -> np.ndarray:
    """Forward one sample already flattened to T x 3J; returns 1 x classes."""
    return _features(model, x)[0]


def forward_features_tape(model: SkeletonModel, x):
    return _features(model, x)


def forward(model: SkeletonModel, samples) -> np.ndarray:
    """Logits for a batch of skeleton samples (or raw T x J x 3 arrays).

    Raises ValueError when a logit is not finite, as a diverged model's are.
    """
    rows = [
        forward_features(model, sample_features(_coords_of(s), model.config))
        for s in samples
    ]
    if not rows:
        raise ValueError("empty batch")
    logits = np.vstack(rows)
    if not np.isfinite(logits).all():
        raise ValueError("logits contain non-finite entries")
    return logits


def backward_features(model: SkeletonModel, tape, grad_logits) -> dict:
    """Parameter gradients for one sample; keys match ``named_params``."""
    grad_pooled, head_grads = backward(tape["head"], grad_logits)
    grad_x = np.repeat(grad_pooled / tape["frames"], tape["frames"], axis=0)
    parts = [head_grads]
    for block_tape in reversed(tape["blocks"]):
        grad_block, block_grads = backward(block_tape, grad_x)
        parts.append(block_grads)
        grad_x = grad_x + grad_block
    parts.append(backward(tape["embed"], grad_x)[1])
    # Every layer and block lists its gradients in its params() order, so
    # the parts, read from the embedding up, line up with named_params.
    grads = [g for part in reversed(parts) for g in part.values()]
    return dict(zip(named_params(model), grads, strict=True))


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
    multiply-accumulate. Counts the linear layers, the two attention matrix
    products per head (2*T^2*d_k and 2*T^2*d_v) and softmax at five ops per
    element of the T x T weight matrix; pooling and residual adds are not
    counted."""
    total = model.embed.flops(frames)
    for block in model.blocks:
        for head in block.heads:
            total += head.wq.flops(frames)
            total += head.wk.flops(frames)
            total += head.wv.flops(frames)
            total += 2 * frames * frames * head.wq.c_out
            total += 2 * frames * frames * head.wv.c_out
            total += 5 * frames * frames
        total += block.wo.flops(frames)
    total += model.head.flops(1)
    return total


def _config_tensor(cfg: ModelConfig) -> np.ndarray:
    return np.array(
        [
            cfg.joints, cfg.frames, cfg.d_model, cfg.heads, cfg.blocks,
            cfg.classes, cfg.seed >> 32, cfg.seed & 0xFFFFFFFF,
        ],
        dtype=np.float64,
    )


def _config_from_tensor(arr) -> ModelConfig:
    arr = np.asarray(arr)
    if arr.shape != (8,):
        raise ValueError(f"config tensor must have 8 entries, got {arr.shape}")
    vals = [int(v) for v in arr]
    return ModelConfig(
        joints=vals[0], frames=vals[1], d_model=vals[2], heads=vals[3],
        blocks=vals[4], classes=vals[5], seed=(vals[6] << 32) | vals[7],
    )


def model_to_tensors(model: SkeletonModel) -> dict:
    return {"config": _config_tensor(model.config), **named_params(model)}


def model_from_tensors(tensors: dict) -> SkeletonModel:
    if "config" not in tensors:
        raise ValueError("weights file has no config tensor")
    cfg = _config_from_tensor(tensors["config"])
    consumed = {"config"}

    def rebuild(name):
        if f"{name}.weight" in tensors:
            keys = [f"{name}.weight"]
            weight = tensors[keys[0]]
            bias = tensors.get(f"{name}.bias")
            layer = DenseLinear(weight, bias)
        elif f"{name}.w1" in tensors:
            keys = [f"{name}.w1", f"{name}.w2"]
            if keys[1] not in tensors:
                raise ValueError(f"layer {name} has w1 but no w2")
            bias = tensors.get(f"{name}.bias")
            layer = LowRankLinear(tensors[keys[0]], tensors[keys[1]], bias)
        else:
            raise ValueError(f"no tensors found for layer {name}")
        consumed.update(keys)
        if bias is not None:
            consumed.add(f"{name}.bias")
        return layer

    layers = [rebuild(name) for name, _ in layer_specs(cfg)]
    extra = set(tensors) - consumed
    if extra:
        raise ValueError(f"unexpected tensors in weights file: {sorted(extra)}")
    return _assemble(cfg, layers)


def save_model(path, model: SkeletonModel) -> None:
    container.write_weights(path, model_to_tensors(model))


def load_model(path) -> SkeletonModel:
    return model_from_tensors(container.read_weights(path))
