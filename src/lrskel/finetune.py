"""Training loop with a warm-up plus step-decay learning-rate schedule.

Plain mini-batch SGD over the cross-entropy loss. Shuffling is reseeded per
epoch from ``seed + epoch``; each mini-batch runs as one stacked forward and
one backward whose gradients sum over the batch, and batches update the
weights in that fixed order, so a fixed seed reproduces a run bit for bit.
A step whose logits or loss are not finite stops training with a
RuntimeError naming the epoch, the batch and the learning rate.
Fine-tuning a compressed model is the same loop: both low-rank factors
train freely.
"""

from __future__ import annotations

import io
import csv
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import (
    SkeletonModel,
    _score_features,
    backward_features,
    cross_entropy,
    forward,
    forward_features_tape,
    named_params,
    sample_features,
)

HISTORY_HEADER = "epoch,lr,train_loss,test_top1"


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float
    epochs: int
    batch_size: int = 32
    decay_factor: float = 0.1
    milestones: tuple = ()
    warmup_epochs: int = 0
    seed: int = 0

    def __post_init__(self):
        for m in self.milestones:
            if isinstance(m, bool) or not (isinstance(m, numbers.Integral) or (
                    isinstance(m, numbers.Real) and float(m).is_integer())):
                raise ValueError(f"milestones entry {m!r} is not an integer")
        object.__setattr__(self, "milestones", tuple(int(m) for m in self.milestones))
        if not self.base_lr >= 0.0:
            raise ValueError("base_lr must be non-negative")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError("decay_factor must be in (0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for prev, cur in zip(self.milestones, self.milestones[1:]):
            if cur <= prev:
                raise ValueError("milestones must be strictly increasing")
        if self.milestones and self.milestones[0] < self.warmup_epochs:
            raise ValueError("milestones must not fall inside the warm-up")


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for one epoch: a linear ramp over the warm-up, then
    ``base_lr * decay_factor**(milestones passed)``."""
    if not 0 <= epoch < cfg.epochs:
        raise ValueError(f"epoch {epoch} out of range [0, {cfg.epochs})")
    if epoch < cfg.warmup_epochs:
        return cfg.base_lr * (epoch + 1) / cfg.warmup_epochs
    return cfg.base_lr * cfg.decay_factor ** bisect_right(cfg.milestones, epoch)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    test_top1: float


@dataclass(frozen=True)
class TrainHistory:
    records: tuple

    @property
    def best_epoch(self) -> int:
        best = max(range(len(self.records)),
                   key=lambda i: self.records[i].test_top1)
        return self.records[best].epoch

    @property
    def best_top1(self) -> float:
        return max(r.test_top1 for r in self.records)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(HISTORY_HEADER.split(","))
        for r in self.records:
            writer.writerow([r.epoch, repr(r.lr), repr(r.train_loss),
                             repr(r.test_top1)])
        return buf.getvalue()


def evaluate(model: SkeletonModel, samples) -> float:
    """Top-1 accuracy; argmax ties resolve to the lowest class index."""
    if not samples:
        raise ValueError("empty evaluation set")
    return _top1(forward(model, samples), np.array([s.label for s in samples]))


def _top1(logits, labels) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def _diverged(epoch, index, lr) -> RuntimeError:
    return RuntimeError(
        f"training diverged at epoch {epoch}, batch {index} (lr {lr})")


def train(model: SkeletonModel, train_samples, test_samples,
          cfg: TrainConfig):
    """SGD-train a copy of ``model``; returns (trained model, history)."""
    if not train_samples or not test_samples:
        raise ValueError("datasets must be non-empty")
    mcfg = model.config
    feats = [sample_features(s.coords, mcfg) for s in train_samples]
    labels = np.array([s.label for s in train_samples], dtype=np.int64)
    if labels.min() < 0 or labels.max() >= mcfg.classes:
        raise ValueError(f"label out of range [0, {mcfg.classes})")
    # Validated once; every epoch scores these views of the clips, stacking
    # one chunk at a time as ``forward`` does (a full stack would only add
    # the test set's size to peak memory).
    test_feats = [sample_features(s.coords, mcfg) for s in test_samples]
    test_labels = np.array([s.label for s in test_samples])

    trained = model.copy()
    params = named_params(trained)
    n = len(feats)
    records = []
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(cfg, epoch)
        order = np.random.default_rng(cfg.seed + epoch).permutation(n)
        loss_sum = 0.0
        # Overflow ends the run below, as non-finite logits or loss, with
        # the epoch, batch and lr named; numpy's warnings would only add
        # noise to that diagnosis.
        with np.errstate(over="ignore", invalid="ignore"):
            for index, start in enumerate(range(0, n, cfg.batch_size)):
                batch = order[start:start + cfg.batch_size]
                logits, tape = forward_features_tape(
                    trained, np.stack([feats[i] for i in batch]))
                if not np.isfinite(logits).all():
                    raise _diverged(epoch, index, lr)
                loss, grad_logits = cross_entropy(logits, labels[batch])
                if not math.isfinite(loss):
                    raise _diverged(epoch, index, lr)
                loss_sum += loss * batch.size
                grads = backward_features(trained, tape, grad_logits)
                for name, value in params.items():
                    value -= lr * grads[name]
            try:
                top1 = _top1(_score_features(trained, test_feats), test_labels)
            except ValueError as exc:
                # The test set was validated above, so only non-finite test
                # logits, from the last batch's update, can land here.
                raise _diverged(epoch, index, lr) from exc
        records.append(EpochRecord(
            epoch=epoch,
            lr=lr,
            train_loss=loss_sum / n,
            test_top1=top1,
        ))
    return trained, TrainHistory(records=tuple(records))
