"""Training loop with a warm-up plus step-decay learning-rate schedule.

Plain mini-batch SGD over the cross-entropy loss, on a private copy of the
model whose parameters are views into one flat buffer, in ``named_params``
order. Shuffling is reseeded per epoch from ``seed + epoch``; each
mini-batch runs as one stacked forward and one backward whose gradients sum
over the batch and come back as a list in the buffer's order, then makes
one update of the whole buffer, ``flat -= lr * grad``. Batches update in
that fixed order, so a fixed seed reproduces a run bit for bit.
A step whose logits or loss are not finite stops training with a
:class:`TrainingDiverged` naming the epoch, the batch and the learning rate,
and carrying the history of the epochs that completed before it.
Fine-tuning a compressed model is the same loop: both low-rank factors
train freely. The clips are checked, and top-1 for ``evaluate`` and each
epoch is scored, by ``model.check_clips`` and ``model.top1_scorer``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .container import csv_text
from .layers import backward_list
from .linalg import check_integer, check_number, check_seed
from .model import (SkeletonModel, check_clips, cross_entropy,
                    forward_features_tape, packed_copy, top1_scorer)

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
            check_integer("milestones entry", m)
        object.__setattr__(self, "milestones", tuple(int(m) for m in self.milestones))
        for name in ("base_lr", "decay_factor"):
            check_number(name, getattr(self, name))
        if not self.base_lr >= 0.0:
            raise ValueError("base_lr must be non-negative")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError("decay_factor must be in (0, 1]")
        for name, low in (("epochs", 1), ("batch_size", 1), ("warmup_epochs", 0)):
            check_integer(name, getattr(self, name), low)
        check_seed(self.seed)
        for prev, cur in zip(self.milestones, self.milestones[1:]):
            if cur <= prev:
                raise ValueError("milestones must be strictly increasing")
        if self.milestones and self.milestones[0] < self.warmup_epochs:
            raise ValueError("milestones must not fall inside the warm-up")


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for one epoch: a linear ramp over the warm-up, then
    ``base_lr * decay_factor**(milestones passed)``."""
    check_integer("epoch", epoch)
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
        return csv_text(HISTORY_HEADER, (
            (r.epoch, r.lr, r.train_loss, r.test_top1) for r in self.records))


def evaluate(model: SkeletonModel, samples) -> float:
    """Top-1 accuracy; argmax ties resolve to the lowest class index."""
    return top1_scorer(samples, model.config)(model)


class TrainingDiverged(RuntimeError):
    """A non-finite training step; ``history`` holds the completed epochs."""

    def __init__(self, epoch, index, lr, records):
        super().__init__(
            f"training diverged at epoch {epoch}, batch {index} (lr {lr})")
        self.history = TrainHistory(records=tuple(records))


def train(model: SkeletonModel, train_samples, test_samples,
          cfg: TrainConfig):
    """SGD-train a copy of ``model``; returns (trained model, history)."""
    feats, labels = check_clips(train_samples, model.config, "training set")
    test_top1 = top1_scorer(test_samples, model.config)

    trained, flat = packed_copy(model)
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
                    raise TrainingDiverged(epoch, index, lr, records)
                loss, grad_logits = cross_entropy(logits, labels[batch])
                if not math.isfinite(loss):
                    raise TrainingDiverged(epoch, index, lr, records)
                loss_sum += loss * batch.size
                _, grads = backward_list(tape, grad_logits)
                flat -= lr * np.concatenate(grads, axis=None)
            try:
                top1 = test_top1(trained)
            except ValueError as exc:
                # The test set was validated above, so only non-finite test
                # logits, from the last batch's update, can land here.
                raise TrainingDiverged(epoch, index, lr, records) from exc
        records.append(EpochRecord(
            epoch=epoch,
            lr=lr,
            train_loss=loss_sum / n,
            test_top1=top1,
        ))
    return trained, TrainHistory(records=tuple(records))
