import dataclasses
import re

import numpy as np
import pytest

from lrskel.container import CorruptContainerError
from lrskel.data import (
    TEST_STREAM_XOR,
    DatasetSpec,
    SkeletonSample,
    class_frequency,
    generate_dataset,
    load_dataset,
    save_dataset,
)

SMALL = DatasetSpec(classes=4, train_per_class=6, test_per_class=4,
                    frames=16, joints=3, noise_sigma=0.05, seed=11)


def test_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(classes=0)
    for noise in (-0.1, np.nan, np.inf, 10 ** 400):
        with pytest.raises(ValueError, match="noise_sigma"):
            DatasetSpec(noise_sigma=noise)
    with pytest.raises(ValueError):
        DatasetSpec(seed=-1)


@pytest.mark.parametrize("name, value", [
    ("classes", 2.5), ("train_per_class", 3.0), ("test_per_class", "2"),
    ("frames", True), ("joints", None), ("seed", 1.5),
])
def test_spec_counts_must_be_integers(name, value):
    # frames=True used to make 1-frame clips; classes=2.5 a raw TypeError.
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        DatasetSpec(**{name: value})


def test_noise_must_not_be_a_bool():
    # noise_sigma=True used to build with noise 1.0; "0.1" and None were a
    # raw TypeError from a comparison.
    for noise in (True, "0.1", None):
        with pytest.raises(ValueError, match=re.escape(f"noise_sigma must be a number, got {noise!r}")):
            DatasetSpec(noise_sigma=noise)


def test_counts_and_balance():
    spec = DatasetSpec(classes=2, train_per_class=10, test_per_class=10,
                       frames=8, joints=2, seed=0)
    train, test = generate_dataset(spec)
    assert len(train) == 20
    assert len(test) == 20
    for split in (train, test):
        labels = [s.label for s in split]
        assert labels.count(0) == 10
        assert labels.count(1) == 10
    assert train[0].coords.shape == (8, 2, 3)


def test_generation_deterministic():
    a_train, a_test = generate_dataset(SMALL)
    b_train, b_test = generate_dataset(SMALL)
    for sa, sb in zip(a_train + a_test, b_train + b_test):
        assert sa.label == sb.label
        assert np.array_equal(sa.coords, sb.coords)


def test_clip_noise_is_one_draw_per_clip_in_order():
    # The per-clip reference: class tables first from the train stream, then
    # one normal draw per clip, class by class, from each split's stream.
    spec = SMALL
    shape = (spec.frames, spec.joints, 3)
    train_rng = np.random.default_rng(spec.seed)
    amps = train_rng.uniform(0.5, 1.5, size=(spec.classes,) + shape[1:])
    phases = train_rng.uniform(0.0, 2.0 * np.pi, size=(spec.classes,) + shape[1:])
    test_rng = np.random.default_rng(spec.seed ^ TEST_STREAM_XOR)
    t = np.arange(spec.frames, dtype=np.float64)[:, None, None]
    train, test = generate_dataset(spec)
    for split, rng, per_class in ((train, train_rng, spec.train_per_class),
                                  (test, test_rng, spec.test_per_class)):
        expected = []
        for label in range(spec.classes):
            angle = (2.0 * np.pi * class_frequency(label) * t / spec.frames
                     + phases[label][None, :, :])
            base = amps[label][None, :, :] * np.sin(angle)
            for _ in range(per_class):
                noise = rng.normal(0.0, spec.noise_sigma, size=shape)
                expected.append((label, (base + noise).tobytes()))
        assert [(s.label, s.coords.tobytes()) for s in split] == expected


def test_test_stream_seed_is_the_documented_constant():
    # Re-implementations agree on the test split only if they XOR the seed
    # with this value; the noiseless split is the bare class motion.
    spec = SMALL
    noiseless = dataclasses.replace(spec, noise_sigma=0.0)
    first = generate_dataset(spec)[1][0].coords
    base = generate_dataset(noiseless)[1][0].coords
    rng = np.random.default_rng(spec.seed ^ 0x9E3779B97F4A7C15)
    noise = rng.normal(0.0, spec.noise_sigma, size=first.shape)
    assert np.allclose(first - base, noise, rtol=0.0, atol=1e-12)


def test_noiseless_dominant_frequency_matches_class():
    # With the jitter off, every joint trace is a pure sinusoid whose DFT
    # peak sits exactly at the class frequency.
    spec = DatasetSpec(classes=8, train_per_class=2, test_per_class=1,
                       frames=16, joints=4, noise_sigma=0.0, seed=3)
    train, test = generate_dataset(spec)
    for sample in train + test:
        expected = class_frequency(sample.label)
        for j in range(spec.joints):
            for axis in range(3):
                mags = np.abs(np.fft.rfft(sample.coords[:, j, axis]))
                assert int(np.argmax(mags)) == expected


def test_noiseless_samples_identical_within_class():
    spec = DatasetSpec(classes=2, train_per_class=3, test_per_class=2,
                       frames=8, joints=2, noise_sigma=0.0, seed=4)
    train, test = generate_dataset(spec)
    by_label = {}
    for s in train + test:
        by_label.setdefault(s.label, []).append(s.coords)
    for coords_list in by_label.values():
        for c in coords_list[1:]:
            assert np.array_equal(coords_list[0], c)


def test_train_test_streams_independent():
    train, test = generate_dataset(SMALL)
    for tr in train:
        for te in test:
            assert not np.array_equal(tr.coords, te.coords)


def test_dft_centroid_classifier_reaches_full_accuracy():
    # Nearest-centroid on per-trace DFT magnitudes is an analytic oracle
    # showing the task is learnable at the default difficulty.
    spec = DatasetSpec(classes=8, train_per_class=20, test_per_class=10,
                       frames=16, joints=8, noise_sigma=0.1, seed=21)
    train, test = generate_dataset(spec)

    def features(sample):
        return np.abs(np.fft.rfft(sample.coords, axis=0)).reshape(-1)

    centroids = np.zeros((spec.classes, features(train[0]).size))
    counts = np.zeros(spec.classes)
    for s in train:
        centroids[s.label] += features(s)
        counts[s.label] += 1
    centroids /= counts[:, None]
    correct = 0
    for s in test:
        dists = np.linalg.norm(centroids - features(s), axis=1)
        correct += int(np.argmin(dists)) == s.label
    assert correct == len(test)


def test_round_trip(tmp_path):
    train, test = generate_dataset(SMALL)
    path = tmp_path / "train.lrsk"
    save_dataset(path, train)
    loaded = load_dataset(path)
    assert len(loaded) == len(train)
    for a, b in zip(loaded, train):
        assert a.label == b.label
        assert np.array_equal(a.coords, b.coords)


def test_identical_spec_identical_bytes(tmp_path):
    p1, p2 = tmp_path / "a.lrsk", tmp_path / "b.lrsk"
    train1, _ = generate_dataset(SMALL)
    train2, _ = generate_dataset(SMALL)
    save_dataset(p1, train1)
    save_dataset(p2, train2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_is_reported_corrupt(tmp_path):
    train, _ = generate_dataset(SMALL)
    path = tmp_path / "train.lrsk"
    save_dataset(path, train)
    bad = tmp_path / "bad.lrsk"
    bad.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(CorruptContainerError):
        load_dataset(bad)


def test_empty_dataset_round_trip(tmp_path):
    path = tmp_path / "empty.lrsk"
    save_dataset(path, [])
    assert load_dataset(path) == []


def test_different_seeds_differ():
    import dataclasses
    a_train, _ = generate_dataset(SMALL)
    b_train, _ = generate_dataset(dataclasses.replace(SMALL, seed=12))
    assert not np.array_equal(a_train[0].coords, b_train[0].coords)
