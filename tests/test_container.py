import struct

import numpy as np
import pytest

from lrskel.container import (
    BadMagicError,
    ContainerError,
    CorruptContainerError,
    UnsupportedVersionError,
    read_samples,
    read_weights,
    write_samples,
    write_weights,
)
from lrskel.data import SkeletonSample


def test_weights_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.weight": rng.normal(size=(4, 7)),
        "a.bias": rng.normal(size=7),
        "config": np.array([1.0, 2.0, 3.0]),
    }
    path = tmp_path / "w.lrts"
    write_weights(path, tensors)
    loaded = read_weights(path)
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert loaded[name].shape == tensors[name].shape
        assert np.array_equal(loaded[name], tensors[name])


def test_weights_write_is_deterministic(tmp_path):
    tensors = {"x": np.linspace(0, 1, 12).reshape(3, 4)}
    p1, p2 = tmp_path / "a", tmp_path / "b"
    write_weights(p1, tensors)
    write_weights(p2, tensors)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_weights_write_rejects_nonfinite_and_leaves_no_file(tmp_path, bad):
    tensors = {"ok": np.ones(3), "w": np.array([[0.0, bad]])}
    path = tmp_path / "w.lrts"
    with pytest.raises(ValueError, match="'w'"):
        write_weights(path, tensors)
    assert not path.exists()


def test_weights_bad_magic(tmp_path):
    path = tmp_path / "w.lrts"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagicError):
        read_weights(path)


def test_weights_version_mismatch(tmp_path):
    path = tmp_path / "w.lrts"
    path.write_bytes(b"LRTS" + struct.pack("<I", 99) + struct.pack("<I", 0))
    with pytest.raises(UnsupportedVersionError):
        read_weights(path)


def test_weights_truncated(tmp_path):
    good = tmp_path / "good.lrts"
    write_weights(good, {"t": np.ones((5, 5))})
    blob = good.read_bytes()
    bad = tmp_path / "bad.lrts"
    bad.write_bytes(blob[: len(blob) - 11])
    with pytest.raises(CorruptContainerError):
        read_weights(bad)


def test_weights_trailing_garbage(tmp_path):
    good = tmp_path / "good.lrts"
    write_weights(good, {"t": np.ones(3)})
    bad = tmp_path / "bad.lrts"
    bad.write_bytes(good.read_bytes() + b"junk")
    with pytest.raises(CorruptContainerError):
        read_weights(bad)


def test_weights_duplicate_names(tmp_path):
    blob = bytearray()
    blob += b"LRTS" + struct.pack("<I", 1) + struct.pack("<I", 2)
    for _ in range(2):
        blob += struct.pack("<H", 1) + b"x"
        blob += struct.pack("<B", 1) + struct.pack("<I", 1)
        blob += struct.pack("<d", 0.0)
    path = tmp_path / "dup.lrts"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptContainerError):
        read_weights(path)


def test_error_hierarchy():
    for exc in (BadMagicError, UnsupportedVersionError, CorruptContainerError):
        assert issubclass(exc, ContainerError)
        assert exc is not ContainerError


def test_samples_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    samples = [
        SkeletonSample(coords=rng.normal(size=(4, 3, 3)), label=i % 2)
        for i in range(5)
    ]
    path = tmp_path / "d.lrsk"
    write_samples(path, samples)
    loaded = read_samples(path)
    assert len(loaded) == 5
    for (label, coords), orig in zip(loaded, samples):
        assert label == orig.label
        assert np.array_equal(coords, orig.coords)


def test_samples_empty_list(tmp_path):
    path = tmp_path / "empty.lrsk"
    write_samples(path, [])
    assert read_samples(path) == []


def test_samples_truncated(tmp_path):
    path = tmp_path / "d.lrsk"
    write_samples(path, [SkeletonSample(coords=np.zeros((2, 2, 3)), label=0)])
    blob = path.read_bytes()
    bad = tmp_path / "bad.lrsk"
    bad.write_bytes(blob[:-5])
    with pytest.raises(CorruptContainerError):
        read_samples(bad)


def test_samples_reject_weights_magic(tmp_path):
    path = tmp_path / "w.lrts"
    write_weights(path, {"t": np.ones(2)})
    with pytest.raises(BadMagicError):
        read_samples(path)
