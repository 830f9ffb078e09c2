import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrskel.container import (
    BadMagicError,
    ContainerError,
    CorruptContainerError,
    UnsupportedVersionError,
    read_samples,
    read_weights,
    write_all,
    write_samples,
    write_weights,
)
from lrskel.data import SkeletonSample
from lrskel.model import ModelConfig, build_model, load_model, model_to_tensors, save_model


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


@pytest.mark.parametrize("name", ["x" * 0x10000, "\u00e9" * 0x8000],
                         ids=["ascii", "two-byte-utf8"])
def test_weights_write_rejects_a_name_too_long_and_leaves_no_file(tmp_path, name):
    path = tmp_path / "w.lrts"
    with pytest.raises(ValueError, match="tensor name too long"):
        write_weights(path, {"ok": np.ones(1), name: np.ones(1)})
    assert not path.exists()
    write_weights(path, {"x" * 0xFFFF: np.ones(1)})
    assert list(read_weights(path)) == ["x" * 0xFFFF]


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


@pytest.mark.parametrize("dims", [(0,) + (2 ** 32 - 1,) * 3, (1,) * 65],
                         ids=["zero-size-too-big", "more-dims-than-numpy"])
def test_weights_dims_numpy_cannot_hold(tmp_path, dims):
    size = 0 if 0 in dims else 1
    blob = (b"LRTS" + struct.pack("<IIH", 1, 1, 1) + b"t"
            + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + bytes(8 * size))
    path = tmp_path / "dims.lrts"
    path.write_bytes(blob)
    with pytest.raises(CorruptContainerError, match="bad dims"):
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_samples_write_rejects_nonfinite_and_leaves_no_file(tmp_path, bad):
    coords = np.zeros((4, 3, 3))
    coords[2, 1, 0] = bad
    samples = [SkeletonSample(coords=np.ones((4, 3, 3)), label=0),
               SkeletonSample(coords=coords, label=1)]
    path = tmp_path / "d.lrsk"
    with pytest.raises(ValueError, match="non-finite"):
        write_samples(path, samples)
    assert not path.exists()


@pytest.mark.parametrize("coords, label, message", [
    (np.zeros((4, 3, 2)), 0, "coords must be T x J x 3, got (4, 3, 2)"),
    (np.zeros((4, 9)), 0, "coords must be T x J x 3, got (4, 9)"),
    (np.zeros((4, 3, 3)), 2 ** 32, f"label {2 ** 32} out of u32 range"),
    (np.zeros((4, 3, 3)), -1, "label -1 out of u32 range"),
])
def test_samples_write_rejects_bad_sample_and_leaves_no_file(tmp_path, coords, label,
                                                             message):
    samples = [SkeletonSample(coords=np.ones((4, 3, 3)), label=0),
               SkeletonSample(coords=coords, label=label)]
    path = tmp_path / "d.lrsk"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_samples(path, samples)
    assert not path.exists()


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


class _FailingFile:
    """File wrapper whose write stores half the payload, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(bytes(data[:len(data) // 2]))
        raise OSError("disk full")


@pytest.mark.parametrize("kind", ["weights", "samples", "bytes"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, kind):
    import lrskel.container as container

    path = tmp_path / "target"
    writers = {
        "weights": lambda: write_weights(path, {"x": np.arange(6.0)}),
        "samples": lambda: write_samples(
            path, [SkeletonSample(coords=np.ones((2, 3, 3)), label=1)]),
        "bytes": lambda: write_all([(path, b"new contents")]),
    }
    path.write_bytes(b"previous contents")
    monkeypatch.setattr(container, "open",
                        lambda *a, **k: _FailingFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        writers[kind]()
    monkeypatch.undo()
    assert path.read_bytes() == b"previous contents"
    assert [p.name for p in tmp_path.iterdir()] == ["target"]
    writers[kind]()
    assert path.read_bytes() != b"previous contents"
    assert [p.name for p in tmp_path.iterdir()] == ["target"]


@pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()],
                         ids=["oserror", "interrupt"])
def test_write_all_replaces_nothing_when_a_later_write_fails(tmp_path, monkeypatch,
                                                             error):
    import lrskel.container as container

    first, second = tmp_path / "first", tmp_path / "second"
    first.write_bytes(b"old first")
    second.write_bytes(b"old second")
    opened = []

    def open_second_fails(*a, **k):
        fh = open(*a, **k)
        opened.append(a[0])
        if len(opened) == 2:
            fh.write(b"half")
            fh.close()
            raise error
        return fh

    monkeypatch.setattr(container, "open", open_second_fails, raising=False)
    with pytest.raises(type(error)):
        write_all([(first, b"new first"), (second, b"new second")])
    monkeypatch.undo()
    assert opened == [f"{first}.{os.getpid()}.tmp", f"{second}.{os.getpid()}.tmp"]
    assert first.read_bytes() == b"old first"
    assert second.read_bytes() == b"old second"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first", "second"]
    write_all([(first, b"new first"), (second, b"new second")])
    assert (first.read_bytes(), second.read_bytes()) == (b"new first", b"new second")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first", "second"]


def test_write_all_makes_the_missing_folders(tmp_path):
    write_all([(tmp_path / "a" / "b" / "x", b"x")])
    assert (tmp_path / "a" / "b" / "x").read_bytes() == b"x"
    assert [p.name for p in (tmp_path / "a" / "b").iterdir()] == ["x"]


@pytest.mark.parametrize("existing", [[], ["a"]], ids=["fresh", "empty-a-exists"])
def test_failed_write_removes_only_the_folders_it_made(tmp_path, monkeypatch,
                                                       existing):
    import lrskel.container as container

    for name in existing:
        (tmp_path / name).mkdir()
    opened = []

    def open_second_fails(*a, **k):
        opened.append(a[0])
        if len(opened) == 2:
            raise OSError("disk full")
        return open(*a, **k)

    monkeypatch.setattr(container, "open", open_second_fails, raising=False)
    folder = tmp_path / "a" / "b"
    with pytest.raises(OSError, match="disk full"):
        write_all([(folder / "x", b"x"), (folder / "y", b"y")])
    assert len(opened) == 2
    assert sorted(p.name for p in tmp_path.rglob("*")) == existing


def test_save_model_into_a_fresh_folder(tmp_path):
    model = build_model(ModelConfig(joints=2, frames=3, d_model=4, heads=2,
                                    blocks=1, classes=2, seed=0))
    path = tmp_path / "new" / "sub" / "m.lrts"
    save_model(path, model)
    loaded = model_to_tensors(load_model(path))
    assert loaded.keys() == model_to_tensors(model).keys()
    assert all(np.array_equal(loaded[k], v) for k, v in model_to_tensors(model).items())


@pytest.mark.parametrize("error", [OSError("busy"), KeyboardInterrupt()],
                         ids=["oserror", "interrupt"])
def test_failed_rename_puts_back_every_replaced_output(tmp_path, monkeypatch, error):
    # The first output is replaced, the second is new, the third's rename fails.
    paths = [tmp_path / name for name in ("first", "second", "third")]
    paths[0].write_bytes(b"old first")
    paths[2].write_bytes(b"old third")
    renamed, real = [], os.replace

    def third_rename_fails(src, dst):
        renamed.append(os.fspath(dst))
        if len(renamed) == 3:
            raise error
        real(src, dst)

    monkeypatch.setattr(os, "replace", third_rename_fails)
    with pytest.raises(type(error)):
        write_all([(path, b"new") for path in paths])
    monkeypatch.undo()
    assert renamed == [*map(str, paths), str(paths[0])]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first", "third"]
    assert (paths[0].read_bytes(), paths[2].read_bytes()) == (b"old first", b"old third")


def test_a_backup_that_cannot_be_put_back_is_kept(tmp_path, monkeypatch):
    first, second = tmp_path / "first", tmp_path / "second"
    first.write_bytes(b"old first")
    second.write_bytes(b"old second")
    real = os.replace

    def first_rename_only(src, dst):
        if dst != str(first) or not src.endswith(".tmp"):
            raise OSError("busy")
        real(src, dst)

    monkeypatch.setattr(os, "replace", first_rename_only)
    with pytest.raises(OSError, match="busy"):
        write_all([(first, b"new first"), (second, b"new second")])
    backup = f"first.{os.getpid()}.bak"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first", backup, "second"]
    assert (tmp_path / backup).read_bytes() == b"old first"
    assert second.read_bytes() == b"old second"


def test_write_all_goes_ahead_where_hard_links_are_refused(tmp_path, monkeypatch):
    first, second = tmp_path / "first", tmp_path / "second"
    first.write_bytes(b"old first")
    second.write_bytes(b"old second")

    def refused(src, dst):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(os, "link", refused)
    write_all([(first, b"new first"), (second, b"new second")])
    assert (first.read_bytes(), second.read_bytes()) == (b"new first", b"new second")
    # Without a backup, a failed later rename cannot put the first back.
    renamed, real = [], os.replace

    def second_rename_fails(src, dst):
        renamed.append(dst)
        if len(renamed) == 2:
            raise OSError("busy")
        real(src, dst)

    monkeypatch.setattr(os, "replace", second_rename_fails)
    with pytest.raises(OSError, match="busy"):
        write_all([(first, b"newer first"), (second, b"newer second")])
    assert (first.read_bytes(), second.read_bytes()) == (b"newer first", b"new second")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first", "second"]


# Fuzzing the readers: every truncation, byte flip or inflated header field
# of a valid file must be read or rejected with ContainerError, never with
# another exception (nor by allocating what a corrupt count asks for).
FUZZ_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None,
                         database=None)
FUZZ_TENSORS = {
    "blocks.0.heads.0.wq.weight": np.arange(12.0).reshape(3, 4),
    "zeros": np.zeros((40, 8)),
    "blocks.0.heads.0.wq.bias": np.array([0.5, -1.0, 2.0, 3.0]),
    "empty": np.zeros((0, 3)),
    "config": np.array([7.0, 8.0]),
}
FUZZ_SAMPLES = [SkeletonSample(coords=np.full((2, 3, 3), float(i)), label=i)
                for i in range(3)]


def _weights_fields():
    """(offset, width, value) of every integer header field of the
    FUZZ_TENSORS file: tensor count, then per tensor name length, ndims
    and dims."""
    fields, pos = [(8, 4, len(FUZZ_TENSORS))], 12
    for name, arr in FUZZ_TENSORS.items():
        fields.append((pos, 2, len(name.encode())))
        pos += 2 + len(name.encode())
        fields.append((pos, 1, arr.ndim))
        pos += 1
        fields += [(pos + 4 * i, 4, d) for i, d in enumerate(arr.shape)]
        pos += 4 * arr.ndim + 8 * arr.size
    return fields


def _samples_fields():
    """(offset, width, value) of the sample count and of every label,
    frames and joints field of the FUZZ_SAMPLES file."""
    fields, pos = [(8, 4, len(FUZZ_SAMPLES))], 12
    for s in FUZZ_SAMPLES:
        fields += [(pos, 4, s.label), (pos + 4, 4, s.coords.shape[0]),
                   (pos + 8, 4, s.coords.shape[1])]
        pos += 12 + 8 * s.coords.size
    return fields


FUZZ_KINDS = {
    "weights": (lambda path: write_weights(path, FUZZ_TENSORS), read_weights,
                _weights_fields()),
    "samples": (lambda path: write_samples(path, FUZZ_SAMPLES), read_samples,
                _samples_fields()),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    blobs = {}
    for kind, (write, read, fields) in FUZZ_KINDS.items():
        path = root / kind
        write(path)
        blob = blobs[kind] = path.read_bytes()
        read(path)
        assert all(int.from_bytes(blob[o:o + w], "little") == v
                   for o, w, v in fields)
    return root, blobs


def _read_or_container_error(root, kind, blob):
    path = root / f"{kind}.fuzzed"
    path.write_bytes(bytes(blob))
    try:
        FUZZ_KINDS[kind][1](path)
    except ContainerError:
        pass


@FUZZ_SETTINGS
@given(kind=st.sampled_from(sorted(FUZZ_KINDS)), cut=st.integers(0, 10**6))
def test_fuzz_truncation_raises_container_error(valid_files, kind, cut):
    root, blobs = valid_files
    path = root / f"{kind}.cut"
    path.write_bytes(blobs[kind][:cut % len(blobs[kind])])
    with pytest.raises(ContainerError):
        FUZZ_KINDS[kind][1](path)


@FUZZ_SETTINGS
@given(kind=st.sampled_from(sorted(FUZZ_KINDS)),
       flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                      min_size=1, max_size=4))
def test_fuzz_byte_flips_read_or_raise_container_error(valid_files, kind, flips):
    root, blobs = valid_files
    blob = bytearray(blobs[kind])
    for pos, mask in flips:
        blob[pos % len(blob)] ^= mask
    _read_or_container_error(root, kind, blob)


@FUZZ_SETTINGS
@given(kind=st.sampled_from(sorted(FUZZ_KINDS)), data=st.data())
def test_fuzz_inflated_header_fields_read_or_raise_container_error(
        valid_files, kind, data):
    root, blobs = valid_files
    fields = FUZZ_KINDS[kind][2]
    blob = bytearray(blobs[kind])
    for offset, width, _ in data.draw(st.lists(st.sampled_from(fields),
                                               min_size=1, max_size=3)):
        value = data.draw(st.integers(0, 256 ** width - 1)
                          | st.just(256 ** width - 1))
        blob[offset:offset + width] = value.to_bytes(width, "little")
    _read_or_container_error(root, kind, blob)
