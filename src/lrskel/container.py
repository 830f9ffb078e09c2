"""Little-endian binary containers for weights and skeleton datasets.

Weights ("LRTS"): magic, format version u32, tensor count u32, then per
tensor: name length u16, UTF-8 name, ndims u8, dims as u32 each, payload as
f64 values.

Datasets ("LRSK"): magic, format version u32, sample count u32, then per
sample: label u32, frames u32, joints u32, payload of frames*joints*3 f64
coordinates.

Round-trips are bit-exact; readers reject anything malformed instead of
crashing or guessing.
"""

from __future__ import annotations

import struct

import numpy as np

WEIGHTS_MAGIC = b"LRTS"
DATASET_MAGIC = b"LRSK"
FORMAT_VERSION = 1


class ContainerError(Exception):
    """Base class for container format problems."""


class BadMagicError(ContainerError):
    pass


class UnsupportedVersionError(ContainerError):
    pass


class CorruptContainerError(ContainerError):
    pass


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise CorruptContainerError("truncated file")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64_array(self, count: int) -> np.ndarray:
        raw = self.take(8 * count)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)

    def done(self) -> None:
        if self.pos != len(self.data):
            raise CorruptContainerError(
                f"{len(self.data) - self.pos} trailing bytes after payload"
            )


def _check_header(r: _Reader, magic: bytes) -> None:
    got = r.take(4)
    if got != magic:
        raise BadMagicError(f"bad magic {got!r}, expected {magic!r}")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported format version {version}")


def write_weights(path, tensors) -> None:
    """Write named f64 tensors; ``tensors`` maps name -> ndarray.

    Every tensor is checked before the file is opened, so a rejected
    tensor (non-finite, or a name or rank the format cannot hold) leaves
    no file behind.
    """
    blob = bytearray()
    blob += WEIGHTS_MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    items = list(tensors.items())
    blob += struct.pack("<I", len(items))
    for name, arr in items:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        if not np.isfinite(arr).all():
            raise ValueError(f"tensor {name!r} contains non-finite entries")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        if arr.ndim > 0xFF:
            raise ValueError(f"too many dimensions for tensor {name!r}")
        blob += struct.pack("<B", arr.ndim)
        for d in arr.shape:
            blob += struct.pack("<I", d)
        blob += arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


def read_weights(path) -> dict:
    """Read named tensors in file order; raises ContainerError subclasses."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    _check_header(r, WEIGHTS_MAGIC)
    count = r.u32()
    tensors = {}
    for _ in range(count):
        name_len = r.u16()
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptContainerError(f"undecodable tensor name: {exc}") from exc
        if name in tensors:
            raise CorruptContainerError(f"duplicate tensor name {name!r}")
        ndims = r.u8()
        dims = tuple(r.u32() for _ in range(ndims))
        size = 1
        for d in dims:
            size *= d
        tensors[name] = r.f64_array(size).reshape(dims)
    r.done()
    return tensors


def write_samples(path, samples) -> None:
    """Write skeleton samples; each must expose ``label`` and T x J x 3
    float ``coords``."""
    blob = bytearray()
    blob += DATASET_MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    blob += struct.pack("<I", len(samples))
    for s in samples:
        coords = np.ascontiguousarray(s.coords, dtype="<f8")
        if coords.ndim != 3 or coords.shape[2] != 3:
            raise ValueError(f"coords must be T x J x 3, got {coords.shape}")
        if s.label < 0 or s.label > 0xFFFFFFFF:
            raise ValueError(f"label {s.label} out of u32 range")
        blob += struct.pack("<III", s.label, coords.shape[0], coords.shape[1])
        blob += coords.tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


def read_samples(path) -> list:
    """Read (label, coords) pairs in file order."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    _check_header(r, DATASET_MAGIC)
    count = r.u32()
    out = []
    for _ in range(count):
        label = r.u32()
        frames = r.u32()
        joints = r.u32()
        coords = r.f64_array(frames * joints * 3).reshape(frames, joints, 3)
        out.append((label, coords))
    r.done()
    return out
