"""Little-endian binary containers for weights and skeleton datasets.

Weights ("LRTS"): magic, format version u32, tensor count u32, then per
tensor: name length u16, UTF-8 name, ndims u8, dims as u32 each, payload as
f64 values.

Datasets ("LRSK"): magic, format version u32, sample count u32, then per
sample: label u32, frames u32, joints u32, payload of frames*joints*3 f64
coordinates.

Round-trips are bit-exact; readers reject anything malformed instead of
crashing or guessing. ``weights_bytes`` and ``samples_bytes`` encode;
``write_all`` commits a command's outputs together, so a failed write
leaves no truncated file and no new file beside an old one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
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
        if self.pos + n > len(self.data):
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

    def f64_array(self, dims) -> np.ndarray:
        raw = self.take(8 * math.prod(dims))
        try:
            return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
        except ValueError as exc:  # more dims than numpy holds, or too big
            raise CorruptContainerError(f"bad dims {dims}: {exc}") from None

    def done(self) -> None:
        if self.pos != len(self.data):
            raise CorruptContainerError(
                f"{len(self.data) - self.pos} trailing bytes after payload"
            )


def write_all(outputs) -> None:
    """Replace each ``path`` of the ``(path, data)`` pairs with its bytes,
    all or none: make each missing folder, write every sibling temp file
    ``<path>.<pid>.tmp``, hard-link each existing path to a backup
    ``<path>.<pid>.bak``, then ``os.replace`` each temp file over its path.

    If a step raises, or the process is interrupted, each path already
    replaced gets its backup back (or is removed if it is new), every temp
    file and backup is removed, then every folder made, deepest first, and
    the error is re-raised: no path changes. A backup that cannot be put
    back is kept. Where the file system refuses the hard link, the write
    goes ahead without that backup, and a later failed rename leaves that
    path new. A kill leaves its temp files and backups, and a kill between
    two renames leaves the earlier outputs new and the later ones old; with
    no fsync, this guards against a failed or killed process, not power
    loss."""
    outputs = [(os.fspath(path), data) for path, data in outputs]
    made, tmps, olds, replaced = [], [], {}, []
    try:
        for path, _ in outputs:
            missing, folder = [], os.path.dirname(path)
            while folder and not os.path.exists(folder):
                missing.append(folder)
                folder = os.path.dirname(folder)
            for folder in reversed(missing):
                made.append(folder)
                os.makedirs(folder, exist_ok=True)
        for path, data in outputs:
            tmps.append(f"{path}.{os.getpid()}.tmp")
            with open(tmps[-1], "wb") as fh:
                fh.write(data)
        for path, _ in outputs:
            backup = f"{path}.{os.getpid()}.bak"
            try:
                os.link(path, backup)
                olds[path] = backup
            except FileNotFoundError:
                olds[path] = None
            except OSError:  # no hard link here: this path cannot be put back
                pass
        for (path, _), tmp in zip(outputs, tmps):
            os.replace(tmp, path)
            replaced.append(path)
    except BaseException:
        for path in replaced:
            try:
                if olds.get(path):
                    os.replace(olds[path], path)
                elif path in olds:
                    os.unlink(path)
            except OSError:
                olds[path] = None  # not put back: its backup keeps the old bytes
        _remove([*tmps, *filter(None, olds.values())], os.unlink)
        _remove(reversed(made), os.rmdir)  # rmdir refuses a last "." or ".."
        raise
    _remove(filter(None, olds.values()), os.unlink)


def _remove(paths, remove) -> None:
    for path in paths:
        with contextlib.suppress(OSError):
            remove(path)


def csv_text(header: str, rows) -> str:
    """The comma-separated ``header`` line, then one line per row; csv
    writes each number as its shortest round-trip text, numpy's too."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return buf.getvalue()


def _check_header(r: _Reader, magic: bytes) -> None:
    got = r.take(4)
    if got != magic:
        raise BadMagicError(f"bad magic {got!r}, expected {magic!r}")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported format version {version}")


def weights_bytes(tensors) -> bytes:
    """Encode named f64 tensors; ``tensors`` maps name -> ndarray. A
    tensor that is non-finite, or has a name longer than the format can
    hold, is a ValueError (numpy itself refuses more than 64 axes)."""
    items = list(tensors.items())
    chunks = [WEIGHTS_MAGIC, struct.pack("<II", FORMAT_VERSION, len(items))]
    for name, arr in items:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        if not np.isfinite(arr).all():
            raise ValueError(f"tensor {name!r} contains non-finite entries")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        chunks += [struct.pack("<H", len(encoded)), encoded,
                   struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape),
                   arr.tobytes()]
    # Tensors run to megabytes: one join of the pieces is ~5x faster than
    # growing a bytearray (the many small samples of samples_bytes are not).
    return b"".join(chunks)


def write_weights(path, tensors) -> None:
    """Write named f64 tensors; every one is checked before the file is
    opened, so a rejected tensor leaves no file behind."""
    write_all([(path, weights_bytes(tensors))])


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
        tensors[name] = r.f64_array(dims)
    r.done()
    return tensors


def samples_bytes(samples) -> bytearray:
    """Encode skeleton samples; each must expose ``label`` and finite
    T x J x 3 float ``coords``, else it is a ValueError."""
    blob = bytearray()
    blob += DATASET_MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    blob += struct.pack("<I", len(samples))
    for s in samples:
        coords = np.ascontiguousarray(s.coords, dtype="<f8")
        if coords.ndim != 3 or coords.shape[2] != 3:
            raise ValueError(f"coords must be T x J x 3, got {coords.shape}")
        if not np.isfinite(coords).all():
            raise ValueError("coords contain non-finite entries")
        if s.label < 0 or s.label > 0xFFFFFFFF:
            raise ValueError(f"label {s.label} out of u32 range")
        blob += struct.pack("<III", s.label, coords.shape[0], coords.shape[1])
        blob += coords.tobytes()
    return blob


def write_samples(path, samples) -> None:
    """Write skeleton samples; all are checked before the file is opened."""
    write_all([(path, samples_bytes(samples))])


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
        coords = r.f64_array((frames, joints, 3))
        out.append((label, coords))
    r.done()
    return out
