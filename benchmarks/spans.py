"""Spans around calls into lrskel, and the per-layer metrics built from them.

A :class:`Tracer` wraps the functions and methods named in ``HOOKS`` while
one set-up or pass runs, and records a span per call: name, start, end,
parent span and the unit (set-up or pass) it belongs to. Spans stay in
memory as parallel columns and are written out once, at the end of the run.

Hook targets are looked up by name each time tracing starts. A target that
no longer exists is skipped and listed in ``Tracer.missing``; the metrics
that need it are left out of the result instead of failing the run.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import math
import os
import sys
import time

import numpy as np

# (module, attribute path, span name, kind). A module-level function is
# rebound in every lrskel module that imported it by name, so calls made
# through ``from .x import f`` are traced too.
HOOKS = (
    ("lrskel.linalg", "svd", "linalg.svd", "svd"),
    ("lrskel.compress", "compress_model", "compress.compress_model", "entry"),
    ("lrskel.compress", "rank_sweep", "compress.rank_sweep", "entry"),
    ("lrskel.layers", "DenseLinear.forward", "layers.dense", "linear"),
    ("lrskel.layers", "DenseLinear.forward_tape", "layers.dense", "linear"),
    ("lrskel.layers", "LowRankLinear.forward", "layers.lowrank", "linear"),
    ("lrskel.layers", "LowRankLinear.forward_tape", "layers.lowrank", "linear"),
    ("lrskel.layers", "attention_forward", "layers.attention", None),
    ("lrskel.layers", "attention_forward_tape", "layers.attention", None),
    ("lrskel.layers", "backward", "layers.backward", None),
    ("lrskel.model", "forward", "model.forward", "entry"),
    ("lrskel.model", "forward_features_tape", "model.forward_tape", None),
    ("lrskel.model", "backward_features", "model.backward", None),
    ("lrskel.model", "cross_entropy", "model.cross_entropy", None),
    ("lrskel.finetune", "train", "finetune.train", "entry"),
    ("lrskel.finetune", "evaluate", "finetune.evaluate", "entry"),
    ("lrskel.container", "read_weights", "container.read", "read"),
    ("lrskel.container", "read_samples", "container.read", "read"),
    ("lrskel.container", "write_weights", "container.write", "write"),
    ("lrskel.container", "write_samples", "container.write", "write"),
    ("lrskel.data", "generate_dataset", "data.generate", None),
    ("lrskel.cli", "main", "cli.main", None),
    # Not a span: labels each new model's layers with their group, so
    # linear-layer spans can be summed per group. "entry" hooks do the same
    # for the model they are given.
    ("lrskel.model", "SkeletonModel.__init__", None, "register"),
)

# Pseudo span name: present when layers can be mapped to their groups.
LAYER_GROUPS = "layer-groups"

GROUPS = ("EMBED", "Q", "K", "V", "O", "HEAD")
SVD_SHAPES = ("24x32", "32x8", "32x32", "24x216", "216x54", "216x216", "216x8")


def _metric(name, unit, better, how, spans, tag=None, needs=()):
    return {"name": name, "unit": unit, "better": better, "how": how,
            "spans": spans, "tag": tag, "needs": needs}


def _layer_metrics():
    out = [
        _metric("linalg.svd_s", "s", "lower", "time", ("linalg.svd",)),
        _metric("linalg.svd_calls", "count", "lower", "calls", ("linalg.svd",)),
        _metric("linalg.svd_failed", "count", "lower", "failed", ("linalg.svd",)),
    ]
    out += [_metric(f"linalg.svd_s.{shape}", "s", "lower", "time",
                    ("linalg.svd",), tag=shape) for shape in SVD_SHAPES]
    out += [
        _metric("compress.compress_model_self_s", "s", "lower", "self",
                ("compress.compress_model",)),
        _metric("compress.rank_sweep_self_s", "s", "lower", "self",
                ("compress.rank_sweep",)),
    ]
    for kind in ("dense", "lowrank"):
        spans = (f"layers.{kind}",)
        out += [
            _metric(f"layers.{kind}_s", "s", "lower", "time", spans),
            _metric(f"layers.{kind}_calls", "count", "lower", "calls", spans),
            _metric(f"layers.{kind}_gflops", "GFLOP/s", "higher", "gflops", spans),
        ]
    for kind in ("attention", "backward"):
        spans = (f"layers.{kind}",)
        out += [
            _metric(f"layers.{kind}_s", "s", "lower", "time", spans),
            _metric(f"layers.{kind}_calls", "count", "lower", "calls", spans),
        ]
    linear = ("layers.dense", "layers.lowrank")
    for group in GROUPS:
        out += [
            _metric(f"layers.{group}_s", "s", "lower", "time", linear,
                    tag=group, needs=(LAYER_GROUPS,)),
            _metric(f"layers.{group}_gflops", "GFLOP/s", "higher", "gflops",
                    linear, tag=group, needs=(LAYER_GROUPS,)),
        ]
    out += [
        _metric("model.forward_self_s", "s", "lower", "self", ("model.forward",)),
        _metric("model.forward_tape_self_s", "s", "lower", "self",
                ("model.forward_tape",)),
        _metric("model.backward_self_s", "s", "lower", "self", ("model.backward",)),
        _metric("model.cross_entropy_s", "s", "lower", "time",
                ("model.cross_entropy",)),
        _metric("finetune.train_self_s", "s", "lower", "self", ("finetune.train",)),
        _metric("finetune.evaluate_self_s", "s", "lower", "self",
                ("finetune.evaluate",)),
        _metric("container.read_s", "s", "lower", "time", ("container.read",)),
        _metric("container.read_bytes", "bytes", "lower", "bytes",
                ("container.read",)),
        _metric("container.write_s", "s", "lower", "time", ("container.write",)),
        _metric("container.write_bytes", "bytes", "lower", "bytes",
                ("container.write",)),
        _metric("data.generate_s", "s", "lower", "time", ("data.generate",)),
        _metric("cli.self_s", "s", "lower", "self", ("cli.main",)),
    ]
    return out


# Metrics of the median traced pass.
PASS_METRICS = tuple(_layer_metrics())

# Metrics of the traced set-up.
SETUP_METRICS = (
    _metric("setup.data.generate_s", "s", "lower", "time", ("data.generate",)),
    _metric("setup.container.write_s", "s", "lower", "time", ("container.write",)),
    _metric("setup.container.write_bytes", "bytes", "lower", "bytes",
            ("container.write",)),
    _metric("setup.finetune.train_s", "s", "lower", "time", ("finetune.train",)),
)

OVERHEAD_METRIC = {"name": "trace.overhead_frac", "unit": "ratio",
                   "better": "lower"}


class SpanLog:
    """Spans as parallel columns; row ``i`` is span ``i`` in opening order.

    ``parent`` and ``unit`` are row and unit indices (-1 for none), ``tag``
    indexes ``strings`` (a layer group or an SVD shape, -1 for none) and
    ``failed`` is 1 when the call raised.
    """

    COLUMNS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"),
               ("unit", "i"), ("flops", "d"), ("nbytes", "d"), ("tag", "i"),
               ("failed", "b"))

    def __init__(self):
        for column, code in self.COLUMNS:
            setattr(self, column, array.array(code))
        self.strings = []
        self._string_ids = {}
        self.units = []

    def __len__(self):
        return len(self.start)

    def string_id(self, text) -> int:
        if text not in self._string_ids:
            self._string_ids[text] = len(self.strings)
            self.strings.append(text)
        return self._string_ids[text]

    def add(self, name, start, end, parent=-1, unit=-1, flops=0.0, nbytes=0.0,
            tag=None, failed=False) -> int:
        """Append a finished span; returns its row."""
        row = len(self)
        self.name.append(self.string_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.unit.append(unit)
        self.flops.append(flops)
        self.nbytes.append(nbytes)
        self.tag.append(-1 if tag is None else self.string_id(tag))
        self.failed.append(1 if failed else 0)
        return row

    def columns(self) -> dict:
        return {column: np.array(getattr(self, column), dtype=code)
                for column, code in self.COLUMNS}

    def save(self, path) -> None:
        """Write every span as compressed columns (``numpy.load`` reads it)."""
        np.savez_compressed(path, strings=np.array(self.strings, dtype=str),
                            units=np.array(self.units, dtype=str),
                            **self.columns())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping children
    count once.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.size)
    rows = np.flatnonzero(parent >= 0)
    rows = rows[np.lexsort((start[rows], parent[rows]))]
    current, lo_run, hi_run = -1, 0.0, 0.0
    for i in rows.tolist():
        p = int(parent[i])
        lo = max(start[i], start[p])
        hi = min(end[i], end[p])
        if hi <= lo:
            continue
        if p != current or lo > hi_run:
            if current >= 0:
                covered[current] += hi_run - lo_run
            current, lo_run, hi_run = p, lo, hi
        else:
            hi_run = max(hi_run, hi)
    if current >= 0:
        covered[current] += hi_run - lo_run
    return (end - start) - covered


def _outermost(names, parent, name_id) -> np.ndarray:
    """Mask of spans named ``name_id`` with no ancestor of the same name."""
    mine = names == name_id
    out = mine.copy()
    for i in np.flatnonzero(mine).tolist():
        p = parent[i]
        while p >= 0:
            if names[p] == name_id:
                out[i] = False
                break
            p = parent[p]
    return out


def unit_metrics(log: SpanLog, unit: int, specs, available) -> dict:
    """Evaluate ``specs`` over the spans of one unit.

    A spec whose spans were all unavailable (hook target missing) is left
    out. Times are in seconds; ``gflops`` is the layers' analytic forward
    FLOPs over the time they took.
    """
    cols = log.columns()
    keep = cols["unit"] == unit
    index = np.flatnonzero(keep)
    # Re-index parents into the unit's own rows (a unit has no parent
    # outside itself).
    remap = np.full(len(log), -1, dtype=np.int64)
    remap[index] = np.arange(index.size)
    parent = cols["parent"][index]
    parent = np.where(parent >= 0, remap[np.maximum(parent, 0)], -1)
    names = cols["name"][index]
    start, end = cols["start"][index], cols["end"][index]
    dur = end - start
    own = self_times(start, end, parent)
    tags = cols["tag"][index]
    ids = log._string_ids
    outermost = {}
    out = {}
    for spec in specs:
        live = [s for s in spec["spans"] if s in available]
        if not live or not all(n in available for n in spec["needs"]):
            continue
        mask = np.zeros(index.size, dtype=bool)
        for span in live:
            if span not in ids:
                continue
            sid = ids[span]
            if spec["how"] in ("time", "gflops"):
                if sid not in outermost:
                    outermost[sid] = _outermost(names, parent, sid)
                mask |= outermost[sid]
            else:
                mask |= names == sid
        if spec["tag"] is not None:
            mask &= tags == ids.get(spec["tag"], -2)
        how = spec["how"]
        if how == "time":
            value = float(dur[mask].sum())
        elif how == "self":
            value = float(own[mask].sum())
        elif how == "calls":
            value = int(mask.sum())
        elif how == "failed":
            value = int(cols["failed"][index][mask].sum())
        elif how == "bytes":
            value = int(cols["nbytes"][index][mask].sum())
        else:
            seconds = float(dur[mask].sum())
            flops = float(cols["flops"][index][mask].sum())
            value = flops / seconds / 1e9 if seconds > 0.0 else 0.0
        out[spec["name"]] = value
    return out


def _resolve(module_name, attr_path):
    """(owner, attribute name) of ``attr_path`` in ``module_name``; raises
    ImportError or AttributeError when it does not exist."""
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)
    return owner, attr


def _lrskel_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lrskel" or name.startswith("lrskel."))]


class Tracer:
    """Installs the hooks for one unit at a time and records its spans."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.log = SpanLog()
        self.missing = []
        self.available = set()
        self._stack = []      # (row, name id, key) of open spans
        self._unit = -1
        self._groups = {}     # id(layer) -> group tag

    @contextlib.contextmanager
    def unit(self, label):
        """Trace everything called inside the block as unit ``label``."""
        self._unit = len(self.log.units)
        self.log.units.append(label)
        patches = self._install()
        try:
            yield
        finally:
            for owner, attr, original, own in reversed(patches):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)
            self._unit = -1
            self._groups.clear()

    def _install(self):
        self.missing = []
        self.available = set()
        patches = []
        modules = _lrskel_modules()
        for module_name, attr_path, span, kind in self.hooks:
            try:
                owner, attr = _resolve(module_name, attr_path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span, kind)
            if isinstance(owner, type):
                patches.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, wrapper)
            else:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, name, original, True))
                            setattr(module, name, wrapper)
            if span is not None:
                self.available.add(span)
            elif hasattr(sys.modules.get("lrskel.model"), "named_layers"):
                self.available.add(LAYER_GROUPS)
        return patches

    def _register(self, model):
        named_layers = getattr(sys.modules.get("lrskel.model"), "named_layers", None)
        if named_layers is None:
            return
        try:
            layers = named_layers(model)
        except (AttributeError, TypeError):
            return  # not a model
        for _, layer, group in layers:
            self._groups[id(layer)] = group

    def _wrap(self, fn, span, kind):
        tracer = self
        if kind == "register":
            @functools.wraps(fn)
            def register(model, *args, **kwargs):
                fn(model, *args, **kwargs)
                tracer._register(model)
            return register

        log = self.log
        name_id = log.string_id(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            flops, nbytes, tag, key = 0.0, 0.0, None, None
            if kind == "linear":
                layer = args[0]
                key = id(layer)
                stack = tracer._stack
                if stack and stack[-1][1] == name_id and stack[-1][2] == key:
                    # forward_tape calling forward on the same layer is one call.
                    return fn(*args, **kwargs)
                rows = math.prod(np.shape(args[1])[:-1])
                flops = float(layer.flops(rows))
                tag = tracer._groups.get(key)
            elif kind == "svd":
                shape = np.shape(args[0])
                tag = "x".join(str(d) for d in shape)
            elif kind == "read":
                nbytes = _size(args[0])
            elif kind == "entry":
                tracer._register(args[0])
            row = log.add(span, 0.0, math.nan, parent=tracer._stack[-1][0]
                          if tracer._stack else -1, unit=tracer._unit,
                          flops=flops, tag=tag)
            tracer._stack.append((row, name_id, key))
            failed = True
            log.start[row] = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                log.end[row] = clock()
                tracer._stack.pop()
                if failed:
                    log.failed[row] = 1
            if kind == "write":
                nbytes = _size(args[0])
            if nbytes:
                log.nbytes[row] = nbytes
            return result

        return wrapper


def _size(path) -> float:
    try:
        return float(os.path.getsize(path))
    except (OSError, TypeError, ValueError):
        return 0.0
