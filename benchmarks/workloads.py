"""The four benchmark workloads: set-up, one timed pass, and its checks.

Every workload calls lrskel only through the names the ``lrskel`` package
exports, plus ``lrskel.cli.main``, always looked up at call time so that the
tracer's hooks see the calls. Checks read the documented artifacts (the
LRTS weights format and the history, report and sweep CSVs), not lrskel's
internals, so they survive refactors that keep those formats.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import struct
import time
from dataclasses import dataclass

import numpy as np

import lrskel
import lrskel.cli


@dataclass(frozen=True)
class Scale:
    """Input sizes and targets. ``FULL`` is what the benchmark measures;
    ``TOY`` keeps the self-test fast."""

    train_per_class: int
    test_per_class: int
    setup_clips: int        # clips the set-up model trains on (recover, sweep)
    wide_d_model: int       # d_model of the compress_wide model
    train_floor: float      # test top-1 one training epoch must reach
    recover_target: float   # test top-1 that ends a recover pass
    recover_max_epochs: int


FULL = Scale(train_per_class=250, test_per_class=60, setup_clips=500,
             wide_d_model=216, train_floor=0.9, recover_target=0.99,
             recover_max_epochs=5)
TOY = Scale(train_per_class=12, test_per_class=4, setup_clips=48,
            wide_d_model=24, train_floor=0.0, recover_target=0.0,
            recover_max_epochs=1)

# Architecture of the default toy model (9512 parameters).
D_MODEL, HEADS, BLOCKS, CLASSES, FRAMES, JOINTS = 32, 4, 2, 8, 16, 8

TRAIN_RECIPE = dict(base_lr=0.1, epochs=1, batch_size=32)
SETUP_RECIPE = dict(base_lr=0.1, epochs=1, batch_size=16)
# lr 0.01 at batch 32 (the finetune defaults) needs 2 to 4 epochs depending
# on the seed, which would make pass time depend on the seed; this recipe
# reaches the target in the first epoch on every seed tried.
RECOVER_RECIPE = dict(base_lr=0.02, epochs=1, batch_size=8)
RECOVER_PLAN = "q=1,k=1,v=1"
SWEEP_GRID = (
    "full", "q=1", "k=1", "v=1", "q=4,k=4,v=4", "o=4", "o=16",
    "embed=4", "embed=16", "head=2", "q=2,k=2,v=2,o=8,embed=8,head=4",
)
WIDE_PLAN = "q=4,k=4,v=4,o=16,embed=8,head=4"
WIDE_HEADS, WIDE_BLOCKS = 4, 1

# compress_wide oracle tolerance, relative to the largest singular value
# (singular values) or to the Frobenius norm (recon_fro, factor residual).
# The Jacobi SVD converges to 1e-12 relative orthogonality.
SVD_RTOL = 1e-9


def model_config(seed, d_model=D_MODEL, heads=HEADS, blocks=BLOCKS):
    return lrskel.ModelConfig(joints=JOINTS, frames=FRAMES, d_model=d_model,
                              heads=heads, blocks=blocks, classes=CLASSES,
                              seed=seed)


def read_lrts(path) -> dict:
    """Tensors of an LRTS weights file, parsed from the documented format."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"LRTS":
        raise ValueError(f"{path}: not an LRTS file")
    _, count = struct.unpack_from("<II", data, 4)
    pos, out = 12, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        name = data[pos:pos + name_len].decode("utf-8")
        pos += name_len
        ndims = data[pos]
        pos += 1
        dims = struct.unpack_from(f"<{ndims}I", data, pos)
        pos += 4 * ndims
        size = math.prod(dims)
        out[name] = np.frombuffer(data, dtype="<f8", count=size,
                                  offset=pos).reshape(dims)
        pos += 8 * size
    return out


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return h.hexdigest()


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@dataclass
class PassOutput:
    """What one pass produced; ``stats`` holds timings taken inside it."""

    value: object
    stats: dict


class Workload:
    """One benchmark workload over files in ``workdir``.

    ``setup`` makes the inputs from the seed and returns them with a digest
    of the files it wrote; ``run`` is the timed pass; ``check`` runs after
    the pass, outside the timed region, and returns the list of problems
    found plus a digest of the pass's outputs, which must repeat exactly
    from pass to pass.
    """

    name = ""

    def __init__(self, scale: Scale, workdir):
        self.scale = scale
        self.workdir = workdir

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def generate_data(self, seed):
        spec = lrskel.DatasetSpec(classes=CLASSES,
                                  train_per_class=self.scale.train_per_class,
                                  test_per_class=self.scale.test_per_class,
                                  frames=FRAMES, joints=JOINTS, seed=seed)
        train, test = lrskel.generate_dataset(spec)
        os.makedirs(self.path("data"), exist_ok=True)
        lrskel.save_dataset(self.path("data", "train.lrsk"), train)
        lrskel.save_dataset(self.path("data", "test.lrsk"), test)
        return train, test

    def data_digest(self):
        return _digest(_read(self.path("data", "train.lrsk")),
                       _read(self.path("data", "test.lrsk")))

    def train_setup_model(self, seed, train, test):
        """The trained model recover and sweep start from: one epoch on a
        seeded subset of the training clips."""
        order = np.random.default_rng(seed).permutation(len(train))
        subset = [train[i] for i in order[:self.scale.setup_clips]]
        model = lrskel.build_model(model_config(seed))
        trained, _ = lrskel.train(model, subset, test,
                                  lrskel.TrainConfig(seed=seed, **SETUP_RECIPE))
        lrskel.save_model(self.path("model.lrts"), trained)
        return trained


class TrainWorkload(Workload):
    name = "train"

    def setup(self, seed):
        train, test = self.generate_data(seed)
        return {"seed": seed, "train": train, "test": test}, self.data_digest()

    def run(self, inputs):
        model = lrskel.build_model(model_config(inputs["seed"]))
        cfg = lrskel.TrainConfig(seed=inputs["seed"], **TRAIN_RECIPE)
        start = time.perf_counter()
        trained, history = lrskel.train(model, inputs["train"], inputs["test"], cfg)
        clips = cfg.epochs * len(inputs["train"])
        return PassOutput((trained, history), {
            "train_clips_per_s": clips / (time.perf_counter() - start)})

    def check(self, inputs, out):
        trained, history = out.value
        problems = []
        text = history.to_csv()
        rows = _csv_rows(text)
        for row in rows:
            if not math.isfinite(float(row["train_loss"])):
                problems.append(f"epoch {row['epoch']}: non-finite train loss")
        top1 = float(rows[-1]["test_top1"])
        if top1 < self.scale.train_floor:
            problems.append(f"test top-1 {top1} below floor {self.scale.train_floor}")
        lrskel.save_model(self.path("trained.lrts"), trained)
        return problems, _digest(_read(self.path("trained.lrts")), text)


class RecoverWorkload(Workload):
    name = "recover"

    def setup(self, seed):
        train, test = self.generate_data(seed)
        model = self.train_setup_model(seed, train, test)
        inputs = {"seed": seed, "train": train, "test": test, "model": model}
        return inputs, _digest(self.data_digest(), _read(self.path("model.lrts")))

    def run(self, inputs):
        clock = time.perf_counter
        start = clock()
        compressed, _ = lrskel.compress_model(inputs["model"],
                                              lrskel.parse_plan(RECOVER_PLAN))
        model, histories, train_s, recovered_s = compressed, [], 0.0, None
        for epoch in range(self.scale.recover_max_epochs):
            cfg = lrskel.TrainConfig(seed=inputs["seed"] + epoch, **RECOVER_RECIPE)
            t = clock()
            model, history = lrskel.train(model, inputs["train"], inputs["test"], cfg)
            train_s += clock() - t
            histories.append(history.to_csv())
            if float(_csv_rows(histories[-1])[-1]["test_top1"]) >= self.scale.recover_target:
                recovered_s = clock() - start
                break
        clips = len(histories) * len(inputs["train"])
        return PassOutput((compressed, model, histories), {
            "time_to_recover_s": recovered_s,
            "train_clips_per_s": clips / train_s,
        })

    def check(self, inputs, out):
        compressed, model, histories = out.value
        problems = []
        if out.stats["time_to_recover_s"] is None:
            problems.append(f"test top-1 below {self.scale.recover_target} after "
                            f"{len(histories)} epochs")
        expected = expected_params(model_config(inputs["seed"]),
                                   lrskel.parse_plan(RECOVER_PLAN).ranks)
        got = lrskel.count_params(compressed)
        if got != expected:
            problems.append(f"params_after {got}, expected {expected}")
        lrskel.save_model(self.path("recovered.lrts"), model)
        return problems, _digest(_read(self.path("recovered.lrts")), *histories)


def expected_params(cfg, ranks) -> int:
    """k*(C_in + C_out) plus the bias per ranked layer, C_in*C_out plus the
    bias per dense one."""
    def layer(group, c_in, c_out):
        k = ranks.get(group)
        return c_out + (c_in * c_out if k is None else k * (c_in + c_out))

    d_k = cfg.d_model // cfg.heads
    per_block = (cfg.heads * sum(layer(g, cfg.d_model, d_k) for g in "QKV")
                 + layer("O", cfg.heads * d_k, cfg.d_model))
    return (layer("EMBED", 3 * cfg.joints, cfg.d_model)
            + cfg.blocks * per_block
            + layer("HEAD", cfg.d_model, cfg.classes))


class SweepWorkload(Workload):
    name = "sweep"

    def setup(self, seed):
        train, test = self.generate_data(seed)
        model = self.train_setup_model(seed, train, test)
        with open(self.path("grid.txt"), "w") as fh:
            fh.write("\n".join(SWEEP_GRID) + "\n")
        inputs = {"model": model, "test": test, "full_top1": None}
        return inputs, _digest(self.data_digest(), _read(self.path("model.lrts")),
                               _read(self.path("grid.txt")))

    def run(self, inputs):
        argv = ["sweep", self.path("model.lrts"), self.path("data"),
                "--grid", self.path("grid.txt"), "--out", self.path("sweep.csv")]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = lrskel.cli.main(argv)
        return PassOutput(code, {})

    def check(self, inputs, out):
        problems = []
        if out.value != 0:
            return [f"lrskel sweep exited {out.value}"], None
        data = _read(self.path("sweep.csv"))
        rows = _csv_rows(data.decode())
        plans = [lrskel.parse_plan(p).render() for p in SWEEP_GRID]
        if [r["plan"] for r in rows] != plans:
            problems.append(f"sweep rows {[r['plan'] for r in rows]} != grid {plans}")
        if inputs["full_top1"] is None:
            inputs["full_top1"] = lrskel.evaluate(inputs["model"], inputs["test"])
        full = [float(r["top1"]) for r in rows if r["plan"] == "full"]
        if full != [inputs["full_top1"]]:
            problems.append(f"full-plan top-1 {full} != dense model's "
                            f"{inputs['full_top1']}")
        return problems, _digest(data)


class CompressWideWorkload(Workload):
    name = "compress_wide"

    def setup(self, seed):
        cfg = model_config(seed, d_model=self.scale.wide_d_model,
                           heads=WIDE_HEADS, blocks=WIDE_BLOCKS)
        model = lrskel.build_model(cfg)
        lrskel.save_model(self.path("wide.lrts"), model)
        return {"model": model}, _digest(_read(self.path("wide.lrts")))

    def run(self, inputs):
        compressed, report = lrskel.compress_model(inputs["model"],
                                                   lrskel.parse_plan(WIDE_PLAN))
        return PassOutput((compressed, report), {})

    def check(self, inputs, out):
        compressed, report = out.value
        lrskel.save_model(self.path("wide-compressed.lrts"), compressed)
        report_csv = report.to_csv()
        return (check_factors(read_lrts(self.path("wide.lrts")),
                              read_lrts(self.path("wide-compressed.lrts")),
                              _csv_rows(report_csv)),
                _digest(_read(self.path("wide-compressed.lrts")), report_csv))


def check_factors(original, compressed, report_rows):
    """Compare every ranked layer with ``np.linalg.svd`` of its weight: the
    factor w1 = U_k S_k has the k leading singular values as column norms,
    and recon_fro and the residual of w1 @ w2 equal the discarded tail."""
    problems = []
    ranked = [r for r in report_rows if r["layer"] != "TOTAL" and r["rank"] != "full"]
    if not ranked:
        problems.append("report ranks no layer")
    for row in ranked:
        name, k = row["layer"], int(row["rank"])
        weight = original[f"{name}.weight"]
        w1, w2 = compressed[f"{name}.w1"], compressed[f"{name}.w2"]
        sigma = np.linalg.svd(weight, compute_uv=False)
        tail = float(np.sqrt(np.sum(sigma[k:] ** 2)))
        fro = float(np.linalg.norm(weight))
        sv_err = float(np.max(np.abs(np.linalg.norm(w1, axis=0) - sigma[:k])))
        if sv_err > SVD_RTOL * sigma[0]:
            problems.append(f"{name}: singular values off by {sv_err:.3e}")
        if abs(float(row["recon_fro"]) - tail) > SVD_RTOL * fro:
            problems.append(f"{name}: recon_fro {row['recon_fro']} != {tail!r}")
        residual = float(np.linalg.norm(weight - w1 @ w2))
        if abs(residual - tail) > SVD_RTOL * fro:
            problems.append(f"{name}: ||W - w1 w2|| {residual!r} != {tail!r}")
    return problems


WORKLOADS = {w.name: w for w in (TrainWorkload, RecoverWorkload,
                                 SweepWorkload, CompressWideWorkload)}
