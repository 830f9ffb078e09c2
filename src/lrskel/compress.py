"""Low-rank compression of selected weight matrices.

A plan assigns a rank (or "full") to each layer group; compression replaces
every dense layer of a ranked group with the cascaded factor pair from its
truncated SVD, leaves everything else byte-identical, and accounts for the
parameter, FLOP, and reconstruction-error cost of the whole model. One plan
or a sweep's grid, each ranked layer is decomposed once and truncated once
per rank. A sweep scores raw top-1 with ``model.top1_scorer``, its plans
spread over the CPUs the process may run on; the caller scores the plans
of any worker that cannot start.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from dataclasses import dataclass

from .container import csv_text
from .layers import LowRankLinear
from .linalg import (SvdConvergenceError, check_integer, check_rank, frobenius,
                     reconstruction_error, svds, truncate_to_factors)
from .model import (GROUP_EMBED, GROUP_HEAD, GROUP_K, GROUP_O, GROUP_Q, GROUP_V,
                    SkeletonModel, count_flops, count_params, map_layers,
                    named_layers, top1_scorer)

# Canonical group order of a rendered plan.
GROUP_ORDER = (GROUP_Q, GROUP_K, GROUP_V, GROUP_O, GROUP_EMBED, GROUP_HEAD)

REPORT_HEADER = (
    "layer,group,rows,cols,rank,params_before,params_after,recon_fro,recon_rel"
)
SWEEP_HEADER = "plan,params,top1"


class PlanParseError(ValueError):
    pass


class CompressionPlan:
    """Per-group rank directives; groups not listed stay dense ("full")."""

    def __init__(self, ranks=None):
        ranks = dict(ranks or {})
        canon = {}
        for group in GROUP_ORDER:
            k = ranks.pop(group, None)
            if k is None:
                continue
            try:
                check_integer("rank", k, 1)
            except ValueError:
                raise ValueError(f"rank for {group} must be a positive integer") from None
            canon[group] = int(k)
        if ranks:
            raise ValueError(f"unknown layer groups: {sorted(ranks)}")
        self._ranks = canon

    def rank_for(self, group):
        return self._ranks.get(group)

    @property
    def ranks(self) -> dict:
        return dict(self._ranks)

    def render(self) -> str:
        if not self._ranks:
            return "full"
        return ",".join(f"{g.lower()}={k}" for g, k in self._ranks.items())

    def __eq__(self, other):
        return isinstance(other, CompressionPlan) and self._ranks == other._ranks

    def __repr__(self):
        return f"CompressionPlan({self._ranks!r})"


def parse_plan(text: str) -> CompressionPlan:
    """Parse "group=rank" directives, e.g. ``q=1,k=3,v=full``.

    Group names are case-insensitive, a rank is ASCII decimal digits or
    "full", and omitted groups stay dense. The empty string and the bare
    word "full" both mean the identity plan.
    """
    stripped = text.strip()
    if stripped == "" or stripped.lower() == "full":
        return CompressionPlan()
    ranks = {}
    for pos, token in enumerate(text.split(",")):
        token = token.strip()
        where = f"directive {pos + 1} ({token!r})"
        if not token:
            raise PlanParseError(f"empty {where}")
        group, sep, rank_text = token.partition("=")
        if not sep:
            raise PlanParseError(f"missing '=' in {where}")
        group = group.strip().upper()
        rank_text = rank_text.strip().lower()
        if group not in GROUP_ORDER:
            raise PlanParseError(f"unknown group {group!r} in {where}")
        if group in ranks:
            raise PlanParseError(f"duplicate group {group!r} in {where}")
        if rank_text == "full":
            ranks[group] = None
            continue
        if not (rank_text.isascii() and rank_text.isdigit()):
            raise PlanParseError(f"bad rank {rank_text!r} in {where}")
        rank = int(rank_text)
        if rank < 1:
            raise PlanParseError(f"rank must be >= 1 in {where}")
        ranks[group] = rank
    return CompressionPlan(ranks)


@dataclass(frozen=True)
class LayerReport:
    name: str
    group: str
    rows: int
    cols: int
    rank: int | None  # None while the layer stays dense
    params_before: int
    params_after: int
    recon_fro: float
    recon_rel: float


@dataclass(frozen=True)
class CompressionReport:
    layers: tuple
    params_before: int
    params_after: int
    flops_before: int
    flops_after: int
    reference_frames: int

    def to_csv(self) -> str:
        rows = [(r.name, r.group, r.rows, r.cols,
                 "full" if r.rank is None else r.rank, r.params_before,
                 r.params_after, r.recon_fro, r.recon_rel) for r in self.layers]
        rows.append(("TOTAL", "", "", "", "", self.params_before,
                     self.params_after, "", ""))
        return csv_text(REPORT_HEADER, rows)


def compress_model(model: SkeletonModel, plan: CompressionPlan):
    """Apply ``plan`` to a copy of ``model``.

    Returns ``(compressed_model, report)``; the source model is untouched.
    Every ranked dense layer becomes a LowRankLinear built from its
    truncated SVD, with the bias copied unchanged.
    """
    check_plan(model, plan)
    return _compress(model, plan, _truncations(model, [plan]))


def check_plan(model: SkeletonModel, plan: CompressionPlan) -> None:
    """Raise ValueError unless every layer ``plan`` ranks is dense and at
    least as wide as its rank in both dimensions."""
    for name, layer, group in named_layers(model):
        k = plan.rank_for(group)
        if k is None:
            continue
        if layer.kind != "dense":
            raise ValueError(
                f"layer {name} in group {group} is already low-rank; "
                "compress the original dense weights instead"
            )
        try:
            check_rank(k, (layer.c_in, layer.c_out))
        except ValueError as exc:
            raise ValueError(f"{exc} of layer {name}") from None


def _truncations(model: SkeletonModel, plans) -> dict:
    """``{(name, k): (LowRankLinear, recon_fro, recon_rel)}`` for each layer
    and rank the checked ``plans`` ask for. Each ranked layer gets one SVD,
    from one ``svds`` pass over them all, truncated once per rank and
    dropped before the next layer's SVD is taken."""
    ranked = [(name, layer, ranks) for name, layer, group in named_layers(model)
              if (ranks := {plan.rank_for(group) for plan in plans} - {None})]
    decomps = svds([layer.weight for _, layer, _ in ranked])
    out = {}
    for name, layer, ranks in ranked:
        try:
            decomp = next(decomps)
        except SvdConvergenceError as exc:
            raise SvdConvergenceError(f"{ranked[exc.index][0]}: {exc}") from None
        norm = frobenius(layer.weight)
        for k in ranks:
            factors = truncate_to_factors(decomp, k)
            recon = reconstruction_error(decomp, k)
            bias = None if layer.bias is None else layer.bias.copy()
            out[name, k] = (LowRankLinear(factors.w1, factors.w2, bias),
                            recon, recon / norm if norm > 0.0 else 0.0)
        del decomp  # else it stays alive through the next layer's SVD
    return out


def _compress(model: SkeletonModel, plan: CompressionPlan, truncations):
    """Assemble ``plan``'s compressed model and its report, taking each
    ranked layer from ``truncations`` (see ``_truncations``) and copying
    every other one."""
    rows = []

    def visit(name, layer, group):
        k = plan.rank_for(group)
        new, recon_fro, recon_rel = (
            (layer.copy(), 0.0, 0.0) if k is None else truncations[name, k])
        rows.append(LayerReport(
            name=name, group=group, rows=layer.c_in, cols=layer.c_out, rank=k,
            params_before=layer.param_count(), params_after=new.param_count(),
            recon_fro=recon_fro, recon_rel=recon_rel,
        ))
        return new

    compressed = map_layers(model, visit)
    frames = model.config.frames
    report = CompressionReport(
        layers=tuple(rows),
        params_before=count_params(model),
        params_after=count_params(compressed),
        flops_before=count_flops(model, frames),
        flops_after=count_flops(compressed, frames),
        reference_frames=frames,
    )
    return compressed, report


@dataclass(frozen=True)
class SweepRow:
    plan: str
    params: int
    top1: float


def rank_sweep(model: SkeletonModel, test_samples, grid) -> list:
    """Compress ``model`` under each plan and score raw (unfinetuned)
    accuracy; rows come back in grid order.

    Every plan and every test clip is checked before any SVD runs. Each
    ranked layer is then decomposed once per sweep, and that one SVD is
    truncated once per rank the grid gives its group. Plans that share a
    (layer, rank) share its truncated layer. The plans are then scored on
    one worker per CPU of the affinity mask (see ``_map_forked``), with the
    rows and errors of a serial run. A worker that cannot start, as under a
    process or file limit, leaves its plans to the caller.
    """
    if not grid:
        raise ValueError("empty plan grid")
    for plan in grid:
        check_plan(model, plan)
    top1 = top1_scorer(test_samples, model.config)
    truncations = _truncations(model, grid)

    def row(plan):
        compressed, report = _compress(model, plan, truncations)
        return SweepRow(plan.render(), report.params_after, top1(compressed))

    return _map_forked(row, grid)


def _map_forked(fn, items) -> list:
    """``[fn(x) for x in items]`` over W = min(CPUs in the affinity mask,
    len(items)) strides, stride w being items w, w + W, ... The caller
    forks a child for each of strides 1, 2, ... in turn, which pipes its
    ``_stride`` back pickled (fork, not spawn: children share the caller's
    truncations without a copy). The first ``os.pipe`` or ``os.fork`` that
    fails (EMFILE, EAGAIN) ends the forking; the caller runs stride 0 and
    every stride no child took. W is 1 when the caller runs other threads,
    as a forked child could deadlock on a lock one of them holds. A failure
    raises the lowest failing index's exception, as the serial loop would;
    a child that exits without its stride is a RuntimeError. No child
    outlives the call."""
    width = (min(len(os.sched_getaffinity(0)), len(items))
             if hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
             and threading.active_count() == 1 else 1)
    caller, pids, ends, payloads = os.getpid(), [], [], []
    try:
        for w in range(1, width):
            pipe = ()
            try:
                pipe = os.pipe()
                pid = os.fork()
            except OSError:
                for end in pipe:
                    os.close(end)
                break
            read_end, write_end = pipe
            if pid == 0:  # the child never returns into the caller's stack
                try:
                    os.close(read_end)
                    with open(write_end, "wb") as out:
                        pickle.dump(_stride(fn, items, w, width, caller), out)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_end)
            pids.append(pid)
            ends.append(read_end)
        parts = {w: _stride(fn, items, w, width)
                 for w in (0, *range(len(pids) + 1, width))}
        for end in ends:
            with open(end, "rb", closefd=False) as fh:
                payloads.append(fh.read())
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for end in ends:
            os.close(end)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for w, (payload, code) in enumerate(zip(payloads, codes), 1):
        if code:
            raise RuntimeError(f"a sweep worker ended without its rows (exit status {code})")
        parts[w] = pickle.loads(payload)
    failures = [failure for _, failure in parts.values() if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    out = [None] * len(items)
    for w, (results, _) in parts.items():
        out[w::width] = results
    return out


def _stride(fn, items, start, step, parent=None):
    """``fn`` over ``items[start::step]``, stopping at the first that
    raises: ``(results, failure)``, where ``failure`` is ``(index,
    exception)`` or None. A child given its ``parent``'s pid leaves through
    ``os._exit`` before an item once that is no longer its parent, so the
    orphan of a killed caller lives for at most one more item."""
    results = []
    for i in range(start, len(items), step):
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        try:
            results.append(fn(items[i]))
        except Exception as exc:
            return results, (i, exc)
    return results, None


def sweep_to_csv(rows) -> str:
    return csv_text(SWEEP_HEADER, ((r.plan, r.params, r.top1) for r in rows))
