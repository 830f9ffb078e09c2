"""Low-rank compression of selected weight matrices.

A plan assigns a rank (or "full") to each layer group; compression replaces
every dense layer of a ranked group with the cascaded factor pair from its
truncated SVD, leaves everything else byte-identical, and accounts for the
parameter, FLOP, and reconstruction-error cost of the whole model.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .layers import LowRankLinear
from .linalg import frobenius, reconstruction_error, svd, truncate_to_factors
from .model import (GROUP_EMBED, GROUP_HEAD, GROUP_K, GROUP_O, GROUP_Q, GROUP_V,
                    SkeletonModel, count_flops, count_params, map_layers,
                    named_layers)

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
            if group in ranks:
                k = ranks.pop(group)
                if k is None:
                    continue
                if not isinstance(k, (int, np.integer)) or k < 1:
                    raise ValueError(f"rank for {group} must be a positive integer")
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

    Group names are case-insensitive; omitted groups stay dense. The empty
    string and the bare word "full" both mean the identity plan.
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
        try:
            rank = int(rank_text)
        except ValueError:
            raise PlanParseError(f"bad rank {rank_text!r} in {where}") from None
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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_HEADER.split(","))
        for row in self.layers:
            writer.writerow([
                row.name, row.group, row.rows, row.cols,
                "full" if row.rank is None else row.rank,
                row.params_before, row.params_after,
                repr(row.recon_fro), repr(row.recon_rel),
            ])
        writer.writerow(["TOTAL", "", "", "", "",
                         self.params_before, self.params_after, "", ""])
        return buf.getvalue()


def compress_model(model: SkeletonModel, plan: CompressionPlan):
    """Apply ``plan`` to a copy of ``model``.

    Returns ``(compressed_model, report)``; the source model is untouched.
    Every ranked dense layer becomes a LowRankLinear built from its
    truncated SVD, with the bias copied unchanged.
    """
    return _compress(model, plan)


def _check_plan(model: SkeletonModel, plan: CompressionPlan) -> None:
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
        min_dim = min(layer.c_in, layer.c_out)
        if k > min_dim:
            raise ValueError(
                f"rank {k} exceeds min dimension {min_dim} of layer {name}"
            )


def _compress(model: SkeletonModel, plan: CompressionPlan, decomps=None):
    """``compress_model``; given a ``decomps`` dict, each ranked layer's SVD
    is taken from it by layer name, or computed and stored there.

    Without one, each SVD is dropped once its layer is built, so a single
    compression holds one decomposition at a time.
    """
    _check_plan(model, plan)
    rows = []

    def visit(name, layer, group):
        k = plan.rank_for(group)
        before = layer.param_count()
        if k is None:
            rows.append(LayerReport(
                name=name, group=group, rows=layer.c_in, cols=layer.c_out,
                rank=None, params_before=before, params_after=before,
                recon_fro=0.0, recon_rel=0.0,
            ))
            return layer.copy()
        if decomps is None:
            decomp = svd(layer.weight)
        else:
            decomp = decomps.get(name)
            if decomp is None:
                full = svd(layer.weight)  # truncation reads u[:, :sigma.size] only
                decomp = decomps[name] = replace(full, u=full.u[:, :full.sigma.size].copy())
        factors = truncate_to_factors(decomp, k)
        recon = reconstruction_error(decomp, k)
        norm = frobenius(layer.weight)
        replacement = LowRankLinear(
            factors.w1, factors.w2,
            None if layer.bias is None else layer.bias.copy(),
        )
        rows.append(LayerReport(
            name=name, group=group, rows=layer.c_in, cols=layer.c_out,
            rank=k, params_before=before, params_after=replacement.param_count(),
            recon_fro=recon, recon_rel=recon / norm if norm > 0.0 else 0.0,
        ))
        return replacement

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

    Every plan is checked against the model before any work starts. Each
    ranked layer is decomposed once per sweep, on first use, and that one
    SVD is truncated for every plan that ranks the layer.
    """
    from .finetune import evaluate

    if not grid:
        raise ValueError("empty plan grid")
    if not test_samples:
        raise ValueError("empty evaluation set")
    for plan in grid:
        _check_plan(model, plan)
    decomps = {}
    rows = []
    for plan in grid:
        compressed, report = _compress(model, plan, decomps)
        rows.append(SweepRow(
            plan=plan.render(),
            params=report.params_after,
            top1=evaluate(compressed, test_samples),
        ))
    return rows


def sweep_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_HEADER.split(","))
    for row in rows:
        writer.writerow([row.plan, row.params, repr(row.top1)])
    return buf.getvalue()
