"""The benchmark tracer's hook targets exist in lrskel.

The tracer in ``benchmarks/spans.py`` hooks lrskel functions and methods by
name and skips a target it cannot find, so a rename or a method moved out
of a hooked class would silently drop traced metrics. This test imports
the tracer read-only and checks every target resolves, and that a traced
forward of each linear kind, of attention and of the model records its
span once.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from lrskel import layers, model
from lrskel.layers import DenseLinear, LowRankLinear

SPANS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(spans):
    missing = []
    for module_name, attr_path, _, _ in spans.HOOKS:
        try:
            spans._resolve(module_name, attr_path)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr_path}")
    assert missing == []


def test_traced_linear_forwards_record_one_span_each(spans):
    rng = np.random.default_rng(0)
    dense = DenseLinear(rng.normal(size=(4, 3)))
    low = LowRankLinear(rng.normal(size=(4, 2)), rng.normal(size=(2, 3)))
    originals = {cls: dict(vars(cls)) for cls in (DenseLinear, LowRankLinear)}
    tracer = spans.Tracer()
    x = rng.normal(size=(5, 4))
    with tracer.unit("pass0"):
        dense.forward(x)
        dense.forward_tape(x)
        low.forward(x)
    assert tracer.missing == []
    got = spans.unit_metrics(tracer.log, 0, spans.PASS_METRICS, tracer.available)
    assert got["layers.dense_calls"] == 2
    assert got["layers.lowrank_calls"] == 1
    # Restored: the hooks leave the classes as they found them.
    assert {cls: dict(vars(cls)) for cls in originals} == originals


@pytest.mark.parametrize("entry, span", [
    ("forward_features", "model.forward_tape"),
    ("forward_features_tape", "model.forward_tape"),
    ("attention_forward_tape", "layers.attention"),
])
def test_traced_entry_points_record_one_span_each(spans, entry, span):
    rng = np.random.default_rng(0)
    if entry.startswith("attention"):
        owner, args = layers, rng.normal(size=(3, 2, 4, 2))
    else:
        net = model.build_model(model.ModelConfig(joints=2, frames=4, d_model=4, heads=2,
                                                  blocks=1, classes=3, seed=0))
        owner, args = model, (net, rng.normal(size=(5, 4, 6)))
    tracer = spans.Tracer()
    with tracer.unit("pass0"):
        # Looked up while traced, as lrskel's own calls are, so the hooks apply.
        getattr(owner, entry)(*args)
    assert tracer.missing == []
    assert [tracer.log.strings[i] for i in tracer.log.name].count(span) == 1
