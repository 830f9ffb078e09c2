"""The benchmark tracer's hook targets exist in lrskel.

The tracer in ``benchmarks/spans.py`` hooks lrskel functions and methods by
name and skips a target it cannot find, so a rename or a method moved out
of a hooked class would silently drop traced metrics. This test imports
the tracer read-only and checks every target resolves, and that a traced
forward of each linear kind records its span.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

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
