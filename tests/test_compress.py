import hashlib
import os
import re
import signal
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_no_children, counting_svd, forced_cpus, hooked_compress
from lrskel import compress
from lrskel.compress import (
    CompressionPlan,
    PlanParseError,
    REPORT_HEADER,
    SweepRow,
    check_plan,
    compress_model,
    parse_plan,
    rank_sweep,
    sweep_to_csv,
)
from lrskel.data import DatasetSpec, SkeletonSample, generate_dataset
from lrskel.finetune import TrainConfig, evaluate, train
from lrskel.layers import LowRankLinear
from lrskel.linalg import frobenius, reconstruction_error, svd, truncate_to_factors
from lrskel.model import (GROUP_EMBED, ModelConfig, build_model, count_params, forward,
                          named_layers, named_params)


def toy_model(seed=0):
    return build_model(ModelConfig(joints=3, frames=8, d_model=16, heads=2,
                                   blocks=1, classes=4, seed=seed))


def param_digest(model):
    h = hashlib.sha256()
    for name, arr in named_params(model).items():
        h.update(name.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def test_parse_plan_two_groups():
    plan = parse_plan("q=1,k=3")
    assert plan.ranks == {"Q": 1, "K": 3}
    assert plan.rank_for("V") is None


def test_parse_plan_empty_is_identity():
    assert parse_plan("") == CompressionPlan()
    assert parse_plan("full") == CompressionPlan()
    assert parse_plan("").ranks == {}


def test_parse_plan_full_group_equals_omitted():
    assert parse_plan("v=full") == parse_plan("")
    assert parse_plan("q=2,v=full") == parse_plan("q=2")


def test_parse_plan_case_and_whitespace():
    assert parse_plan(" Q = 4 , Embed=2 ").ranks == {"Q": 4, "EMBED": 2}


def test_parse_plan_rejects_zero_rank():
    with pytest.raises(PlanParseError):
        parse_plan("q=0")


def test_parse_plan_rejects_bad_tokens():
    for text in ("q", "q=x", "zz=3", "q=1,q=2", "q=1,,k=2", "q=-2",
                 "q=1_0", "q=+3", "q=\u0663", "q=\u00b2"):
        with pytest.raises(PlanParseError):
            parse_plan(text)


@pytest.mark.parametrize("ranks, message", [
    ({"Q": 0}, "rank for Q must be a positive integer"),
    ({"K": -3}, "rank for K must be a positive integer"),
    ({"V": 1.5}, "rank for V must be a positive integer"),
    ({"ZZ": 1}, "unknown layer groups: ['ZZ']"),
    ({"q": 1, "O": 2}, "unknown layer groups: ['q']"),
    ({"Q": True}, "rank for Q must be a positive integer"),
])
def test_plan_rejects_bad_rank_or_unknown_group(ranks, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CompressionPlan(ranks)


@pytest.mark.parametrize("shape", [(3, 3), (6, 2), (3, 7)])
def test_one_rank_rule_for_plans_layers_and_truncations(shape):
    # A plan on the embedding of a blockless model, a low-rank pair and both
    # truncations of that layer's SVD take the same ranks, and say the same
    # words of a rank above the bound.
    rows, cols = shape
    low = min(shape)
    model = build_model(ModelConfig(joints=rows // 3, frames=2, d_model=cols,
                                    heads=1, blocks=0, classes=2, seed=0))
    s = svd(model.embed.weight)
    rng = np.random.default_rng(0)
    checks = {
        "plan": lambda k: check_plan(model, CompressionPlan({GROUP_EMBED: k})),
        "truncate": lambda k: truncate_to_factors(s, k),
        "recon": lambda k: reconstruction_error(s, k),
        # A factor pair's rank is its width, so only an int can reach it.
        "layer": lambda k: LowRankLinear(rng.normal(size=(rows, k)),
                                         rng.normal(size=(k, cols))),
    }
    for k in (0, -1, True, 1.5, low, low + 1):
        for name, check in checks.items():
            if name == "layer" and type(k) is not int:
                continue
            if k == low:
                check(k)
                continue
            with pytest.raises(ValueError) as info:
                check(k)
            if k == low + 1:
                assert f"rank {k} exceeds min dimension {low}" in str(info.value), name


def test_parse_plan_error_mentions_position():
    with pytest.raises(PlanParseError, match="directive 2"):
        parse_plan("q=1,k=0")


def test_plan_render_round_trip():
    for text in ("", "full", "q=1,k=3", "v=2", "q=1,k=3,v=2,o=4,embed=5,head=1"):
        plan = parse_plan(text)
        assert parse_plan(plan.render()) == plan


PLAN_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None,
                         database=None)
plans = st.dictionaries(
    st.sampled_from(compress.GROUP_ORDER),
    st.none() | st.integers(min_value=1, max_value=10**6),
).map(CompressionPlan)


@PLAN_SETTINGS
@given(plans)
def test_parse_plan_round_trips_render(plan):
    assert parse_plan(plan.render()) == plan


@PLAN_SETTINGS
@given(st.text(alphabet="qkvoembdhfulQKVOEMBDHFUL=,0123456789 -+_\t") | st.text())
def test_parse_plan_accepts_or_raises_plan_parse_error(text):
    try:
        plan = parse_plan(text)
    except PlanParseError:
        return
    assert parse_plan(plan.render()) == plan


def test_identity_plan_keeps_everything():
    m = toy_model()
    compressed, report = compress_model(m, CompressionPlan())
    rng = np.random.default_rng(0)
    batch = [SkeletonSample(rng.normal(size=(8, 3, 3)), 0) for _ in range(3)]
    assert np.array_equal(forward(m, batch), forward(compressed, batch))
    assert report.params_after == report.params_before
    for name, arr in named_params(m).items():
        assert np.array_equal(arr, named_params(compressed)[name])


def test_full_rank_plan_keeps_logits_and_doubles_square_layers():
    m = toy_model()
    plan = CompressionPlan({"Q": 8, "K": 8, "V": 8, "O": 16, "EMBED": 9,
                            "HEAD": 4})
    compressed, report = compress_model(m, plan)
    rng = np.random.default_rng(1)
    batch = [SkeletonSample(rng.normal(size=(8, 3, 3)), 0) for _ in range(4)]
    a = forward(m, batch)
    b = forward(compressed, batch)
    assert np.abs(a - b).max() < 1e-8
    # a square layer at full rank honestly doubles its weight count
    wo_rows = [r for r in report.layers if r.group == "O"]
    for r in wo_rows:
        assert r.params_after > r.params_before
    assert report.params_after > report.params_before


def test_compression_reduces_params_at_low_rank():
    m = toy_model()
    _, report = compress_model(m, parse_plan("q=1,k=3"))
    assert report.params_after < report.params_before


def test_recon_error_matches_independent_svd():
    m = toy_model()
    compressed, report = compress_model(m, parse_plan("v=1"))
    by_name = {r.name: r for r in report.layers}
    for name, layer, group in named_layers(m):
        row = by_name[name]
        if group != "V":
            assert row.rank is None
            assert row.recon_fro == 0.0
            continue
        s = svd(layer.weight)
        expected = reconstruction_error(s, 1)
        assert abs(row.recon_fro - expected) < 1e-12
        assert abs(row.recon_rel - expected / frobenius(layer.weight)) < 1e-12


def test_error_ordering_in_rank():
    m = toy_model()
    errs = []
    for k in (1, 2, 3, None):
        plan = CompressionPlan({} if k is None else {"V": k})
        _, report = compress_model(m, plan)
        per_layer = [r.recon_fro for r in report.layers if r.group == "V"]
        errs.append(per_layer)
    for smaller, larger in zip(errs[1:], errs[:-1]):
        for lo, hi in zip(smaller, larger):
            assert lo <= hi + 1e-15


def test_compress_does_not_mutate_source():
    m = toy_model()
    digest = param_digest(m)
    compress_model(m, parse_plan("q=1,k=1,v=1,o=1,embed=1,head=1"))
    assert param_digest(m) == digest


def test_compress_model_holds_one_decomposition_at_a_time(monkeypatch):
    m = toy_model()
    refs, most_alive = [], 0
    real = compress.svds

    def tracked(mats):
        nonlocal most_alive
        for result in real(mats):
            refs.append(weakref.ref(result))
            most_alive = max(most_alive, sum(r() is not None for r in refs))
            yield result
            del result  # the caller's reference is the one under test

    monkeypatch.setattr(compress, "svds", tracked)
    compress_model(m, parse_plan("q=1,k=1,v=1,o=1,embed=1,head=1"))
    assert len(refs) == len(named_layers(m))
    assert most_alive == 1


def test_rank_too_large_names_layer():
    m = toy_model()
    with pytest.raises(ValueError, match="blocks.0.heads.0.wv"):
        compress_model(m, parse_plan("v=9999"))


def test_compressing_lowrank_layer_is_an_error():
    m = toy_model()
    once, _ = compress_model(m, parse_plan("v=1"))
    with pytest.raises(ValueError, match="already low-rank"):
        compress_model(once, parse_plan("v=1"))
    # an identity directive on the compressed group is fine
    again, _ = compress_model(once, parse_plan("q=2"))
    assert again.blocks[0].heads[0].wv.kind == "lowrank"


def test_report_totals_and_recount():
    m = toy_model()
    compressed, report = compress_model(m, parse_plan("q=1,k=2"))
    assert report.params_before == sum(r.params_before for r in report.layers)
    assert report.params_after == sum(r.params_after for r in report.layers)
    assert report.params_before == count_params(m)
    assert report.params_after == count_params(compressed)


def test_report_csv_shape():
    m = toy_model()
    _, report = compress_model(m, parse_plan("v=1"))
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == REPORT_HEADER
    assert lines[-1].startswith("TOTAL,")
    assert len(lines) == 2 + len(report.layers)
    total_cells = lines[-1].split(",")
    assert int(total_cells[5]) == report.params_before
    assert int(total_cells[6]) == report.params_after


@pytest.fixture(scope="module")
def trained_toy():
    spec = DatasetSpec(classes=4, train_per_class=40, test_per_class=15,
                       frames=8, joints=3, noise_sigma=0.05, seed=5)
    tr, te = generate_dataset(spec)
    m = build_model(ModelConfig(joints=3, frames=8, d_model=16, heads=2,
                                blocks=1, classes=4, seed=5))
    trained, _ = train(m, tr, te, TrainConfig(base_lr=0.1, epochs=4,
                                              batch_size=16, seed=5))
    return trained, te


def test_rank_sweep_identity_matches_direct_eval(trained_toy):
    m, test = trained_toy
    rows = rank_sweep(m, test, [CompressionPlan()])
    assert rows[0].plan == "full"
    assert rows[0].top1 == evaluate(m, test)
    assert rows[0].params == count_params(m)


def test_rank_sweep_value_rank_one_hurts_trained_model(trained_toy):
    m, test = trained_toy
    grid = [CompressionPlan(), parse_plan("v=1")]
    rows = rank_sweep(m, test, grid)
    assert rows[1].top1 < rows[0].top1


def test_rank_sweep_full_rank_equivalent_keeps_accuracy(trained_toy):
    m, test = trained_toy
    rows = rank_sweep(m, test, [CompressionPlan(), parse_plan("q=8")])
    assert rows[1].top1 == rows[0].top1


def test_rank_sweep_preserves_grid_order(trained_toy):
    m, test = trained_toy
    grid = [parse_plan(t) for t in ("v=3", "full", "v=1", "v=2")]
    rows = rank_sweep(m, test, grid)
    assert [r.plan for r in rows] == ["v=3", "full", "v=1", "v=2"]


def test_rank_sweep_rejects_empty_grid():
    m = toy_model()
    with pytest.raises(ValueError):
        rank_sweep(m, [], [])


def per_plan_rows(model, test, grid):
    rows = []
    for plan in grid:
        compressed, report = compress_model(model, plan)
        rows.append(SweepRow(plan.render(), report.params_after,
                             evaluate(compressed, test)))
    return rows


SWEEP_GRID = ("full", "q=1", "v=2", "q=1,k=1,v=1,o=1,embed=1,head=1",
              "q=2,k=2,v=2,o=2,embed=2,head=2", "o=2,head=1")


def test_rank_sweep_decomposes_each_layer_once(trained_toy, monkeypatch):
    m, test = trained_toy
    calls = counting_svd(monkeypatch)
    rank_sweep(m, test, [parse_plan(t) for t in SWEEP_GRID])
    weights = [layer.weight for _, layer, _ in named_layers(m)]
    assert len(calls) == len(weights)
    assert sorted(map(id, calls)) == sorted(map(id, weights))


def test_rank_sweep_rows_equal_per_plan_compression(trained_toy):
    m, test = trained_toy
    grid = [parse_plan(t) for t in SWEEP_GRID]
    assert rank_sweep(m, test, grid) == per_plan_rows(m, test, grid)


def test_rank_sweep_truncates_each_layer_once_per_rank(trained_toy, monkeypatch):
    m, test = trained_toy
    grid = [parse_plan(t) for t in SWEEP_GRID]
    seen, real = [], compress.truncate_to_factors

    def counted(s, k):
        seen.append((s, k))  # holds each decomposition, so ids stay distinct
        return real(s, k)

    monkeypatch.setattr(compress, "truncate_to_factors", counted)
    rank_sweep(m, test, grid)
    pairs = [(id(s), k) for s, k in seen]
    assert len(set(pairs)) == len(pairs)
    assert len(pairs) == sum(len({plan.rank_for(group) for plan in grid} - {None})
                             for _, _, group in named_layers(m))


def test_rank_sweep_validates_each_clip_once(trained_toy, monkeypatch):
    import lrskel.finetune
    import lrskel.model

    m, test = trained_toy
    calls, real = [], lrskel.model.sample_features

    def counted(coords, cfg):
        calls.append(1)
        return real(coords, cfg)

    monkeypatch.setattr(lrskel.model, "sample_features", counted)
    rank_sweep(m, test, [parse_plan(t) for t in ("full", "v=1", "q=2,k=2")])
    assert len(calls) == len(test)


def test_rank_sweep_decomposes_afresh_on_every_call(trained_toy):
    trained, test = trained_toy
    m, _ = compress_model(trained, CompressionPlan())
    grid = [parse_plan(t) for t in ("v=1", "q=1,k=1,v=1", "full")]
    first = rank_sweep(m, test, grid)
    assert first == per_plan_rows(m, test, grid)
    for name, layer, _ in named_layers(m):
        if name.endswith(".wv"):
            layer.weight[...] = np.random.default_rng(3).normal(
                size=layer.weight.shape)
    second = rank_sweep(m, test, grid)
    assert second != first
    assert second == per_plan_rows(m, test, grid)


def test_rank_sweep_checks_every_plan_before_any_svd(trained_toy, monkeypatch):
    m, test = trained_toy
    calls = counting_svd(monkeypatch)
    lowrank, _ = compress_model(m, parse_plan("v=1"))
    cases = (
        (m, test, ["q=1", "v=9999"], "rank 9999 exceeds"),
        (lowrank, test, ["q=1", "v=1"], "already low-rank"),
        (m, [], ["q=1"], "empty evaluation set"),
        (m, test[:3] + [SkeletonSample(np.full((8, 3, 3), np.nan), 0)], ["q=1"],
         "non-finite"),
        (m, test[:3] + [SkeletonSample(test[0].coords, m.config.classes)], ["q=1"],
         r"label out of range \[0, 4\) in evaluation set"),
        (m, test[:3] + [SkeletonSample(test[0].coords[:-1], 0)], ["q=1"],
         r"coords shape \(7, 3, 3\), expected \(8, 3, 3\) in evaluation set"),
    )
    for model, samples, texts, message in cases:
        calls.clear()
        with pytest.raises(ValueError, match=message):
            rank_sweep(model, samples, [parse_plan(t) for t in texts])
        assert calls == []


# Nine plans whose top-1s on trained_toy all differ, so a row placed at
# another plan's index shows. With 3 workers, the caller takes indices
# 0, 3, 6, the first child 1, 4, 7 and the second 2, 5, 8.
DISTINCT_GRID = ("full", "q=1", "k=1", "v=1", "v=2", "v=3", "o=1", "o=4", "head=1")


@pytest.mark.parametrize("cpus, forks", [(1, 0), (3, 2), (12, 8)])
def test_rank_sweep_rows_do_not_depend_on_the_worker_count(trained_toy, monkeypatch,
                                                          cpus, forks):
    m, test = trained_toy
    grid = [parse_plan(t) for t in DISTINCT_GRID]
    expected = per_plan_rows(m, test, grid)
    assert len({row.top1 for row in expected}) == len(grid)
    calls = forced_cpus(monkeypatch, cpus)
    assert rank_sweep(m, test, grid) == expected
    assert len(calls) == forks  # at most one worker per plan
    assert_no_children()


def open_fds():
    """How many fds this process holds open, or None without /proc."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("failing, started", [("fork", 0), ("fork", 1),
                                              ("pipe", 0), ("pipe", 1)])
def test_rank_sweep_rows_survive_a_worker_that_cannot_start(trained_toy, monkeypatch,
                                                            failing, started):
    # EAGAIN from fork under a process limit, or EMFILE from pipe under a
    # file limit, used to end the sweep or rerun it serially. A worker
    # started before the failure keeps its plans; the caller scores the rest.
    m, test = trained_toy
    grid = [parse_plan(t) for t in DISTINCT_GRID]
    expected = per_plan_rows(m, test, grid)
    forked = forced_cpus(monkeypatch, 3)
    calls, real = [], getattr(os, failing)
    error = {"fork": BlockingIOError(11, "Resource temporarily unavailable"),
             "pipe": OSError(24, "Too many open files")}[failing]

    def limited():
        if len(calls) == started:
            raise error
        calls.append(1)
        return real()

    in_child = []
    monkeypatch.setattr(os, failing, limited)
    hooked_compress(monkeypatch, lambda text, child: in_child.append(child))
    fds = open_fds()
    assert rank_sweep(m, test, grid) == expected
    assert open_fds() == fds
    assert len(forked) == started
    # A started child scored stride 1 (indices 1, 4, 7); the caller the rest.
    assert in_child == [False] * (len(grid) - 3 * started)
    assert_no_children()


def test_rank_sweep_forks_nothing_beside_other_threads(trained_toy, monkeypatch):
    # A forked child could deadlock on a lock another thread holds.
    m, test = trained_toy
    grid = [parse_plan(t) for t in DISTINCT_GRID]
    expected = per_plan_rows(m, test, grid)
    forked = forced_cpus(monkeypatch, 3)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert rank_sweep(m, test, grid) == expected
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()
    assert forked == []


@pytest.mark.parametrize("cpus, fork_fails", [(1, False), (3, False), (3, True)],
                         ids=["1", "3", "3-fork-fails"])
def test_rank_sweep_raises_the_serial_runs_first_failure(trained_toy, monkeypatch, cpus,
                                                         fork_fails):
    # Failures at index 2 (second child), 4 (first child) and 6 (caller):
    # every worker stops at its own first one, and index 2's is raised.
    # When the first fork fails, the caller runs all three strides.
    m, test = trained_toy
    failures = {"k=1": ValueError("logits contain non-finite entries"),
                "v=2": FloatingPointError("overflow in v=2"),
                "o=1": ZeroDivisionError("o=1")}

    def fail(text, in_child):
        if text in failures:
            raise failures[text]

    forced_cpus(monkeypatch, cpus)
    if fork_fails:
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
    hooked_compress(monkeypatch, fail)
    with pytest.raises(ValueError) as info:
        rank_sweep(m, test, [parse_plan(t) for t in DISTINCT_GRID])
    assert type(info.value) is ValueError
    assert str(info.value) == "logits contain non-finite entries"
    assert_no_children()


def test_rank_sweep_child_that_is_killed_is_a_runtime_error(trained_toy, monkeypatch):
    m, test = trained_toy

    def die(text, in_child):
        if in_child and text == "q=1":
            os.kill(os.getpid(), signal.SIGKILL)

    forced_cpus(monkeypatch, 3)
    hooked_compress(monkeypatch, die)
    with pytest.raises(RuntimeError, match=re.escape(
            "a sweep worker ended without its rows (exit status -9)")):
        rank_sweep(m, test, [parse_plan(t) for t in DISTINCT_GRID])
    assert_no_children()


def test_rank_sweep_child_leaves_through_exit_on_base_exception(trained_toy, monkeypatch):
    # An interrupt is no plan failure. A child that let it unwind would
    # return into this test's stack and run the rest of the suite.
    m, test = trained_toy

    def interrupt(text, in_child):
        if in_child and text == "q=1":
            raise KeyboardInterrupt

    forced_cpus(monkeypatch, 3)
    hooked_compress(monkeypatch, interrupt)
    with pytest.raises(RuntimeError, match=re.escape("(exit status 1)")):
        rank_sweep(m, test, [parse_plan(t) for t in DISTINCT_GRID])
    assert_no_children()


def test_rank_sweep_interrupted_caller_kills_and_reaps_its_children(trained_toy,
                                                                   monkeypatch):
    m, test = trained_toy

    def hang_or_interrupt(text, in_child):
        if in_child:
            time.sleep(120)
        raise KeyboardInterrupt

    forced_cpus(monkeypatch, 3)
    hooked_compress(monkeypatch, hang_or_interrupt)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        rank_sweep(m, test, [parse_plan(t) for t in DISTINCT_GRID])
    assert time.monotonic() - start < 60
    assert_no_children()


def test_sweep_csv(trained_toy):
    m, test = trained_toy
    rows = rank_sweep(m, test, [CompressionPlan(), parse_plan("v=1")])
    csv_text = sweep_to_csv(rows)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "plan,params,top1"
    assert lines[1].startswith("full,")
    assert lines[2].startswith("v=1,")
