import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrskel.layers import LowRankLinear
from lrskel.linalg import (
    SvdConvergenceError,
    SvdResult,
    as_matrix,
    frobenius,
    reconstruction_error,
    svd,
    svds,
    truncate_to_factors,
)


def test_svd_identity():
    s = svd(np.eye(3))
    assert np.allclose(s.sigma, [1.0, 1.0, 1.0], atol=0)


def test_svd_diagonal():
    s = svd(np.diag([3.0, 1.0]))
    assert np.allclose(s.sigma, [3.0, 1.0], atol=1e-15)


def test_svd_equal_singular_values_keep_their_input_order():
    # A diagonal input needs no rotation, so each singular vector is the
    # unit vector of its diagonal entry; equal values keep the earlier
    # index first.
    d = np.tile([1.0, 3.0, 2.0], 11)[:32]
    s = svd(np.diag(d))
    order = np.argsort(-d, kind="stable")
    assert np.array_equal(s.sigma, d[order])
    assert np.array_equal(np.argmax(np.abs(s.vt), axis=1), order)
    assert np.array_equal(np.argmax(np.abs(s.u), axis=0), order)


def test_svd_hand_oracle_2x2():
    # Singular values of [[1,1],[0,1]] from the eigenvalues of A^T A,
    # whose characteristic polynomial gives (3 +- sqrt(5)) / 2.
    s = svd(np.array([[1.0, 1.0], [0.0, 1.0]]))
    expected = [math.sqrt((3 + math.sqrt(5)) / 2), math.sqrt((3 - math.sqrt(5)) / 2)]
    assert np.abs(s.sigma - expected).max() < 1e-12


def test_svd_reports_nonconvergence(monkeypatch):
    import lrskel.linalg as linalg
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
    rng = np.random.default_rng(0)
    with pytest.raises(linalg.SvdConvergenceError, match="residual|coupling"):
        svd(rng.normal(size=(5, 5)))


def _check_invariants(a, s: SvdResult):
    m, n = a.shape
    r = min(m, n)
    assert s.u.shape == (m, m)
    assert s.vt.shape == (n, n)
    assert s.sigma.shape == (r,)
    assert np.all(s.sigma >= 0.0)
    assert np.all(np.diff(s.sigma) <= 0.0)
    assert frobenius(s.u.T @ s.u - np.eye(m)) < 1e-9
    assert frobenius(s.u @ s.u.T - np.eye(m)) < 1e-9
    assert frobenius(s.vt @ s.vt.T - np.eye(n)) < 1e-9
    assert frobenius(s.vt.T @ s.vt - np.eye(n)) < 1e-9
    assert frobenius(s.reconstruct() - a) / max(1.0, frobenius(a)) < 1e-9
    for j in range(m):
        lead = np.argmax(np.abs(s.u[:, j]))
        assert s.u[lead, j] >= 0.0


@pytest.mark.parametrize("shape", [(4, 4), (8, 12), (12, 8), (1, 7)])
def test_svd_invariants_random(shape):
    rng = np.random.default_rng(100 * shape[0] + shape[1])
    for _ in range(25):
        a = rng.normal(size=shape)
        _check_invariants(a, svd(a))


def test_svd_rank_deficient():
    rng = np.random.default_rng(3)
    col = rng.normal(size=(6, 1))
    a = col @ rng.normal(size=(1, 4))  # rank 1
    s = svd(a)
    _check_invariants(a, s)
    assert np.sum(s.sigma > 1e-12) == 1


def test_svd_zero_matrix():
    s = svd(np.zeros((3, 3)))
    assert np.array_equal(s.sigma, np.zeros(3))
    assert np.array_equal(s.u, np.eye(3))
    assert np.array_equal(s.vt, np.eye(3))


def test_svd_sigma_matches_numpy():
    rng = np.random.default_rng(7)
    for shape in [(4, 4), (8, 12), (12, 8), (1, 7), (9, 3)]:
        a = rng.normal(size=shape)
        ours = svd(a).sigma
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.abs(ours - ref).max() < 1e-10


def test_svd_determinism():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 12))
    s1 = svd(a)
    s2 = svd(a)
    assert np.array_equal(s1.u, s2.u)
    assert np.array_equal(s1.sigma, s2.sigma)
    assert np.array_equal(s1.vt, s2.vt)


# Every weight shape the models decompose: the default model (d_model 32,
# 4 heads, 8 joints, 8 classes) and the d_model 216 one of criterion 3.
MODEL_SHAPES = [(32, 32), (24, 32), (32, 8), (8, 32),
                (216, 216), (216, 54), (24, 216), (216, 8)]


def _shape_id(shape):
    return f"{shape[0]}x{shape[1]}"


def _check_against_oracle(a):
    """Invariants, singular values within 1e-12 * sigma_0 of LAPACK's, and
    the same bytes from a second call."""
    s = svd(a)
    _check_invariants(a, s)
    ref = np.linalg.svd(a, compute_uv=False)
    assert np.abs(s.sigma - ref).max() <= 1e-12 * ref[0]
    again = svd(a)
    for first, second in ((s.u, again.u), (s.sigma, again.sigma),
                          (s.vt, again.vt)):
        assert first.tobytes() == second.tobytes()
    return s


@pytest.mark.parametrize("shape", MODEL_SHAPES, ids=_shape_id)
def test_svd_model_shapes_match_oracle(shape):
    # Glorot-uniform, as build_model initialises the layers.
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    bound = math.sqrt(6.0 / (shape[0] + shape[1]))
    _check_against_oracle(rng.uniform(-bound, bound, size=shape))


@pytest.mark.parametrize("shape", [(216, 54), (54, 216)], ids=_shape_id)
def test_svd_rank_deficient_model_shapes(shape):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(shape[0], 5)) @ rng.normal(size=(5, shape[1]))
    s = _check_against_oracle(a)
    assert np.sum(s.sigma > 1e-10 * s.sigma[0]) == 5


@pytest.mark.parametrize("shape", [(216, 54), (54, 216)], ids=_shape_id)
def test_svd_completes_basis_for_exact_zero_singular_values(shape):
    # Only five columns (rows, when wide) are non-zero, so the QR triangle
    # has exactly zero columns and 49 singular vectors come from completion.
    rng = np.random.default_rng(6)
    tall = np.zeros((max(shape), min(shape)))
    tall[:, :5] = rng.normal(size=(max(shape), 5))
    a = tall if shape[0] > shape[1] else tall.T
    s = _check_against_oracle(a)
    assert np.count_nonzero(s.sigma) == 5


def test_svd_tall_zero_matrix_has_exactly_orthogonal_factors():
    s = svd(np.zeros((216, 54)))
    assert np.array_equal(s.sigma, np.zeros(54))
    assert np.array_equal(s.u.T @ s.u, np.eye(216))
    assert np.array_equal(s.u @ s.u.T, np.eye(216))
    assert np.array_equal(s.vt @ s.vt.T, np.eye(54))
    assert np.array_equal(s.vt.T @ s.vt, np.eye(54))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 54, 216])
def test_round_robin_meets_every_pair_once(n):
    from lrskel.linalg import _round_robin

    steps = _round_robin(n)
    # n - 1 steps for even n; odd n pads to n + 1 columns, so n steps.
    assert len(steps) == (0 if n == 1 else n - 1 + n % 2)
    met = []
    for pairs in steps:
        assert pairs.shape[1] == 2 and np.all(pairs[:, 0] < pairs[:, 1])
        assert len(set(pairs.ravel().tolist())) == pairs.size  # disjoint
        met += [tuple(p) for p in pairs.tolist()]
    assert sorted(met) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def test_package_uses_no_lapack_svd_or_eig():
    # LAPACK's SVD is this suite's oracle, so the package must not use it.
    import pathlib
    import re

    import lrskel

    pattern = re.compile(r"\b(np|numpy)\.linalg\.(svd|eig)\w*\(")
    for path in pathlib.Path(lrskel.__file__).parent.glob("*.py"):
        assert not pattern.search(path.read_text()), path.name


def test_truncate_full_rank_is_exact():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(6, 9))
    f = truncate_to_factors(svd(a), 6)
    assert frobenius(f.materialize() - a) < 1e-9


def test_truncate_dominant_component():
    f = truncate_to_factors(svd(np.diag([3.0, 1.0])), 1)
    assert np.allclose(f.materialize(), np.diag([3.0, 0.0]), atol=1e-12)
    assert f.w1.shape == (2, 1)
    assert f.w2.shape == (1, 2)
    assert LowRankLinear(f.w1, f.w2).param_count() == 1 * (2 + 2)


def test_truncate_error_formula():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(8, 12))
    s = svd(a)
    f = truncate_to_factors(s, 4)
    direct = frobenius(a - f.materialize())
    formula = math.sqrt(float(np.sum(s.sigma[4:] ** 2)))
    assert abs(direct - formula) < 1e-9


def test_truncate_rank_out_of_range():
    s = svd(np.eye(3))
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            truncate_to_factors(s, bad)
    with pytest.raises(ValueError):
        reconstruction_error(s, 0)


@pytest.mark.parametrize("a, message", [
    (np.zeros((0, 3)), "m must have positive dimensions, got (0, 3)"),
    (np.zeros((2, 0)), "m must have positive dimensions, got (2, 0)"),
    (np.array([[1.0, np.nan]]), "m contains non-finite entries"),
    (np.array([[np.inf], [0.0]]), "m contains non-finite entries"),
])
def test_as_matrix_rejects_empty_and_non_finite(a, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        as_matrix(a, "m")


@pytest.mark.parametrize("k", [1.0, "1", None, True])
def test_rank_must_be_an_integer(k):
    # True used to truncate to rank 1.
    s = svd(np.eye(3))
    for check in (truncate_to_factors, reconstruction_error):
        with pytest.raises(ValueError, match="rank must be an integer"):
            check(s, k)


def test_reconstruction_error_cases():
    s = svd(np.diag([3.0, 1.0]))
    assert reconstruction_error(s, 2) == 0.0
    assert abs(reconstruction_error(s, 1) - 1.0) < 1e-12


def test_reconstruction_error_direct_subtraction():
    rng = np.random.default_rng(19)
    a = rng.normal(size=(6, 6))
    s = svd(a)
    for k in range(1, 7):
        direct = frobenius(a - truncate_to_factors(s, k).materialize())
        assert abs(reconstruction_error(s, k) - direct) < 1e-9


def test_reconstruction_error_monotone_in_rank():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(8, 12))
    s = svd(a)
    errs = [reconstruction_error(s, k) for k in range(1, 9)]
    assert all(e1 >= e2 for e1, e2 in zip(errs, errs[1:]))


def test_eckart_young_consistency():
    # Truncation error from the spectrum must equal the directly measured
    # Frobenius distance for every rank.
    rng = np.random.default_rng(29)
    for _ in range(100):
        a = rng.normal(size=(8, 12))
        s = svd(a)
        for k in range(1, 9):
            direct = frobenius(a - truncate_to_factors(s, k).materialize())
            assert abs(reconstruction_error(s, k) - direct) < 1e-9


def test_truncation_beats_random_rank_k():
    # The rank-k truncation should never lose to a crude rank-k competitor.
    rng = np.random.default_rng(31)
    a = rng.normal(size=(6, 8))
    s = svd(a)
    best = frobenius(a - truncate_to_factors(s, 2).materialize())
    for _ in range(20):
        w1 = rng.normal(size=(6, 2))
        w2 = rng.normal(size=(2, 8))
        assert best <= frobenius(a - w1 @ w2) + 1e-12


def test_round_robin_is_built_once_per_size_and_read_only():
    from lrskel.linalg import _round_robin

    steps = _round_robin(54)
    assert _round_robin(54) is steps
    with pytest.raises(ValueError):
        steps[0][0, 0] = 1


def test_svd_of_one_size_is_unaffected_by_calls_in_between():
    # The step buffers are per call and the cached schedule is read-only,
    # so nothing carries over from one decomposition to the next.
    rng = np.random.default_rng(37)
    a, other = rng.normal(size=(2, 54, 54))
    first = svd(a)
    svd(other)
    again = svd(a)
    for x, y in ((first.u, again.u), (first.sigma, again.sigma),
                 (first.vt, again.vt)):
        assert x.tobytes() == y.tobytes()


def _sign_convention_loop(u, vt, r):
    # The column-by-column reference the vectorised convention replaces.
    for j in range(u.shape[1]):
        lead = int(np.argmax(np.abs(u[:, j])))
        if u[lead, j] < 0.0:
            u[:, j] = -u[:, j]
            if j < r:
                vt[j, :] = -vt[j, :]


def test_sign_convention_matches_loop_on_ties_and_rank():
    from lrskel.linalg import _apply_sign_convention

    # Columns 0 and 1 tie in magnitude between rows 0 and 2: the first row
    # decides, so column 0 flips and column 1 does not. Columns 2 and 3 flip
    # in u, but with r = 2 no row of vt past the first two may change.
    u = np.array([[-0.5, 0.5, 0.1, -0.2],
                  [0.1, 0.0, -0.9, 0.1],
                  [0.5, -0.5, 0.2, -0.8],
                  [0.0, 0.1, 0.0, 0.3]])
    vt = np.arange(12.0).reshape(4, 3) + 1.0
    expected_u, expected_vt = u.copy(), vt.copy()
    _sign_convention_loop(expected_u, expected_vt, 2)
    _apply_sign_convention(u, vt, 2)
    assert u.tobytes() == expected_u.tobytes()
    assert vt.tobytes() == expected_vt.tobytes()
    assert np.array_equal(u[:, :2], [[0.5, 0.5], [-0.1, 0.0], [-0.5, -0.5],
                                     [0.0, 0.1]])
    assert np.array_equal(vt[2:], np.arange(6.0, 12.0).reshape(2, 3) + 1.0)
    assert np.array_equal(vt[0], -np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("shape", [(6, 6), (9, 4), (4, 9), (1, 5)])
def test_sign_convention_matches_loop_on_random_factors(shape):
    from lrskel.linalg import _apply_sign_convention

    rng = np.random.default_rng(41)
    m, n = shape
    u, vt = rng.normal(size=(m, m)), rng.normal(size=(n, n))
    expected_u, expected_vt = u.copy(), vt.copy()
    _sign_convention_loop(expected_u, expected_vt, min(m, n))
    _apply_sign_convention(u, vt, min(m, n))
    assert u.tobytes() == expected_u.tobytes()
    assert vt.tobytes() == expected_vt.tobytes()


def _stack_catalogue(seed):
    """Matrices whose shapes repeat up to transposition: 32x8 and its
    transpose, 8x8, and 5x1 with its transpose."""
    rng = np.random.default_rng(seed)
    tall = rng.normal(size=(32, 8))
    return {
        "tall": tall,
        "tall-copy": tall.copy(),
        "tall-2": rng.normal(size=(32, 8)),
        "wide": rng.normal(size=(8, 32)),
        "rank-deficient": rng.normal(size=(32, 3)) @ rng.normal(size=(3, 8)),
        "zero": np.zeros((32, 8)),
        "square": rng.normal(size=(8, 8)),
        "square-2": rng.normal(size=(8, 8)),
        # Orthogonal columns: it stops rotating after sweep 1 while the
        # other 8x8 inputs keep rotating.
        "diagonal": np.diag(rng.uniform(0.5, 2.0, size=8)),
        "zero-square": np.zeros((8, 8)),
        "row": rng.normal(size=(1, 5)),
        "column": rng.normal(size=(5, 1)),
    }


def _assert_svds_equals_svd(mats):
    results = list(svds(mats))
    assert len(results) == len(mats)
    for a, got in zip(mats, results):
        want = svd(a)
        for x, y in ((got.u, want.u), (got.sigma, want.sigma),
                     (got.vt, want.vt)):
            assert np.array_equal(x, y)
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("names", [
    ["square", "diagonal", "square-2", "zero-square", "diagonal"],
    ["tall", "wide", "square", "tall-copy", "row", "zero", "tall",
     "rank-deficient", "diagonal", "column", "tall-2", "square-2"],
    ["row"], ["zero"], ["diagonal"],
], ids=["square-stack", "every-kind", "row", "zero", "diagonal"])
def test_svds_yields_svd_bit_for_bit_in_input_order(names):
    catalogue = _stack_catalogue(29)
    _assert_svds_equals_svd([catalogue[name] for name in names])


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.integers(0, 2**16),
       st.lists(st.sampled_from(sorted(_stack_catalogue(0))), min_size=1,
                max_size=8))
def test_svds_matches_svd_on_random_stacks(seed, names):
    catalogue = _stack_catalogue(seed)
    _assert_svds_equals_svd([catalogue[name] for name in names])


def test_svds_reports_the_first_failing_matrix_with_its_coupling(monkeypatch):
    import lrskel.linalg as linalg

    catalogue = _stack_catalogue(31)
    diag, a, b = (catalogue[k] for k in ("diagonal", "square", "square-2"))
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    svd(diag)  # one sweep without a rotation: converged
    alone = []
    for m in (a, b):
        with pytest.raises(SvdConvergenceError, match="coupling") as info:
            svd(m)
        alone.append(str(info.value))
    assert alone[0] != alone[1]
    for mats, index, message in (([diag, a, b], 1, alone[0]),
                                 ([diag, diag, b], 2, alone[1]),
                                 ([b, diag, a], 0, alone[1])):
        with pytest.raises(SvdConvergenceError) as info:
            next(svds(mats))
        assert info.value.index == index
        assert str(info.value) == message


def test_svds_keeps_no_yielded_result_alive():
    catalogue = _stack_catalogue(37)
    mats = [catalogue[k] for k in ("tall", "wide", "square", "tall-2", "row")]
    results = svds(mats)
    for _ in mats:
        ref = weakref.ref(next(results))
        assert ref() is None
