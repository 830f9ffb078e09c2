import math

import numpy as np
import pytest

from lrskel.linalg import (
    SvdResult,
    frobenius,
    reconstruction_error,
    svd,
    truncate_to_factors,
)


def test_svd_identity():
    s = svd(np.eye(3))
    assert np.allclose(s.sigma, [1.0, 1.0, 1.0], atol=0)


def test_svd_diagonal():
    s = svd(np.diag([3.0, 1.0]))
    assert np.allclose(s.sigma, [3.0, 1.0], atol=1e-15)


def test_svd_hand_oracle_2x2():
    # Singular values of [[1,1],[0,1]] from the eigenvalues of A^T A,
    # whose characteristic polynomial gives (3 +- sqrt(5)) / 2.
    s = svd(np.array([[1.0, 1.0], [0.0, 1.0]]))
    expected = [math.sqrt((3 + math.sqrt(5)) / 2), math.sqrt((3 - math.sqrt(5)) / 2)]
    assert np.abs(s.sigma - expected).max() < 1e-12


def test_svd_rejects_bad_tol():
    with pytest.raises(ValueError):
        svd(np.eye(2), tol=0.0)


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
    assert f.param_count == 1 * (2 + 2)


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
