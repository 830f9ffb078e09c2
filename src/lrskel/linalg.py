"""Dense matrix helpers and a deterministic one-sided Jacobi SVD.

Matrices are plain float64 numpy arrays throughout the package. This module
owns the decomposition used for rank reduction: a full SVD built from
one-sided Jacobi rotations, plus truncation into a cascaded factor pair and
the closed-form truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SVD_TOL = 1e-12
MAX_SWEEPS = 100


class SvdConvergenceError(RuntimeError):
    """Jacobi sweeps hit the iteration cap before reaching tolerance."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite float64 2-D array or raise ValueError."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def frobenius(a) -> float:
    return float(np.sqrt(np.sum(np.asarray(a, dtype=np.float64) ** 2)))


@dataclass(frozen=True)
class SvdResult:
    """Full decomposition ``a = u @ S @ vt`` with rectangular diagonal S.

    ``u`` is rows x rows orthogonal, ``vt`` is cols x cols orthogonal and
    ``sigma`` holds the min(rows, cols) singular values, non-negative and
    sorted non-increasing. Each column of ``u`` has its largest-magnitude
    entry non-negative, which pins an otherwise arbitrary sign choice.
    """

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray

    def reconstruct(self) -> np.ndarray:
        r = self.sigma.size
        return (self.u[:, :r] * self.sigma) @ self.vt[:r, :]


def svd(a, tol: float = DEFAULT_SVD_TOL) -> SvdResult:
    """Full SVD via one-sided Jacobi rotations.

    Parameters
    ----------
    a : array_like
        Finite real matrix.
    tol : float
        Relative off-diagonal convergence threshold: a column pair (p, q)
        counts as orthogonal once |b_p . b_q| <= tol * ||b_p|| * ||b_q||.

    Raises
    ------
    SvdConvergenceError
        If the sweep cap is reached; the message reports the worst residual.
    """
    a = as_matrix(a, "a")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    m, n = a.shape
    if m >= n:
        u, sigma, v = _jacobi_svd(a, tol)
        vt = v.T.copy()
    else:
        # Work on the transpose so columns outnumber rows never happens:
        # a.T = ub S vb.T  =>  a = vb S ub.T
        ub, sigma, vb = _jacobi_svd(a.T, tol)
        u = vb
        vt = ub.T.copy()
    _apply_sign_convention(u, vt, sigma.size)
    return SvdResult(u=u, sigma=sigma, vt=vt)


def _jacobi_svd(b, tol):
    """One-sided Jacobi for rows >= cols; returns (u full, sigma, v full)."""
    rows, cols = b.shape
    work = b.copy()
    v = np.eye(cols)
    converged = False
    for _ in range(MAX_SWEEPS):
        rotated = False
        for p in range(cols - 1):
            for q in range(p + 1, cols):
                gamma = float(work[:, p] @ work[:, q])
                alpha = float(work[:, p] @ work[:, p])
                beta = float(work[:, q] @ work[:, q])
                if abs(gamma) <= tol * math.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                new_p = c * work[:, p] - s * work[:, q]
                new_q = s * work[:, p] + c * work[:, q]
                work[:, p] = new_p
                work[:, q] = new_q
                new_vp = c * v[:, p] - s * v[:, q]
                new_vq = s * v[:, p] + c * v[:, q]
                v[:, p] = new_vp
                v[:, q] = new_vq
        if not rotated:
            converged = True
            break
    if not converged:
        raise SvdConvergenceError(
            f"no convergence after {MAX_SWEEPS} sweeps; "
            f"max relative column coupling {_worst_coupling(work):.3e}"
        )
    sigma = np.sqrt(np.sum(work * work, axis=0))
    order = np.argsort(-sigma, kind="stable")  # ties keep the earlier index
    sigma = sigma[order]
    work = work[:, order]
    v = np.ascontiguousarray(v[:, order])
    u = np.zeros((rows, rows))
    have = np.zeros(rows, dtype=bool)
    for j in range(cols):
        if sigma[j] > 0.0:
            u[:, j] = work[:, j] / sigma[j]
            have[j] = True
    _complete_basis(u, have)
    return u, sigma, v


def _worst_coupling(work):
    norms = np.sqrt(np.sum(work * work, axis=0))
    gram = np.abs(work.T @ work)
    np.fill_diagonal(gram, 0.0)
    denom = np.outer(norms, norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(denom > 0.0, gram / denom, 0.0)
    return float(rel.max(initial=0.0))


def _complete_basis(u, have):
    """Fill the unset columns of ``u`` with a deterministic orthonormal
    completion, greedily picking the standard basis vector farthest from the
    current span (first index wins ties)."""
    dim = u.shape[0]
    for j in np.flatnonzero(~have):
        span = u[:, np.flatnonzero(have)]
        resid = np.eye(dim) - span @ span.T
        pick = int(np.argmax(np.sqrt(np.sum(resid * resid, axis=0))))
        vec = resid[:, pick].copy()
        vec -= span @ (span.T @ vec)  # second pass for orthogonality
        u[:, j] = vec / np.sqrt(np.sum(vec * vec))
        have[j] = True


def _apply_sign_convention(u, vt, r):
    for j in range(u.shape[1]):
        lead = int(np.argmax(np.abs(u[:, j])))
        if u[lead, j] < 0.0:
            u[:, j] = -u[:, j]
            if j < r:
                vt[j, :] = -vt[j, :]


@dataclass(frozen=True)
class TruncatedFactors:
    """Cascaded factor pair of a rank-k truncation.

    ``w1`` is C_in x k (left singular vectors scaled by their singular
    values), ``w2`` is k x C_out (leading rows of vt); their product is the
    best rank-k approximation of the decomposed matrix.
    """

    w1: np.ndarray
    w2: np.ndarray
    k: int

    @property
    def param_count(self) -> int:
        return self.k * (self.w1.shape[0] + self.w2.shape[1])

    def materialize(self) -> np.ndarray:
        return self.w1 @ self.w2


def truncate_to_factors(s: SvdResult, k: int) -> TruncatedFactors:
    """Keep the k largest singular values of ``s`` as a factor pair."""
    _check_rank(s, k)
    w1 = s.u[:, :k] * s.sigma[:k]
    w2 = s.vt[:k, :].copy()
    return TruncatedFactors(w1=w1, w2=w2, k=k)


def reconstruction_error(s: SvdResult, k: int) -> float:
    """Frobenius distance from the decomposed matrix to its rank-k
    truncation: sqrt of the sum of the squared discarded singular values."""
    _check_rank(s, k)
    return float(np.sqrt(np.sum(s.sigma[k:] ** 2)))


def _check_rank(s: SvdResult, k) -> None:
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"rank must be an integer, got {k!r}")
    if not 1 <= k <= s.sigma.size:
        raise ValueError(f"rank {k} out of range [1, {s.sigma.size}]")
