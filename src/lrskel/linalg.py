"""Dense matrix helpers and a deterministic one-sided Jacobi SVD.

Matrices are plain float64 numpy arrays throughout the package. This module
owns the decomposition used for rank reduction: a full SVD built from
one-sided Jacobi rotations, plus truncation into a cascaded factor pair and
the closed-form truncation error. It also holds the admission rules for
scalars; ``check_rank``, 1 <= k <= min(shape), is the one rank rule of
plans, low-rank layers and truncations.

The SVD reduces a tall input to its square QR triangle first (Drmac &
Veselic 2008), then orthogonalises columns in round-robin order (Brent &
Luk 1985): each sweep is n-1 steps (n when n is odd); each step tests up
to n/2 disjoint column pairs of every matrix in a stack of one shape at
once and rotates the coupled ones in the columns and the accumulated V.
``svds`` runs a list of matrices this way, one stack per shape, and ``svd``
one matrix. numpy's QR is the only LAPACK routine it uses;
``np.linalg.svd`` stays an independent test oracle.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

# A column pair (p, q) counts as orthogonal once
# |b_p . b_q| <= SVD_TOL * ||b_p|| * ||b_q||.
SVD_TOL = 1e-12
MAX_SWEEPS = 100


class SvdConvergenceError(RuntimeError):
    """Jacobi sweeps hit the iteration cap; ``index`` is the input's place."""

    def __init__(self, message, index=0):
        super().__init__(message)
        self.index = index


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


def check_integer(name: str, value, low=None) -> None:
    """Raise ValueError unless ``value`` is a non-bool integer, >= ``low`` if given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")


def check_rank(k, shape) -> None:
    """Raise ValueError unless ``k`` is an integer in [1, min(shape)]."""
    check_integer("rank", k, 1)
    if k > min(shape):
        raise ValueError(f"rank {k} exceeds min dimension {min(shape)}")


def check_seed(value) -> None:
    """Raise ValueError unless ``value`` is an integer in [0, 2**64)."""
    check_integer("seed", value)
    if not 0 <= value < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")


def check_number(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a finite, non-bool real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")


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


def svd(a) -> SvdResult:
    """Full SVD via one-sided Jacobi rotations in round-robin order.

    A tall input is first reduced by a Householder QR, ``a = Q [R; 0]``, so
    the rotations work on the cols x cols triangle R; a wide input goes
    through its transpose. Each Jacobi sweep runs as n-1 steps (n when n is
    odd) that each rotate up to n/2 disjoint column pairs at once, until
    every pair is orthogonal to the relative threshold ``SVD_TOL``.

    Parameters
    ----------
    a : array_like
        Finite real matrix.

    Raises
    ------
    SvdConvergenceError
        If the sweep cap is reached; the message reports the worst residual.
    """
    return next(svds([a]))  # one body: svd is svds of one matrix


def svds(mats):
    """Yield ``svd(a)`` for each matrix of ``mats``, in order, bit for bit.

    Inputs of one shape (a wide one counts as its transpose) share one
    stacked Jacobi run, started when the first of them is due and dropped
    once the last is yielded. A convergence error names the failing matrix
    of the stack with the lowest input index: its ``index`` in ``mats``.
    """
    mats = [as_matrix(a, "a") for a in mats]
    tall = [a if a.shape[0] >= a.shape[1] else a.T for a in mats]
    stacks = {}
    for i, b in enumerate(tall):
        if b.shape not in stacks:
            ids = [j for j in range(i, len(tall)) if tall[j].shape == b.shape]
            stacks[b.shape] = _square_stack(tall, ids)
        yield _result(mats[i], b, *next(stacks[b.shape]))
        if b.shape not in (c.shape for c in tall[i + 1:]):
            del stacks[b.shape]


def _result(a, b, cols, v):
    """``svd(a)`` from the rotated columns and V of the core of ``b``, ``a``
    or its transpose. A tall ``b`` = Q [R; 0] (complete Householder QR, made
    here) has the singular values and right vectors of R, and left vectors
    [Q_1 U_R | Q_2]: the trailing columns of Q already complete the basis."""
    rows, n = b.shape
    sigma = np.sqrt(np.einsum("ij,ij->i", cols, cols))
    order = np.argsort(-sigma, kind="stable")  # ties keep the earlier index
    sigma = sigma[order]
    cols = cols[order]
    vt = v[order]
    u = np.zeros((n, n))
    have = sigma > 0.0
    u[:, have] = (cols[have] / sigma[have, None]).T
    if not have.all():
        _complete_basis(u, have)
    if rows > n:
        q, u_r = np.linalg.qr(b, mode="complete")[0], u
        u = np.empty((rows, rows))
        u[:, :n] = q[:, :n] @ u_r
        u[:, n:] = q[:, n:]
    if b is not a:
        # a.T = ub S vbt  =>  a = vbt.T S ub.T
        u, vt = np.ascontiguousarray(vt.T), np.ascontiguousarray(u.T)
    _apply_sign_convention(u, vt, sigma.size)
    return SvdResult(u=u, sigma=sigma, vt=vt)


def _square_stack(tall, ids):
    """One-sided Jacobi on the square cores of ``tall[i]``, i in ``ids``, at
    once (one shape; a tall one's core is its QR R, whose bits mode "r"
    keeps). Returns an iterator over each one's rotated columns and V; a
    generator here would keep the step buffers alive while each U is built.

    Row g*n + i of the flat (G*n, n) ``cols``, and of V, is column i of
    matrix g. A step gathers the pair rows of every matrix as one
    (G*P, 2, n) block to find the pairs not yet orthogonal to ``SVD_TOL``,
    then rotates those, and only those, in both stores with one batched
    2 x 2 matmul each. A matrix with no active pair in a sweep has unchanged
    columns, so the next sweep tests the same columns and again rotates
    nothing: each gets the bits of a run on its own.
    """
    g, n = len(ids), tall[ids[0]].shape[1]
    cores, vs = np.empty((g, n, n)), np.zeros((g, n, n))
    for core, b in zip(cores, [tall[i] for i in ids]):
        core[:] = (np.linalg.qr(b, "r") if len(b) > n else b).T
    vs.reshape(g, n * n)[:, ::n + 1] = 1.0
    cols, v = cores.reshape(g * n, n), vs.reshape(g * n, n)
    steps = [(np.arange(g)[:, None, None] * n + pairs).reshape(-1, 2)
             for pairs in _round_robin(n)]
    # Step buffers, reused: a fresh pairs x 2 x n block per step costs page
    # faults. take's "clip" mode (pairs are in range) fills them unbuffered.
    gathered, rotated_rows = np.empty((2, g * (n // 2), 2, n))
    moved = np.ones(g, dtype=bool)  # before a sweep, none is known converged
    for _ in range(MAX_SWEEPS):
        moved[:] = False
        for pairs in steps:
            x = cols.take(pairs, 0, gathered[:len(pairs)], "clip")
            norms = np.einsum("kij,kij->ki", x, x)
            alpha, beta = norms[:, 0], norms[:, 1]
            gamma = np.einsum("ij,ij->i", x[:, 0], x[:, 1])
            active = np.abs(gamma) > SVD_TOL * np.sqrt(alpha * beta)
            n_active = np.count_nonzero(active)
            if not n_active:
                continue
            moved |= active.reshape(g, -1).any(axis=1)
            if n_active < active.size:
                pairs, x = pairs[active], x[active]
                alpha, beta, gamma = alpha[active], beta[active], gamma[active]
            zeta = (beta - alpha) / (2.0 * gamma)
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            c = 1.0 / np.hypot(1.0, t)
            s = c * t
            # new_p = c b_p - s b_q,  new_q = s b_p + c b_q
            rot = np.array([c, -s, s, c]).T.reshape(-1, 2, 2)
            cols[pairs] = np.matmul(rot, x, out=rotated_rows[:n_active])
            x = v.take(pairs, 0, gathered[:n_active], "clip")
            v[pairs] = np.matmul(rot, x, out=rotated_rows[:n_active])
        if not moved.any():
            return zip(cores, vs)
    first = np.flatnonzero(moved)[0]
    raise SvdConvergenceError(
        f"no convergence after {MAX_SWEEPS} sweeps; max relative column "
        f"coupling {_worst_coupling(cores[first]):.3e}",
        ids[first])


@functools.lru_cache(maxsize=32)
def _round_robin(n):
    """Round-robin (tournament) pair order for n columns, after Brent & Luk
    (1985): steps of disjoint (p, q) pairs, p < q, that together meet every
    pair once. An even n takes n-1 steps. An odd n takes n: it gets one
    padding column, which is zero and so never rotates, and the pairs with
    it are left out instead of stored. Cached per n: the steps are read-only."""
    m = n + n % 2
    ring = np.arange(1, m)
    steps = []
    for shift in range(m - 1):
        seats = np.concatenate([[0], np.roll(ring, shift)])
        # Seat i plays seat m-1-i; each pair lists its lower column first.
        pairs = np.stack([seats[:m // 2], seats[:m // 2 - 1:-1]], axis=1)
        pairs.sort(axis=1)
        pairs = pairs[pairs[:, 1] < n]
        if pairs.size:
            pairs.flags.writeable = False
            steps.append(pairs)
    return tuple(steps)


def _worst_coupling(cols):
    """Largest |b_p . b_q| / (||b_p|| ||b_q||) over the rows of ``cols``."""
    norms = np.sqrt(np.einsum("ij,ij->i", cols, cols))
    gram = np.abs(cols @ cols.T)
    np.fill_diagonal(gram, 0.0)
    denom = np.outer(norms, norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(denom > 0.0, gram / denom, 0.0)
    return float(rel.max(initial=0.0))


def _complete_basis(u, have):
    """Fill the columns of ``u`` not marked in ``have`` with an orthonormal
    basis of the complement of the marked ones: the trailing columns of one
    complete Householder QR of ``[span | I]``, whose leading columns span
    the marked ones. Deterministic, and exactly I for an empty span."""
    span = u[:, have]
    q, _ = np.linalg.qr(np.hstack([span, np.eye(u.shape[0])]), mode="complete")
    u[:, ~have] = q[:, span.shape[1]:]


def _apply_sign_convention(u, vt, r):
    lead = np.argmax(np.abs(u), axis=0)  # the first row on a tie
    flip = np.flatnonzero(u[lead, np.arange(u.shape[1])] < 0.0)
    u[:, flip] *= -1.0
    vt[flip[flip < r]] *= -1.0


@dataclass(frozen=True)
class TruncatedFactors:
    """Cascaded factor pair of a rank-k truncation.

    ``w1`` is C_in x k (left singular vectors scaled by their singular
    values), ``w2`` is k x C_out (leading rows of vt); their product is the
    best rank-k approximation of the decomposed matrix.
    """

    w1: np.ndarray
    w2: np.ndarray

    def materialize(self) -> np.ndarray:
        return self.w1 @ self.w2


def truncate_to_factors(s: SvdResult, k: int) -> TruncatedFactors:
    """Keep the k largest singular values of ``s`` as a factor pair."""
    check_rank(k, (len(s.u), len(s.vt)))
    w1 = s.u[:, :k] * s.sigma[:k]
    w2 = s.vt[:k, :].copy()
    return TruncatedFactors(w1=w1, w2=w2)


def reconstruction_error(s: SvdResult, k: int) -> float:
    """Frobenius distance from the decomposed matrix to its rank-k
    truncation: sqrt of the sum of the squared discarded singular values."""
    check_rank(k, (len(s.u), len(s.vt)))
    return float(np.sqrt(np.sum(s.sigma[k:] ** 2)))

