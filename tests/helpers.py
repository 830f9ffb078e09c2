"""Shared test oracles (finite differences, naive reference code) and
hooks into a sweep's forked workers."""

import os

import numpy as np
import pytest

from lrskel import compress

FD_STEP = 1e-5


def finite_difference(scalar_fn, array, step=FD_STEP):
    """Central-difference gradient of scalar_fn with respect to ``array``,
    perturbing it in place."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = scalar_fn()
        flat[i] = orig - step
        down = scalar_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def assert_grads_close(analytic, numeric, rtol, atol=1e-8):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    assert analytic.shape == numeric.shape
    diff = np.abs(analytic - numeric)
    bound = atol + rtol * np.maximum(np.abs(analytic), np.abs(numeric))
    assert (diff <= bound).all(), (
        f"gradient mismatch: worst diff {diff.max():.3e}, "
        f"allowed {bound.flat[np.argmax(diff)]:.3e}"
    )


def naive_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def counting_svd(monkeypatch):
    """Route ``compress.svds`` through a wrapper that records each matrix it
    is given to decompose; returns the list of recorded inputs."""
    calls = []
    real = compress.svds

    def counted(mats):
        mats = list(mats)
        calls.extend(mats)
        return real(mats)

    monkeypatch.setattr(compress, "svds", counted)
    return calls


def forced_cpus(monkeypatch, n):
    """Give the process an affinity mask of ``n`` CPUs, so a sweep scores
    its plans on up to ``n`` workers; returns the list that records each
    ``os.fork`` the caller makes."""
    forks, real = [], os.fork

    def counted():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "fork", counted)
    return forks


def hooked_compress(monkeypatch, hook):
    """Call ``hook(plan_text, in_child)`` before a sweep builds each plan's
    model; ``in_child`` is true in a forked worker."""
    caller, real = os.getpid(), compress._compress

    def hooked(model, plan, truncations):
        hook(plan.render(), os.getpid() != caller)
        return real(model, plan, truncations)

    monkeypatch.setattr(compress, "_compress", hooked)


def assert_no_children():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
