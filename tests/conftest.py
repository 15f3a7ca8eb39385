"""Shared helpers: error comparators and finite-difference oracles.

All finite-difference checks use the mixed absolute/relative comparison
|a - b| <= tol * max(|a|, |b|, 1): relative beyond unit scale, absolute
below it, so components that vanish do not inflate the relative error.

BLAS threading is pinned to one thread per process (before numpy loads) so
the acceptance suite's worker processes do not oversubscribe the cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest


def agree(a, b, tol, floor=1.0):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return bool(np.all(np.abs(a - b) <= tol * scale))


def max_mixed_err(a, b, floor=1.0):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


def fd_jet(value_fn, pts, h=1e-4):
    """Central-difference first/second derivative oracle.

    ``value_fn(points) -> values`` evaluated around ``pts`` of shape (n, d);
    returns (d1, d2) of shape (n, d).  Independent of the jet engine.
    """
    pts = np.asarray(pts, dtype=np.float64)
    v0 = value_fn(pts)
    d1 = np.empty_like(pts)
    d2 = np.empty_like(pts)
    for k in range(pts.shape[1]):
        e = np.zeros(pts.shape[1])
        e[k] = h
        vp, vm = value_fn(pts + e), value_fn(pts - e)
        d1[:, k] = (vp - vm) / (2.0 * h)
        d2[:, k] = (vp - 2.0 * v0 + vm) / h ** 2
    return d1, d2


def fd_loss_gradient(loss_fn, store, indices, h=1e-4):
    """Central-difference gradient oracle over selected parameters."""
    flat = store.flat()
    grads = []
    for i in indices:
        up, dn = flat.copy(), flat.copy()
        up[i] += h
        dn[i] -= h
        sp, sm = store.copy(), store.copy()
        sp.set_flat(up)
        sm.set_flat(dn)
        grads.append((loss_fn(sp) - loss_fn(sm)) / (2.0 * h))
    return np.asarray(grads)


@pytest.fixture
def chunk_workers(monkeypatch):
    """``set(n)`` has ``training.predictor_fields`` spread its chunks over
    ``n`` CPUs, None for the CPUs the process may use."""
    from pdpinn import training

    usable = training._usable_cpus

    def set_workers(n):
        monkeypatch.setattr(training, "_usable_cpus",
                            usable if n is None else lambda: n)
    return set_workers


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
