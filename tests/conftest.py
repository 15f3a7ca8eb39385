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
    returns (d1, d2) of shape (d, n), derivative slot first like ``Jet2``.
    Independent of the jet engine.
    """
    pts = np.asarray(pts, dtype=np.float64)
    v0 = value_fn(pts)
    d1 = np.empty(pts.shape[::-1])
    d2 = np.empty(pts.shape[::-1])
    for k in range(pts.shape[1]):
        e = np.zeros(pts.shape[1])
        e[k] = h
        vp, vm = value_fn(pts + e), value_fn(pts - e)
        d1[k] = (vp - vm) / (2.0 * h)
        d2[k] = (vp - 2.0 * v0 + vm) / h ** 2
    return d1, d2


def fd_jet_richardson(value_fn, pts, h=1e-4, wide=1e-2):
    """``fd_jet`` with each second difference taken from a Richardson pair
    at a larger step: (4 D(wide / 2) - D(wide)) / 3, where D(s) is the
    central second difference at step s.  d1 is ``fd_jet``'s.

    D(s) rounds by about eps |u| / s^2, 2e-8 |u| at s = 1e-4, which an
    operator coefficient such as the sphere's 1/sin^2(theta) near a pole
    multiplies; at the larger steps that rounding is hundreds of times
    smaller, and the pair cancels the s^2 truncation term of D.  ``value_fn``
    must be smooth within ``wide`` of every point.
    """
    pts = np.asarray(pts, dtype=np.float64)
    d1, _ = fd_jet(value_fn, pts, h)
    v0 = value_fn(pts)
    d2 = np.empty_like(d1)

    def second(k, step):
        e = np.zeros(pts.shape[1])
        e[k] = step
        return (value_fn(pts + e) - 2.0 * v0 + value_fn(pts - e)) / step ** 2

    for k in range(pts.shape[1]):
        d2[k] = (4.0 * second(k, wide / 2.0) - second(k, wide)) / 3.0
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
