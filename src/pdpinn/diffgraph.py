"""Differentiable expression engine.

Two layers live here:

* ``Jet2`` is a plain value/derivative container propagated in forward mode.
  Every quantity carries its value together with the first and the diagonal
  second derivatives with respect to each input coordinate.  Mixed partials
  are intentionally not propagated (none of the supported operators need
  them), which halves the jet width.

* A small reverse-mode tape (``TracedJet`` / ``TracedArray``) records the
  same primitive applications so that the exact gradient of a scalar loss
  with respect to network parameters can be accumulated.  The backward pass
  differentiates through the jet propagation itself.  Training does not
  run on it (``network.SlotPass`` has its own adjoint); the tests use it
  as an independent reference for that adjoint.

All arithmetic is float64; second derivatives amplify rounding and single
precision does not survive the finite-difference tolerances used in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


class JetDomainError(ValueError):
    """A primitive was applied outside its domain (e.g. division by zero)."""


class NonFiniteError(ArithmeticError):
    """A computation produced NaN/Inf; the message says where.

    ``row`` is the first batch row holding a non-finite entry, when known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def _as_f64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


# --------------------------------------------------------------------------
# Forward-mode jets
# --------------------------------------------------------------------------

@dataclass
class Jet2:
    """Value plus per-coordinate first and second derivatives.

    ``value`` has an arbitrary shape S; ``d1`` and ``d2`` have shape
    S + (dim,) where ``dim`` is the number of input coordinates of the
    enclosing evaluation.  The derivative axis is always last.
    """

    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    @property
    def dim(self) -> int:
        return self.d1.shape[-1]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def seed(points) -> "Jet2":
        """Jets of the input coordinates themselves.

        ``points`` has shape (..., d); the result carries d1[..., i, k] =
        delta_ik and zero second derivatives.
        """
        pts = _as_f64(points)
        d = pts.shape[-1]
        d1 = np.broadcast_to(np.eye(d), pts.shape + (d,)).copy()
        return Jet2(pts, d1, np.zeros(pts.shape + (d,)))

    @staticmethod
    def const(values, dim: int) -> "Jet2":
        """A quantity with no dependence on the input coordinates."""
        v = _as_f64(values)
        z = np.zeros(v.shape + (dim,))
        return Jet2(v, z, z.copy())

    def component(self, i: int) -> "Jet2":
        """Select entry i along the last value axis."""
        return Jet2(self.value[..., i], self.d1[..., i, :], self.d2[..., i, :])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value + other.value, self.d1 + other.d1,
                        self.d2 + other.d2)
        return Jet2(self.value + other, self.d1, self.d2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value - other.value, self.d1 - other.d1,
                        self.d2 - other.d2)
        return Jet2(self.value - other, self.d1, self.d2)

    def __rsub__(self, other):
        return Jet2(other - self.value, -self.d1, -self.d2)

    def __neg__(self):
        return Jet2(-self.value, -self.d1, -self.d2)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return _jet_mul(self, other)
        return Jet2(self.value * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__


def _jet_mul(f: Jet2, g: Jet2) -> Jet2:
    # The d2 grouping keeps the result bitwise symmetric under f <-> g.
    fv, gv = f.value[..., None], g.value[..., None]
    return Jet2(
        f.value * g.value,
        f.d1 * gv + fv * g.d1,
        (f.d2 * gv + fv * g.d2) + 2.0 * (f.d1 * g.d1),
    )


def chain_univariate(x: Jet2, f, f1, f2) -> Jet2:
    """Compose a tabulated scalar function onto a jet.

    ``f``, ``f1``, ``f2`` are the function and its first two derivatives
    already evaluated at ``x.value`` (shapes matching ``x.value``).
    """
    f1e, f2e = _as_f64(f1)[..., None], _as_f64(f2)[..., None]
    return Jet2(_as_f64(f), f1e * x.d1, f2e * x.d1 ** 2 + f1e * x.d2)


def sin(x: Jet2):
    if isinstance(x, TracedJet):
        raise TypeError("sin is not a traced primitive; apply it to constant jets")
    s, c = np.sin(x.value), np.cos(x.value)
    return chain_univariate(x, s, c, -s)


def cos(x: Jet2):
    if isinstance(x, TracedJet):
        raise TypeError("cos is not a traced primitive; apply it to constant jets")
    s, c = np.sin(x.value), np.cos(x.value)
    return chain_univariate(x, c, -s, -c)


def powi(x: Jet2, p: int) -> Jet2:
    """Integer power with exact derivative coefficients."""
    if p != int(p):
        raise JetDomainError("powi expects an integer exponent")
    p = int(p)
    if p < 0 and np.any(x.value == 0.0):
        raise JetDomainError("zero base with negative integer exponent")
    f = _ipow(x.value, p)
    f1 = p * _ipow(x.value, p - 1) if p != 0 else np.zeros_like(x.value)
    f2 = (p * (p - 1) * _ipow(x.value, p - 2)
          if p not in (0, 1) else np.zeros_like(x.value))
    return chain_univariate(x, f, f1, f2)


def _ipow(v: np.ndarray, e: int) -> np.ndarray:
    # v ** e for possibly negative e; only reached with nonzero v when e < 0.
    if e >= 0:
        return v ** e
    return 1.0 / v ** (-e)


def tanh_derivs(v: np.ndarray):
    """tanh and its first three derivatives at ``v``."""
    t = np.tanh(v)
    s = 1.0 - t * t
    return t, s, -2.0 * t * s, s * (6.0 * t * t - 2.0)


def stack_jets(jets, axis: int = -1) -> Jet2:
    """Stack scalar-shaped jets along a new value axis (default last)."""
    dax = axis if axis >= 0 else axis - 1
    return Jet2(
        np.stack([j.value for j in jets], axis=axis),
        np.stack([j.d1 for j in jets], axis=dax),
        np.stack([j.d2 for j in jets], axis=dax),
    )


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------

class ParamStore:
    """All trainable weights and biases, layer by layer.

    ``layers`` is an ordered list of (W, b) with W of shape (out, in) and b
    of shape (out,).  Adjacent layers must chain: in_{i+1} == out_i.  The
    flat view concatenates W1.ravel(), b1, W2.ravel(), b2, ...
    """

    def __init__(self, layers):
        layers = [(_as_f64(W), _as_f64(b)) for W, b in layers]
        for i, (W, b) in enumerate(layers):
            if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: W must be (out, in), b (out,)")
            if i > 0 and W.shape[1] != layers[i - 1][0].shape[0]:
                raise ValueError(
                    f"layer {i}: fan-in {W.shape[1]} does not chain with "
                    f"previous fan-out {layers[i - 1][0].shape[0]}")
        self.layers = layers

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    @property
    def layer_dims(self):
        """[(out, in)] for every layer."""
        return [W.shape for W, _ in self.layers]

    @property
    def n_params(self) -> int:
        return sum(W.size + b.size for W, b in self.layers)

    def flat(self) -> np.ndarray:
        return np.concatenate(
            [np.concatenate([W.ravel(), b]) for W, b in self.layers])

    def set_flat(self, vec: np.ndarray) -> None:
        vec = _as_f64(vec)
        if vec.shape != (self.n_params,):
            raise ValueError(f"expected flat vector of length {self.n_params}")
        pos = 0
        for W, b in self.layers:
            W[...] = vec[pos:pos + W.size].reshape(W.shape)
            pos += W.size
            b[...] = vec[pos:pos + b.size]
            pos += b.size

    def copy(self) -> "ParamStore":
        return ParamStore([(W.copy(), b.copy()) for W, b in self.layers])


# --------------------------------------------------------------------------
# Reverse-mode tape
# --------------------------------------------------------------------------

_node_counter = itertools.count()


def _check_finite(name: str, *arrays) -> None:
    for a in arrays:
        # a single reduction: any NaN/Inf poisons the sum
        if not np.isfinite(np.sum(a)):
            raise NonFiniteError(f"non-finite result at node {name}")


class _Node:
    __slots__ = ("parents", "_bw", "nid")

    def __init__(self, parents, bw):
        self.parents = parents
        self._bw = bw
        self.nid = next(_node_counter)


def _pack(jet: Jet2) -> np.ndarray:
    """Pack (value, d1, d2) into one array along a trailing slot axis."""
    return np.concatenate([jet.value[..., None], jet.d1, jet.d2], axis=-1)


class TracedJet(_Node):
    """A jet on the tape, stored packed.

    ``aug[..., 0]`` is the value, the next ``dim`` slots hold d1 and the
    last ``dim`` slots hold d2; the packed layout keeps every primitive a
    single array pass.  The adjoint ``g`` shares the layout.
    """

    __slots__ = ("aug", "dim", "g")

    def __init__(self, aug: np.ndarray, dim: int, parents=(), bw=None,
                 check: str | None = None):
        super().__init__(parents, bw)
        self.aug = aug
        self.dim = dim
        self.g = None
        if check is not None:
            _check_finite(f"{self.nid} ({check})", aug)

    @property
    def jet(self) -> Jet2:
        d = self.dim
        return Jet2(self.aug[..., 0], self.aug[..., 1:1 + d],
                    self.aug[..., 1 + d:])

    def _bump(self, g):
        self.g = g if self.g is None else self.g + g

    def _grad(self) -> np.ndarray:
        return self.g if self.g is not None else np.zeros_like(self.aug)

    # -- selections into plain traced arrays --------------------------------

    def _slot_arr(self, slot: int) -> "TracedArray":
        def bw(out):
            acc = np.zeros_like(self.aug)
            acc[..., slot] = out.g
            self._bump(acc)
        return TracedArray(self.aug[..., slot], (self,), bw)

    def value_arr(self) -> "TracedArray":
        return self._slot_arr(0)

    def d1_arr(self, k: int) -> "TracedArray":
        return self._slot_arr(1 + k)

    def d2_arr(self, k: int) -> "TracedArray":
        return self._slot_arr(1 + self.dim + k)


class TracedArray(_Node):
    """A plain array on the tape (residuals, losses)."""

    __slots__ = ("arr", "g")

    def __init__(self, arr, parents=(), bw=None, check: str | None = None):
        super().__init__(parents, bw)
        self.arr = _as_f64(arr)
        self.g = None
        if check is not None:
            _check_finite(f"{self.nid} ({check})", self.arr)

    def _bump(self, g):
        self.g = g if self.g is None else self.g + g

    def __add__(self, other):
        if isinstance(other, TracedArray):
            def bw(out):
                self._bump(out.g)
                other._bump(out.g)
            return TracedArray(self.arr + other.arr, (self, other), bw, "add")

        def bw(out):
            self._bump(out.g)
        return TracedArray(self.arr + other, (self,), bw, "add")

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TracedArray):
            def bw(out):
                self._bump(out.g)
                other._bump(-out.g)
            return TracedArray(self.arr - other.arr, (self, other), bw, "sub")

        def bw(out):
            self._bump(out.g)
        return TracedArray(self.arr - other, (self,), bw, "sub")

    def __rsub__(self, other):
        def bw(out):
            self._bump(-out.g)
        return TracedArray(other - self.arr, (self,), bw, "sub")

    def __neg__(self):
        def bw(out):
            self._bump(-out.g)
        return TracedArray(-self.arr, (self,), bw, "neg")

    def __mul__(self, other):
        if isinstance(other, TracedArray):
            def bw(out):
                self._bump(out.g * other.arr)
                other._bump(out.g * self.arr)
            return TracedArray(self.arr * other.arr, (self, other), bw, "mul")

        def bw(out):
            self._bump(out.g * other)
        return TracedArray(self.arr * other, (self,), bw, "mul")

    __rmul__ = __mul__

    def mean(self) -> "TracedArray":
        n = self.arr.size

        def bw(out):
            self._bump(np.full_like(self.arr, out.g / n))
        return TracedArray(self.arr.mean(), (self,), bw, "mean")


class Parameter(TracedArray):
    """Leaf traced array; gradients accumulate in ``.g``."""

    def __init__(self, arr):
        super().__init__(arr)


def wrap_params(store: ParamStore):
    """Parameter leaves for every layer, in store order."""
    return [(Parameter(W), Parameter(b)) for W, b in store.layers]


def backward(loss: TracedArray) -> None:
    """Reverse accumulation from a scalar loss node."""
    if loss.arr.shape != ():
        raise ValueError("backward expects a scalar loss node")
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.g = np.asarray(1.0)
    for node in reversed(order):
        if node._bw is not None and node.g is not None:
            node._bw(node)


def loss_parameter_gradient(loss: TracedArray, leaves) -> np.ndarray:
    """Exact d(loss)/d(theta), flat, in ParamStore order.

    ``leaves`` is the list produced by ``wrap_params``.  Parameters that do
    not participate in the loss get zero entries.
    """
    backward(loss)
    parts = []
    for PW, Pb in leaves:
        gW = PW.g if PW.g is not None else np.zeros_like(PW.arr)
        gb = Pb.g if Pb.g is not None else np.zeros_like(Pb.arr)
        parts.append(np.concatenate([gW.ravel(), gb.ravel()]))
    return np.concatenate(parts)


# --------------------------------------------------------------------------
# Primitives shared by the functional and the traced paths
# --------------------------------------------------------------------------
#
# Traced jets are restricted to the shapes the network pipeline produces:
# value (n, w), derivatives (n, w, d), plus (n,)-shaped jets after fusion.

def _contract_width(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """einsum('nik,ji->njk', A, M) via BLAS-backed matmul."""
    n, i, k = A.shape
    flat = np.ascontiguousarray(A.transpose(0, 2, 1)).reshape(n * k, i)
    return (flat @ M.T).reshape(n, k, M.shape[0]).transpose(0, 2, 1)


def _pair_width(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """einsum('njk,nik->ji', G, X) via BLAS-backed matmul."""
    n, j, k = G.shape
    gf = np.ascontiguousarray(G.transpose(1, 0, 2)).reshape(j, n * k)
    xf = np.ascontiguousarray(X.transpose(1, 0, 2)).reshape(X.shape[1], n * k)
    return gf @ xf.T


def tanh(x):
    if isinstance(x, TracedJet):
        d = x.dim
        xv, x1, x2 = x.aug[..., 0], x.aug[..., 1:1 + d], x.aug[..., 1 + d:]
        t, f1, f2, f3 = tanh_derivs(xv)
        f1e, f2e = f1[..., None], f2[..., None]
        out = np.empty_like(x.aug)
        out[..., 0] = t
        out[..., 1:1 + d] = f1e * x1
        out[..., 1 + d:] = f2e * x1 ** 2 + f1e * x2

        def bw(o):
            g = o._grad()
            gv, g1, g2 = g[..., 0], g[..., 1:1 + d], g[..., 1 + d:]
            g2x1 = g2 * x1
            acc = np.empty_like(x.aug)
            acc[..., 0] = (gv * f1
                           + f2 * (np.sum(g1 * x1, axis=-1)
                                   + np.sum(g2 * x2, axis=-1))
                           + f3 * np.sum(g2x1 * x1, axis=-1))
            acc[..., 1:1 + d] = g1 * f1e + 2.0 * f2e * g2x1
            acc[..., 1 + d:] = g2 * f1e
            x._bump(acc)
        return TracedJet(out, d, (x,), bw, "tanh")
    t, f1, f2, _ = tanh_derivs(x.value)
    return chain_univariate(x, t, f1, f2)


def affine(x, W, b):
    """y = W x + b applied along the last value axis."""
    if isinstance(x, TracedJet):
        Wv = W.arr if isinstance(W, TracedArray) else _as_f64(W)
        bv = b.arr if isinstance(b, TracedArray) else _as_f64(b)
        out = _contract_width(x.aug, Wv)
        out[..., 0] += bv
        parents = [x] + [p for p in (W, b) if isinstance(p, TracedArray)]

        def bw(o):
            g = o._grad()
            x._bump(_contract_width(g, Wv.T))
            if isinstance(W, TracedArray):
                W._bump(_pair_width(g, x.aug))
            if isinstance(b, TracedArray):
                b._bump(g[..., 0].sum(axis=0))
        return TracedJet(out, x.dim, tuple(parents), bw, "affine")

    Wv, bv = _as_f64(W), _as_f64(b)
    if x.value.shape[-1] != Wv.shape[1]:
        raise ValueError(
            f"affine: input width {x.value.shape[-1]} != fan-in {Wv.shape[1]}")
    if x.value.ndim == 2:
        return Jet2(x.value @ Wv.T + bv,
                    _contract_width(x.d1, Wv),
                    _contract_width(x.d2, Wv))
    return Jet2(x.value @ Wv.T + bv,
                np.einsum("...ik,ji->...jk", x.d1, Wv),
                np.einsum("...ik,ji->...jk", x.d2, Wv))


def mul(a, b):
    """Jet product with the full second-order product rule."""
    if isinstance(a, TracedJet) or isinstance(b, TracedJet):
        return _traced_mul(a, b)
    return _jet_mul(a, b)


def _traced_mul(a, b):
    aj = a.jet if isinstance(a, TracedJet) else a
    bj = b.jet if isinstance(b, TracedJet) else b
    out = _jet_mul(aj, bj)
    dim = out.d1.shape[-1]
    parents = tuple(p for p in (a, b) if isinstance(p, TracedJet))

    def bw(o):
        g = o._grad()
        gv, g1, g2 = g[..., 0], g[..., 1:1 + dim], g[..., 1 + dim:]
        for node, other in ((a, bj), (b, aj)):
            if not isinstance(node, TracedJet):
                continue
            ov = other.value[..., None]
            acc = np.empty_like(node.aug)
            acc[..., 0] = (gv * other.value
                           + np.sum(g1 * other.d1, axis=-1)
                           + np.sum(g2 * other.d2, axis=-1))
            acc[..., 1:1 + dim] = g1 * ov + g2 * 2.0 * other.d1
            acc[..., 1 + dim:] = g2 * ov
            node._bump(acc)
    return TracedJet(_pack(out), dim, parents, bw, "mul")


def sum_words(x, axis: int = -1):
    """Sum along a value axis (used to contract dictionary words)."""
    if isinstance(x, TracedJet):
        if axis != -1:
            raise ValueError("traced sum_words supports only the last value axis")
        out = x.aug.sum(axis=-2)
        w = x.aug.shape[-2]

        def bw(o):
            g = o._grad()
            x._bump(np.repeat(g[..., None, :], w, axis=-2))
        return TracedJet(out, x.dim, (x,), bw, "sum")
    dax = axis if axis >= 0 else axis - 1
    return Jet2(x.value.sum(axis=axis), x.d1.sum(axis=dax), x.d2.sum(axis=dax))


def trace_input(jet: Jet2) -> TracedJet:
    """Put a constant jet (the network input) on the tape as a leaf."""
    return TracedJet(_pack(jet), jet.dim)
