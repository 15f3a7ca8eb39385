"""Trainable tanh MLP: initialization, jet forward passes, checkpoints.

Two forward passes live here.  ``mlp_forward`` propagates plain ``Jet2``
values (``training.predictor_jets``, the ``Jet2`` reference, and tests
use it).  ``SlotPass`` is the pass of training, prediction and bound
checks: jets stored slot-major, one GEMM per affine map, and a
hand-written adjoint for the parameter gradient.  Its inputs are written
straight into the slots (``training.predictor_slots``), and every array
of a run or a verifier thread comes from one ``SlotBuffers`` pool;
``SlotLayout.pack`` of a ``Jet2`` is the reference they are checked
against.  A slot pass tests its predictor slots for NaN/Inf once, and
walks its layers again to say where only when that test fails.  The
adjoint of a retained pass writes each layer's adjoint over that layer's
input and builds tanh''' itself, so a pass's gradient can be taken once.
Training evaluates its recorded error with forward-only passes of
``training.FORWARD_CHUNK`` points; after two published iterations a run's
pool holds about 18.5 MiB on poisson2d, 14.5-15.0 on diffusion1d, 4.7-4.9
on sphere and 2.2-2.3 on poisson1d (dictionary and plain models).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .diffgraph import (Jet2, NonFiniteError, ParamStore, affine,
                        layer_views, tanh)

_CKPT_MAGIC = b"MLPC"
_CKPT_VERSION = 1


class GradientUnavailableError(RuntimeError):
    """``SlotPass.gradient`` on a pass that cannot give one: a forward-only
    pass, or one whose gradient was already taken."""


@dataclass(frozen=True)
class MlpConfig:
    """Architecture of the trainable network.

    ``hidden_widths`` lists the widths of the hidden layers in order; the
    output layer is linear (no activation).
    """

    input_dim: int
    hidden_widths: tuple
    output_dim: int
    seed: int = 0

    def __post_init__(self):
        widths = tuple(self.hidden_widths)
        object.__setattr__(self, "hidden_widths", widths)
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("dimensions must be >= 1")
        if len(widths) < 1 or any(w < 1 for w in widths):
            raise ValueError("need at least one hidden layer of width >= 1")


def init_mlp(cfg: MlpConfig) -> ParamStore:
    """Uniform initialization on [-1/sqrt(fan_in), 1/sqrt(fan_in)].

    Weights and biases of a layer share the same law; draws are reproducible
    for a given seed.
    """
    rng = np.random.default_rng(cfg.seed)
    dims = [cfg.input_dim, *cfg.hidden_widths, cfg.output_dim]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        W = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = rng.uniform(-bound, bound, size=fan_out)
        layers.append((W, b))
    return ParamStore(layers)


def _check_fan_in(layers, width: int) -> None:
    fan_in = np.asarray(layers[0][0]).shape[1]
    if width != fan_in:
        raise ValueError(f"input width {width} does not match fan-in {fan_in}")


def mlp_forward(layers, x: Jet2) -> Jet2:
    """Apply the network (``ParamStore.layers``) to an input jet.

    tanh follows every layer except the last.
    """
    _check_fan_in(layers, x.value.shape[-1])
    out = x
    for i, (W, b) in enumerate(layers):
        out = affine(out, W, b)
        if i < len(layers) - 1:
            out = tanh(out)
    return out


# --------------------------------------------------------------------------
# Slot-major training pass
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SlotLayout:
    """Which jet slots a slot-major array carries, along its first axis.

    Slot 0 is the value, then one d1 slot per coordinate index in ``d1``
    (every coordinate of ``coords`` when None), then, with ``operator``
    set, one slot L holding the problem operator applied to the jet.  The
    operator slot needs the d1 slot of every coordinate the operator
    differentiates twice.  ``SlotLayout()`` carries values only.
    """

    coords: tuple = ()            # names of the problem coordinates
    d1: tuple | None = None
    operator: bool = False

    def __post_init__(self):
        d1 = range(len(self.coords)) if self.d1 is None else self.d1
        object.__setattr__(self, "d1", tuple(d1))

    def name(self, slot: int) -> str:
        if slot == 0:
            return "value"
        if slot <= len(self.d1):
            return f"d1[{self.coords[self.d1[slot - 1]]}]"
        return "L"

    @property
    def slots(self) -> int:
        return 1 + len(self.d1) + self.operator

    def pack(self, jet: Jet2, op: np.ndarray | None = None) -> np.ndarray:
        """Slot-major copy of a jet, shape (slots,) + value shape; ``op`` is
        the operator applied to the jet, for the L slot."""
        out = np.empty((self.slots,) + jet.value.shape)
        out[0] = jet.value
        for s, k in enumerate(self.d1, 1):
            out[s] = jet.d1[k]
        if self.operator:
            out[-1] = op
        return out


VALUES = SlotLayout()


class SlotBuffers:
    """Work arrays that successive slot passes reuse, and the last inputs
    of each pass role.

    ``take(role, shape)`` returns a contiguous view of the first
    prod(shape) entries of one uninitialised float64 array per role, grown
    when a request is larger, so a loop over batches of any sizes maps its
    jet pages once instead of on every pass.  Roles never share memory;
    the arrays of a pass (its ``net``, and ``F`` of a plain network) hold
    only until the next pass on the same buffers, and ``SlotPass.gradient``
    always returns a fresh array.  A retained pass takes one array per
    layer for each of z, h, f1, f2 (and a_k z_k), and its adjoint takes
    none of its own: it goes over the consumed layer inputs h and the
    fusion product, with one tanh''' array and one set of einsum scratch
    arrays shared by all layers.  ``scope(name)`` serves the roles
    ``(name, role)``, so each set of pass inputs (``predictor_slots``)
    keeps arrays of its own.  ``memo`` keeps one built input per role.
    A pool serves one run or one thread, so each memo role always means
    the same problem, dictionary and slot layout.
    """

    def __init__(self):
        self.arrays = {}
        self.views = {}                  # (role, shape) -> view of arrays[role]
        self.memos = {}

    def take(self, role, shape: tuple) -> np.ndarray:
        view = self.views.get((role, shape))
        if view is not None:
            return view
        size = math.prod(shape)
        a = self.arrays.get(role)
        if a is None or a.size < size:
            a = self.arrays[role] = np.empty(size)
            # a view of the old array would keep its memory alive
            self.views = {k: v for k, v in self.views.items() if k[0] != role}
        view = self.views[role, shape] = a[:size].reshape(shape)
        return view

    def scope(self, name) -> "_Scope":
        return _Scope(self, name)

    def memo(self, role, points: np.ndarray, build):
        """``build()``, reused while ``role`` is asked for at points equal
        (``np.array_equal``) to those of its last build.

        The result comes back as read-only views, since every later pass
        of the role reads them.  Its arrays may be the pool's own: a new
        build of the role writes over them, so the old one is dropped
        first.
        """
        last = self.memos.get(role)
        if last is not None and np.array_equal(last[0], points):
            return last[1]
        self.memos.pop(role, None)
        built = _read_only(build())
        self.memos[role] = (np.array(points), built)
        return built


class _Scope:
    """The roles ``(name, role)`` of a pool."""

    def __init__(self, pool: SlotBuffers, name):
        self.pool, self.name = pool, name

    def take(self, role, shape: tuple) -> np.ndarray:
        return self.pool.take((self.name, role), shape)


def _read_only(value):
    """``value`` with each array in it, through tuples, as a read-only
    view."""
    if isinstance(value, np.ndarray):
        value = value.view()
        value.flags.writeable = False
    elif isinstance(value, tuple):
        value = tuple(map(_read_only, value))
    return value


class SlotPass:
    """Forward pass of the predictor <words, MLP(x)> on slot-major jets.

    ``x`` is the network input in the slots of ``layout`` (shape (S, n,
    fan_in)) and ``words`` the dictionary words in the same slots, or None
    for a plain network whose single output is the predictor; both come
    from ``training.predictor_slots``.  ``coeffs`` holds
    the operator's second-order coefficient a_k of each d1 slot: None for
    one, a float, or an (n, 1) array; the L slot propagates through them.
    Each affine map is one GEMM on the contiguous (S*n, width) view.  The
    predictor slots end up in ``F`` (shape (S, n)); ``gradient`` is the
    hand-written adjoint.  It writes each layer's adjoint dL/dh over that
    layer's input h once the layer's weight gradient is formed, the
    fusion's adjoint over the fusion product, and builds tanh''' from h
    just before; the input slots ``x`` are never written.  So ``gradient``
    can be called once per pass, and a second call raises
    ``GradientUnavailableError``.  With ``retain=False`` the pass keeps no
    per-layer state and skips the tanh derivatives only the adjoint reads,
    so ``gradient`` raises that error too.  Work arrays come from
    ``buffers`` (a ``SlotBuffers``), or from a pool of the pass's own when
    it is None.
    ``F`` is checked for NaN/Inf once, and a NaN/Inf in any layer output
    reaches it; a failing pass walks its layers again to raise a
    ``NonFiniteError`` naming the first layer, slot and row at fault, or
    the fusion when every layer output is finite.
    """

    def __init__(self, layers, layout: SlotLayout, x: np.ndarray, words=None,
                 coeffs=(), retain: bool = True,
                 buffers: SlotBuffers | None = None):
        _check_fan_in(layers, x.shape[-1])
        self.layers, self.layout, self.words = layers, layout, words
        self.coeffs = coeffs
        self.retain = retain
        self.spent = False               # gradient taken, inputs overwritten
        self._take = (SlotBuffers() if buffers is None else buffers).take
        self.inputs = []                 # the input slots of every layer
        self.hidden = []                 # (z, f1, f2, a_k z_k) per tanh
        self.net = self._walk(x)
        self.F = (self.net[..., 0] if words is None
                  else self._fuse(words, self.net))
        # a single reduction: any NaN/Inf poisons the sum
        if not np.isfinite(np.sum(self.F)):
            self._raise_nonfinite(x)

    def _walk(self, x: np.ndarray, check: bool = False) -> np.ndarray:
        """The network's output slots from the input slots ``x``; with
        ``check``, each layer's output is tested for NaN/Inf."""
        h = x
        for i, (W, b) in enumerate(self.layers):
            if self.retain:
                self.inputs.append(h)
            h = self._affine(h, W, b, i)
            if i < len(self.layers) - 1:
                h = self._tanh(h, i)
            if check:
                self._check_finite(h, i)
        return h

    def _raise_nonfinite(self, x: np.ndarray) -> None:
        """Name the first layer, slot and row of a NaN/Inf in ``F``.

        Every such failure reaches ``F``: a NaN/Inf in any slot of a row
        turns that row of the next GEMM non-finite in every unit, and
        neither tanh (f1 >= 0, and 0 * inf is NaN) nor the fusion makes it
        finite again.  So the layers are walked once more from ``x``, on a
        pool of their own, checking each output; when all are finite the
        words or their fusion are at fault.
        """
        bad = ~np.isfinite(self.F)                      # (S, n)
        rows = np.any(bad, axis=0)
        if not rows.any():
            return                      # only the sum overflowed
        self.retain, self._take = False, SlotBuffers().take
        self._walk(x, check=True)
        row = int(np.argmax(rows))
        slot = int(np.argmax(bad[:, row]))
        raise NonFiniteError(
            f"non-finite {self.layout.name(slot)} in the fusion with the "
            "words", row=row)

    def _key(self, role: str, i: int):
        # the adjoint reads every layer's arrays; a forward-only pass
        # overwrites one set layer after layer
        return (role, i) if self.retain else role

    def _affine(self, h: np.ndarray, W: np.ndarray, b: np.ndarray,
                i: int) -> np.ndarray:
        S, n, w = h.shape
        z = self._take(self._key("z", i), (S, n, W.shape[0]))
        np.matmul(h.reshape(S * n, w), W.T, out=z.reshape(S * n, -1))
        z[0] += b
        return z

    def _check_finite(self, h: np.ndarray, i: int) -> None:
        bad = ~np.all(np.isfinite(h), axis=-1)          # (S, n)
        rows = np.any(bad, axis=0)
        if not rows.any():
            return                      # this layer's output is finite
        row = int(np.argmax(rows))
        slot = int(np.argmax(bad[:, row]))
        raise NonFiniteError(
            f"non-finite {self.layout.name(slot)} in the output of layer "
            f"{i + 1} of {len(self.layers)}", row=row)

    def _weighted(self, u: np.ndarray, role: str) -> np.ndarray:
        """a_k u_k over the d1 slots u (u itself when every a_k is one)."""
        if all(a is None for a in self.coeffs):
            return u
        out = self._take(role, u.shape)
        for k, a in enumerate(self.coeffs):
            np.multiply(u[k], 1.0 if a is None else a, out=out[k])
        return out

    def _tanh(self, z: np.ndarray, i: int) -> np.ndarray:
        # h_k = f1 z_k, and h_L = f1 z_L + f2 sum_k a_k z_k^2
        m, op = len(self.layout.d1), self.layout.operator
        _, n, w = z.shape

        def take(role, shape=(n, w)):
            return self._take(self._key(role, i), shape)

        h = take("h", z.shape)
        t = np.tanh(z[0], out=h[0])
        f1 = f2 = az = None
        derivatives = len(z) > 1
        if derivatives or self.retain:
            f1 = np.multiply(t, t, out=take("f1"))
            np.subtract(1.0, f1, out=f1)
        # the adjoint reaches f2 through the derivative slots, so a
        # value-only pass needs none; ``gradient`` builds tanh''' itself
        if op or (derivatives and self.retain):
            f2 = np.multiply(t, -2.0, out=take("f2"))
            f2 *= f1
        if derivatives:
            np.multiply(z[1:], f1, out=h[1:])
        if op:
            z1 = z[1:1 + m]
            az = self._weighted(z1, self._key("az", i))
            sq = np.einsum("snw,snw->nw", az, z1,
                           out=self._take("sq", (n, w)))
            sq *= f2
            h[-1] += sq
        if self.retain:
            self.hidden.append((z, f1, f2, az))
        return h

    def _tanh_adjoint(self, gh, z, f1, f2, f3, az) -> np.ndarray:
        """dL/dz from gh = dL/dh, computed in place in gh; ``az`` is the
        forward's a_k z_k and ``f3`` is tanh''' (None without L)."""
        m, op = len(self.layout.d1), self.layout.operator
        if len(gh) == 1:
            # value slot alone: dL/dz = f1 dL/dh
            gh *= f1
            return gh
        e1 = np.einsum("snw,snw->nw", gh[1:], z[1:],
                       out=self._take("e1", f1.shape))
        e1 *= f2
        if op:
            # the L slot reaches z_k through 2 f2 a_k z_k and z_0 through
            # f3 sum_k a_k z_k^2
            z1 = z[1:1 + m]
            q = np.multiply(az, gh[-1], out=self._take("q", z1.shape))
            e2 = np.einsum("snw,snw->nw", q, z1, out=self._take("e2", f1.shape))
            e2 *= f3
            e1 += e2
            q *= np.multiply(f2, 2.0, out=e2)
        gh *= f1
        gh[0] += e1
        if op:
            gh[1:1 + m] += q
        return gh

    def _fuse(self, C: np.ndarray, N: np.ndarray) -> np.ndarray:
        # the product rule, with L<C,N> = <LC,N> + <C,LN>
        # + 2 sum_k a_k <C_k, N_k>; T is C-ordered like the packed words,
        # which fixes the summation order of T.sum
        T = np.multiply(C, N[0], out=self._take("T", C.shape))
        T[1:] += np.multiply(C[0], N[1:], out=self._take("cn", N[1:].shape))
        if self.layout.operator:
            m = len(self.layout.d1)
            self.ac = self._weighted(C[1:1 + m], "ac")
            c2 = np.einsum("snw,snw->nw", self.ac, N[1:1 + m],
                           out=self._take("cn2", N.shape[1:]))
            c2 *= 2.0
            T[-1] += c2
        return T.sum(axis=-1)

    def _fuse_adjoint(self, gF: np.ndarray) -> np.ndarray:
        """dL/dN, written over the fusion product T, dead once F = T.sum."""
        C = self.words
        if C is None:
            return gF[..., None]
        g = self._take("T", C.shape)
        np.einsum("sn,snw->nw", gF, C, out=g[0])
        np.multiply(C[0], gF[1:, :, None], out=g[1:])
        if self.layout.operator:
            m = len(self.layout.d1)
            c2 = np.multiply(self.ac, gF[-1, :, None],
                             out=self._take("cn2", g[1:1 + m].shape))
            c2 *= 2.0
            g[1:1 + m] += c2
        return g

    def gradient(self, gF: np.ndarray) -> np.ndarray:
        """Flat d(loss)/d(theta) in ParamStore order from gF = d(loss)/dF.

        Each layer's adjoint dL/dh is written over that layer's input h
        once its weight gradient is formed, so the gradient of a pass can
        be taken once; the input slots ``x`` of the pass are never written.
        """
        if not self.retain:
            raise GradientUnavailableError(
                "a pass with retain=False keeps no state for its gradient")
        if self.spent:
            raise GradientUnavailableError(
                "the gradient of a pass can be taken once: it writes each "
                "layer's adjoint over that layer's input")
        self.spent = True
        g = self._fuse_adjoint(gF)
        grad = np.empty(sum(W.size + b.size for W, b in self.layers))
        views = layer_views([W.shape for W, _ in self.layers], grad)
        for i in range(len(self.layers) - 1, -1, -1):
            (W, _), (dW, db) = self.layers[i], views[i]
            x = self.inputs[i]
            S, n, w = x.shape
            g2 = g.reshape(S * n, -1)
            np.matmul(g2.T, x.reshape(S * n, w), out=dW)
            np.sum(g[0], axis=0, out=db)
            if i:
                # x is the tanh output h of layer i - 1, read for the last
                # time here: tanh''' = (6 t^2 - 2) f1 needs its value slot t,
                # in one array that every layer shares
                z, f1, f2, az = self.hidden[i - 1]
                f3 = None
                if self.layout.operator:
                    t = x[0]
                    f3 = np.multiply(t, 6.0, out=self._take("f3", f1.shape))
                    f3 *= t
                    f3 -= 2.0
                    f3 *= f1
                np.matmul(g2, W, out=x.reshape(S * n, w))
                g = self._tanh_adjoint(x, z, f1, f2, f3, az)
        return grad


def save_checkpoint(store: ParamStore, path) -> None:
    """Write ``theta`` as little-endian doubles behind a shape header."""
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(store.layers)))
        for W, _ in store.layers:
            fh.write(struct.pack("<II", W.shape[0], W.shape[1]))
        fh.write(store.theta.astype("<f8").tobytes())


def load_checkpoint(path) -> ParamStore:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a parameter checkpoint")
    if len(data) < 12:
        raise ValueError(f"{path}: truncated checkpoint header "
                         f"({len(data)} bytes, expected 12)")
    version, n_layers = struct.unpack_from("<II", data, 4)
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if n_layers == 0:
        raise ValueError(f"{path}: checkpoint has no layers")
    pos = 12 + 8 * n_layers
    if len(data) < pos:
        raise ValueError(f"{path}: truncated checkpoint shape table "
                         f"({len(data)} bytes, {n_layers} layers need {pos})")
    shapes = [struct.unpack_from("<II", data, 12 + 8 * i)
              for i in range(n_layers)]
    expected = pos + 8 * sum(o * i + o for o, i in shapes)
    if len(data) != expected:
        raise ValueError(f"{path}: truncated checkpoint "
                         f"({len(data)} bytes, expected {expected})")
    theta = np.frombuffer(data, dtype="<f8", offset=pos)
    try:
        return ParamStore(layer_views(shapes, theta))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
