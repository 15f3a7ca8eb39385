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
A pass may carry a second row group of boundary points with values only,
after the interior's value slot, so a training step takes both losses
from one pass.  A training step runs one such pass per row block of
``training.TRAIN_BLOCK`` points or fewer, each block on a pool of its
own (``SlotBuffers.parts``).  Training evaluates its recorded error with
forward-only passes of ``training.FORWARD_CHUNK`` points.  After two
published iterations a run's pools hold about 20.1-20.3 MiB on poisson2d
and 15.7-16.4 on diffusion1d, in two pools for their two blocks of 500
points, and 4.7-4.9 on sphere and 2.2-2.3 on poisson1d, in one pool
(dictionary and plain models).  Two half blocks take the same memory as
one whole pass.
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
    the arrays of a pass (its ``net``, and ``rows`` and ``F`` of a plain
    network) hold only until the next pass on the same buffers, and
    ``SlotPass.gradient`` always returns a fresh array.  A retained pass
    takes one array per layer for each of z, h, f1 (over all rows, or all
    value rows, boundary rows included), f2 and a_k z_k (over the
    interior's rows), and its adjoint takes none of its own: it goes over
    the consumed layer inputs h and the fusion product, with one tanh'''
    array and one set of einsum scratch arrays shared by all layers.
    ``scope(name)`` serves the roles ``(name, role)``, so each set of pass
    inputs (``predictor_slots``) keeps arrays of its own.  ``memo`` keeps
    one built input per role.  A pool serves one run or one thread, so
    each memo role always means the same problem, dictionary and slot
    layout.  ``parts(count)`` serves the blocks of a split pass, each from
    a pool of its own.
    """

    def __init__(self):
        self.arrays = {}
        self.views = {}                  # (role, shape) -> view of arrays[role]
        self.memos = {}
        self.others = []                 # the pools of parts after the first

    def parts(self, count: int) -> list:
        """``count`` pools for the parts of a split pass: this one, then
        pools kept with it, so the parts can run on threads of their own
        and every later split reuses their arrays and memos."""
        while len(self.others) < count - 1:
            self.others.append(type(self)())
        return [self, *self.others[:count - 1]]

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
        of the role reads them; arrays in a list stay writable, for rows
        each pass fills itself.  Its arrays may be the pool's own: a new
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
    view; a list is left as it is."""
    if isinstance(value, np.ndarray):
        value = value.view()
        value.flags.writeable = False
    elif isinstance(value, tuple):
        value = tuple(map(_read_only, value))
    return value


def _input_adjoint(g: np.ndarray, W: np.ndarray, out: np.ndarray) -> None:
    """g @ W into ``out``.  With one output unit (K = 1) that is the
    broadcast product g W, which numpy forms about twice as fast as the
    GEMM, with equal values (only the signs of zeros may differ)."""
    if W.shape[0] == 1:
        np.multiply(g, W, out=out)
    else:
        np.matmul(g, W, out=out)


class SlotPass:
    """Forward pass of the predictor <words, MLP(x)> on slot-major jets.

    ``x`` is the network input in the slots of ``layout`` (shape (S, n,
    fan_in)) and ``words`` the dictionary words in the same slots, or None
    for a plain network whose single output is the predictor; both come
    from ``training.predictor_slots``.  ``coeffs`` holds
    the operator's second-order coefficient a_k of each d1 slot: None for
    one, a float, or an (n, 1) array; the L slot propagates through them.

    With ``boundary`` = m > 0, ``x`` and ``words`` are flat rows (S n + m,
    width) that carry a second group of m points with values only: the
    value slot of the n interior points, then the value slot of the m
    boundary points, then the other slots of the interior points.  Each
    affine map is one GEMM over all rows, and tanh and its first
    derivative run once over the n + m value rows; all that the other
    slots need touches the first n value rows only.  A point's value row
    is its index in the interior points followed by the boundary points.

    The predictor at every row ends up in ``rows`` (shape (S n + m,)), and
    without a boundary group in ``F`` too (the same values, shape (S, n));
    ``gradient`` is the hand-written adjoint.  It writes each layer's
    adjoint dL/dh over that layer's input h once the layer's weight
    gradient is formed, the fusion's adjoint over the fusion product, and
    builds tanh''' from h just before; the input slots ``x`` are never
    written.  So ``gradient`` can be called once per pass, and a second
    call raises ``GradientUnavailableError``.  With ``retain=False`` the
    pass keeps no per-layer state and skips the tanh derivatives only the
    adjoint reads, so ``gradient`` raises that error too.  Work arrays come
    from ``buffers`` (a ``SlotBuffers``), or from a pool of the pass's own
    when it is None.
    ``rows`` is checked for NaN/Inf once, and a NaN/Inf in any layer
    output reaches it; a failing pass walks its layers again to raise a
    ``NonFiniteError`` naming the first layer, slot and point at fault
    (its ``row`` is the point's value row), or the fusion when every layer
    output is finite.
    """

    def __init__(self, layers, layout: SlotLayout, x: np.ndarray, words=None,
                 coeffs=(), retain: bool = True,
                 buffers: SlotBuffers | None = None, boundary: int = 0):
        _check_fan_in(layers, x.shape[-1])
        self.layers, self.layout = layers, layout
        self.coeffs = coeffs
        self.retain = retain
        self.spent = False               # gradient taken, inputs overwritten
        self._take = (SlotBuffers() if buffers is None else buffers).take
        self.inputs = []                 # the input slots of every layer
        self.hidden = []                 # per tanh: slots of z, h; f1, f2, az
        x = x.reshape(-1, x.shape[-1])
        S = self.S = layout.slots
        self.n, rest = divmod(len(x) - boundary, S)
        if boundary < 0 or rest or self.n < 0:
            raise ValueError(f"{len(x)} rows do not hold {S} slots of "
                             f"interior points and {boundary} boundary "
                             "values")
        if boundary and not self.n and S > 1:
            raise ValueError("boundary values without interior points "
                             "need a value-only layout")
        self.m, self.v = boundary, self.n + boundary
        self.words = None if words is None else words.reshape(len(x), -1)
        net = self._walk(x)
        self.rows = (net[:, 0] if words is None
                     else self._fuse(self.words, net))
        self.net, self.F = net, None
        if not boundary:
            self.net = net.reshape(S, self.n, -1)
            self.F = self.rows.reshape(S, self.n)
        # a single reduction: any NaN/Inf poisons the sum
        if not np.isfinite(np.sum(self.rows)):
            self._raise_nonfinite(x)

    def _slots(self, a: np.ndarray) -> np.ndarray:
        """The interior's slots after the value, (S - 1, n, width), of the
        rows ``a``."""
        return a[self.v:].reshape(self.S - 1, self.n, a.shape[-1])

    def _walk(self, x: np.ndarray, check: bool = False) -> np.ndarray:
        """The network's output rows from the input rows ``x``; with
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

    def _first_bad(self, bad: np.ndarray):
        """(slot, point) of the first point with a row flagged in ``bad``
        (one flag per row), at its first flagged slot; None if none is."""
        points = bad[:self.v].copy()
        slots = bad[self.v:].reshape(self.S - 1, self.n)
        if slots.size:
            points[:self.n] |= slots.any(axis=0)
        if not points.any():
            return None
        point = int(np.argmax(points))
        return (0 if bad[point] else 1 + int(np.argmax(slots[:, point])),
                point)

    def _raise_nonfinite(self, x: np.ndarray) -> None:
        """Name the first layer, slot and point of a NaN/Inf in ``rows``.

        Every such failure reaches ``rows``: a NaN/Inf in any slot of a row
        turns that row of the next GEMM non-finite in every unit, and
        neither tanh (f1 >= 0, and 0 * inf is NaN) nor the fusion makes it
        finite again.  So the layers are walked once more from ``x``, on a
        pool of their own, checking each output; when all are finite the
        words or their fusion are at fault.
        """
        at = self._first_bad(~np.isfinite(self.rows))
        if at is None:
            return                      # only the sum overflowed
        self.retain, self._take = False, SlotBuffers().take
        self._walk(x, check=True)
        slot, point = at
        raise NonFiniteError(
            f"non-finite {self.layout.name(slot)} in the fusion with the "
            "words", row=point)

    def _key(self, role: str, i: int):
        # the adjoint reads every layer's arrays; a forward-only pass
        # overwrites one set layer after layer
        return (role, i) if self.retain else role

    def _affine(self, h: np.ndarray, W: np.ndarray, b: np.ndarray,
                i: int) -> np.ndarray:
        z = self._take(self._key("z", i), (len(h), W.shape[0]))
        np.matmul(h, W.T, out=z)
        z[:self.v] += b
        return z

    def _check_finite(self, h: np.ndarray, i: int) -> None:
        at = self._first_bad(~np.all(np.isfinite(h), axis=-1))
        if at is None:
            return                      # this layer's output is finite
        slot, point = at
        raise NonFiniteError(
            f"non-finite {self.layout.name(slot)} in the output of layer "
            f"{i + 1} of {len(self.layers)}", row=point)

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
        n, v, w = self.n, self.v, z.shape[-1]

        def take(role, shape=(n, w)):
            return self._take(self._key(role, i), shape)

        h = take("h", z.shape)
        t = np.tanh(z[:v], out=h[:v])
        f1 = f2 = az = zs = hs = None
        derivatives = self.S > 1
        if derivatives or self.retain:
            f1 = np.multiply(t, t, out=take("f1", (v, w)))
            np.subtract(1.0, f1, out=f1)
        # the adjoint reaches f2 through the derivative slots, so a
        # value-only pass needs none; ``gradient`` builds tanh''' itself
        if op or (derivatives and self.retain):
            f2 = np.multiply(t[:n], -2.0, out=take("f2"))
            f2 *= f1[:n]
        if derivatives:
            zs, hs = self._slots(z), self._slots(h)
            np.multiply(zs, f1[:n], out=hs)
        if op:
            z1 = zs[:m]
            az = self._weighted(z1, self._key("az", i))
            sq = np.einsum("snw,snw->nw", az, z1,
                           out=self._take("sq", (n, w)))
            sq *= f2
            hs[-1] += sq
        if self.retain:
            self.hidden.append((zs, hs, f1, f2, az))
        return h

    def _tanh_adjoint(self, gh, ghs, zs, f1, f2, f3, az) -> np.ndarray:
        """dL/dz from gh = dL/dh, computed in place in gh; ``ghs`` and
        ``zs`` are the slots after the value of gh and z, ``az`` is the
        forward's a_k z_k and ``f3`` is tanh''' (None without L)."""
        m, op = len(self.layout.d1), self.layout.operator
        n, v = self.n, self.v
        if self.S == 1:
            # value slot alone: dL/dz = f1 dL/dh
            gh *= f1
            return gh
        e1 = np.einsum("snw,snw->nw", ghs, zs,
                       out=self._take("e1", f2.shape))
        e1 *= f2
        if op:
            # the L slot reaches z_k through 2 f2 a_k z_k and z_0 through
            # f3 sum_k a_k z_k^2
            z1 = zs[:m]
            q = np.multiply(az, ghs[-1], out=self._take("q", z1.shape))
            e2 = np.einsum("snw,snw->nw", q, z1, out=self._take("e2", f2.shape))
            e2 *= f3
            e1 += e2
            q *= np.multiply(f2, 2.0, out=e2)
        gh[:v] *= f1
        ghs *= f1[:n]
        gh[:n] += e1
        if op:
            ghs[:m] += q
        return gh

    def _fuse(self, C: np.ndarray, N: np.ndarray) -> np.ndarray:
        # the product rule, with L<C,N> = <LC,N> + <C,LN>
        # + 2 sum_k a_k <C_k, N_k>; T is C-ordered like the packed words,
        # which fixes the summation order of T.sum
        n, v = self.n, self.v
        T = self._take("T", C.shape)
        np.multiply(C[:v], N[:v], out=T[:v])
        if self.S > 1:
            Cs, Ts, Ns = self._slots(C), self._slots(T), self._slots(N)
            np.multiply(Cs, N[:n], out=Ts)
            Ts += np.multiply(C[:n], Ns, out=self._take("cn", Ns.shape))
        if self.layout.operator:
            m = len(self.layout.d1)
            self.ac = self._weighted(Cs[:m], "ac")
            c2 = np.einsum("snw,snw->nw", self.ac, Ns[:m],
                           out=self._take("cn2", Ns.shape[1:]))
            c2 *= 2.0
            Ts[-1] += c2
        return T.sum(axis=-1)

    def _fuse_adjoint(self, gF: np.ndarray) -> np.ndarray:
        """dL/dN from gF = dL/d(rows), written over the fusion product T,
        dead once the rows are T.sum."""
        C = self.words
        if C is None:
            return gF[:, None]
        S, n, v = self.S, self.n, self.v
        g = self._take("T", C.shape)
        if S == 1 or not self.m:
            np.einsum("sn,snw->nw", gF.reshape(S, v), C.reshape(S, v, -1),
                      out=g[:v])
        else:
            # the boundary rows carry a value slot alone
            np.multiply(C[:v], gF[:v, None], out=g[:v])
            g[:n] += np.einsum("sn,snw->nw", gF[v:].reshape(S - 1, n),
                               self._slots(C),
                               out=self._take("cn2", (n, C.shape[1])))
        if S > 1:
            gFs, gs = gF[v:].reshape(S - 1, n, 1), self._slots(g)
            np.multiply(C[:n], gFs, out=gs)
        if self.layout.operator:
            m = len(self.layout.d1)
            c2 = np.multiply(self.ac, gFs[-1],
                             out=self._take("cn2", gs[:m].shape))
            c2 *= 2.0
            gs[:m] += c2
        return g

    def gradient(self, gF: np.ndarray) -> np.ndarray:
        """Flat d(loss)/d(theta) in ParamStore order from gF = d(loss)/dF,
        one entry per row in the order of ``rows`` (or shaped like ``F``).

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
        g = self._fuse_adjoint(np.reshape(gF, len(self.rows)))
        grad = np.empty(sum(W.size + b.size for W, b in self.layers))
        views = layer_views([W.shape for W, _ in self.layers], grad)
        n = self.n
        for i in range(len(self.layers) - 1, -1, -1):
            (W, _), (dW, db) = self.layers[i], views[i]
            x = self.inputs[i]
            np.matmul(g.T, x, out=dW)
            np.sum(g[:self.v], axis=0, out=db)
            if i:
                # x is the tanh output h of layer i - 1, read for the last
                # time here: tanh''' = (6 t^2 - 2) f1 needs the interior's
                # value slot t, in one array that every layer shares
                zs, hs, f1, f2, az = self.hidden[i - 1]
                f3 = None
                if self.layout.operator:
                    t = x[:n]
                    f3 = np.multiply(t, 6.0, out=self._take("f3", t.shape))
                    f3 *= t
                    f3 -= 2.0
                    f3 *= f1[:n]
                _input_adjoint(g, W, x)
                g = self._tanh_adjoint(x, hs, zs, f1, f2, f3, az)
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
