"""Trainable tanh MLP: initialization, jet forward passes, checkpoints.

Two forward passes live here.  ``mlp_forward`` propagates plain ``Jet2``
values (dictionaries and tests use it).  ``SlotPass`` is the pass of
training, prediction and bound checks: jets stored slot-major, one GEMM
per affine map, and a hand-written adjoint for the parameter gradient.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .diffgraph import Jet2, NonFiniteError, ParamStore, affine, tanh

_CKPT_MAGIC = b"MLPC"
_CKPT_VERSION = 1


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
            out[s] = jet.d1[..., k]
        if self.operator:
            out[-1] = op
        return out


VALUES = SlotLayout()


class SlotBuffers:
    """Work arrays that successive slot passes reuse, and the last inputs
    of each pass role.

    ``take(role, shape)`` returns the same uninitialised float64 array
    every time it is asked for a role and shape, so a loop over fixed-size
    batches maps its jet pages once instead of on every pass.  The arrays
    of a pass (its ``net``, and ``F`` of a plain network) hold only until
    the next pass on the same buffers; ``SlotPass.gradient`` always returns
    a fresh array.  ``memo`` keeps one built input per role.  A pool serves
    one run, so each role always means the same problem, dictionary and
    slot layout.
    """

    def __init__(self):
        self.arrays = {}
        self.memos = {}

    def take(self, role, shape) -> np.ndarray:
        key = (role, tuple(shape))
        a = self.arrays.get(key)
        if a is None:
            a = self.arrays[key] = np.empty(shape)
        return a

    def memo(self, role, points: np.ndarray, build):
        """``build()``, reused while ``role`` is asked for at points equal
        (``np.array_equal``) to those of its last build.

        The arrays of the result are made read-only, since every later
        pass of the role reads them.
        """
        last = self.memos.get(role)
        if last is not None and np.array_equal(last[0], points):
            return last[1]
        built = build()
        _freeze(built)
        self.memos[role] = (np.array(points), built)
        return built


def _freeze(value) -> None:
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for v in value:
            _freeze(v)


def _fresh(role, shape) -> np.ndarray:
    return np.empty(shape)


class SlotPass:
    """Forward pass of the predictor <words, MLP(x)> on slot-major jets.

    ``x`` is the network input packed by ``layout`` (shape (S, n, fan_in))
    and ``words`` the dictionary words packed the same way, or None for a
    plain network whose single output is the predictor.  ``coeffs`` holds
    the operator's second-order coefficient a_k of each d1 slot: None for
    one, a float, or an (n, 1) array; the L slot propagates through them.
    Each affine map is one GEMM on the contiguous (S*n, width) view.  The
    predictor slots end up in ``F`` (shape (S, n)); ``gradient`` is the
    hand-written adjoint.  With ``retain=False`` the pass keeps no
    per-layer state and skips the tanh derivatives only the adjoint reads,
    so ``gradient`` is unavailable.  Work arrays come from ``buffers`` (a
    ``SlotBuffers``), or are allocated afresh when it is None.  Every layer
    output is checked for NaN/Inf.
    """

    def __init__(self, layers, layout: SlotLayout, x: np.ndarray, words=None,
                 coeffs=(), retain: bool = True,
                 buffers: SlotBuffers | None = None):
        _check_fan_in(layers, x.shape[-1])
        self.layers, self.layout, self.words = layers, layout, words
        self.coeffs = coeffs
        self.retain = retain
        self._take = _fresh if buffers is None else buffers.take
        self.inputs = []                 # the input slots of every layer
        self.hidden = []                 # (pre-activation, f1, f2, f3) per tanh
        h = x
        for i, (W, b) in enumerate(layers):
            if retain:
                self.inputs.append(h)
            h = self._affine(h, W, b, i)
            if i < len(layers) - 1:
                h = self._tanh(h, i)
            self._check_finite(h, i)
        self.net = h
        self.F = h[..., 0] if words is None else self._fuse(words, h)

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
        # a single reduction: any NaN/Inf poisons the sum
        if np.isfinite(np.sum(h)):
            return
        bad = ~np.all(np.isfinite(h), axis=-1)          # (S, n)
        rows = np.any(bad, axis=0)
        if not rows.any():
            return                                      # only the sum overflowed
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
        f1 = f2 = f3 = None
        derivatives = len(z) > 1
        if derivatives or self.retain:
            f1 = np.multiply(t, t, out=take("f1"))
            np.subtract(1.0, f1, out=f1)
        # the adjoint reaches f2 through the derivative slots and f3
        # through L alone, so a value-only pass needs neither
        if op or (derivatives and self.retain):
            f2 = np.multiply(t, -2.0, out=take("f2"))
            f2 *= f1
        if op and self.retain:
            f3 = np.multiply(t, 6.0, out=take("f3"))
            f3 *= t
            f3 -= 2.0
            f3 *= f1
        if self.retain:
            self.hidden.append((z, f1, f2, f3))
        if derivatives:
            np.multiply(z[1:], f1, out=h[1:])
        if op:
            z1 = z[1:1 + m]
            sq = np.einsum("snw,snw->nw", self._weighted(z1, "az"), z1,
                           out=self._take("sq", (n, w)))
            sq *= f2
            h[-1] += sq
        return h

    def _tanh_adjoint(self, gh, z, f1, f2, f3) -> np.ndarray:
        """dL/dz from gh = dL/dh, computed in place in gh."""
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
            q = np.multiply(self._weighted(z1, "az"), gh[-1],
                            out=self._take("q", z1.shape))
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
        # + 2 sum_k a_k <C_k, N_k>; T keeps the words' memory layout, which
        # fixes the summation order of T.sum
        T = np.multiply(C, N[0], out=np.empty_like(C))
        T[1:] += np.multiply(C[0], N[1:], out=self._take("cn", N[1:].shape))
        if self.layout.operator:
            m = len(self.layout.d1)
            c2 = np.einsum("snw,snw->nw", self._weighted(C[1:1 + m], "ac"),
                           N[1:1 + m], out=self._take("cn2", N.shape[1:]))
            c2 *= 2.0
            T[-1] += c2
        return T.sum(axis=-1)

    def _fuse_adjoint(self, gF: np.ndarray) -> np.ndarray:
        C = self.words
        if C is None:
            return gF[..., None]
        g = self._take("gnet", self.net.shape)
        np.einsum("sn,snw->nw", gF, C, out=g[0])
        np.multiply(C[0], gF[1:, :, None], out=g[1:])
        if self.layout.operator:
            m = len(self.layout.d1)
            c2 = np.multiply(self._weighted(C[1:1 + m], "ac"), gF[-1, :, None],
                             out=self._take("cn2", g[1:1 + m].shape))
            c2 *= 2.0
            g[1:1 + m] += c2
        return g

    def gradient(self, gF: np.ndarray) -> np.ndarray:
        """Flat d(loss)/d(theta) in ParamStore order from gF = d(loss)/dF."""
        g = self._fuse_adjoint(gF)
        grad = np.empty(sum(W.size + b.size for W, b in self.layers))
        end = grad.size
        for i in range(len(self.layers) - 1, -1, -1):
            W, b = self.layers[i]
            x = self.inputs[i]
            S, n, w = x.shape
            g2 = g.reshape(S * n, -1)
            start = end - W.size - b.size
            np.matmul(g2.T, x.reshape(S * n, w),
                      out=grad[start:start + W.size].reshape(W.shape))
            np.sum(g[0], axis=0, out=grad[start + W.size:end])
            end = start
            if i:
                # alternate two buffers so the GEMM never writes over its
                # own input, which numpy would first copy
                gh = self._take(("gh", i % 2), (S, n, w))
                np.matmul(g2, W, out=gh.reshape(S * n, w))
                g = self._tanh_adjoint(gh, *self.hidden[i - 1])
        return grad


def save_checkpoint(store: ParamStore, path) -> None:
    """Write parameters as little-endian doubles behind a shape header."""
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(store.layers)))
        for W, _ in store.layers:
            fh.write(struct.pack("<II", W.shape[0], W.shape[1]))
        for W, b in store.layers:
            fh.write(W.astype("<f8").tobytes())
            fh.write(b.astype("<f8").tobytes())


def load_checkpoint(path) -> ParamStore:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a parameter checkpoint")
    version, n_layers = struct.unpack_from("<II", data, 4)
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    pos = 12
    shapes = []
    for _ in range(n_layers):
        out_dim, in_dim = struct.unpack_from("<II", data, pos)
        shapes.append((out_dim, in_dim))
        pos += 8
    expected = pos + 8 * sum(o * i + o for o, i in shapes)
    if len(data) != expected:
        raise ValueError(f"{path}: truncated checkpoint "
                         f"({len(data)} bytes, expected {expected})")
    layers = []
    for out_dim, in_dim in shapes:
        W = np.frombuffer(data, dtype="<f8", count=out_dim * in_dim,
                          offset=pos).reshape(out_dim, in_dim).copy()
        pos += 8 * out_dim * in_dim
        b = np.frombuffer(data, dtype="<f8", count=out_dim, offset=pos).copy()
        pos += 8 * out_dim
        layers.append((W, b))
    return ParamStore(layers)
