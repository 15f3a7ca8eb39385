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

from .diffgraph import Jet2, NonFiniteError, ParamStore, affine, tanh, tanh_derivs

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

    Slot 0 is the value, then one d1 slot per coordinate in ``coords``,
    then d2 slots for the first ``d2`` coordinates (a d2 slot needs the d1
    slot of its coordinate).  ``SlotLayout()`` carries values only.
    """

    coords: tuple = ()
    d2: int = 0

    def slot(self, order: int, coord: int) -> int:
        """Index of the d1 (order 1) or d2 (order 2) slot of a coordinate."""
        return 1 + coord if order == 1 else 1 + len(self.coords) + coord

    def name(self, slot: int) -> str:
        dim = len(self.coords)
        if slot == 0:
            return "value"
        if slot <= dim:
            return f"d1[{self.coords[slot - 1]}]"
        return f"d2[{self.coords[slot - 1 - dim]}]"

    def pack(self, jet: Jet2) -> np.ndarray:
        """Slot-major copy of a jet, shape (slots,) + value shape."""
        return np.concatenate([jet.value[None],
                               np.moveaxis(jet.d1[..., :len(self.coords)], -1, 0),
                               np.moveaxis(jet.d2[..., :self.d2], -1, 0)])

    def unpack(self, F: np.ndarray) -> Jet2:
        """Jet view of predictor slots F (shape (slots, n)); d1 and d2 hold
        only the coordinates this layout carries."""
        dim = len(self.coords)
        return Jet2(F[0], F[1:1 + dim].T, F[1 + dim:].T)


VALUES = SlotLayout()


class SlotPass:
    """Forward pass of the predictor <words, MLP(x)> on slot-major jets.

    ``x`` is the network input packed by ``layout`` (shape (S, n, fan_in))
    and ``words`` the dictionary words packed the same way, or None for a
    plain network whose single output is the predictor.  Each affine map is
    one GEMM on the contiguous (S*n, width) view.  The predictor slots end
    up in ``F`` (shape (S, n)); ``gradient`` is the hand-written adjoint.
    With ``retain=False`` the pass keeps no per-layer state and skips the
    tanh derivatives only the adjoint reads, so ``gradient`` is unavailable.
    Every layer output is checked for NaN/Inf.
    """

    def __init__(self, layers, layout: SlotLayout, x: np.ndarray, words=None,
                 retain: bool = True):
        _check_fan_in(layers, x.shape[-1])
        self.layers, self.layout, self.words = layers, layout, words
        self.retain = retain
        self.inputs = []                 # the input slots of every layer
        self.hidden = []                 # (pre-activation, f1, f2, f3) per tanh
        h = x
        for i, (W, b) in enumerate(layers):
            if retain:
                self.inputs.append(h)
            S, n, w = h.shape
            h = (h.reshape(S * n, w) @ W.T).reshape(S, n, -1)
            h[0] += b
            if i < len(layers) - 1:
                h = self._tanh(h)
            self._check_finite(h, i)
        self.net = h
        self.F = h[..., 0] if words is None else self._fuse(words, h)

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

    def _tanh(self, z: np.ndarray) -> np.ndarray:
        dim, m = len(self.layout.coords), self.layout.d2
        if self.retain:
            t, f1, f2, f3 = tanh_derivs(z[0])
            self.hidden.append((z, f1, f2, f3))
        else:
            # the same expressions as tanh_derivs, as far as the slots need
            t = np.tanh(z[0])
            f1 = 1.0 - t * t if dim else None
            f2 = -2.0 * t * f1 if m else None
        h = np.empty_like(z)
        h[0] = t
        if dim:
            np.multiply(z[1:], f1, out=h[1:])
        if m:
            h[1 + dim:] += f2 * (z[1:1 + m] * z[1:1 + m])
        return h

    def _tanh_adjoint(self, gh, z, f1, f2, f3) -> np.ndarray:
        dim, m = len(self.layout.coords), self.layout.d2
        z1 = z[1:1 + m]
        q = gh[1 + dim:] * z1
        gz = gh * f1
        gz[0] += (f2 * np.einsum("snw,snw->nw", gh[1:], z[1:])
                  + f3 * np.einsum("snw,snw->nw", q, z1))
        q *= 2.0 * f2
        gz[1:1 + m] += q
        return gz

    def _fuse(self, C: np.ndarray, N: np.ndarray) -> np.ndarray:
        # the product rule grouped as in the plain jet product
        dim, m = len(self.layout.coords), self.layout.d2
        T = C * N[0]
        T[1:] += C[0] * N[1:]
        T[1 + dim:] += 2.0 * (C[1:1 + m] * N[1:1 + m])
        return T.sum(axis=-1)

    def _fuse_adjoint(self, gF: np.ndarray) -> np.ndarray:
        C = self.words
        if C is None:
            return gF[..., None]
        dim, m = len(self.layout.coords), self.layout.d2
        g = np.empty_like(self.net)
        g[0] = np.einsum("sn,snw->nw", gF, C)
        g[1:] = C[0] * gF[1:, :, None]
        g[1:1 + m] += 2.0 * (C[1:1 + m] * gF[1 + dim:, :, None])
        return g

    def gradient(self, gF: np.ndarray) -> np.ndarray:
        """Flat d(loss)/d(theta) in ParamStore order from gF = d(loss)/dF."""
        g = self._fuse_adjoint(gF)
        parts = []
        for i in range(len(self.layers) - 1, -1, -1):
            x = self.inputs[i]
            S, n, w = x.shape
            g2 = g.reshape(S * n, -1)
            parts.append(np.concatenate([(g2.T @ x.reshape(S * n, w)).ravel(),
                                         g[0].sum(axis=0)]))
            if i:
                gh = (g2 @ self.layers[i][0]).reshape(S, n, w)
                g = self._tanh_adjoint(gh, *self.hidden[i - 1])
        return np.concatenate(parts[::-1])


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
