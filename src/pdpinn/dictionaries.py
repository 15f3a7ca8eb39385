"""Prior dictionaries: fixed word functions with exact analytic jets.

Each word is a closed-form function of the problem coordinates.  A family
is computed on whole (points, words) arrays, its derivatives as closed-form
factors of the same sines, cosines and Legendre functions.  ``write_words``
writes them into arrays the caller owns: training writes the value and
d1 rows straight into the slots of its pass (``training.predictor_slots``);
``eval_dictionary`` returns them as a ``Jet2``, the reference the slot
inputs are checked against.  The sphere lift comes both ways too
(``write_lifted`` and ``lift_sphere``).  Words never depend on network
parameters; they enter training as constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import diffgraph as dg
from .diffgraph import Jet2, stack_jets


@dataclass(frozen=True)
class DictionarySpec:
    """Which word family to fuse with the network output.

    ``kind`` names a family of ``FAMILIES``, which gives the parameters
    its label takes, the coordinates its words read, its word count and
    its words; ``none`` is the single word 1 of a plain PINN.
    """

    kind: str = "none"
    k: int = 0
    k1: int = 0
    k2: int = 0
    l_max: int = 0

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown dictionary kind {self.kind!r}")
        for name, least in FAMILIES[self.kind].params:
            if getattr(self, name) < least:
                raise ValueError(f"{self.kind} needs {name} >= {least}")

    def _values(self) -> tuple:
        """The family's label parameters, in label order."""
        return tuple(getattr(self, name)
                     for name, _ in FAMILIES[self.kind].params)

    @property
    def word_count(self) -> int:
        return FAMILIES[self.kind].count(*self._values())

    def label(self) -> str:
        values = ",".join(map(str, self._values()))
        return f"{self.kind}:{values}" if values else self.kind

    @staticmethod
    def parse(text: str) -> "DictionarySpec":
        """Inverse of ``label``, e.g. 'fourier1d:8' or 'fourier2d:5,5'."""
        kind, _, params = text.partition(":")
        kind = kind.strip()
        if kind not in FAMILIES:
            raise ValueError(f"unknown dictionary kind {kind!r}")
        names = [name for name, _ in FAMILIES[kind].params]
        values = params.split(",") if params else []
        if len(values) < len(names):
            raise ValueError(f"{kind} needs {','.join(names)}: "
                             f"missing {','.join(names[len(values):])}")
        if len(values) > len(names):
            raise ValueError(f"{kind} takes {len(names)} parameter(s), "
                             f"got {len(values)}")
        nums = {}
        for name, value in zip(names, values):
            try:
                nums[name] = int(value)
            except ValueError:
                raise ValueError(f"{kind} parameter {name}: {value!r} "
                                 "is not an integer") from None
        return DictionarySpec(kind, **nums)


# --------------------------------------------------------------------------
# Word families, in closed form
# --------------------------------------------------------------------------
#
# A family reads points of shape lead + (dim,) and writes point-major
# words, shape lead + (W,), into ``value`` and their first and second
# derivatives into ``d1``/``d2``, one array per coordinate along the first
# axis (shape (dim,) + lead + (W,), the ``Jet2`` layout; None without
# derivatives).  It writes every entry of the coordinates it reads; the
# words are constant along the rest.  Each derivative is a closed-form
# factor of the same sines, cosines and Legendre functions as the value.

def _fourier1d(k: int, pts: np.ndarray, value, d1, d2) -> None:
    """Words [1, cos(pi x/10), sin(pi x/10), ..., cos(k pi x/10),
    sin(k pi x/10)] of the first coordinate x: every word has a period
    that divides the length 20 of the domain [-10, 10]."""
    n = np.arange(1.0, k + 1) * (math.pi / 10.0)
    nx = np.multiply.outer(pts[..., 0], n)
    c, s = np.cos(nx), np.sin(nx)
    value[..., 0] = 1.0
    value[..., 1::2] = c
    value[..., 2::2] = s
    if d1 is None:
        return
    d1[0][..., 0] = d2[0][..., 0] = 0.0
    np.multiply(s, -n, out=d1[0][..., 1::2])
    np.multiply(c, n, out=d1[0][..., 2::2])
    np.multiply(c, -(n * n), out=d2[0][..., 1::2])
    np.multiply(s, -(n * n), out=d2[0][..., 2::2])


def _sine_family(k: int, x: np.ndarray, derivatives: bool) -> np.ndarray:
    """[1, sin(pi u), sin(2 pi u)/2, ..., sin((k-1) pi u)/(k-1)] at
    u = (x+10)/20, with its first and second x-derivatives along the
    first axis: shape (3,) + x.shape + (k,), or (1,) + ... for values."""
    n = np.arange(1.0, k)
    w = math.pi * 0.05                 # d(pi u)/dx
    npu = np.multiply.outer((x + 10.0) * 0.05, n * math.pi)
    f = np.zeros((3 if derivatives else 1,) + x.shape + (k,))
    f[0][..., 0] = 1.0
    s = np.sin(npu)
    np.divide(s, n, out=f[0][..., 1:])
    if derivatives:
        np.multiply(np.cos(npu), w, out=f[1][..., 1:])
        np.multiply(s, -(w * w) * n, out=f[2][..., 1:])
    return f


def _fourier2d(k1: int, k2: int, pts: np.ndarray, value, d1, d2) -> None:
    """All products of the sine families in x and y, x-major."""
    fx = _sine_family(k1, pts[..., 0], d1 is not None)
    fy = _sine_family(k2, pts[..., 1], d1 is not None)
    shape = pts.shape[:-1] + (k1, k2)

    def outer(a, b, out):
        np.multiply(a[..., :, None], b[..., None, :], out=out.reshape(shape))

    outer(fx[0], fy[0], value)
    if d1 is not None:
        outer(fx[1], fy[0], d1[0])
        outer(fx[0], fy[1], d1[1])
        outer(fx[2], fy[0], d2[0])
        outer(fx[0], fy[2], d2[1])


def lift_sphere(theta: Jet2, phi: Jet2) -> Jet2:
    """(theta, phi) -> (sin t sin p, sin t cos p, cos t) with exact jets."""
    st, ct = dg.sin(theta), dg.cos(theta)
    sp, cp = dg.sin(phi), dg.cos(phi)
    return stack_jets([dg.mul(st, sp), dg.mul(st, cp), ct])


def write_lifted(pts: np.ndarray, value, d1, d2) -> None:
    """``lift_sphere`` of the seeded (theta, phi) in closed form, written
    like a word family's words (width 3).

    It is bitwise the ``Jet2`` product rule: every term that rule adds
    beyond these is an exact zero, and the zero entries carry the rule's
    signs.
    """
    s, c = np.sin(pts[:, 0]), np.cos(pts[:, 0])
    sp, cp = np.sin(pts[:, 1]), np.cos(pts[:, 1])
    np.multiply(s, sp, out=value[:, 0])
    np.multiply(s, cp, out=value[:, 1])
    value[:, 2] = c
    if d1 is None:
        return
    ms = np.negative(s)
    np.multiply(c, sp, out=d1[0][:, 0])
    np.multiply(c, cp, out=d1[0][:, 1])
    d1[0][:, 2] = ms
    d1[1][:, 0] = value[:, 1]
    np.negative(value[:, 0], out=d1[1][:, 1])
    np.multiply(ms, 0.0, out=d1[1][:, 2])
    # both second derivatives of sin t sin p and sin t cos p are minus
    # the value; cos t has -cos t along theta and none along phi
    np.negative(value[:, :2], out=d2[0][:, :2])
    np.negative(c, out=d2[0][:, 2])
    d2[1][:, :2] = d2[0][:, :2]
    np.add(np.multiply(c, -0.0), d1[1][:, 2], out=d2[1][:, 2])


def legendre_table(l_max: int, t, derivatives: bool = True) -> np.ndarray:
    """Associated Legendre P_l^m(t), without the Condon-Shortley phase, for
    0 <= m <= l <= l_max.

    Returns shape (3,) + t.shape + (l_max+1, l_max+1): P_l^m at [0, ..., l,
    m] and its first and second t-derivatives at [1] and [2] (only [0]
    without ``derivatives``); entries with m > l are zero.  The stable
    upward recurrence in degree runs once, over every order at a time,
    differentiated term by term.
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    t = np.asarray(t, dtype=np.float64)
    if np.any(np.abs(t) > 1.0):
        raise dg.JetDomainError("legendre_table requires |t| <= 1")
    L, K = l_max + 1, 3 if derivatives else 1
    P = np.zeros((K,) + t.shape + (L, L))
    tm = t[..., None]
    # d^j/dt^j (t f) = t f^(j) + j f^(j-1), for the j of each jet row
    order = np.arange(1.0, K).reshape((-1,) + (1,) * tm.ndim)

    def times_t(f):
        out = tm * f
        out[1:] += order * f[:-1]
        return out

    # P_m^m = (2m-1)!! (1-t^2)^{m/2}; the m = 0 entry is 1
    P[0][..., 0, 0] = 1.0
    if L > 1:
        m = np.arange(1.0, L)
        dfact = np.cumprod(2.0 * m - 1.0)
        s2 = (1.0 - t * t)[..., None]
        diag = np.arange(1, L)
        P[0][..., diag, diag] = dfact * s2 ** (0.5 * m)
        if derivatives:
            P[1][..., diag, diag] = -dfact * m * tm * s2 ** (0.5 * m - 1.0)
            P[2][..., diag, diag] = -dfact * m * (
                s2 ** (0.5 * m - 1.0) - (m - 2.0) * tm * tm * s2 ** (0.5 * m - 2.0))
        # P_{m+1}^m = (2m+1) t P_m^m
        below = np.arange(L - 1)
        P[..., below + 1, below] = (2.0 * below + 1.0) * times_t(
            P[..., below, below])
    # (l - m) P_l^m = (2l - 1) t P_{l-1}^m - (l + m - 1) P_{l-2}^m
    for l in range(2, L):
        m = np.arange(l - 1.0)
        P[..., l, :l - 1] = ((2.0 * l - 1.0) / (l - m) * times_t(P[..., l - 1, :l - 1])
                             - (l + m - 1.0) / (l - m) * P[..., l - 2, :l - 1])
    return P


def _sh_norm(l: int, m: int) -> float:
    """Orthonormal real-basis constant, sqrt(2) doubling for m != 0."""
    c = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                  * math.factorial(l - abs(m)) / math.factorial(l + abs(m)))
    return c * math.sqrt(2.0) if m != 0 else c


@lru_cache(maxsize=None)
def _sh_index(l_max: int):
    """Per word l*l + l + m: its degree l, order |m|, signed order m,
    normalisation constant, and the column m + l_max of its signed order
    among -l_max..l_max."""
    l = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    m = np.concatenate([np.arange(-d, d + 1) for d in range(l_max + 1)])
    norm = np.array([_sh_norm(a, b) for a, b in zip(l, m)])
    index = (l, np.abs(m), m.astype(np.float64), norm, m + l_max)
    for a in index:
        a.flags.writeable = False         # shared by every call
    return index


def _spherical_harmonics(l_max: int, pts: np.ndarray, value, d1, d2) -> None:
    """Real orthonormal spherical harmonics of (theta, phi), degrees
    0..l_max.

    Word l*l + l + m is N P_l^|m|(cos theta) times cos(m phi) for m > 0,
    sin(|m| phi) for m < 0 and 1 for m = 0, so the word at l=0 is the
    constant 1/sqrt(4 pi).  Polar derivatives chain through t = cos(theta).
    """
    derivatives = d1 is not None
    theta, phi = pts[..., 0], pts[..., 1]
    l, am, m, norm, column = _sh_index(l_max)
    ct = np.cos(theta)
    P = legendre_table(l_max, ct, derivatives)[..., l, am]
    # the cosine and sine of each signed order once, then per word
    mp = phi[..., None] * np.arange(-l_max, l_max + 1.0)
    cm, sm = np.cos(mp)[..., column], np.sin(mp)[..., column]
    # cos(m phi) for m >= 0 (1 at m = 0) and sin(|m| phi) for m < 0
    naz = norm * np.where(m >= 0, cm, -sm)
    np.multiply(naz, P[0], out=value)
    if not derivatives:
        return
    st, ct = np.sin(theta)[..., None], ct[..., None]
    np.multiply(naz, -st * P[1], out=d1[0])
    np.multiply(naz, st * st * P[2] - ct * P[1], out=d2[0])
    # d/dphi: -m sin(m phi) for m >= 0 and |m| cos(|m| phi) for m < 0
    np.multiply(norm * np.where(m >= 0, -m * sm, -m * cm), P[0], out=d1[1])
    np.multiply(value, -(m * m), out=d2[1])


class Family(NamedTuple):
    """One word family: its label parameters, each with its least value,
    in label order; how many coordinates its words read; its word count
    and its closed-form words as functions of the parameter values."""

    params: tuple
    reads: int
    count: Callable
    words: Callable


FAMILIES = {
    # a plain network's single word 1: the 1-D Fourier words up to k = 0
    "none": Family((), 1, lambda: 1, partial(_fourier1d, 0)),
    "fourier1d": Family((("k", 1),), 1, lambda k: 2 * k + 1, _fourier1d),
    "fourier2d": Family((("k1", 1), ("k2", 1)), 2, lambda k1, k2: k1 * k2,
                        _fourier2d),
    "spherical-harmonics": Family((("l_max", 0),), 2,
                                  lambda l_max: (l_max + 1) ** 2,
                                  _spherical_harmonics),
}
# the diffusion1d words depend on x only; their t-derivatives are zero
FAMILIES["diffusion1d-fourier"] = FAMILIES["fourier1d"]


def fuse(dict_jets: Jet2, net_jets: Jet2) -> Jet2:
    """Inner product of dictionary and network outputs, full product rule."""
    d_width = dict_jets.value.shape[-1]
    n_width = net_jets.value.shape[-1]
    if d_width != n_width:
        raise ValueError(f"fuse: {d_width} words vs {n_width} network outputs")
    return dg.sum_words(dg.mul(dict_jets, net_jets))


def write_words(spec: DictionarySpec, pts: np.ndarray, value, d1,
                d2) -> None:
    """The words of ``spec`` at points (shape lead + (dim,)) into
    ``value``, and unless d1 is None their derivative rows ``d1[k]`` and
    ``d2[k]`` of every coordinate k (each shaped like the value).

    The rows may be any arrays the caller owns, such as the slots of a
    pass.  The words are constant along the coordinates past those the
    family reads, whose rows are zeroed.  Points with fewer coordinates
    than the family reads raise ValueError.
    """
    family = FAMILIES[spec.kind]
    if pts.shape[-1] < family.reads:
        raise ValueError(f"{spec.kind} words read {family.reads} coordinates, "
                         f"but the points have {pts.shape[-1]}")
    family.words(*spec._values(), pts, value, d1, d2)
    if d1 is not None:
        for k in range(family.reads, len(d1)):
            d1[k][...] = d2[k][...] = 0.0


def eval_dictionary(spec: DictionarySpec, points: np.ndarray,
                    derivatives: bool = True) -> Jet2:
    """Evaluate the word family at raw problem coordinates.

    Points have shape lead + (dim,); the words come back as a ``Jet2`` with
    value shape lead + (W,) and derivatives with respect to the raw
    coordinates (the 2-D Fourier family maps to xhat = (x+10)/20 here and
    carries the chain factor).  Each family is computed in closed form on
    whole arrays, vectorised over the word index.  With
    ``derivatives=False`` only the values are computed and the leading
    derivative axis is empty.  Points with fewer coordinates than the
    family reads raise ValueError.
    """
    pts = np.asarray(points, dtype=np.float64)
    dim = pts.shape[-1] if derivatives else 0
    value = np.empty(pts.shape[:-1] + (spec.word_count,))
    d1 = np.empty((dim,) + value.shape)
    d2 = np.empty((dim,) + value.shape)
    write_words(spec, pts, value, *((d1, d2) if derivatives else (None, None)))
    return Jet2(value, d1, d2)
