"""Prior dictionaries: fixed word functions with exact analytic jets.

Each word is a closed-form function of the problem coordinates, evaluated
as a ``Jet2`` so the PDE operator can act on the fused predictor.  Words
never depend on network parameters; they enter training as constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffgraph as dg
from .diffgraph import Jet2, stack_jets

# every kind, with the parameters its label takes in order
_PARAMS = {"none": (), "fourier1d": ("k",), "fourier2d": ("k1", "k2"),
           "diffusion1d-fourier": ("k",), "spherical-harmonics": ("l_max",)}
KINDS = tuple(_PARAMS)


@dataclass(frozen=True)
class DictionarySpec:
    """Which word family to fuse with the network output.

    kind            parameters        word count
    none            -                 1 (identity fusion, plain PINN)
    fourier1d       k                 2k+1
    fourier2d       k1, k2            k1*k2
    diffusion1d-fourier  k            2k+1 (in x only, ignores t)
    spherical-harmonics  l_max        (l_max+1)**2
    """

    kind: str = "none"
    k: int = 0
    k1: int = 0
    k2: int = 0
    l_max: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown dictionary kind {self.kind!r}")
        if self.kind in ("fourier1d", "diffusion1d-fourier") and self.k < 1:
            raise ValueError(f"{self.kind} needs k >= 1")
        if self.kind == "fourier2d" and (self.k1 < 1 or self.k2 < 1):
            raise ValueError("fourier2d needs k1, k2 >= 1")
        if self.kind == "spherical-harmonics" and self.l_max < 0:
            raise ValueError("spherical-harmonics needs l_max >= 0")

    @property
    def word_count(self) -> int:
        if self.kind == "none":
            return 1
        if self.kind in ("fourier1d", "diffusion1d-fourier"):
            return 2 * self.k + 1
        if self.kind == "fourier2d":
            return self.k1 * self.k2
        return (self.l_max + 1) ** 2

    def label(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind in ("fourier1d", "diffusion1d-fourier"):
            return f"{self.kind}:{self.k}"
        if self.kind == "fourier2d":
            return f"fourier2d:{self.k1},{self.k2}"
        return f"spherical-harmonics:{self.l_max}"

    @staticmethod
    def parse(text: str) -> "DictionarySpec":
        """Inverse of ``label``, e.g. 'fourier1d:8' or 'fourier2d:5,5'."""
        kind, _, params = text.partition(":")
        kind = kind.strip()
        if kind not in _PARAMS:
            raise ValueError(f"unknown dictionary kind {kind!r}")
        names = _PARAMS[kind]
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
# Word families
# --------------------------------------------------------------------------

def eval_fourier1d(k: int, x: Jet2) -> Jet2:
    """Words [1, cos x, sin x, cos 2x, sin 2x, ..., cos kx, sin kx]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    words = [Jet2.const(np.ones_like(x.value), x.dim)]
    for n in range(1, k + 1):
        nx = x * float(n)
        words.append(dg.cos(nx))
        words.append(dg.sin(nx))
    return stack_jets(words)


def _sine_family(k: int, u: Jet2):
    """[1, sin(pi u), sin(2 pi u)/2, ..., sin((k-1) pi u)/(k-1)]."""
    fam = [Jet2.const(np.ones_like(u.value), u.dim)]
    for n in range(1, k):
        fam.append(dg.sin(u * (n * math.pi)) * (1.0 / n))
    return fam


def eval_fourier2d(k1: int, k2: int, xhat: Jet2, yhat: Jet2) -> Jet2:
    """All products of the two sine families on normalized coordinates.

    ``xhat``/``yhat`` must already be mapped to [0, 1]; any chain factors
    from that mapping ride along in their jets.  Word order is x-major.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError("k1 and k2 must be >= 1")
    fx = _sine_family(k1, xhat)
    fy = _sine_family(k2, yhat)
    return stack_jets([dg.mul(fa, fb) for fa in fx for fb in fy])


def lift_sphere(theta: Jet2, phi: Jet2) -> Jet2:
    """(theta, phi) -> (sin t sin p, sin t cos p, cos t) with exact jets."""
    st, ct = dg.sin(theta), dg.cos(theta)
    sp, cp = dg.sin(phi), dg.cos(phi)
    return stack_jets([dg.mul(st, sp), dg.mul(st, cp), ct])


def assoc_legendre(l: int, m: int, t):
    """Associated Legendre P_l^m without the Condon-Shortley phase.

    Returns (value, d/dt, d2/dt2) for scalar or array ``t`` in [-1, 1].
    Stable upward recurrence in degree, with the derivative recurrences
    obtained by differentiating each step.
    """
    if not 0 <= m <= l:
        raise ValueError("need 0 <= m <= l")
    t = np.asarray(t, dtype=np.float64)
    if np.any(np.abs(t) > 1.0):
        raise dg.JetDomainError("assoc_legendre requires |t| <= 1")

    s2 = 1.0 - t * t                       # sin^2(theta) when t = cos(theta)
    # Seed P_m^m = (2m-1)!! (1-t^2)^{m/2} and its two t-derivatives.
    dfact = float(math.prod(range(1, 2 * m, 2))) if m > 0 else 1.0
    if m == 0:
        p = np.ones_like(t) * dfact
        dp = np.zeros_like(t)
        d2p = np.zeros_like(t)
    else:
        half = s2 ** (0.5 * m)
        p = dfact * half
        # d/dt (1-t^2)^{m/2} = -m t (1-t^2)^{m/2-1}
        dp = -dfact * m * t * s2 ** (0.5 * m - 1.0)
        d2p = -dfact * m * (s2 ** (0.5 * m - 1.0)
                            - (m - 2.0) * t * t * s2 ** (0.5 * m - 2.0))
    if l == m:
        return p, dp, d2p

    # P_{m+1}^m = (2m+1) t P_m^m
    c = 2 * m + 1
    q, dq, d2q = c * t * p, c * (p + t * dp), c * (2.0 * dp + t * d2p)
    if l == m + 1:
        return q, dq, d2q

    pm2, dpm2, d2pm2 = p, dp, d2p
    pm1, dpm1, d2pm1 = q, dq, d2q
    for n in range(m + 2, l + 1):
        a = (2.0 * n - 1.0) / (n - m)
        bcoef = (n + m - 1.0) / (n - m)
        pn = a * t * pm1 - bcoef * pm2
        dpn = a * (pm1 + t * dpm1) - bcoef * dpm2
        d2pn = a * (2.0 * dpm1 + t * d2pm1) - bcoef * d2pm2
        pm2, dpm2, d2pm2 = pm1, dpm1, d2pm1
        pm1, dpm1, d2pm1 = pn, dpn, d2pn
    return pm1, dpm1, d2pm1


def _sh_norm(l: int, m: int) -> float:
    """Orthonormal real-basis constant, sqrt(2) doubling for m != 0."""
    c = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                  * math.factorial(l - abs(m)) / math.factorial(l + abs(m)))
    return c * math.sqrt(2.0) if m != 0 else c


def eval_spherical_harmonics(l_max: int, theta: Jet2, phi: Jet2) -> Jet2:
    """Real orthonormal spherical-harmonic words, degrees 0..l_max.

    Index order is (l, m) with m running -l..l inside each degree; the word
    at l=0 is the constant 1/sqrt(4 pi).  Polar factors chain through
    t = cos(theta) using the Legendre derivative recurrences, so the jets
    in theta and phi are exact.
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    ct = dg.cos(theta)
    words = []
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            am = abs(m)
            p, dp, d2p = assoc_legendre(l, am, ct.value)
            polar = dg.chain_univariate(ct, p, dp, d2p)
            if m == 0:
                words.append(polar * _sh_norm(l, 0))
            elif m > 0:
                words.append(dg.mul(dg.cos(phi * float(m)), polar) * _sh_norm(l, m))
            else:
                words.append(dg.mul(dg.sin(phi * float(am)), polar) * _sh_norm(l, m))
    return stack_jets(words)


def fuse(dict_jets: Jet2, net_jets: Jet2) -> Jet2:
    """Inner product of dictionary and network outputs, full product rule."""
    d_width = dict_jets.value.shape[-1]
    n_width = net_jets.value.shape[-1]
    if d_width != n_width:
        raise ValueError(f"fuse: {d_width} words vs {n_width} network outputs")
    return dg.sum_words(dg.mul(dict_jets, net_jets))


def eval_dictionary(spec: DictionarySpec, points: np.ndarray,
                    derivatives: bool = True) -> Jet2:
    """Evaluate the word family at raw problem coordinates.

    Jets are taken with respect to the raw coordinates; normalization of
    the 2-D Fourier family (xhat = (x+10)/20) happens here so its chain
    factors are part of the word jets.  With ``derivatives=False`` the same
    family code runs on jets whose derivative axis is empty, so only the
    values are computed.
    """
    x = Jet2.seed(points) if derivatives else Jet2.const(points, 0)
    if spec.kind == "none":
        return stack_jets([Jet2.const(np.ones(points.shape[:-1]), x.dim)])
    if spec.kind == "fourier1d":
        return eval_fourier1d(spec.k, x.component(0))
    if spec.kind == "diffusion1d-fourier":
        # Words depend on x only; t-derivatives are identically zero.
        return eval_fourier1d(spec.k, x.component(0))
    if spec.kind == "fourier2d":
        xhat = (x.component(0) + 10.0) * 0.05
        yhat = (x.component(1) + 10.0) * 0.05
        return eval_fourier2d(spec.k1, spec.k2, xhat, yhat)
    return eval_spherical_harmonics(spec.l_max, x.component(0), x.component(1))
