"""Reference word families composed from ``Jet2`` primitives.

``dictionaries.eval_dictionary`` builds its words in closed form.  This
module keeps the earlier construction, one ``Jet2`` operation at a time,
as an independent oracle: the parity tests compare the two at 1e-13
relative on every family.  Nothing in the package imports it.
"""

import math

import numpy as np

from pdpinn import diffgraph as dg
from pdpinn.diffgraph import Jet2, stack_jets
from pdpinn.dictionaries import DictionarySpec


def const_jet(values, dim: int) -> Jet2:
    """A quantity with no dependence on the input coordinates."""
    v = np.asarray(values, dtype=np.float64)
    z = np.zeros((dim,) + v.shape)
    return Jet2(v, z, z.copy())


def eval_fourier1d(k: int, x: Jet2) -> Jet2:
    """Words [1, cos(pi x/10), sin(pi x/10), ..., cos(k pi x/10),
    sin(k pi x/10)]."""
    words = [const_jet(np.ones_like(x.value), x.dim)]
    for n in range(1, k + 1):
        nx = x * (n * (math.pi / 10.0))
        words.append(dg.cos(nx))
        words.append(dg.sin(nx))
    return stack_jets(words)


def _sine_family(k: int, u: Jet2):
    """[1, sin(pi u), sin(2 pi u)/2, ..., sin((k-1) pi u)/(k-1)]."""
    fam = [const_jet(np.ones_like(u.value), u.dim)]
    for n in range(1, k):
        fam.append(dg.sin(u * (n * math.pi)) * (1.0 / n))
    return fam


def eval_fourier2d(k1: int, k2: int, xhat: Jet2, yhat: Jet2) -> Jet2:
    """All products of the two sine families on coordinates in [0, 1],
    x-major."""
    fx = _sine_family(k1, xhat)
    fy = _sine_family(k2, yhat)
    return stack_jets([dg.mul(fa, fb) for fa in fx for fb in fy])


def assoc_legendre(l: int, m: int, t):
    """P_l^m without the Condon-Shortley phase, with d/dt and d2/dt2,
    restarting the degree recurrence for every (l, m)."""
    if not 0 <= m <= l:
        raise ValueError("need 0 <= m <= l")
    t = np.asarray(t, dtype=np.float64)
    s2 = 1.0 - t * t
    dfact = float(math.prod(range(1, 2 * m, 2))) if m > 0 else 1.0
    if m == 0:
        p = np.ones_like(t) * dfact
        dp = np.zeros_like(t)
        d2p = np.zeros_like(t)
    else:
        p = dfact * s2 ** (0.5 * m)
        dp = -dfact * m * t * s2 ** (0.5 * m - 1.0)
        d2p = -dfact * m * (s2 ** (0.5 * m - 1.0)
                            - (m - 2.0) * t * t * s2 ** (0.5 * m - 2.0))
    if l == m:
        return p, dp, d2p
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


def sh_norm(l: int, m: int) -> float:
    """Orthonormal real-basis constant, sqrt(2) doubling for m != 0."""
    c = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                  * math.factorial(l - abs(m)) / math.factorial(l + abs(m)))
    return c * math.sqrt(2.0) if m != 0 else c


def eval_spherical_harmonics(l_max: int, theta: Jet2, phi: Jet2) -> Jet2:
    """Real orthonormal spherical harmonics, (l, m) order with m = -l..l."""
    ct = dg.cos(theta)
    words = []
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            am = abs(m)
            p, dp, d2p = assoc_legendre(l, am, ct.value)
            polar = dg.chain_univariate(ct, p, dp, d2p)
            if m == 0:
                words.append(polar * sh_norm(l, 0))
            elif m > 0:
                words.append(dg.mul(dg.cos(phi * float(m)), polar) * sh_norm(l, m))
            else:
                words.append(dg.mul(dg.sin(phi * float(am)), polar) * sh_norm(l, m))
    return stack_jets(words)


def reference_dictionary(spec: DictionarySpec, points: np.ndarray,
                         derivatives: bool = True) -> Jet2:
    """``eval_dictionary`` as it was built from the families above."""
    x = Jet2.seed(points) if derivatives else const_jet(points, 0)
    if spec.kind == "none":
        return stack_jets([const_jet(np.ones(points.shape[:-1]), x.dim)])
    if spec.kind in ("fourier1d", "diffusion1d-fourier"):
        return eval_fourier1d(spec.k, x.component(0))
    if spec.kind == "fourier2d":
        xhat = (x.component(0) + 10.0) * 0.05
        yhat = (x.component(1) + 10.0) * 0.05
        return eval_fourier2d(spec.k1, spec.k2, xhat, yhat)
    return eval_spherical_harmonics(spec.l_max, x.component(0), x.component(1))
