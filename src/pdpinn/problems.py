"""The four benchmark PDE problems.

Each problem bundles its domain, differential operator, right-hand side,
boundary data and closed-form solution.  Operators act on jets, so the
same code path serves plain evaluation, consistency checks and training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffgraph as dg
from .diffgraph import Jet2
from .dictionaries import DictionarySpec

POLE_EPS = 0.01          # keep sphere colatitude in [POLE_EPS, pi - POLE_EPS]
SPHERE_M = 7
_BTOL = 1e-9             # membership tolerance for boundary / closure checks


@dataclass(frozen=True)
class ProblemSpec:
    """Benchmark description plus its published experimental defaults."""

    id: str
    dim: int
    lo: tuple
    hi: tuple
    n_pde: int
    n_bc: int
    iterations: int
    dictionary: DictionarySpec
    lift: bool = False           # feed the network lifted sphere coordinates
    coord_names: tuple = ("x",)

    @property
    def volume(self) -> float:
        """Lebesgue measure of the coordinate box (not meaningful on the
        sphere, whose bounds describe the (theta, phi) chart)."""
        return float(np.prod(np.subtract(self.hi, self.lo)))


PROBLEMS = {
    "poisson1d": ProblemSpec(
        id="poisson1d", dim=1, lo=(-10.0,), hi=(10.0,),
        n_pde=100, n_bc=2, iterations=1000,
        dictionary=DictionarySpec("fourier1d", k=8),
        coord_names=("x",)),
    "poisson2d": ProblemSpec(
        id="poisson2d", dim=2, lo=(-10.0, -10.0), hi=(10.0, 10.0),
        n_pde=1000, n_bc=400, iterations=1000,
        dictionary=DictionarySpec("fourier2d", k1=5, k2=5),
        coord_names=("x", "y")),
    "sphere": ProblemSpec(
        id="sphere", dim=2, lo=(POLE_EPS, 0.0), hi=(np.pi - POLE_EPS, 2.0 * np.pi),
        n_pde=200, n_bc=1, iterations=2000,
        dictionary=DictionarySpec("spherical-harmonics", l_max=3),
        lift=True, coord_names=("theta", "phi")),
    "diffusion1d": ProblemSpec(
        id="diffusion1d", dim=2, lo=(-10.0, 0.0), hi=(10.0, 1.0),
        n_pde=1000, n_bc=300, iterations=2000,
        dictionary=DictionarySpec("diffusion1d-fourier", k=10),
        coord_names=("x", "t")),
}


def get(problem_id: str) -> ProblemSpec:
    try:
        return PROBLEMS[problem_id]
    except KeyError:
        raise ValueError(f"unknown problem {problem_id!r}; "
                         f"choose from {sorted(PROBLEMS)}") from None


def _pts(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    return pts[None, :] if pts.ndim == 1 else pts


def _g(x):
    """Shared 1-D profile: two frequencies plus a linear drift."""
    return np.sin(0.7 * x) + np.cos(1.5 * x) - 0.1 * x


def _g_xx(x):
    return -0.49 * np.sin(0.7 * x) - 2.25 * np.cos(1.5 * x)


def _g_jet(x: Jet2) -> Jet2:
    return dg.sin(x * 0.7) + dg.cos(x * 1.5) - x * 0.1


def _check_in_closure(p: ProblemSpec, pts: np.ndarray) -> None:
    if p.id == "sphere":
        # longitude is periodic; only the colatitude range is a real bound
        if np.any(pts[:, 0] < -_BTOL) or np.any(pts[:, 0] > np.pi + _BTOL):
            raise ValueError(f"point outside the closure of the {p.id} domain")
        return
    lo, hi = np.asarray(p.lo), np.asarray(p.hi)
    if np.any(pts < lo - _BTOL) or np.any(pts > hi + _BTOL):
        raise ValueError(f"point outside the closure of the {p.id} domain")


# --------------------------------------------------------------------------
# Ground truth window and right-hand side
# --------------------------------------------------------------------------

def ground_truth(p: ProblemSpec, points) -> np.ndarray:
    """Closed-form solution values at points inside the closed domain."""
    pts = _pts(points)
    _check_in_closure(p, pts)
    if p.id == "poisson1d":
        return _g(pts[:, 0])
    if p.id == "poisson2d":
        return _g(pts[:, 0]) * np.sin((pts[:, 1] + 10.0) * np.pi / 20.0)
    if p.id == "sphere":
        th, ph = pts[:, 0], pts[:, 1]
        m = SPHERE_M
        return (np.cos(th) * np.sin(th) ** m * np.cos(m * ph)
                - np.cos(th) * np.sin(th) ** (m - 1) * np.cos((m - 1) * ph))
    return _g(pts[:, 0]) * pts[:, 1]


def ground_truth_jet(p: ProblemSpec, points) -> Jet2:
    """Solution with exact jets, for oracle injection and consistency runs."""
    pts = _pts(points)
    x = Jet2.seed(pts)
    if p.id == "poisson1d":
        return _g_jet(x.component(0))
    if p.id == "poisson2d":
        return dg.mul(_g_jet(x.component(0)),
                      dg.sin((x.component(1) + 10.0) * (np.pi / 20.0)))
    if p.id == "sphere":
        th, ph = x.component(0), x.component(1)
        m = SPHERE_M
        ct, st = dg.cos(th), dg.sin(th)
        hi = dg.mul(dg.mul(ct, dg.powi(st, m)), dg.cos(ph * float(m)))
        lo = dg.mul(dg.mul(ct, dg.powi(st, m - 1)), dg.cos(ph * float(m - 1)))
        return hi - lo
    return dg.mul(_g_jet(x.component(0)), x.component(1))


def rhs(p: ProblemSpec, points) -> np.ndarray:
    """Right-hand side q at interior points."""
    pts = _pts(points)
    if p.id == "poisson1d":
        return _g_xx(pts[:, 0])
    if p.id == "poisson2d":
        x, y = pts[:, 0], pts[:, 1]
        sy = np.sin((y + 10.0) * np.pi / 20.0)
        return (-sy * (0.49 * np.sin(0.7 * x) + 2.25 * np.cos(1.5 * x))
                - _g(x) * sy * np.pi ** 2 / 400.0)
    if p.id == "sphere":
        th, ph = pts[:, 0], pts[:, 1]
        m = SPHERE_M
        return (-(m + 1) * (m + 2) * np.cos(th) * np.sin(th) ** m * np.cos(m * ph)
                + m * (m + 1) * np.cos(th) * np.sin(th) ** (m - 1)
                * np.cos((m - 1) * ph))
    return _g_xx(pts[:, 0]) * pts[:, 1] - _g(pts[:, 0])


# --------------------------------------------------------------------------
# Differential operator
# --------------------------------------------------------------------------

def operator_terms(p: ProblemSpec, points):
    """The operator as a sum of coefficient * (derivative component).

    Returns [(order, coordinate, coefficient array or None)] where None
    stands for coefficient one.  Training reads it to build dL/dF, since
    the operator is linear in the derivative components.
    """
    pts = _pts(points)
    if p.id == "poisson1d":
        return [(2, 0, None)]
    if p.id == "poisson2d":
        return [(2, 0, None), (2, 1, None)]
    if p.id == "sphere":
        th = pts[:, 0]
        if np.any(th < POLE_EPS - _BTOL) or np.any(th > np.pi - POLE_EPS + _BTOL):
            raise ValueError(
                f"sphere operator evaluated within {POLE_EPS} rad of a pole")
        s = np.sin(th)
        return [(2, 0, None), (1, 0, np.cos(th) / s), (2, 1, 1.0 / s ** 2)]
    return [(2, 0, None), (1, 1, -1.0)]


def apply_operator(p: ProblemSpec, F: Jet2, points) -> np.ndarray:
    """Apply the problem operator to predictor jets at the same points."""
    acc = None
    for order, coord, coeff in operator_terms(p, points):
        term = F.d1[..., coord] if order == 1 else F.d2[..., coord]
        if coeff is not None:
            term = term * coeff
        acc = term if acc is None else acc + term
    return acc


# --------------------------------------------------------------------------
# Boundary data
# --------------------------------------------------------------------------

def on_boundary_mask(p: ProblemSpec, pts: np.ndarray) -> np.ndarray:
    if p.id == "poisson1d":
        return np.isclose(np.abs(pts[:, 0]), 10.0, atol=_BTOL)
    if p.id == "poisson2d":
        inx = (pts[:, 0] >= -10.0 - _BTOL) & (pts[:, 0] <= 10.0 + _BTOL)
        iny = (pts[:, 1] >= -10.0 - _BTOL) & (pts[:, 1] <= 10.0 + _BTOL)
        edge = (np.isclose(np.abs(pts[:, 0]), 10.0, atol=_BTOL)
                | np.isclose(np.abs(pts[:, 1]), 10.0, atol=_BTOL))
        return inx & iny & edge
    if p.id == "sphere":
        return (np.isclose(pts[:, 0], 1.0, atol=_BTOL)
                & np.isclose(pts[:, 1], 1.0, atol=_BTOL))
    inx = (pts[:, 0] >= -10.0 - _BTOL) & (pts[:, 0] <= 10.0 + _BTOL)
    it = (pts[:, 1] >= -_BTOL) & (pts[:, 1] <= 1.0 + _BTOL)
    edge = (np.isclose(pts[:, 1], 0.0, atol=_BTOL)
            | np.isclose(np.abs(pts[:, 0]), 10.0, atol=_BTOL))
    return inx & it & edge


def boundary_value(p: ProblemSpec, points) -> np.ndarray:
    """Prescribed data on the boundary (initial slab counts as boundary)."""
    pts = _pts(points)
    if not np.all(on_boundary_mask(p, pts)):
        raise ValueError(f"point not on the boundary of {p.id}")
    if p.id == "poisson1d":
        return _g(pts[:, 0])
    if p.id == "poisson2d":
        x, y = pts[:, 0], pts[:, 1]
        vals = _g(x) * np.sin((y + 10.0) * np.pi / 20.0)
        # The top/bottom conditions are exactly zero; avoid sin(pi) dust.
        return np.where(np.isclose(np.abs(y), 10.0, atol=_BTOL), 0.0, vals)
    if p.id == "sphere":
        return ground_truth(p, pts)
    x, t = pts[:, 0], pts[:, 1]
    vals = _g(x) * t
    return np.where(np.isclose(t, 0.0, atol=_BTOL), 0.0, vals)
