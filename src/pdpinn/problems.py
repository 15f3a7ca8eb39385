"""The four benchmark PDE problems, one ``ProblemSpec`` record each.

The module functions only read the record, so a new problem is one new
entry in ``PROBLEMS``.  Operators act on jets, so the same code path
serves plain evaluation, consistency checks and training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import diffgraph as dg
from .diffgraph import Jet2
from .dictionaries import DictionarySpec

POLE_EPS = 0.01          # keep sphere colatitude in [POLE_EPS, pi - POLE_EPS]
SPHERE_M = 7
_BTOL = 1e-9             # membership tolerance for boundary / closure checks


@dataclass(frozen=True)
class ProblemSpec:
    """One benchmark problem plus its published experimental defaults.

    Point functions map (n, dim) points to n values and samplers map
    ``(n, rng)`` to points.  A term ``(order, coord, coeff)`` adds coeff
    times the order-th derivative along coord; coeff is None (one), a float
    or a point function.  Each (order, coord) appears at most once.
    """

    id: str
    lo: tuple                    # the domain box (the chart on the sphere)
    hi: tuple
    n_pde: int
    n_bc: int
    iterations: int
    dictionary: DictionarySpec
    solution: Callable
    solution_jet: Callable
    rhs: Callable                # written out by hand: an independent oracle
    terms: tuple
    on_boundary: Callable        # points -> bool mask
    boundary_data: Callable
    sample_boundary: Callable
    sample_interior: Callable | None = None   # None: uniform over the box
    coord_names: tuple = ("x",)
    periodic: tuple = ()         # coordinates that wrap around
    closure: tuple | None = None  # (lo, hi) for membership; None: the box
    lift: bool = False           # feed the network lifted sphere coordinates
    elliptic_bound: bool = False  # the second-order elliptic bound applies

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        """Lebesgue measure of the coordinate box (not meaningful on the
        sphere, whose bounds describe the (theta, phi) chart)."""
        return float(np.prod(np.subtract(self.hi, self.lo)))


def _g(x):
    """Shared 1-D profile: two frequencies plus a linear drift."""
    return np.sin(0.7 * x) + np.cos(1.5 * x) - 0.1 * x


def _g_xx(x):
    return -0.49 * np.sin(0.7 * x) - 2.25 * np.cos(1.5 * x)


def _g_jet(x: Jet2) -> Jet2:
    return dg.sin(x * 0.7) + dg.cos(x * 1.5) - x * 0.1


def _in_box(pts, lo, hi):
    return np.all((pts >= np.subtract(lo, _BTOL)) & (pts <= np.add(hi, _BTOL)),
                  axis=1)


def _near(a, level):
    return np.isclose(a, level, rtol=0.0, atol=_BTOL)


# poisson1d: u'' = q on [-10, 10], Dirichlet data at both ends
_POISSON1D = ProblemSpec(
    id="poisson1d", lo=(-10.0,), hi=(10.0,),
    n_pde=100, n_bc=2, iterations=1000,
    dictionary=DictionarySpec("fourier1d", k=8),
    solution=lambda pts: _g(pts[:, 0]),
    solution_jet=lambda x: _g_jet(x.component(0)),
    rhs=lambda pts: _g_xx(pts[:, 0]),
    terms=((2, 0, None),),
    on_boundary=lambda pts: _near(np.abs(pts[:, 0]), 10.0),
    boundary_data=lambda pts: _g(pts[:, 0]),
    sample_boundary=lambda n, rng: np.array([[-10.0], [10.0]]),  # ignores n
    elliptic_bound=True)


# poisson2d: u_xx + u_yy = q on [-10, 10]^2, Dirichlet data on the edges
def _poisson2d_sy(y):
    return np.sin((y + 10.0) * np.pi / 20.0)


def _poisson2d_rhs(pts):
    x, sy = pts[:, 0], _poisson2d_sy(pts[:, 1])
    return (-sy * (0.49 * np.sin(0.7 * x) + 2.25 * np.cos(1.5 * x))
            - _g(x) * sy * np.pi ** 2 / 400.0)


def _poisson2d_boundary(n, rng):
    edge = rng.integers(0, 4, size=n)
    along = rng.uniform(-10.0, 10.0, size=n)
    x = np.where(edge < 2, along, np.where(edge == 2, -10.0, 10.0))
    y = np.where(edge < 2, np.where(edge == 0, -10.0, 10.0), along)
    return np.column_stack([x, y])


_POISSON2D = ProblemSpec(
    id="poisson2d", lo=(-10.0, -10.0), hi=(10.0, 10.0),
    n_pde=1000, n_bc=400, iterations=1000,
    dictionary=DictionarySpec("fourier2d", k1=5, k2=5),
    solution=lambda pts: _g(pts[:, 0]) * _poisson2d_sy(pts[:, 1]),
    solution_jet=lambda x: dg.mul(
        _g_jet(x.component(0)),
        dg.sin((x.component(1) + 10.0) * (np.pi / 20.0))),
    rhs=_poisson2d_rhs,
    terms=((2, 0, None), (2, 1, None)),
    on_boundary=lambda pts: (_in_box(pts, (-10.0, -10.0), (10.0, 10.0))
                             & np.any(_near(np.abs(pts), 10.0), axis=1)),
    # the top/bottom data are exactly zero; avoid sin(pi) dust
    boundary_data=lambda pts: np.where(
        _near(np.abs(pts[:, 1]), 10.0), 0.0,
        _g(pts[:, 0]) * _poisson2d_sy(pts[:, 1])),
    sample_boundary=_poisson2d_boundary,
    coord_names=("x", "y"),
    elliptic_bound=True)


# sphere: Laplace-Beltrami u = q in (theta, phi), anchored at one point
def _sphere_solution(pts):
    th, ph = pts[:, 0], pts[:, 1]
    m = SPHERE_M
    return (np.cos(th) * np.sin(th) ** m * np.cos(m * ph)
            - np.cos(th) * np.sin(th) ** (m - 1) * np.cos((m - 1) * ph))


def _sphere_solution_jet(x: Jet2) -> Jet2:
    th, ph = x.component(0), x.component(1)
    m = SPHERE_M
    ct, st = dg.cos(th), dg.sin(th)
    hi = dg.mul(dg.mul(ct, dg.powi(st, m)), dg.cos(ph * float(m)))
    lo = dg.mul(dg.mul(ct, dg.powi(st, m - 1)), dg.cos(ph * float(m - 1)))
    return hi - lo


def _sphere_rhs(pts):
    th, ph = pts[:, 0], pts[:, 1]
    m = SPHERE_M
    return (-(m + 1) * (m + 2) * np.cos(th) * np.sin(th) ** m * np.cos(m * ph)
            + m * (m + 1) * np.cos(th) * np.sin(th) ** (m - 1)
            * np.cos((m - 1) * ph))


def _off_pole_sin(pts):
    """sin(theta), refusing points within POLE_EPS of a pole."""
    th = pts[:, 0]
    if np.any(th < POLE_EPS - _BTOL) or np.any(th > np.pi - POLE_EPS + _BTOL):
        raise ValueError(
            f"sphere operator evaluated within {POLE_EPS} rad of a pole")
    return np.sin(th)


def _sphere_interior(n, rng):
    """Area-uniform: uniform longitude and uniform cos(colatitude)."""
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    z = rng.uniform(np.cos(np.pi - POLE_EPS), np.cos(POLE_EPS), size=n)
    return np.column_stack([np.arccos(z), phi])


_SPHERE = ProblemSpec(
    id="sphere", lo=(POLE_EPS, 0.0), hi=(np.pi - POLE_EPS, 2.0 * np.pi),
    n_pde=200, n_bc=1, iterations=2000,
    dictionary=DictionarySpec("spherical-harmonics", l_max=3),
    solution=_sphere_solution,
    solution_jet=_sphere_solution_jet,
    rhs=_sphere_rhs,
    terms=((2, 0, None),
           (1, 0, lambda pts: np.cos(pts[:, 0]) / _off_pole_sin(pts)),
           (2, 1, lambda pts: 1.0 / _off_pole_sin(pts) ** 2)),
    on_boundary=lambda pts: _near(pts[:, 0], 1.0) & _near(pts[:, 1], 1.0),
    boundary_data=_sphere_solution,
    sample_boundary=lambda n, rng: np.array([[1.0, 1.0]]),   # ignores n
    sample_interior=_sphere_interior,
    coord_names=("theta", "phi"),
    periodic=(1,),
    closure=((0.0, -np.inf), (np.pi, np.inf)),     # longitude wraps
    lift=True)


# diffusion1d: u_xx - u_t = q on [-10, 10] x [0, 1]; data on t = 0, x = +-10
def _diffusion_boundary(n, rng):
    """The t=0 slab and the x=-10, x=+10 edges by their lengths, 20 : 1 : 1."""
    u = rng.uniform(0.0, 22.0, size=n)
    t_edge = u >= 20.0
    x = np.where(t_edge, np.where(u < 21.0, -10.0, 10.0),
                 rng.uniform(-10.0, 10.0, size=n))
    t = np.where(t_edge, rng.uniform(0.0, 1.0, size=n), 0.0)
    return np.column_stack([x, t])


_DIFFUSION1D = ProblemSpec(
    id="diffusion1d", lo=(-10.0, 0.0), hi=(10.0, 1.0),
    n_pde=1000, n_bc=300, iterations=2000,
    dictionary=DictionarySpec("diffusion1d-fourier", k=10),
    solution=lambda pts: _g(pts[:, 0]) * pts[:, 1],
    solution_jet=lambda x: dg.mul(_g_jet(x.component(0)), x.component(1)),
    rhs=lambda pts: _g_xx(pts[:, 0]) * pts[:, 1] - _g(pts[:, 0]),
    terms=((2, 0, None), (1, 1, -1.0)),
    on_boundary=lambda pts: (_in_box(pts, (-10.0, 0.0), (10.0, 1.0))
                             & (_near(pts[:, 1], 0.0)
                                | _near(np.abs(pts[:, 0]), 10.0))),
    boundary_data=lambda pts: np.where(_near(pts[:, 1], 0.0), 0.0,
                                       _g(pts[:, 0]) * pts[:, 1]),
    sample_boundary=_diffusion_boundary,
    coord_names=("x", "t"))


PROBLEMS = {p.id: p for p in (_POISSON1D, _POISSON2D, _SPHERE, _DIFFUSION1D)}


def get(problem_id: str) -> ProblemSpec:
    try:
        return PROBLEMS[problem_id]
    except KeyError:
        raise ValueError(f"unknown problem {problem_id!r}; "
                         f"choose from {sorted(PROBLEMS)}") from None


def with_elliptic_bound() -> list:
    """Ids of the problems the elliptic error bound applies to."""
    return sorted(pid for pid, p in PROBLEMS.items() if p.elliptic_bound)


def _pts(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    return pts[None, :] if pts.ndim == 1 else pts


def ground_truth(p: ProblemSpec, points) -> np.ndarray:
    """Closed-form solution values at points inside the closed domain."""
    pts = _pts(points)
    if not np.all(_in_box(pts, *(p.closure or (p.lo, p.hi)))):
        raise ValueError(f"point outside the closure of the {p.id} domain")
    return p.solution(pts)


def ground_truth_jet(p: ProblemSpec, points) -> Jet2:
    """Solution with exact jets, for oracle injection and consistency runs."""
    return p.solution_jet(Jet2.seed(_pts(points)))


def rhs(p: ProblemSpec, points) -> np.ndarray:
    """Right-hand side q at interior points."""
    return p.rhs(_pts(points))


def operator_terms(p: ProblemSpec, points):
    """The operator as a sum of coefficient * (derivative component).

    Returns [(order, coordinate, coefficient)] with the coefficient an
    (n,) array, a float, or None for one.  Training reads the second-order
    coefficients, through which the operator slot propagates.
    """
    pts = _pts(points)
    return [(order, coord, coeff(pts) if callable(coeff) else coeff)
            for order, coord, coeff in p.terms]


def apply_operator(p: ProblemSpec, F: Jet2, points) -> np.ndarray:
    """Apply the problem operator to jets at the same points.

    ``F.value`` has shape (n,) or (n, ...); a point coefficient multiplies
    every entry of its point.
    """
    acc = None
    for order, coord, coeff in operator_terms(p, points):
        term = F.d1[..., coord] if order == 1 else F.d2[..., coord]
        if np.ndim(coeff):
            coeff = np.reshape(coeff, coeff.shape + (1,) * (term.ndim - 1))
        if coeff is not None:
            term = term * coeff
        acc = term if acc is None else acc + term
    return acc


def on_boundary_mask(p: ProblemSpec, pts: np.ndarray) -> np.ndarray:
    return p.on_boundary(pts)


def boundary_value(p: ProblemSpec, points) -> np.ndarray:
    """Prescribed data on the boundary (initial slab counts as boundary)."""
    pts = _pts(points)
    if not np.all(on_boundary_mask(p, pts)):
        raise ValueError(f"point not on the boundary of {p.id}")
    return p.boundary_data(pts)
