"""Numerical checks of the elliptic error bounds.

Estimates the boundary/interior discrepancies of a trained predictor, the
domain regularity constant, and a Lipschitz constant, then assembles the
Poisson sup-norm bound and its expectation-based variant and verifies that
the observed sup error respects them.  All sup quantities are sampled
estimates with an arg-max refinement pass, not certificates.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dictionaries import DictionarySpec
from .network import VALUES, SlotLayout
from .problems import (ProblemSpec, boundary_value, ground_truth,
                       ground_truth_jet, rhs)
from .sampling import sample_boundary, sample_interior
from .training import operator_layout, pack_slots, predictor_fields

# sup refinement: local grid points and its radius as a domain fraction
_REFINE_POINTS = 1000
_REFINE_FRACTION = 0.01


class UnsupportedDomainError(ValueError):
    pass


# --------------------------------------------------------------------------
# Domain descriptors for the regularity constant
# --------------------------------------------------------------------------

class _Domain:
    """Rejects non-finite values, empty extents and infinite measures."""

    def __post_init__(self):
        values = [float(v) for f in fields(self)
                  for v in np.ravel(getattr(self, f.name))]
        with np.errstate(over="ignore"):
            if (all(map(math.isfinite, values)) and self._nonempty()
                    and 0.0 < self.measure < math.inf):
                return
        raise UnsupportedDomainError(
            f"degenerate domain {self}: values must be finite and "
            "span a positive, finite measure")


@dataclass(frozen=True)
class Interval(_Domain):
    a: float
    b: float

    def _nonempty(self):
        return self.a < self.b

    @property
    def dim(self):
        return 1

    @property
    def measure(self):
        return self.b - self.a


@dataclass(frozen=True)
class Box(_Domain):
    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) not in (2, 3) or len(self.lo) != len(self.hi):
            raise UnsupportedDomainError("boxes must be 2- or 3-dimensional")
        super().__post_init__()

    def _nonempty(self):
        return all(lo < hi for lo, hi in zip(self.lo, self.hi))

    @property
    def dim(self):
        return len(self.lo)

    @property
    def measure(self):
        return float(np.prod(np.subtract(self.hi, self.lo)))


@dataclass(frozen=True)
class Disk(_Domain):
    cx: float
    cy: float
    r: float

    def _nonempty(self):
        return self.r > 0.0

    @property
    def dim(self):
        return 2

    @property
    def measure(self):
        # a huge r overflows to inf here, where r ** 2 would raise
        return math.pi * (self.r * self.r)


def ball_volume(dim: int, r) -> np.ndarray:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * np.asarray(r) ** dim


_DOMAIN_FIELDS = {"interval": ("a", "b"),
                  "box": ("ax", "bx", "ay", "by", "az", "bz"),
                  "disk": ("cx", "cy", "r")}


def parse_domain(text: str):
    """'interval:a,b' | 'box:ax,bx,ay,by[,az,bz]' | 'disk:cx,cy,r'."""
    kind, _, rest = text.partition(":")
    if kind not in _DOMAIN_FIELDS:
        raise UnsupportedDomainError(f"unknown domain kind {kind!r}")
    names = _DOMAIN_FIELDS[kind]
    raw = rest.split(",") if rest else []
    if kind == "box" and len(raw) not in (4, 6):
        raise UnsupportedDomainError("box needs 4 or 6 bounds")
    if kind != "box":
        _check_arity(kind, raw, names)
    vals = []
    for name, value in zip(names, raw):
        try:
            vals.append(float(value))
        except ValueError:
            raise UnsupportedDomainError(
                f"{kind} field {name}: {value!r} is not a number") from None
    if kind == "box":
        return Box(tuple(vals[0::2]), tuple(vals[1::2]))
    return Interval(*vals) if kind == "interval" else Disk(*vals)


def _check_arity(kind: str, vals, names) -> None:
    if len(vals) < len(names):
        raise UnsupportedDomainError(
            f"{kind} needs {','.join(names)}: missing {','.join(names[len(vals):])}")
    if len(vals) > len(names):
        raise UnsupportedDomainError(
            f"{kind} needs {','.join(names)}: got {len(vals)} values")


# --------------------------------------------------------------------------
# Regularity constant
# --------------------------------------------------------------------------

def _unit_ball_points(dim, n, rng):
    """Uniform sample inside the unit ball; rescale to any radius."""
    if dim == 1:
        return rng.uniform(-1.0, 1.0, size=(n, 1))
    dirs = rng.normal(size=(n, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / dim)


def _exit_radii(domain, center, raw):
    """Radius at which each ray ``center + r * raw[i]`` leaves the domain.

    The center lies in the closed box or disk, so the point is inside for
    0 <= r <= the exit radius and outside beyond it.
    """
    if isinstance(domain, Box):
        # per coordinate, the face the ray heads for; the nearest one wins
        face = np.where(raw > 0, np.subtract(domain.hi, center),
                        np.subtract(domain.lo, center))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(raw == 0.0, np.inf, face / raw).min(axis=1)
    # disk: larger root of a r^2 + 2 b r + c = 0, i.e. |d + r u|^2 = R^2
    d = np.subtract(center, (domain.cx, domain.cy))
    a = np.einsum("ij,ij->i", raw, raw)
    b = raw @ d
    c = d @ d - domain.r ** 2
    root = np.sqrt(np.maximum(b * b - a * c, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        # the form without cancellation on each side of b = 0
        return np.where(b > 0.0, -c / (b + root), (root - b) / a)


def _center_grid(domain, grid: int):
    if isinstance(domain, Interval):
        return np.linspace(domain.a, domain.b, grid)[:, None]
    if isinstance(domain, Box):
        axes = [np.linspace(lo, hi, grid) for lo, hi in zip(domain.lo, domain.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)
    # disk: polar grid plus explicit rim points (the infimum sits on the rim)
    centers = [(domain.cx, domain.cy)]
    for frac in np.linspace(0.25, 1.0, max(2, grid // 2)):
        k = max(4, grid)
        for ang in np.linspace(0.0, 2.0 * math.pi, k, endpoint=False):
            centers.append((domain.cx + frac * domain.r * math.cos(ang),
                            domain.cy + frac * domain.r * math.sin(ang)))
    return np.asarray(centers)


def _interval_ratio(domain: Interval, x: float, r: float) -> float:
    cap = min(domain.b, x + r) - max(domain.a, x - r)
    return cap / min(domain.measure, 2.0 * r)


def estimate_regularity(domain, mc_points: int = 100_000, grid: int | None = None,
                        seed: int = 0) -> float:
    """Smallest ratio |B(x,r) n Omega| / min(|Omega|, |B(x,r)|) on a grid.

    Centers range over a grid of the closed domain (corners included, where
    the infimum is attained for boxes); radii sweep up to past the measure
    crossover.  Intervals use exact interval intersections; boxes also get
    the exact corner value; everything else is Monte Carlo with at least
    ``mc_points`` draws per center, shared across radii: each draw's exit
    radius is taken in closed form and sorted once, and one search counts
    the draws inside the ball of every radius.
    """
    if not isinstance(domain, (Interval, Box, Disk)):
        raise UnsupportedDomainError(f"unsupported domain {domain!r}")
    if mc_points < 1:
        raise ValueError(f"mc_points must be at least 1, got {mc_points}")
    if grid is not None and grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
    rng = np.random.default_rng(seed)
    dim = domain.dim
    if grid is None:
        grid = {1: 21, 2: 7, 3: 4}[dim]
    if isinstance(domain, Interval):
        diameter = domain.measure
    elif isinstance(domain, Box):
        diameter = float(np.linalg.norm(np.subtract(domain.hi, domain.lo)))
    else:
        diameter = 2.0 * domain.r
    crossover = (domain.measure * math.gamma(dim / 2.0 + 1.0)
                 / math.pi ** (dim / 2.0)) ** (1.0 / dim)
    radii = np.unique(np.concatenate([
        np.geomspace(diameter * 1e-3, diameter * 1.05, 24),
        crossover * np.linspace(0.8, 1.2, 9),
    ]))
    centers = _center_grid(domain, grid)
    volume = ball_volume(dim, radii)
    cap = np.minimum(domain.measure, volume)

    best = 1.0
    for center in centers:
        if isinstance(domain, Interval):
            best = min(best, *(_interval_ratio(domain, center[0], r)
                               for r in radii))
            continue
        raw = _unit_ball_points(dim, mc_points, rng)
        exits = np.sort(_exit_radii(domain, center, raw))
        # a draw is inside the ball of radius r unless it exits before r
        frac = (mc_points - np.searchsorted(exits, radii, side="left")) / mc_points
        best = min(best, float(np.min(frac * volume / cap)))
    if isinstance(domain, Box):
        # exact corner value for radii up to the shortest side
        best = min(best, 0.5 ** domain.dim)
    return float(best)


# --------------------------------------------------------------------------
# Lipschitz and discrepancy estimates
# --------------------------------------------------------------------------

def estimate_lipschitz(f, lo, hi, n: int = 10_000, seed: int = 0) -> float:
    """Largest gradient norm of a scalar field over a box, sampled.

    ``f(points) -> gradients`` maps points (m, d) to the field's gradients
    there, shape (m, d); the field's values are never needed.  A refinement
    grid around the arg-max sharpens the estimate; the result is a lower
    estimate of the true constant.
    """
    rng = np.random.default_rng(seed)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    pts = rng.uniform(lo, hi, size=(n, lo.size))
    norms = np.linalg.norm(f(pts), axis=1)
    best_idx = int(np.argmax(norms))
    best = float(norms[best_idx])
    local = _refine_cloud(pts[best_idx], lo, hi, rng)
    return max(best, float(np.max(np.linalg.norm(f(local), axis=1))))


def _refine_cloud(center, lo, hi, rng, n: int = _REFINE_POINTS):
    radius = (hi - lo) * _REFINE_FRACTION
    pts = center + rng.uniform(-1.0, 1.0, size=(n, lo.size)) * radius
    return np.clip(pts, lo, hi)


def _predictor(store, p: ProblemSpec, dspec: DictionarySpec, lift: bool,
               predictor_fn):
    """``fields(points, layout)``: the predictor's slots packed by
    ``layout``, shape (slots, n).

    The stored network runs the forward-only slot pass carrying the slots of
    ``layout`` alone; the jets of ``predictor_fn(points) -> Jet2`` are
    packed the same way.
    """
    if predictor_fn is not None:
        return lambda points, layout: pack_slots(p, layout, predictor_fn(points),
                                                 points)
    return lambda points, layout: predictor_fields(store, p, dspec, points,
                                                   lift, layout)


def _residual(p: ProblemSpec, fields):
    """PDE residual at points, read from the operator slot."""
    layout = operator_layout(p)
    return lambda points: fields(points, layout)[-1] - rhs(p, points)


def _central_gradients(f, h: float = 1e-4):
    """``points -> gradients`` of a scalar field by central differences."""
    def gradients(points):
        grads = np.empty_like(points)
        for k in range(points.shape[1]):
            e = np.zeros(points.shape[1])
            e[k] = h
            grads[:, k] = (f(points + e) - f(points - e)) / (2.0 * h)
        return grads
    return gradients


def estimate_sup_deltas(store, p: ProblemSpec, dspec: DictionarySpec,
                        lift: bool = False, n_interior: int = 20_000,
                        n_boundary: int = 2_000, seed: int = 0,
                        predictor_fn=None):
    """Boundary and interior discrepancies of the trained predictor.

    Returns (d1_sup, d2_sup, d1_exp, d2_exp): sup and mean of the absolute
    boundary mismatch and PDE residual, sampled densely with arg-max
    refinement for the sup estimates.  ``predictor_fn(points) -> Jet2``
    overrides the stored network; oracle injection substitutes the exact
    solution this way to validate the whole pipeline.
    """
    _check_bound_applies(p)
    rng = np.random.default_rng(seed)
    lo = np.asarray(p.lo)
    hi = np.asarray(p.hi)
    fields = _predictor(store, p, dspec, lift, predictor_fn)
    residual = _residual(p, fields)

    def residual_abs(points):
        return np.abs(residual(points))

    def mismatch_abs(points):
        return np.abs(fields(points, VALUES)[0] - boundary_value(p, points))

    ipts = sample_interior(p, n_interior, rng).points
    res = residual_abs(ipts)
    d2_exp = float(np.mean(res))
    k = int(np.argmax(res))
    local = _refine_cloud(ipts[k], lo, hi, rng)
    d2_sup = max(float(res[k]), float(np.max(residual_abs(local))))

    bpts = sample_boundary(p, n_boundary, rng).points
    mis = mismatch_abs(bpts)
    d1_exp = float(np.mean(mis))
    k = int(np.argmax(mis))
    if p.dim == 2:
        # refine along the edge of the square through the arg-max
        x0 = bpts[k]
        axis = 0 if np.isclose(x0[1], lo[1]) or np.isclose(x0[1], hi[1]) else 1
        radius = (hi[axis] - lo[axis]) * _REFINE_FRACTION
        along = np.linspace(max(lo[axis], x0[axis] - radius),
                            min(hi[axis], x0[axis] + radius), _REFINE_POINTS)
        local = np.tile(x0, (_REFINE_POINTS, 1))
        local[:, axis] = along
        d1_sup = max(float(mis[k]), float(np.max(mismatch_abs(local))))
    else:
        d1_sup = float(np.max(mis))
    return d1_sup, d2_sup, d1_exp, d2_exp


# --------------------------------------------------------------------------
# Bound assembly
# --------------------------------------------------------------------------

def poisson_bound(delta1: float, delta2: float, slab_width: float) -> float:
    """Sup-error bound delta1 + (e^d - 1) delta2 for a domain of width d."""
    if slab_width <= 0:
        raise ValueError("slab width must be positive")
    return delta1 + (math.exp(slab_width) - 1.0) * delta2


def tilde_delta(delta: float, lip: float, regularity: float,
                measure: float, dim: int) -> float:
    """Convert an expected discrepancy into a sup-norm surrogate.

    max(2 delta / R, 2 l (delta |Omega| Gamma(d/2+1) / (l R pi^{d/2}))^{1/(d+1)}),
    the L1 norm being reconstructed as delta * measure.
    """
    if lip <= 0 or regularity <= 0:
        raise ValueError("Lipschitz constant and regularity must be positive")
    if delta < 0 or measure <= 0:
        raise ValueError("delta must be >= 0 and measure positive")
    first = 2.0 * delta / regularity
    inner = (delta * measure * math.gamma(dim / 2.0 + 1.0)
             / (lip * regularity * math.pi ** (dim / 2.0)))
    second = 2.0 * lip * inner ** (1.0 / (dim + 1.0))
    return float(max(first, second))


@dataclass
class BoundReport:
    problem: str
    delta1_sup: float
    delta2_sup: float
    delta1_exp: float
    delta2_exp: float
    lipschitz_l: float
    regularity_interior: float
    regularity_boundary: float
    tilde_delta1: float
    tilde_delta2: float
    slab_width: float
    bound_sup: float
    bound_exp: float
    observed_sup_error: float
    sup_bound_holds: bool
    exp_bound_holds: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @staticmethod
    def from_json(text: str) -> "BoundReport":
        return BoundReport(**json.loads(text))

    def table(self) -> str:
        rows = [
            ("boundary sup discrepancy (delta1)", self.delta1_sup),
            ("interior sup discrepancy (delta2)", self.delta2_sup),
            ("boundary expected discrepancy", self.delta1_exp),
            ("interior expected discrepancy", self.delta2_exp),
            ("Lipschitz estimate (lower)", self.lipschitz_l),
            ("interior regularity", self.regularity_interior),
            ("boundary regularity", self.regularity_boundary),
            ("sup surrogate of boundary delta", self.tilde_delta1),
            ("sup surrogate of interior delta", self.tilde_delta2),
            ("slab width", self.slab_width),
            ("sup-norm bound", self.bound_sup),
            ("expectation-based bound", self.bound_exp),
            ("observed sup error", self.observed_sup_error),
        ]
        width = max(len(name) for name, _ in rows)
        lines = [f"bound report: {self.problem}"]
        lines += [f"  {name.ljust(width)}  {value:.6e}" for name, value in rows]
        lines.append("  sup bound holds:        "
                     + ("yes" if self.sup_bound_holds else "VIOLATED"))
        lines.append("  expectation bound holds: "
                     + ("yes" if self.exp_bound_holds else "VIOLATED"))
        return "\n".join(lines)


def _square_perimeter_regularity(half: float, grid: int = 48,
                                 seed: int = 0) -> float:
    """Regularity of the square's edge set under arc-length measure.

    Same ratio as ``estimate_regularity`` but intersecting balls with the
    1-D perimeter while keeping the printed ambient-dimension ball volume.
    Each center's sample distances are sorted once and counted at every
    radius with one search.
    """
    rng = np.random.default_rng(seed)
    total = 8.0 * half
    # arc-length-uniform perimeter samples
    n = 200_000
    u = rng.uniform(0.0, total, size=n)
    px, py = np.ascontiguousarray(_perimeter_points(u, half).T)
    centers = _perimeter_points(np.linspace(0.0, total, grid, endpoint=False), half)
    crossover = math.sqrt(total / math.pi)
    radii = np.unique(np.concatenate([
        np.geomspace(0.05, 2.0 * half, 20),
        crossover * np.linspace(0.8, 1.2, 9),
    ]))
    cap = np.minimum(total, math.pi * radii ** 2)
    best = 1.0
    for c in centers:
        # the Euclidean distance of every sample from c
        d = np.sort(np.sqrt((px - c[0]) ** 2 + (py - c[1]) ** 2))
        arc = np.searchsorted(d, radii, side="right") / n * total
        best = min(best, float(np.min(arc / cap)))
    return float(best)


def _perimeter_points(u, half: float) -> np.ndarray:
    """Map arc length u in [0, 8 half) to points on the square boundary."""
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    side = 2.0 * half
    edge = np.floor_divide(u, side).astype(int)
    s = u - edge * side
    x = np.where(edge == 0, -half + s,
                 np.where(edge == 1, half, np.where(edge == 2, half - s, -half)))
    y = np.where(edge == 0, -half,
                 np.where(edge == 1, -half + s, np.where(edge == 2, half, half - s)))
    return np.column_stack([x, y])


def _check_bound_applies(p: ProblemSpec) -> None:
    side = np.subtract(p.hi, p.lo)
    if not p.elliptic_bound or p.dim > 2 or np.any(side != side[0]):
        raise ValueError("bounds are computed for the Poisson problems only, "
                         f"on an interval or a square, not for {p.id}")


def verify_bound(store, p: ProblemSpec, dspec: DictionarySpec,
                 lift: bool = False, n_interior: int = 20_000,
                 n_boundary: int = 2_000, seed: int = 0,
                 predictor_fn=None) -> BoundReport:
    """Assemble the full report for a trained Poisson predictor.

    The geometry comes from the problem's box: an interval, whose boundary
    is two points, or a square.  On two points the sup is at most twice
    the mean, which replaces the Lipschitz conversion (regularity 1 under
    counting measure).  Warns loudly if either bound is violated.
    """
    fields = _predictor(store, p, dspec, lift, predictor_fn)
    residual = _residual(p, fields)
    d1_sup, d2_sup, d1_exp, d2_exp = estimate_sup_deltas(
        store, p, dspec, lift, n_interior, n_boundary, seed, predictor_fn)

    rng = np.random.default_rng(seed + 1)
    lo = np.asarray(p.lo)
    hi = np.asarray(p.hi)
    gradient_layout = SlotLayout(p.coord_names)

    def mismatch_gradients(points):
        # the boundary field is F - u, so its gradient is F' - u'
        return (fields(points, gradient_layout)[1:].T
                - ground_truth_jet(p, points).d1)

    lip = max(estimate_lipschitz(mismatch_gradients, lo, hi, seed=seed + 2),
              estimate_lipschitz(_central_gradients(residual), lo, hi,
                                 seed=seed + 3))

    side = hi - lo
    slab_width = float(side.min())     # planes this far apart enclose the box
    if p.dim == 1:
        domain = Interval(p.lo[0], p.hi[0])
        reg_boundary = 1.0
        td1 = 2.0 * d1_exp      # two-point boundary: sup <= sum = 2 * mean
    else:
        domain = Box(p.lo, p.hi)
        reg_boundary = _square_perimeter_regularity(side[0] / 2.0)
        td1 = tilde_delta(d1_exp, lip, reg_boundary, 4.0 * side[0], p.dim)
    reg_interior = estimate_regularity(domain, mc_points=20_000)
    td2 = tilde_delta(d2_exp, lip, reg_interior, p.volume, p.dim)

    bound_sup = poisson_bound(d1_sup, d2_sup, slab_width)
    bound_exp = poisson_bound(td1, td2, slab_width)

    ipts = sample_interior(p, n_interior, rng).points
    errs = np.abs(fields(ipts, VALUES)[0] - ground_truth(p, ipts))
    k = int(np.argmax(errs))
    local = _refine_cloud(ipts[k], lo, hi, rng)
    local_errs = np.abs(fields(local, VALUES)[0] - ground_truth(p, local))
    observed = max(float(errs[k]), float(np.max(local_errs)))

    report = BoundReport(
        problem=p.id,
        delta1_sup=d1_sup, delta2_sup=d2_sup,
        delta1_exp=d1_exp, delta2_exp=d2_exp,
        lipschitz_l=lip,
        regularity_interior=reg_interior, regularity_boundary=reg_boundary,
        tilde_delta1=td1, tilde_delta2=td2,
        slab_width=slab_width,
        bound_sup=bound_sup, bound_exp=bound_exp,
        observed_sup_error=observed,
        sup_bound_holds=bool(observed <= bound_sup),
        exp_bound_holds=bool(observed <= bound_exp),
    )
    if not (report.sup_bound_holds and report.exp_bound_holds):
        warnings.warn(f"error bound violated for {p.id}: observed "
                      f"{observed:.3e}, sup bound {bound_sup:.3e}, "
                      f"expectation bound {bound_exp:.3e}")
    return report
