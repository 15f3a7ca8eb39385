"""Numerical checks of the elliptic error bounds.

Estimates the boundary/interior discrepancies of a trained predictor, the
domain regularity constant, and a Lipschitz constant, then assembles the
Poisson sup-norm bound and its expectation-based variant and verifies that
the observed sup error respects them.  All sup quantities are sampled
estimates with an arg-max refinement pass, not certificates.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dictionaries import DictionarySpec
from .network import VALUES, SlotLayout
from .problems import (ProblemSpec, _near, boundary_value, ground_truth,
                       ground_truth_jet, rhs)
from .sampling import sample_boundary, sample_interior
from .training import operator_layout, pack_slots, predictor_fields_many

# sup refinement: local grid points and its radius as a domain fraction
_REFINE_POINTS = 1000
_REFINE_FRACTION = 0.01
# sample of each Lipschitz estimate
_LIPSCHITZ_POINTS = 10_000


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
class Box(_Domain):
    """The box [lo, hi]; a 1-D box is an interval."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) not in (1, 2, 3) or len(self.lo) != len(self.hi):
            raise UnsupportedDomainError("boxes must be 1- to 3-dimensional")
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
    if kind == "disk":
        return Disk(*vals)
    return Box(tuple(vals[0::2]), tuple(vals[1::2]))


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
    """``n`` points drawn uniformly inside the unit ball, from normal
    directions (n, dim) and then uniform radii (n, 1); rescale to any
    radius.

    The norms are summed one column at a time, in the order
    ``np.linalg.norm(axis=1)`` sums a row, so the points are its bitwise.
    """
    dirs = rng.normal(size=(n, dim))
    u = rng.uniform(0.0, 1.0, size=(n, 1))
    dirs /= np.sqrt(functools.reduce(np.add, (d * d for d in dirs.T)))[:, None]
    return dirs * u ** (1.0 / dim)


def estimate_regularity(domain, mc_points: int = 100_000,
                        seed: int = 0) -> float:
    """Estimate of the infimum of |B(x,r) n Omega| / min(|Omega|, |B(x,r)|)
    over centres x in the domain and radii r.

    Which centre: for a convex domain x -> |B(x,r) n Omega| is log-concave
    (``_box_regularity``), so for every radius its minimum sits at an
    extreme point x*: a corner of a box, all alike by reflection, or a rim
    point of a disk, all alike by rotation.

    Which radius: a ray from x* leaves a convex domain at most once, so
    if x* + r u lies in the domain, so does x* + s u for every s <= r.  The
    in-domain share |B(x*,r) n Omega| / |B(x*,r)|, the share of unit-ball
    points u with x* + r u in the domain, therefore never grows with r.
    Up to the crossover radius r*, where |B(x*,r*)| = |Omega|, the ratio
    is that share, so it falls to its value at r*; beyond, it is
    |B(x*,r) n Omega| / |Omega|, which grows with r.  The infimum is
    therefore the share at r*.

    An interval gives the exact 1/2.  Otherwise the estimate is the share
    of ``mc_points`` unit-ball draws that lie in the closed domain once
    scaled by r* and shifted to the corner ``lo`` or the rim point (r, 0),
    in the domain's own frame, so a translated copy gives the same
    estimate.  It is a binomial share with sigma = sqrt(c (1 - c) / n).
    A box's result is capped by 2^-d, the orthant of the ball at a corner,
    which the true share never exceeds.
    """
    if not isinstance(domain, (Box, Disk)):
        raise UnsupportedDomainError(f"unsupported domain {domain!r}")
    if mc_points < 1:
        raise ValueError(f"mc_points must be at least 1, got {mc_points}")
    dim = domain.dim
    if dim == 1:
        return _box_regularity(domain.lo, domain.hi)[0]
    crossover = (domain.measure * math.gamma(dim / 2.0 + 1.0)
                 / math.pi ** (dim / 2.0)) ** (1.0 / dim)
    pts = crossover * _unit_ball_points(dim, mc_points,
                                        np.random.default_rng(seed))
    if isinstance(domain, Box):
        side = np.subtract(domain.hi, domain.lo)
        inside = np.all((pts >= 0.0) & (pts <= side), axis=1)
        cap = 0.5 ** dim
    else:
        pts[:, 0] += domain.r
        inside = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= domain.r ** 2
        cap = 1.0
    return min(np.count_nonzero(inside) / mc_points, cap)


# --------------------------------------------------------------------------
# Lipschitz and discrepancy estimates
# --------------------------------------------------------------------------

def _lockstep(fields, *estimates) -> list:
    """Run estimates side by side and return their results.

    An estimate is a generator: it yields a list of ``(points, layout)``
    field requests, receives their fields in request order and returns its
    result.  Each round sends the requests of every estimate still running
    to one ``fields(requests)`` call, so they share one pool map.
    """
    results = [None] * len(estimates)
    replies = dict.fromkeys(range(len(estimates)))
    while replies:
        asked = {}
        for i, reply in replies.items():
            try:
                asked[i] = estimates[i].send(reply)
            except StopIteration as stop:
                results[i] = stop.value
        if not asked:
            break
        got = iter(fields([r for requests in asked.values() for r in requests]))
        replies = {i: [next(got) for _ in requests]
                   for i, requests in asked.items()}
    return results


def _fields(store, p: ProblemSpec, dspec: DictionarySpec, lift: bool,
            predictor_fn):
    """``fields(requests)``: the predictor's slots packed by the layout of
    each ``(points, layout)`` request, shape (slots, n) each.

    The stored network runs the forward-only slot pass carrying the slots
    of each layout alone, the chunks of every request in one pool map; the
    jets of ``predictor_fn(points) -> Jet2`` are packed the same way.
    """
    if predictor_fn is not None:
        return lambda requests: [pack_slots(p, layout, predictor_fn(points),
                                            points)
                                 for points, layout in requests]
    return lambda requests: predictor_fields_many(store, p, dspec, requests,
                                                  lift)


def _cloud_offsets(lo, hi, rng, n: int = _REFINE_POINTS):
    """Offsets of a refinement cloud around an arg-max, which they do not
    depend on: each estimate draws them before its arg-max is known."""
    return rng.uniform(-1.0, 1.0, size=(n, lo.size)) * ((hi - lo) * _REFINE_FRACTION)


def _lipschitz(gradients, lo, hi, n: int, seed: int):
    """``estimate_lipschitz`` as an estimate for ``_lockstep``:
    ``gradients(points)`` is a generator that yields its field requests and
    returns the gradients."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    pts = rng.uniform(lo, hi, size=(n, lo.size))
    offsets = _cloud_offsets(lo, hi, rng)
    norms = np.linalg.norm((yield from gradients(pts)), axis=1)
    best_idx = int(np.argmax(norms))
    local = np.clip(pts[best_idx] + offsets, lo, hi)
    local_norms = np.linalg.norm((yield from gradients(local)), axis=1)
    return max(float(norms[best_idx]), float(np.max(local_norms)))


def estimate_lipschitz(f, lo, hi, n: int = _LIPSCHITZ_POINTS,
                       seed: int = 0) -> float:
    """Largest gradient norm of a scalar field over a box, sampled.

    ``f(points) -> gradients`` maps points (m, d) to the field's gradients
    there, shape (m, d); the field's values are never needed.  A refinement
    grid around the arg-max sharpens the estimate; the result is a lower
    estimate of the true constant.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")

    def gradients(points):
        return f(points)
        yield                           # a generator that requests no fields

    return _lockstep(None, _lipschitz(gradients, lo, hi, n, seed))[0]


def _residual_gradients(p: ProblemSpec, h: float = 1e-4):
    """``gradients(points)`` of the PDE residual by central differences,
    for ``_lipschitz``: one request per shifted point set, read from the
    operator slot."""
    layout = operator_layout(p)

    def gradients(points):
        shifted = []
        for k in range(p.dim):
            e = np.zeros(p.dim)
            e[k] = h
            shifted += [points + e, points - e]
        F = yield [(q, layout) for q in shifted]
        r = [f[-1] - rhs(p, q) for f, q in zip(F, shifted)]
        grads = np.empty_like(points)
        for k in range(p.dim):
            grads[:, k] = (r[2 * k] - r[2 * k + 1]) / (2.0 * h)
        return grads
    return gradients


def _sup_deltas(p: ProblemSpec, n_interior: int, n_boundary: int, seed: int):
    """``estimate_sup_deltas`` as an estimate for ``_lockstep``."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(p.lo)
    hi = np.asarray(p.hi)
    layout = operator_layout(p)
    ipts = sample_interior(p, n_interior, rng).points
    offsets = _cloud_offsets(lo, hi, rng)
    bpts = sample_boundary(p, n_boundary, rng).points
    F_res, F_mis = yield [(ipts, layout), (bpts, VALUES)]
    res = np.abs(F_res[-1] - rhs(p, ipts))
    mis = np.abs(F_mis[0] - boundary_value(p, bpts))

    k = int(np.argmax(res))
    local = np.clip(ipts[k] + offsets, lo, hi)
    requests = [(local, layout)]
    j = int(np.argmax(mis))
    if p.dim == 2:
        # refine along the edge of the square through the arg-max
        x0 = bpts[j]
        axis = 0 if _near(x0[1], lo[1]) or _near(x0[1], hi[1]) else 1
        radius = (hi[axis] - lo[axis]) * _REFINE_FRACTION
        along = np.linspace(max(lo[axis], x0[axis] - radius),
                            min(hi[axis], x0[axis] + radius), _REFINE_POINTS)
        edge = np.tile(x0, (_REFINE_POINTS, 1))
        edge[:, axis] = along
        requests.append((edge, VALUES))
    F = yield requests
    d2_sup = max(float(res[k]),
                 float(np.max(np.abs(F[0][-1] - rhs(p, local)))))
    d1_sup = float(mis[j])
    if p.dim == 2:
        d1_sup = max(d1_sup, float(np.max(
            np.abs(F[1][0] - boundary_value(p, edge)))))
    return d1_sup, d2_sup, float(np.mean(mis)), float(np.mean(res))


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
    return _lockstep(_fields(store, p, dspec, lift, predictor_fn),
                     _sup_deltas(p, n_interior, n_boundary, seed))[0]


def _observed_error(p: ProblemSpec, n: int, seed: int):
    """Sampled sup of |F - u| with arg-max refinement, as an estimate for
    ``_lockstep``."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(p.lo)
    hi = np.asarray(p.hi)
    ipts = sample_interior(p, n, rng).points
    offsets = _cloud_offsets(lo, hi, rng)
    F, = yield [(ipts, VALUES)]
    errs = np.abs(F[0] - ground_truth(p, ipts))
    k = int(np.argmax(errs))
    local = np.clip(ipts[k] + offsets, lo, hi)
    F, = yield [(local, VALUES)]
    return max(float(errs[k]),
               float(np.max(np.abs(F[0] - ground_truth(p, local)))))


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


def _check_bound_applies(p: ProblemSpec) -> None:
    side = np.subtract(p.hi, p.lo)
    if not p.elliptic_bound or p.dim > 2 or np.any(side != side[0]):
        raise ValueError("bounds are computed for the Poisson problems only, "
                         f"on an interval or a square, not for {p.id}")


def _box_regularity(lo, hi) -> tuple:
    """(interior, boundary) regularity of the interval or square [lo, hi]:
    (1/2, 1) on an interval, whose boundary is two points under counting
    measure, and (1/4, min(1, 2 / sqrt(pi L))) on a square of side s and
    perimeter L = 4 s.  Both are the infimum over centres x in the box and
    radii r of the ratio |B(x,r) n A| / min(|A|, |B(x,r)|), with |B(x,r)|
    the ball's volume in the box's dimension; A is the box or its boundary.

    Interior: |B(x,r) n Q| is the convolution of the indicators of two
    convex sets, so it is log-concave in x (Prekopa-Leindler) and its
    minimum over the box sits at a corner.  There it is |B| / 2^d for r up
    to the side s, a ratio of exactly 2^-d up to the crossover radius
    |B| = |Q| (r = s / 2 on the interval, s / sqrt(pi) < s on the square).
    Past the crossover the ratio is |B(x,r) n Q| / |Q|, which grows with r,
    so it stays above its value at the crossover.

    Boundary: on a closed curve of length L the arc inside B(c,r) is at
    least min(2 r, L) for any centre c on the curve, because arc length
    bounds distance: each way round from c the curve stays inside the
    ball for an arc of length r, or the two arcs cover it.  For 2 r <= L
    the ratio is then at least 2 r / min(L, pi r^2) = max(2 r / L,
    2 / (pi r)) >= 2 / sqrt(pi L), the geometric mean of the two; for
    2 r > L it is at least 1.  At a corner the arc is exactly 2 r for r
    up to s, so the constant is attained at the crossover r = sqrt(L / pi)
    when s >= 4 / pi; for a smaller square it is a lower bound, which
    keeps the bound it enters valid.
    """
    if len(lo) == 1:
        return 0.5, 1.0
    perimeter = 4.0 * (hi[0] - lo[0])
    return 0.25, min(1.0, 2.0 / math.sqrt(math.pi * perimeter))


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
    _check_bound_applies(p)
    lo = np.asarray(p.lo)
    hi = np.asarray(p.hi)
    gradient_layout = SlotLayout(p.coord_names)

    def mismatch_gradients(points):
        # the boundary field is F - u, so its gradient is F' - u'
        F, = yield [(points, gradient_layout)]
        return (F[1:] - ground_truth_jet(p, points).d1).T

    # every main sample in one pool map, then every refinement cloud
    (d1_sup, d2_sup, d1_exp, d2_exp), lip_mismatch, lip_residual, observed = \
        _lockstep(_fields(store, p, dspec, lift, predictor_fn),
                  _sup_deltas(p, n_interior, n_boundary, seed),
                  _lipschitz(mismatch_gradients, lo, hi, _LIPSCHITZ_POINTS,
                             seed + 2),
                  _lipschitz(_residual_gradients(p), lo, hi, _LIPSCHITZ_POINTS,
                             seed + 3),
                  _observed_error(p, n_interior, seed + 1))
    lip = max(lip_mismatch, lip_residual)

    side = hi - lo
    slab_width = float(side.min())     # planes this far apart enclose the box
    reg_interior, reg_boundary = _box_regularity(p.lo, p.hi)
    if p.dim == 1:
        td1 = 2.0 * d1_exp      # two-point boundary: sup <= sum = 2 * mean
    else:
        td1 = tilde_delta(d1_exp, lip, reg_boundary, 4.0 * side[0], p.dim)
    td2 = tilde_delta(d2_exp, lip, reg_interior, p.volume, p.dim)

    bound_sup = poisson_bound(d1_sup, d2_sup, slab_width)
    bound_exp = poisson_bound(td1, td2, slab_width)

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
