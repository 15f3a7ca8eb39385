"""Empirical losses, Adam, and the training loop with metric logging."""

from __future__ import annotations

import contextvars
import math
import os
import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .diffgraph import Jet2, NonFiniteError, ParamStore
from .dictionaries import (DictionarySpec, eval_dictionary, fuse, lift_sphere,
                           write_lifted, write_words)
from .network import (VALUES, MlpConfig, SlotBuffers, SlotLayout, SlotPass,
                      init_mlp, mlp_forward)
from .problems import (ProblemSpec, apply_operator, boundary_value, ground_truth,
                       operator_sum, operator_terms, rhs)
from .sampling import SampleBatch, sample_boundary, sample_interior

DIVERGENCE_LIMIT = 1e12
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Points per forward-only pass, which bounds its memory on large batches.
# Chunks of 4096 points spilled a layer's slot arrays (6.6 MB each for
# poisson2d's four slots at width 50) out of a 2 MiB L2 cache.  A perfbench
# verify sweep (seeds 200-209, one BLAS thread, 2-core Xeon) gave a median
# of 6.01 ops/s at 256 points (4 runs), 6.49 at 512 and 6.66 at 1024 (10
# runs each); below 1024 the per-chunk Python overhead outweighs the cache.
# A power of two keeps every point on the GEMM row blocks of one
# whole-batch pass, so chunking leaves the results bitwise unchanged; an
# odd size such as 333 changes them at the rounding level.  Each chunk
# takes its work arrays from a pool kept by the thread that runs it and
# returns a copy of its fields, so the chunks share no memory.  They run
# concurrently on one thread per CPU the process may use (numpy's GEMMs
# and ufuncs release the GIL) and are joined in order: the result is
# bitwise the serial loop's.  Keep BLAS on one thread, or its own threads
# compete with the chunks for the same CPUs.  Training's record-time
# evaluation runs its chunks serially on the run's pool, so its arrays do
# not grow with ``n_pred``.
FORWARD_CHUNK = 1024

# Seed of the prediction-error sample, separate from the training noise.
EVAL_SEED = 777


class DivergenceError(RuntimeError):
    """Training loss exploded; carries the iteration and loss values."""


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 0.001
    # two scratch vectors of adam_step, which updates m and v in place
    work: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.work = (np.empty_like(self.m), np.empty_like(self.m))

    @staticmethod
    def init(n_params: int, lr: float = 0.001) -> "AdamState":
        return AdamState(m=np.zeros(n_params), v=np.zeros(n_params), lr=lr)


@dataclass
class TrainRecord:
    iteration: int
    loss_pde: float
    loss_bc: float
    error_predict: float
    elapsed: float


@dataclass
class TrainSettings:
    """Knobs of one training run; defaults follow the benchmark setups."""

    hidden_layers: int = 3
    hidden_width: int = 50
    iterations: int | None = None        # None: use the problem default
    n_pde: int | None = None
    n_bc: int | None = None
    n_pred: int = 1000
    seed: int = 0
    learning_rate: float = 0.001
    record_every: int = 10
    fresh_batches: bool = True           # False: fixed collocation ablation

    def __post_init__(self):
        minimums = {"hidden_layers": 1, "hidden_width": 1, "iterations": 0,
                    "n_pde": 1, "n_bc": 1, "n_pred": 1, "seed": 0,
                    "record_every": 1}
        for name, least in minimums.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive, "
                             f"got {self.learning_rate}")


# --------------------------------------------------------------------------
# Predictor assembly
# --------------------------------------------------------------------------

def network_input_dim(p: ProblemSpec, lift: bool) -> int:
    return 3 if lift else p.dim


def _check_lift(p: ProblemSpec, lift: bool) -> None:
    if lift and not p.lift:
        raise ValueError(f"lifting does not apply to the {p.id} problem")


def net_input_jet(p: ProblemSpec, points: np.ndarray, lift: bool) -> Jet2:
    """Jets of the network input at sample points.

    With lifting enabled the (theta, phi) coordinates are mapped to the
    unit sphere first; derivatives stay with respect to (theta, phi).
    """
    _check_lift(p, lift)
    x = Jet2.seed(points)
    if not lift:
        return x
    return lift_sphere(x.component(0), x.component(1))


def predictor_jets(layers, p: ProblemSpec, dspec: DictionarySpec,
                   points: np.ndarray, lift: bool) -> Jet2:
    """Fused predictor jets at points, through the plain ``Jet2`` pass.

    With no dictionary the network's single output is the predictor, bit
    for bit.
    """
    net = mlp_forward(layers, net_input_jet(p, points, lift))
    if dspec.kind == "none":
        return net.component(0)
    return fuse(eval_dictionary(dspec, points), net)


def operator_layout(p: ProblemSpec) -> SlotLayout:
    """The value, d1 for each coordinate the operator differentiates
    twice, and the operator slot L."""
    twice = sorted({coord for order, coord, _ in p.terms if order == 2})
    return SlotLayout(p.coord_names, d1=tuple(twice), operator=True)


def pack_slots(p: ProblemSpec, layout: SlotLayout, jet: Jet2,
               points: np.ndarray) -> np.ndarray:
    """``jet`` at points packed by ``layout``; the L slot is the operator
    applied to it."""
    op = apply_operator(p, jet, points) if layout.operator else None
    return layout.pack(jet, op)


def _second_order_coeffs(terms, layout: SlotLayout) -> tuple:
    """a_k of each d1 slot of ``layout`` from the evaluated operator
    terms, a point coefficient as (n, 1)."""
    a = {coord: coeff for order, coord, coeff in terms if order == 2}
    if sorted(a) != sorted(layout.d1):
        raise ValueError("the operator slot needs d1 slots for exactly the "
                         f"coordinates {sorted(a)}, got {list(layout.d1)}")
    return tuple(a[k][:, None] if np.ndim(a[k]) == 1 else a[k]
                 for k in layout.d1)


def _write_coordinates(pts: np.ndarray, value, d1, d2) -> None:
    """The coordinates themselves (``Jet2.seed``), written like a word
    family's words: d1[k] is the k-th unit field and d2 is zero."""
    value[...] = pts
    if d1 is None:
        return
    for k, row in enumerate(d1):
        row[...] = 0.0
        row[:, k] = 1.0
    d2[...] = 0.0


def _jet_slots(write, pts: np.ndarray, width: int, layout: SlotLayout,
               terms, take, name) -> np.ndarray:
    """The slots of ``layout`` of a jet of ``width`` entries per point,
    shape (slots, n, width), in the array ``take(name, shape)``.

    ``write(pts, value, d1, d2)`` writes the value and, unless d1 is None,
    the d1/d2 rows of every coordinate, as a word family does.  The d1
    rows of the layout's d1 slots are those slots; the other rows are
    scratch arrays of the same pool.  L is ``operator_sum`` of the terms.
    """
    n, dim = pts.shape
    out = take(name, (layout.slots, n, width))
    if layout.slots == 1:
        write(pts, out[0], None, None)
        return out
    carried = dict(zip(layout.d1, out[1:]))
    d1 = [carried[k] if k in carried else take((name, "d1", k), (n, width))
          for k in range(dim)]
    d2 = take((name, "d2"), (dim, n, width))
    write(pts, out[0], d1, d2)
    if layout.operator:
        operator_sum(terms, d1, d2, out=out[-1])
    return out


def predictor_slots(p: ProblemSpec, dspec: DictionarySpec, points: np.ndarray,
                    lift: bool, layout: SlotLayout, buffers=None):
    """``SlotPass`` inputs at points: the network input and the dictionary
    words in the slots of ``layout``, and the second-order coefficients.

    The input and the words are written straight into arrays taken from
    ``buffers`` (a ``SlotBuffers`` or one of its scopes; a fresh pool when
    None), the input in closed form and the words by their family.  The
    operator terms are evaluated once, and both L slots are
    ``operator_sum`` of them, so every slot is bitwise ``pack_slots`` of
    the ``Jet2`` reference (``net_input_jet``, ``eval_dictionary``).  The
    words are None without a dictionary; a layout without derivative
    slots gets value-only words.
    """
    _check_lift(p, lift)
    pts = np.asarray(points, dtype=np.float64)
    take = (SlotBuffers() if buffers is None else buffers).take
    terms = operator_terms(p, pts) if layout.operator else ()
    coeffs = _second_order_coeffs(terms, layout) if layout.operator else ()
    x = _jet_slots(write_lifted if lift else _write_coordinates, pts,
                   network_input_dim(p, lift), layout, terms, take, "x")
    if dspec.kind == "none":
        return x, None, coeffs
    return x, _jet_slots(partial(write_words, dspec), pts, dspec.word_count,
                         layout, terms, take, "words"), coeffs


def _slot_pass(store: ParamStore, layout: SlotLayout, slots,
               points: np.ndarray, start: int = 0,
               retain: bool = True,
               buffers: SlotBuffers | None = None) -> SlotPass:
    """``SlotPass`` on ``predictor_slots`` output for ``points[start:]``; a
    NaN/Inf report names the sample point and its row in ``points``."""
    try:
        return SlotPass(store.layers, layout, *slots, retain=retain,
                        buffers=buffers)
    except NonFiniteError as e:
        row = start + e.row
        raise NonFiniteError(
            f"{e}; batch point {np.array2string(points[row])}", row=row) from None


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        return os.cpu_count() or 1


# The threads of predictor_fields, shared by every call in the process and
# built on the first call that has chunks to share.
_chunk_pool = None
_chunk_pool_lock = threading.Lock()


def _drop_chunk_pool() -> None:
    # a forked child has none of the parent's threads, so an inherited
    # pool would queue work that no thread ever runs
    global _chunk_pool, _chunk_pool_lock
    _chunk_pool, _chunk_pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_chunk_pool)


def _map_in_order(fn, args) -> list:
    """``[fn(a) for a in args]``, on the process's chunk pool when there
    are two usable CPUs and two arguments to share.

    Each call runs under a copy of the caller's context, so numpy's error
    state (a context variable) is the caller's.  The first failure in
    argument order is raised once the calls after it are cancelled or
    finished.
    """
    args = list(args)
    workers = _usable_cpus()
    if workers < 2 or len(args) < 2:
        return [fn(a) for a in args]
    global _chunk_pool
    with _chunk_pool_lock:
        if _chunk_pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _chunk_pool = ThreadPoolExecutor(max_workers=workers,
                                             thread_name_prefix="pdpinn-chunk")
        pool = _chunk_pool
    futures = []
    try:
        for a in args:
            futures.append(pool.submit(contextvars.copy_context().run, fn, a))
        return [f.result() for f in futures]
    except BaseException:
        for f in futures:
            f.cancel()
        for f in futures:
            if not f.cancelled():
                f.exception()           # waits for a running call
        raise


# The work arrays of the forward-only chunks, one pool per thread that
# runs them, kept for the life of the thread.
_chunk_buffers = threading.local()


def _thread_buffers() -> SlotBuffers:
    buffers = getattr(_chunk_buffers, "pool", None)
    if buffers is None:
        buffers = _chunk_buffers.pool = SlotBuffers()
    return buffers


def predictor_fields_many(store: ParamStore, p: ProblemSpec,
                          dspec: DictionarySpec, requests, lift: bool) -> list:
    """``predictor_fields`` of each ``(points, layout)`` request, the chunks
    of every request in one pool map.

    Each request is chunked from its own row 0, so its fields are bitwise
    those of its own call; a NaN/Inf report names the row of its points,
    and the lowest failing chunk in request order is raised.
    """
    def chunk(arg):
        points, layout, start = arg
        pts = points[start:start + FORWARD_CHUNK]
        buffers = _thread_buffers()
        slots = predictor_slots(p, dspec, pts, lift, layout,
                                buffers.scope("inputs"))
        # a copy: a plain network's F is a view into the thread's pool
        return _slot_pass(store, layout, slots, points, start, retain=False,
                          buffers=buffers).F.copy()

    counts = [len(range(0, len(points), FORWARD_CHUNK))
              for points, _ in requests]
    parts = iter(_map_in_order(chunk, [
        (points, layout, start) for points, layout in requests
        for start in range(0, len(points), FORWARD_CHUNK)]))
    return [np.concatenate([next(parts) for _ in range(count)], axis=1)
            if count else np.empty((layout.slots, 0))
            for count, (_, layout) in zip(counts, requests)]


def predictor_fields(store: ParamStore, p: ProblemSpec, dspec: DictionarySpec,
                     points: np.ndarray, lift: bool,
                     layout: SlotLayout) -> np.ndarray:
    """Predictor slots at points, shape (slots, n), through the
    forward-only slot pass carrying the slots of ``layout``.

    Runs ``FORWARD_CHUNK`` points at a time, the chunks concurrently on one
    thread per usable CPU; a NaN/Inf report names the row of ``points``.
    """
    return predictor_fields_many(store, p, dspec, [(points, layout)], lift)[0]


def predict_values(store: ParamStore, p: ProblemSpec, dspec: DictionarySpec,
                   points: np.ndarray, lift: bool) -> np.ndarray:
    return predictor_fields(store, p, dspec, points, lift, VALUES)[0]


# --------------------------------------------------------------------------
# Empirical losses
# --------------------------------------------------------------------------

def _mean_square_loss(role: str, store: ParamStore, p: ProblemSpec,
                      dspec: DictionarySpec, points: np.ndarray, lift: bool,
                      layout: SlotLayout, target, buffers: SlotBuffers | None):
    """Mean square of the last slot of ``layout`` minus ``target(p,
    points)``, with its gradient.

    dL/dF is 2 r / n on that slot alone.  The pass takes its work arrays
    from ``buffers``, or a fresh pool when None.  The inputs and the
    target are written into the role's own arrays of the pool and built
    again only when the role's points change.
    """
    if buffers is None:
        buffers = SlotBuffers()
    slots, want = buffers.memo(role, points, lambda: (
        predictor_slots(p, dspec, points, lift, layout, buffers.scope(role)),
        target(p, points)))
    fwd = _slot_pass(store, layout, slots, points, buffers=buffers)
    r = fwd.F[-1] - want
    gF = np.zeros_like(fwd.F)
    gF[-1] = (2.0 / r.size) * r
    return float(np.mean(r * r)), fwd.gradient(gF)


def empirical_pde_loss(store: ParamStore, p: ProblemSpec, dspec: DictionarySpec,
                       batch: SampleBatch, lift: bool = False,
                       buffers: SlotBuffers | None = None):
    """Mean squared PDE residual F_L - q over an interior batch, with
    gradient; the pass carries the operator slot.  A pool keeps the words,
    network input and q of the last batch, reused while the points repeat.
    """
    if batch.region != "interior":
        raise ValueError("PDE loss needs an interior batch")
    return _mean_square_loss("pde", store, p, dspec, batch.points, lift,
                             operator_layout(p), rhs, buffers)


def empirical_bc_loss(store: ParamStore, p: ProblemSpec, dspec: DictionarySpec,
                      batch: SampleBatch, lift: bool = False,
                      buffers: SlotBuffers | None = None):
    """Mean squared boundary mismatch over a boundary batch, with gradient;
    only values enter, so the pass carries the value slot alone.  A pool
    keeps the inputs and boundary data of the last batch, reused while the
    points repeat (the fixed boundary points of poisson1d and sphere).
    """
    if batch.region != "boundary":
        raise ValueError("BC loss needs a boundary batch")
    return _mean_square_loss("bc", store, p, dspec, batch.points, lift,
                             VALUES, boundary_value, buffers)


def predict_error(store: ParamStore, p: ProblemSpec, dspec: DictionarySpec,
                  n: int = 1000, rng: np.random.Generator | None = None,
                  lift: bool = False) -> float:
    """Monte Carlo mean squared prediction error over interior points."""
    if n < 1:
        raise ValueError("need n >= 1 prediction points")
    if rng is None:
        rng = np.random.default_rng(EVAL_SEED)
    pts = sample_interior(p, n, rng).points
    vals = predict_values(store, p, dspec, pts, lift)
    return float(np.mean((vals - ground_truth(p, pts)) ** 2))


# --------------------------------------------------------------------------
# Optimizer
# --------------------------------------------------------------------------

def adam_step(state: AdamState, store: ParamStore, grad: np.ndarray) -> None:
    """One Adam update with bias correction, in place."""
    if grad.shape != state.m.shape:
        raise ValueError("gradient length does not match the optimizer state")
    state.t += 1
    m, v, (s1, s2) = state.m, state.v, state.work
    # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g, then
    # theta -= lr mhat / (sqrt(vhat) + eps), each in the order written
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grad, out=s1)
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grad, out=s1)
    s1 *= grad
    v += s1
    step = np.divide(m, 1.0 - ADAM_BETA1 ** state.t, out=s1)     # mhat
    denom = np.divide(v, 1.0 - ADAM_BETA2 ** state.t, out=s2)    # vhat
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step *= state.lr
    step /= denom
    store.theta -= step


# --------------------------------------------------------------------------
# Training loop
# --------------------------------------------------------------------------

def train(p: ProblemSpec, dspec: DictionarySpec, settings: TrainSettings,
          store: ParamStore | None = None, lift: bool | None = None):
    """Adam on the summed empirical losses with fresh batches per iteration.

    Returns (records, store).  The objective is exactly loss_pde + loss_bc;
    the prediction error is sampled at the end of each recorded iteration
    with its own fixed-seed generator.  Raises DivergenceError when the
    loss passes DIVERGENCE_LIMIT.  Reductions over samples always run in a
    fixed order here, so every run is bit-reproducible for a given seed.
    One ``SlotBuffers`` serves every pass of the run, so fixed-size batches
    reuse the same work arrays from one iteration to the next.  The
    inputs of the PDE batch, the boundary batch and the evaluation set
    each keep arrays of their own in it, and a batch whose points repeat
    (a fixed boundary, or ``fresh_batches=False``) reuses its words and
    network input.
    """
    if lift is None:
        lift = p.lift and dspec.kind != "none"
    iterations = settings.iterations if settings.iterations is not None else p.iterations
    n_pde = settings.n_pde if settings.n_pde is not None else p.n_pde
    n_bc = settings.n_bc if settings.n_bc is not None else p.n_bc

    if store is None:
        cfg = MlpConfig(input_dim=network_input_dim(p, lift),
                        hidden_widths=(settings.hidden_width,) * settings.hidden_layers,
                        output_dim=dspec.word_count, seed=settings.seed)
        store = init_mlp(cfg)

    rng = np.random.default_rng(settings.seed + 1)
    state = AdamState.init(store.n_params, lr=settings.learning_rate)
    records: list[TrainRecord] = []
    start = time.perf_counter()

    # fixed evaluation set: same points as predict_error with the eval seed
    eval_pts = sample_interior(p, settings.n_pred,
                               np.random.default_rng(EVAL_SEED)).points
    eval_truth = ground_truth(p, eval_pts)
    buffers = SlotBuffers()
    eval_slots = predictor_slots(p, dspec, eval_pts, lift, VALUES,
                                 buffers.scope("eval"))

    def current_error() -> float:
        # FORWARD_CHUNK points at a time, serially on the run's pool
        x, words, coeffs = eval_slots
        F = np.empty(len(eval_pts))
        for start in range(0, len(eval_pts), FORWARD_CHUNK):
            part = slice(start, start + FORWARD_CHUNK)
            slots = (x[:, part], None if words is None else words[:, part],
                     coeffs)
            F[part] = _slot_pass(store, VALUES, slots, eval_pts, start,
                                 retain=False, buffers=buffers).F[0]
        return float(np.mean((F - eval_truth) ** 2))

    if not settings.fresh_batches:
        fixed_interior = sample_interior(p, n_pde, rng)
        fixed_boundary = sample_boundary(p, n_bc, rng)

    for it in range(1, iterations + 1):
        if settings.fresh_batches:
            interior = sample_interior(p, n_pde, rng)
            boundary = sample_boundary(p, n_bc, rng)
        else:
            interior, boundary = fixed_interior, fixed_boundary
        loss_pde, grad_pde = empirical_pde_loss(store, p, dspec, interior, lift,
                                                buffers)
        loss_bc, grad_bc = empirical_bc_loss(store, p, dspec, boundary, lift,
                                             buffers)
        total = loss_pde + loss_bc
        if not np.isfinite(total) or total > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"loss {total:.3e} at iteration {it} "
                f"(pde {loss_pde:.3e}, bc {loss_bc:.3e})")
        adam_step(state, store, grad_pde + grad_bc)
        if it % settings.record_every == 0 or it == iterations:
            err = current_error()
            records.append(TrainRecord(
                iteration=it, loss_pde=loss_pde, loss_bc=loss_bc,
                error_predict=err, elapsed=time.perf_counter() - start))
    return records, store


CSV_HEADER = "iteration,loss_pde,loss_bc,error_predict,elapsed_s"


def write_records_csv(records, path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(f"{r.iteration},{r.loss_pde:.17g},{r.loss_bc:.17g},"
                     f"{r.error_predict:.17g},{r.elapsed:.17g}\n")


def read_records_csv(path):
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected CSV header {header!r}")
        for line in fh:
            it, lp, lb, ep, el = line.strip().split(",")
            records.append(TrainRecord(int(it), float(lp), float(lb),
                                       float(ep), float(el)))
    return records
