"""Per-layer spans recorded from outside the program.

The benchmark never edits pdpinn.  Instead it wraps the public functions of
each layer module and installs the wrapper on every pdpinn module attribute
that holds the original, because the modules import names directly
(``training.sample_interior``, ``network.affine``, ``bounds.predictor_jets``
and so on): a caller looks the name up in its own module, so that is where
the wrapper has to sit.

Spans nest.  Each span's self time is its duration minus the time covered
by the spans it called.  Aggregates are kept in memory per span name and
read out once the traced phase ends.
"""

from __future__ import annotations

import functools
import importlib
import time

# Layer boundaries: the public functions of each module whose calls are
# timed.  config and cli only parse input and are not traced.
LAYER_FUNCTIONS = {
    "sampling": ("sample_interior", "sample_boundary"),
    "dictionaries": ("eval_dictionary", "fuse", "lift_sphere"),
    "network": ("mlp_forward",),
    "diffgraph": ("affine", "tanh", "backward", "loss_parameter_gradient",
                  "wrap_params", "trace_input"),
    "problems": ("apply_operator", "rhs", "boundary_value", "ground_truth"),
    "training": ("train", "empirical_pde_loss", "empirical_bc_loss",
                 "adam_step", "predictor_jets", "net_input_jet"),
    "bounds": ("verify_bound", "estimate_sup_deltas", "estimate_lipschitz",
               "estimate_regularity"),
}

MODULES = tuple(LAYER_FUNCTIONS)
_ALL_MODULES = ("pdpinn",) + tuple(f"pdpinn.{m}" for m in MODULES)


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Installs span wrappers into pdpinn and aggregates what they record."""

    def __init__(self):
        self._dg = importlib.import_module("pdpinn.diffgraph")
        self.stats: dict[str, SpanStats] = {}
        self.counts: dict[str, int] = {}
        self.top_level_ns = 0            # time inside outermost spans
        self.top_level_self_ns = 0       # their self time
        self._stack: list[list] = []     # [span, start_ns, child_ns] per open span
        self._installed: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in _ALL_MODULES]
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"pdpinn.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._installed.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._installed):
            setattr(mod, name, original)
        self._installed.clear()

    # -- recording -----------------------------------------------------------

    def _wrap(self, span: str, fn):
        observe = {
            "network.mlp_forward": self._observe_mlp,
            "diffgraph.affine": self._observe_affine,
            "diffgraph.tanh": self._observe_jet_out,
            "training.predictor_jets": self._observe_points,
        }.get(span)
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span
            stack.append([span, clock(), 0])
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    name = observe(span, args, kwargs, out)
                return out
            finally:
                _, start, child = stack.pop()
                dur = clock() - start
                self._record(name, dur, dur - child)
                if stack:
                    stack[-1][2] += dur
                else:
                    self.top_level_ns += dur
                    self.top_level_self_ns += dur - child
        return wrapper

    def _record(self, name: str, dur: int, self_ns: int) -> None:
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = SpanStats()
        s.calls += 1
        s.total_ns += dur
        s.self_ns += self_ns

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def _is_traced(self, jet) -> bool:
        return isinstance(jet, self._dg.TracedJet)

    def _jet_bytes(self, jet) -> int:
        if self._is_traced(jet):
            return jet.aug.nbytes
        return jet.value.nbytes + jet.d1.nbytes + jet.d2.nbytes

    def _observe_mlp(self, span, args, kwargs, out):
        x = args[1] if len(args) > 1 else kwargs["x"]
        return span + (".traced" if self._is_traced(x) else ".plain")

    def _observe_affine(self, span, args, kwargs, out):
        x, W = args[0], args[1]
        w = W.arr if hasattr(W, "arr") else W
        fan_out, fan_in = w.shape
        value = x.jet.value if self._is_traced(x) else x.value
        n = value.size // value.shape[-1]
        # value, d1 and d2 slots each go through the same width contraction
        self.count("diffgraph.affine.flops",
                   2 * n * (1 + 2 * x.dim) * fan_in * fan_out)
        return self._observe_jet_out(span, args, kwargs, out)

    def _observe_jet_out(self, span, args, kwargs, out):
        self.count("diffgraph.jet_bytes", self._jet_bytes(out))
        return span

    def _observe_points(self, span, args, kwargs, out):
        n = (args[3] if len(args) > 3 else kwargs["points"]).shape[0]
        self.count("training.predictor_jets.points", n)
        if any(frame[0].startswith("bounds.") for frame in self._stack):
            self.count("bounds.predictor_points", n)
        return span

    # -- read-out ------------------------------------------------------------

    def module_self_ns(self, module: str) -> int:
        prefix = module + "."
        return sum(s.self_ns for name, s in self.stats.items()
                   if name.startswith(prefix))

    def span_ns(self, name: str) -> int:
        s = self.stats.get(name)
        return 0 if s is None else s.total_ns

    def span_self_ns(self, name: str) -> int:
        s = self.stats.get(name)
        return 0 if s is None else s.self_ns

    def calls(self, name: str) -> int:
        s = self.stats.get(name)
        return 0 if s is None else s.calls

    def count_snapshot(self) -> dict:
        """Every call count and computed count recorded so far."""
        snap = {f"{name}.calls": s.calls for name, s in self.stats.items()}
        snap.update(self.counts)
        return snap

    def table(self, per: int = 1) -> list[dict]:
        """Every recorded span divided by ``per`` rounds, by total time."""
        rows = [{"span": name, "calls": s.calls // per,
                 "total_ms": s.total_ns / 1e6 / per,
                 "self_ms": s.self_ns / 1e6 / per}
                for name, s in self.stats.items()]
        return sorted(rows, key=lambda r: -r["total_ms"])
