#!/usr/bin/env python3
"""Benchmark of pdpinn training throughput and bound verification.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-wide --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py --workload verify --seed 0 --seconds 2 --trace 0 --smoke

Workloads: train-wide, train-narrow, verify (see README.md).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  Earlier lines, each starting with '#', describe the machine and
break the numbers down.  A copy of the full result is written under
perfbench/out/.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import MODULES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("train-wide", "train-narrow", "verify")
IMPORT_REPEATS = 11     # fresh-interpreter imports: short and burst-prone
REF_DRIFT_WARN = 1.5     # warn when the kernel median is this far off nominal

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "error.gmean": "1",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of a traced run, per round.  Every one of them is
# exercised by every workload; the layer metrics that only one workload
# reaches are printed in the '#' lines and stored in the result file.
PER_LAYER = {
    "diffgraph.self_ms": "ms",
    "diffgraph.affine.ms": "ms",
    "diffgraph.tanh.ms": "ms",
    "diffgraph.affine.calls": "count",
    "diffgraph.affine.flops": "count",
    "diffgraph.jet_bytes": "B",
    "network.self_ms": "ms",
    "network.mlp_forward.plain.ms": "ms",
    "training.self_ms": "ms",
    "training.predictor_jets.ms": "ms",
    "training.predictor_jets.points": "count",
    "dictionaries.self_ms": "ms",
    "dictionaries.eval_dictionary.ms": "ms",
    "dictionaries.eval_dictionary.calls": "count",
    "dictionaries.fuse.ms": "ms",
    "problems.self_ms": "ms",
    "problems.apply_operator.ms": "ms",
    "problems.rhs.ms": "ms",
    "problems.boundary_value.ms": "ms",
    "sampling.ms": "ms",
    "trace.overhead_pct": "%",
    "trace.span_coverage_pct": "%",
}

# Printed in the '#' lines and the result file only: the layer metrics that
# only some workloads reach (zero elsewhere), and the entry spans' share of
# the traced call time.
WORKLOAD_LAYER = {
    "diffgraph.backward.ms": "ms",
    "training.empirical_pde_loss.ms": "ms",
    "training.empirical_bc_loss.ms": "ms",
    "training.adam_step.ms": "ms",
    "training.train.self_ms": "ms",
    "network.mlp_forward.traced.ms": "ms",
    "bounds.self_ms": "ms",
    "bounds.estimate_sup_deltas.ms": "ms",
    "bounds.estimate_lipschitz.ms": "ms",
    "bounds.estimate_regularity.ms": "ms",
    "bounds.predictor_points": "count",
    "trace.entry_span_pct": "%",
}

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, pdpinn, pdpinn.bounds, pdpinn.config, pdpinn.cli\n"
    "print(time.perf_counter() - t)\n"
)


def _say(line: str) -> None:
    print(f"# {line}", flush=True)


def _probe_import_seconds() -> float:
    """Import time measured in a fresh interpreter with the same settings."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120,
                         check=True, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def _scaled_steps(W, step, repeats: int):
    """Run step() ``repeats`` times between batches of reference-kernel runs.

    step() returns the seconds it measured.  The host's slow spells can be
    as short as a step, so each step is scaled by the median of the kernel
    runs just before and just after it, not by a median over the whole
    set-up.  Returns ([(seconds, scale)], every kernel time in ms).
    """
    refs, seconds = [W.reference_samples()], []
    for _ in range(repeats):
        seconds.append(step())
        refs.append(W.reference_samples())
    scaled = [(s, W.reference_scale(before + after))
              for s, before, after in zip(seconds, refs, refs[1:])]
    return scaled, [ms for batch in refs for ms in batch]


# --------------------------------------------------------------------------
# Environment record
# --------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy as np
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_sha": _git_sha(),
        "seed": seed,
    }


# --------------------------------------------------------------------------
# Timed phases
# --------------------------------------------------------------------------

def _gmean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0.0:
        return math.nan
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _keep_going(started: float, done: int, seconds: float) -> bool:
    """Start another round only if it should end within the budget."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


def run_untraced(wl, built, seed, seconds):
    rounds, started = [], time.perf_counter()
    while len(rounds) < wl.scored_rounds or _keep_going(started, len(rounds), seconds):
        rounds.append(wl.round(built, seed, len(rounds)))
    return rounds


def run_traced(wl, built, seed, seconds):
    """Pair an untraced and a traced round on the same seeds, repeatedly.

    The order within a pair alternates, so a steady drift of the host's
    speed does not favour either kind.  Returns (untraced rounds, traced
    rounds, tracer, count mismatches); every traced round must record
    exactly the same counts.
    """
    tracer = Tracer()
    plain, traced, mismatches = [], [], []
    first_delta, started = None, time.perf_counter()

    def traced_round(r):
        before = tracer.count_snapshot()
        tracer.install()
        try:
            traced.append(wl.round(built, seed, r))
        finally:
            tracer.uninstall()
        after = tracer.count_snapshot()
        return {k: v - before.get(k, 0) for k, v in after.items()}

    while not traced or _keep_going(started, len(traced), seconds):
        r = len(traced)
        if r % 2:
            delta = traced_round(r)
            plain.append(wl.round(built, seed, r))
        else:
            plain.append(wl.round(built, seed, r))
            delta = traced_round(r)
        if first_delta is None:
            first_delta = delta
        elif delta != first_delta:
            diff = sorted(k for k in set(delta) | set(first_delta)
                          if delta.get(k) != first_delta.get(k))
            mismatches.append(f"round {r}: counts differ from round 0 in {diff}")
    return plain, traced, tracer, mismatches


def _rate(rounds, scaled: bool = True) -> float:
    """Completed operations per second of call time, median over rounds."""
    return statistics.median((r.ops - r.failed) / (r.scaled_s if scaled else r.call_s)
                             for r in rounds)


def _per_kind(rounds, attr: str) -> dict:
    import numpy as np
    kinds = {}
    for r in rounds:
        for kind, ms in getattr(r, attr).items():
            kinds.setdefault(kind, []).extend(ms)
    return {kind: {"p50": float(np.percentile(ms, 50)),
                   "p90": float(np.percentile(ms, 90)),
                   "samples": len(ms)} for kind, ms in sorted(kinds.items())}


def end_to_end_metrics(wl, rounds, setup_s):
    per_kind = _per_kind(rounds, "samples")
    scored = [e for r in rounds[:wl.scored_rounds] for e in r.errors]
    return {
        "setup_s": setup_s,
        "ops_per_s": _rate(rounds),
        "op_ms.p50": _gmean(k["p50"] for k in per_kind.values()),
        "error.gmean": _gmean(scored),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer, plain, traced):
    """Per-layer values per traced round, for the JSON and the '#' table."""
    n = len(traced)
    ms = lambda ns: ns / 1e6 / n                           # noqa: E731
    call_ns = sum(r.call_s for r in traced) * 1e9
    values = {}
    for module in MODULES:
        values[f"{module}.self_ms"] = ms(tracer.module_self_ns(module))
    for span in ("diffgraph.affine", "diffgraph.tanh", "diffgraph.backward",
                 "network.mlp_forward.plain", "network.mlp_forward.traced",
                 "training.predictor_jets", "training.empirical_pde_loss",
                 "training.empirical_bc_loss", "training.adam_step",
                 "dictionaries.eval_dictionary", "dictionaries.fuse",
                 "problems.apply_operator", "problems.rhs",
                 "problems.boundary_value", "bounds.estimate_sup_deltas",
                 "bounds.estimate_lipschitz", "bounds.estimate_regularity"):
        values[f"{span}.ms"] = ms(tracer.span_ns(span))
    values["training.train.self_ms"] = ms(tracer.span_self_ns("training.train"))
    values["sampling.ms"] = values["sampling.self_ms"]
    for name in ("diffgraph.affine", "dictionaries.eval_dictionary"):
        values[f"{name}.calls"] = tracer.calls(name) // n
    for name in ("diffgraph.affine.flops", "diffgraph.jet_bytes",
                 "training.predictor_jets.points", "bounds.predictor_points"):
        values[name] = tracer.counts.get(name, 0) // n
    # paired rounds do the same work, so their call-time ratio is the cost
    # of the wrappers
    values["trace.overhead_pct"] = 100.0 * (statistics.median(
        t.scaled_s / u.scaled_s for t, u in zip(traced, plain)) - 1.0)
    # time inside the entry spans (train, verify_bound, ...) that the spans
    # below them account for; the entry spans' own time counts as uncovered
    values["trace.span_coverage_pct"] = 100.0 * (
        tracer.top_level_ns - tracer.top_level_self_ns) / call_ns
    values["trace.entry_span_pct"] = 100.0 * tracer.top_level_ns / call_ns
    return values


# --------------------------------------------------------------------------
# One workload
# --------------------------------------------------------------------------

def _json_number(v):
    return v if isinstance(v, int) or math.isfinite(v) else None


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads as W

    wl = (W.SMOKE if args.smoke else W.WORKLOADS)[args.workload]
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    _say("env " + json.dumps(env, sort_keys=True))
    _say(f"workload {wl.name} seed {args.seed} seconds {args.seconds} "
         f"trace {args.trace}{' smoke' if args.smoke else ''}")

    imports, import_refs = _scaled_steps(W, _probe_import_seconds, IMPORT_REPEATS)
    built = []

    def build():
        t = time.perf_counter()
        built[:] = wl.setup(args.seed, OUT)
        return time.perf_counter() - t

    builds, build_refs = _scaled_steps(W, build, wl.build_repeats)
    setup_refs = import_refs + build_refs
    med = lambda pairs, scaled: statistics.median(           # noqa: E731
        v * k if scaled else v for v, k in pairs)
    setup_s = med(imports, True) + med(builds, True)
    measured_setup_s = med(imports, False) + med(builds, False)
    _say(f"setup_s {setup_s:.4f} = median import {med(imports, True):.4f} of "
         f"{IMPORT_REPEATS} + median build {med(builds, True):.4f} of "
         f"{wl.build_repeats}, each at reference speed; as measured "
         f"{med(imports, False):.4f} + {med(builds, False):.4f}")

    fd = wl.fd_checks(built, args.seed)
    for kind, rel in fd:
        _say(f"fd-check {kind} relative gap {rel:.3e} (gate {W.FD_TOL:g})")
    problems = [f"fd-check {kind}: {rel:.3e}" for kind, rel in fd
                if not rel <= W.FD_TOL]

    detail = {"env": env, "workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              "fd_checks": dict(fd)}
    if args.trace:
        plain, traced, tracer, mismatches = run_traced(wl, built, args.seed,
                                                        args.seconds)
        rounds = plain + traced
        problems += mismatches
        values = layer_metrics(tracer, plain, traced)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
        _say(f"traced rounds {len(traced)} (each paired with an untraced round "
             f"on the same seeds); values are per round")
        for name, unit in {**PER_LAYER, **WORKLOAD_LAYER}.items():
            _say(f"layer {name} {values[name]:.6g} {unit}")
        spans = tracer.table(per=len(traced))
        for row in spans:
            _say(f"span {row['span']} calls {row['calls']} "
                 f"total {row['total_ms']:.3f} ms self {row['self_ms']:.3f} ms")
        detail.update(layers=values, spans_per_round=spans)
    else:
        rounds = run_untraced(wl, built, args.seed, args.seconds)
        values = end_to_end_metrics(wl, rounds, setup_s)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        scaled, raw = _per_kind(rounds, "samples"), _per_kind(rounds, "raw_samples")
        for kind, k in raw.items():
            _say(f"{wl.op_name} {kind} as measured: p50 {k['p50']:.4f} ms "
                 f"p90 {k['p90']:.4f} ms over {k['samples']} samples; at "
                 f"reference speed p50 {scaled[kind]['p50']:.4f} ms")
        _say(f"rounds {len(rounds)} ({sum(r.ops for r in rounds)} {wl.op_name}s) "
             f"in {sum(r.call_s for r in rounds):.3f} s of calls; as measured "
             f"ops_per_s {_rate(rounds, scaled=False):.6g}; error.gmean over "
             f"the first {wl.scored_rounds} round(s)")
        detail.update(per_kind=scaled, per_kind_as_measured=raw)

    # A divisor far from nominal means the host, or the program's effect on
    # the shared process, moved the reference kernel itself.
    refs = [ms for r in rounds for ms in r.reference_ms]
    ref_med = statistics.median(refs)
    _say(f"reference kernel median {ref_med:.4f} ms over {len(refs)} runs in "
         f"the timed phase, {statistics.median(setup_refs):.4f} ms in set-up "
         f"(nominal {W.REF_NOMINAL_MS:g})")
    if not 1 / REF_DRIFT_WARN <= ref_med / W.REF_NOMINAL_MS <= REF_DRIFT_WARN:
        _say(f"warning reference kernel median {ref_med:.4f} ms is more than "
             f"{REF_DRIFT_WARN:g}x off its nominal {W.REF_NOMINAL_MS:g} ms; "
             f"scaled times are less comparable")
    detail.update(reference_ms=refs, setup_reference_ms=setup_refs,
                  setup_s_as_measured=measured_setup_s,
                  setup_steps_s={"import": [v for v, _ in imports],
                                 "build": [v for v, _ in builds]})

    for r in rounds:
        problems += r.problems
    attempted = sum(r.ops for r in rounds) + len(fd)
    failed = sum(r.failed for r in rounds) + sum(
        1 for _, rel in fd if not rel <= W.FD_TOL)
    _say(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} "
         f"operations failed)")
    for line in problems:
        _say(f"problem {line}")
    correct = not problems and failed == 0 and all(
        _json_number(v) is not None for v, _ in metrics.values())

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": _json_number(v), "unit": unit}
                          for name, (v, unit) in metrics.items()}}
    detail.update(result=result, problems=problems)
    mode = "smoke" if args.smoke else "full"
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}-{mode}.json",
              "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0


# --------------------------------------------------------------------------
# Every workload from one command
# --------------------------------------------------------------------------

def run_all(args) -> int:
    """Run each workload in its own process and print one table."""
    results, rc = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=900)
        *notes, last = proc.stdout.strip().splitlines() or [""]
        print("\n".join(notes), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not last.startswith("{"):
            rc = proc.returncode or 1
            continue
        results[name] = json.loads(last)
    _say("summary")
    for name, res in results.items():
        fr = res["failed"] / res["attempted"]
        _say(f"{name:13s} correct {res['correct']} fail_ratio {fr:.6g} "
             f"({res['failed']}/{res['attempted']})")
        for metric, m in res["metrics"].items():
            _say(f"{name:13s} {metric:34s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps(results), flush=True)
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time budget of the measured phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few seconds of work per workload, same output format")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "pdpinn" / "__init__.py").is_file():
        print(f"error: no pdpinn sources under {SRC}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
