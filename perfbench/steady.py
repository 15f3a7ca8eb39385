#!/usr/bin/env python3
"""Steadiness check of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10]

For each workload of BENCHMARK.json it runs the benchmark ``--runs`` times
untraced for run_seconds each, with seeds 1, 2, ..., and reports for every
end-to-end metric the spread between the first and third quartile of its
values as a share of their median (``statistics.quantiles(values, n=4)``),
against the metric's bound.  It then makes two traced runs per workload
with seeds 1 and 2 and checks that the computed counts repeat exactly.
Exits 1 when a run fails, a spread exceeds its bound, or a count differs;
spreads above a third of the bound are flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "B")
FIRST_SEED = 1
TRACED_RUNS = 2


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok, report = True, {}
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = range(FIRST_SEED, FIRST_SEED + args.runs)
        values = {name: [] for name in bounds}
        walls = []
        for seed in seeds:
            res, wall = run_once(workload, seed, seconds, 0)
            walls.append(wall)
            if not res["correct"] or res["failed"]:
                print(f"{workload} seed {seed}: correct {res['correct']}, "
                      f"{res['failed']} of {res['attempted']} failed")
                ok = False
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        print(f"{workload}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
        rows = {}
        for name, m in bounds.items():
            s = spread(values[name])
            med = statistics.median(values[name])
            flag = "ok"
            if s > m["bound"] / 3:
                flag = "above bound/3"
            if s > m["bound"]:
                flag, ok = "ABOVE BOUND", False
            rows[name] = {"median": med, "spread": s, "bound": m["bound"],
                          "values": values[name]}
            print(f"  {name:14s} median {med:12.6g} {m['unit']:4s} "
                  f"spread {s:7.4f}  bound {m['bound']:.3f} "
                  f"(third {m['bound'] / 3:.4f})  {flag}")

        counts = []
        for seed in list(seeds)[:TRACED_RUNS]:
            res, _ = run_once(workload, seed, seconds, 1)
            if not res["correct"] or res["failed"]:
                print(f"{workload} traced seed {seed}: correct {res['correct']}")
                ok = False
            counts.append({k: v["value"] for k, v in res["metrics"].items()
                           if v["unit"] in COUNT_UNITS})
        same = all(c == counts[0] for c in counts)
        ok = ok and same
        print(f"  computed counts over {len(counts)} traced runs: "
              f"{'identical' if same else 'DIFFER'} {counts[0] if counts else ''}")
        report[workload] = {"metrics": rows, "counts": counts,
                            "counts_identical": same, "walls": walls}

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{int(time.time())}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"wrote {path.relative_to(ROOT)}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
