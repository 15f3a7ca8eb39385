#!/usr/bin/env python3
"""Train every benchmark preset and write its artifacts under runs/.

Usage: python scripts/run_benchmarks.py [--iterations N] [--seed S] [--out DIR]
Each problem gets a subdirectory with train.csv, summary.json, model.ckpt
and a prediction grid for plotting.
"""

import argparse
import os
import sys

from pdpinn import cli, problems


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--iterations", type=int, default=None,
                    help="override the per-problem default budget")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="runs")
    args = ap.parse_args(argv)

    for pid in sorted(problems.PROBLEMS):
        out_dir = os.path.join(args.out, pid)
        run_args = ["run", "--preset", pid, "--seed", str(args.seed),
                    "--out", out_dir]
        if args.iterations is not None:
            run_args += ["--iterations", str(args.iterations)]
        print(f"== {pid} ==")
        rc = cli.main(run_args)
        if rc != 0:
            return rc
        p = problems.get(pid)
        rc = cli.main([
            "dump-grid", "--checkpoint", os.path.join(out_dir, "model.ckpt"),
            "--problem", pid, "--dictionary", p.dictionary.label(),
            "--out", os.path.join(out_dir, "grid.csv"),
        ])
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
