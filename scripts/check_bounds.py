#!/usr/bin/env python3
"""Train a Poisson model briefly, then print its error-bound report.

Usage: python scripts/check_bounds.py [PROBLEM] [--iterations N] [--seed S]
PROBLEM is any problem the elliptic bound applies to (default: the first
in sorted order).
"""

import argparse
import sys

from pdpinn import bounds, problems, training


def main(argv=None):
    choices = problems.with_elliptic_bound()
    ap = argparse.ArgumentParser()
    ap.add_argument("problem", nargs="?", default=choices[0], choices=choices)
    ap.add_argument("--iterations", type=int, default=None)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    p = problems.get(args.problem)
    records, store = training.train(
        p, p.dictionary,
        training.TrainSettings(seed=args.seed, iterations=args.iterations,
                               record_every=100))
    print(f"final prediction error: {records[-1].error_predict:.4e}")
    report = bounds.verify_bound(store, p, p.dictionary)
    print(report.table())
    return 0 if report.sup_bound_holds and report.exp_bound_holds else 1


if __name__ == "__main__":
    sys.exit(main())
