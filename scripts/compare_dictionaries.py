#!/usr/bin/env python3
"""Head-to-head: dictionary-fused model vs plain MLP on one benchmark.

Usage: python scripts/compare_dictionaries.py poisson1d [--seeds 0 1 2]
Prints the final Monte Carlo prediction error of both variants per seed.
The plain baseline uses four hidden layers, the fused model three.
"""

import argparse
import sys

from pdpinn import problems, training
from pdpinn.dictionaries import DictionarySpec


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("problem", choices=sorted(problems.PROBLEMS))
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--iterations", type=int, default=None)
    args = ap.parse_args(argv)

    p = problems.get(args.problem)
    for seed in args.seeds:
        fused, _ = training.train(
            p, p.dictionary,
            training.TrainSettings(seed=seed, iterations=args.iterations,
                                   record_every=100))
        plain, _ = training.train(
            p, DictionarySpec("none"),
            training.TrainSettings(seed=seed, hidden_layers=4,
                                   iterations=args.iterations,
                                   record_every=100))
        fe, pe = fused[-1].error_predict, plain[-1].error_predict
        ratio = pe / fe if fe > 0 else float("inf")
        print(f"seed {seed}: dictionary {fe:.4e}  plain {pe:.4e}  "
              f"ratio {ratio:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
