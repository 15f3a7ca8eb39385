#!/usr/bin/env python3
"""SHA-256 digests of what each published model computes.

Usage: python scripts/fingerprint.py [--iterations N] [--seed S]

For every preset, with its dictionary model (3x50, lifted where the preset
lifts) and the plain 4x50 baseline, trains N iterations (default 100) and
prints one line per digest: of theta, of the records CSV without its
wall-clock column, of the ``dump-grid`` CSV and, for the problems the
elliptic bound applies to, of the ``verify_bound`` report JSON.  Two
versions of the code that print the same lines computed the same bits.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

from pdpinn import bounds, cli, problems, training
from pdpinn.dictionaries import DictionarySpec
from pdpinn.network import save_checkpoint

MODELS = {"dictionary": 3, "plain": 4}       # hidden layers of width 50


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(p, model: str, iterations: int, seed: int, tmp: str) -> dict:
    """Digests of one preset and model, named by what they cover."""
    dspec = p.dictionary if model == "dictionary" else DictionarySpec("none")
    lift = p.lift and dspec.kind != "none"
    records, store = training.train(
        p, dspec, training.TrainSettings(hidden_layers=MODELS[model],
                                         iterations=iterations, seed=seed),
        lift=lift)
    csv_path = os.path.join(tmp, "train.csv")
    training.write_records_csv(records, csv_path)
    with open(csv_path) as fh:
        records_csv = "".join(line.rsplit(",", 1)[0] + "\n" for line in fh)
    ckpt_path = os.path.join(tmp, "model.ckpt")
    grid_path = os.path.join(tmp, "grid.csv")
    save_checkpoint(store, ckpt_path)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["dump-grid", "--checkpoint", ckpt_path, "--problem",
                       p.id, "--dictionary", dspec.label(), "--out",
                       grid_path])
    if rc != 0:
        raise RuntimeError(f"dump-grid exited {rc} on {p.id} {model}")
    with open(grid_path, "rb") as fh:
        digests = {"theta": sha256(store.theta.astype("<f8").tobytes()),
                   "records": sha256(records_csv.encode()),
                   "grid": sha256(fh.read())}
    if p.id in problems.with_elliptic_bound():
        report = bounds.verify_bound(store, p, dspec, lift=lift, seed=seed)
        digests["bound"] = sha256(report.to_json().encode())
    return digests


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--iterations", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        for pid in sorted(problems.PROBLEMS):
            for model in MODELS:
                digests = fingerprint(problems.get(pid), model,
                                      args.iterations, args.seed, tmp)
                for name, digest in digests.items():
                    print(f"{pid:<12} {model:<10} {name:<7} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
