"""Command line entry point: run experiments, dump grids, check bounds."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bounds, config, problems, training
from .dictionaries import DictionarySpec
from .diffgraph import NonFiniteError
from .network import load_checkpoint, save_checkpoint
from .problems import POLE_EPS, ground_truth
from .training import DivergenceError, predict_values

EXIT_DIVERGED = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdpinn",
        description="Train dictionary-fused PINNs on the benchmark PDEs "
                    "and check the elliptic error bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train one experiment")
    run_p.add_argument("--config", help="INI experiment file")
    run_p.add_argument("--preset", choices=sorted(problems.PROBLEMS),
                       help="use a benchmark preset instead of a file")
    run_p.add_argument("--dictionary", help="override, e.g. fourier1d:8 or none")
    run_p.add_argument("--hidden-layers", type=int)
    run_p.add_argument("--hidden-width", type=int)
    run_p.add_argument("--iterations", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out", help="output directory")

    grid_p = sub.add_parser("dump-grid", help="prediction grid for plotting")
    grid_p.add_argument("--checkpoint", required=True)
    grid_p.add_argument("--problem", required=True, choices=sorted(problems.PROBLEMS))
    grid_p.add_argument("--dictionary", required=True,
                        help="dictionary used at training time, e.g. fourier1d:8")
    grid_p.add_argument("--no-lift", action="store_true",
                        help="checkpoint was trained without sphere lifting")
    grid_p.add_argument("--resolution", type=int, default=None,
                        help="grid points per axis (1000 for 1-D, else 200)")
    grid_p.add_argument("--out", required=True, help="output CSV path")

    bounds_p = sub.add_parser("bounds", help="error-bound report for a checkpoint")
    bounds_p.add_argument("--checkpoint", required=True)
    bounds_p.add_argument("--problem", required=True,
                          choices=["poisson1d", "poisson2d"])
    bounds_p.add_argument("--dictionary", required=True)
    bounds_p.add_argument("--seed", type=int, default=0)
    bounds_p.add_argument("--out", help="write the report JSON here")

    reg_p = sub.add_parser("regularity", help="domain regularity constant")
    reg_p.add_argument("--domain", required=True,
                       help="interval:a,b | box:ax,bx,ay,by[,az,bz] | disk:cx,cy,r")
    reg_p.add_argument("--mc-points", type=int, default=100_000)
    reg_p.add_argument("--grid", type=int, default=9)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "dump-grid":
            return _cmd_dump_grid(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        return _cmd_regularity(args)
    except DivergenceError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError, NonFiniteError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _cmd_run(args) -> int:
    if args.config:
        cfg = config.load_config(args.config)
    elif args.preset:
        cfg = config.preset(args.preset)
    else:
        raise ValueError("run needs --config or --preset")
    if args.dictionary:
        cfg.dictionary = DictionarySpec.parse(args.dictionary)
        if cfg.dictionary.kind == "none":
            cfg.lift = False
    if args.hidden_layers is not None:
        cfg.hidden_layers = args.hidden_layers
    if args.hidden_width is not None:
        cfg.hidden_width = args.hidden_width
    if args.iterations is not None:
        cfg.iterations = args.iterations
    if args.seed is not None:
        cfg.seed = args.seed
    out_dir = args.out or cfg.out_dir or config.default_out_dir()
    os.makedirs(out_dir, exist_ok=True)

    p = problems.get(cfg.problem)
    records, store = training.train(p, cfg.dictionary, cfg.settings(),
                                    lift=cfg.lift)
    csv_path = os.path.join(out_dir, "train.csv")
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    training.write_records_csv(records, csv_path)
    save_checkpoint(store, ckpt_path)
    final = records[-1] if records else None
    summary = {
        "config": cfg.describe(),
        "final": None if final is None else {
            "iteration": final.iteration,
            "loss_pde": final.loss_pde,
            "loss_bc": final.loss_bc,
            "error_predict": final.error_predict,
            "elapsed_s": final.elapsed,
        },
        "checkpoint": ckpt_path,
        "train_csv": csv_path,
    }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    if final is not None:
        print(f"{cfg.problem}: error_predict {final.error_predict:.6e} "
              f"after {final.iteration} iterations ({final.elapsed:.1f}s)")
    print(f"wrote {summary_path}")
    return 0


def _grid_points(p, resolution):
    if p.dim == 1:
        res = resolution or 1000
        return np.linspace(p.lo[0], p.hi[0], res)[:, None]
    res = resolution or 200
    if p.id == "sphere":
        a = np.linspace(POLE_EPS, np.pi - POLE_EPS, res)
        b = np.linspace(0.0, 2.0 * np.pi, res, endpoint=False)
    else:
        a = np.linspace(p.lo[0], p.hi[0], res)
        b = np.linspace(p.lo[1], p.hi[1], res)
    A, B = np.meshgrid(a, b, indexing="ij")
    return np.column_stack([A.ravel(), B.ravel()])


def _load_matching_checkpoint(path, p, dspec: DictionarySpec, lift: bool):
    """Load a checkpoint whose network shape fits the problem and dictionary."""
    store = load_checkpoint(path)
    expect_in = training.network_input_dim(p, lift)
    if store.input_dim != expect_in or store.output_dim != dspec.word_count:
        raise ValueError(
            f"checkpoint shape ({store.input_dim} -> {store.output_dim}) does "
            f"not match problem/dictionary ({expect_in} -> {dspec.word_count})")
    return store


def _cmd_dump_grid(args) -> int:
    p = problems.get(args.problem)
    dspec = DictionarySpec.parse(args.dictionary)
    lift = p.lift and dspec.kind != "none" and not args.no_lift
    store = _load_matching_checkpoint(args.checkpoint, p, dspec, lift)
    pts = _grid_points(p, args.resolution)
    pred = predict_values(store, p, dspec, pts, lift)
    truth = ground_truth(p, pts)
    err = np.abs(pred - truth)
    with open(args.out, "w") as fh:
        fh.write(",".join(p.coord_names) + ",prediction,ground_truth,abs_error\n")
        for row, pv, tv, ev in zip(pts, pred, truth, err):
            coords = ",".join(f"{c:.17g}" for c in row)
            fh.write(f"{coords},{pv:.17g},{tv:.17g},{ev:.17g}\n")
    print(f"wrote {args.out} ({len(pts)} rows)")
    return 0


def _cmd_bounds(args) -> int:
    p = problems.get(args.problem)
    dspec = DictionarySpec.parse(args.dictionary)
    store = _load_matching_checkpoint(args.checkpoint, p, dspec, lift=False)
    report = bounds.verify_bound(store, p, dspec, lift=False, seed=args.seed)
    print(report.table())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.out}")
    return 0 if report.sup_bound_holds and report.exp_bound_holds else 1


def _cmd_regularity(args) -> int:
    domain = bounds.parse_domain(args.domain)
    value = bounds.estimate_regularity(domain, mc_points=args.mc_points,
                                       grid=args.grid)
    print(f"{value:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
