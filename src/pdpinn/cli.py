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
from .problems import ground_truth
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
                        help="checkpoint was trained without coordinate lifting")
    grid_p.add_argument("--resolution", type=int, default=None,
                        help="grid points per axis (1000 for 1-D, else 200)")
    grid_p.add_argument("--out", required=True, help="output CSV path")

    bounds_p = sub.add_parser("bounds", help="error-bound report for a checkpoint")
    bounds_p.add_argument("--checkpoint", required=True)
    bounds_p.add_argument("--problem", required=True,
                          choices=problems.with_elliptic_bound())
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
    for name in ("hidden_layers", "hidden_width", "iterations", "seed"):
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    settings = cfg.settings()
    out_dir = args.out or cfg.out_dir or config.default_out_dir()
    os.makedirs(out_dir, exist_ok=True)

    p = problems.get(cfg.problem)
    records, store = training.train(p, cfg.dictionary, settings, lift=cfg.lift)
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
    """Tensor grid over the chart; periodic axes leave out their far end."""
    if resolution is None:
        resolution = 1000 if p.dim == 1 else 200
    if resolution < 1:
        raise ValueError(f"--resolution must be at least 1, got {resolution}")
    axes = [np.linspace(lo, hi, resolution, endpoint=k not in p.periodic)
            for k, (lo, hi) in enumerate(zip(p.lo, p.hi))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


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
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
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
