"""Experiment configuration: presets, INI files, defaults.

The config format is flat key = value pairs under [experiment], [network]
and [training] sections (see README for the schema).  Every field has a
default matching the published setup of its problem.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields

from . import problems
from .dictionaries import DictionarySpec
from .training import TrainSettings

ENV_OUT_DIR = "PDPINN_OUT"


@dataclass
class ExperimentConfig:
    problem: str
    dictionary: DictionarySpec
    lift: bool
    hidden_layers: int = 3
    hidden_width: int = 50
    iterations: int = 1000
    n_pde: int = 100
    n_bc: int = 2
    n_pred: int = 1000
    seed: int = 0
    learning_rate: float = 0.001
    record_every: int = 10
    fresh_batches: bool = True
    out_dir: str = ""

    def settings(self) -> TrainSettings:
        return TrainSettings(
            hidden_layers=self.hidden_layers, hidden_width=self.hidden_width,
            iterations=self.iterations, n_pde=self.n_pde, n_bc=self.n_bc,
            n_pred=self.n_pred, seed=self.seed,
            learning_rate=self.learning_rate, record_every=self.record_every,
            fresh_batches=self.fresh_batches)

    def describe(self) -> dict:
        return {
            "problem": self.problem,
            "dictionary": self.dictionary.label(),
            "lift": self.lift,
            "hidden_layers": self.hidden_layers,
            "hidden_width": self.hidden_width,
            "iterations": self.iterations,
            "n_pde": self.n_pde,
            "n_bc": self.n_bc,
            "n_pred": self.n_pred,
            "seed": self.seed,
            "learning_rate": self.learning_rate,
            "record_every": self.record_every,
            "fresh_batches": self.fresh_batches,
        }


def preset(problem_id: str) -> ExperimentConfig:
    """The published experimental setup for one benchmark problem."""
    p = problems.get(problem_id)
    return ExperimentConfig(
        problem=p.id, dictionary=p.dictionary, lift=p.lift,
        iterations=p.iterations, n_pde=p.n_pde, n_bc=p.n_bc,
        out_dir=default_out_dir())


def default_out_dir() -> str:
    return os.environ.get(ENV_OUT_DIR, "runs")


_BOOL_FIELDS = {"lift", "fresh_batches"}
# fields older files may set that no longer do anything; they are skipped
_RETIRED_FIELDS = {"deterministic"}
_INT_FIELDS = {"hidden_layers", "hidden_width", "iterations", "n_pde",
               "n_bc", "n_pred", "seed", "record_every"}
_FLOAT_FIELDS = {"learning_rate"}


def load_config(path) -> ExperimentConfig:
    """Parse an INI experiment file; errors name the offending field."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path}")
    if "experiment" not in parser or "problem" not in parser["experiment"]:
        raise ValueError(f"{path}: missing experiment.problem")
    cfg = preset(parser["experiment"]["problem"])

    exp = parser["experiment"]
    if "dictionary" in exp:
        try:
            cfg.dictionary = DictionarySpec.parse(exp["dictionary"])
        except ValueError as e:
            raise ValueError(f"{path}: experiment.dictionary: {e}") from None
        if cfg.dictionary.kind == "none":
            cfg.lift = False
    if "out_dir" in exp:
        cfg.out_dir = exp["out_dir"]

    for section in ("network", "training", "experiment"):
        if section not in parser:
            continue
        for key, raw in parser[section].items():
            if key in ("problem", "dictionary", "out_dir") or key in _RETIRED_FIELDS:
                continue
            if not hasattr(cfg, key):
                raise ValueError(f"{path}: unknown field {section}.{key}")
            try:
                if key in _BOOL_FIELDS:
                    value = parser[section].getboolean(key)
                elif key in _INT_FIELDS:
                    value = int(raw)
                elif key in _FLOAT_FIELDS:
                    value = float(raw)
                else:
                    value = raw
            except ValueError:
                raise ValueError(
                    f"{path}: invalid value for {section}.{key}: {raw!r}") from None
            setattr(cfg, key, value)
    return cfg


def save_config(cfg: ExperimentConfig, path) -> None:
    parser = configparser.ConfigParser()
    parser["experiment"] = {
        "problem": cfg.problem,
        "dictionary": cfg.dictionary.label(),
        "lift": str(cfg.lift).lower(),
        "out_dir": cfg.out_dir,
    }
    parser["network"] = {
        "hidden_layers": str(cfg.hidden_layers),
        "hidden_width": str(cfg.hidden_width),
    }
    parser["training"] = {
        "iterations": str(cfg.iterations),
        "n_pde": str(cfg.n_pde),
        "n_bc": str(cfg.n_bc),
        "n_pred": str(cfg.n_pred),
        "seed": str(cfg.seed),
        "learning_rate": str(cfg.learning_rate),
        "record_every": str(cfg.record_every),
        "fresh_batches": str(cfg.fresh_batches).lower(),
    }
    with open(path, "w") as fh:
        parser.write(fh)
