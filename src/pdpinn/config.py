"""Experiment configuration: presets, INI files, defaults.

The config format is flat key = value pairs under [experiment], [network]
and [training] sections (see README for the schema).  Every field has a
default matching the published setup of its problem.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import asdict, dataclass, fields

from . import problems
from .dictionaries import DictionarySpec
from .training import TrainSettings

ENV_OUT_DIR = "PDPINN_OUT"


@dataclass(kw_only=True)
class ExperimentConfig(TrainSettings):
    """One run: the problem, its dictionary and lifting, and the settings."""

    problem: str
    dictionary: DictionarySpec
    lift: bool
    out_dir: str = ""

    def settings(self) -> TrainSettings:
        return TrainSettings(**{f.name: getattr(self, f.name)
                                for f in fields(TrainSettings)})

    def describe(self) -> dict:
        """The run for summary.json: every field but ``out_dir``."""
        return {"problem": self.problem, "dictionary": self.dictionary.label(),
                "lift": self.lift, **asdict(self.settings())}


def preset(problem_id: str) -> ExperimentConfig:
    """The published experimental setup for one benchmark problem."""
    p = problems.get(problem_id)
    return ExperimentConfig(
        problem=p.id, dictionary=p.dictionary, lift=p.lift,
        iterations=p.iterations, n_pde=p.n_pde, n_bc=p.n_bc,
        out_dir=default_out_dir())


def default_out_dir() -> str:
    return os.environ.get(ENV_OUT_DIR, "runs")


# fields older files may set that no longer do anything; they are skipped
_RETIRED_FIELDS = {"deterministic"}
# the settings written under [network]; every other setting goes to [training]
_NETWORK_FIELDS = ("hidden_layers", "hidden_width")


def load_config(path) -> ExperimentConfig:
    """Parse an INI experiment file; errors name the offending field.

    ``problem`` and ``dictionary`` are read from [experiment] (which
    inherits them from [DEFAULT]) and rejected in other sections; any other
    field may sit in any section, and its value is parsed with the type of
    the preset's value for that field.
    """
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

    names = {f.name for f in fields(cfg)}
    for section in ("network", "training", "experiment"):
        if section not in parser:
            continue
        for key, raw in parser[section].items():
            if (key in ("problem", "dictionary") and section != "experiment"
                    and key not in parser.defaults()):
                raise ValueError(f"{path}: {section}.{key} belongs under "
                                 "[experiment]")
            if key in ("problem", "dictionary") or key in _RETIRED_FIELDS:
                continue
            if key not in names:
                raise ValueError(f"{path}: unknown field {section}.{key}")
            cast = type(getattr(cfg, key))
            try:
                if cast is bool:
                    value = parser[section].getboolean(key)
                else:
                    value = cast(raw)
            except ValueError:
                raise ValueError(
                    f"{path}: invalid value for {section}.{key}: {raw!r}") from None
            setattr(cfg, key, value)
    return cfg


def _ini_text(value) -> str:
    if isinstance(value, DictionarySpec):
        return value.label()
    return str(value).lower() if isinstance(value, bool) else str(value)


def save_config(cfg: ExperimentConfig, path) -> None:
    settings = {f.name for f in fields(TrainSettings)}
    sections = {"experiment": {}, "network": {}, "training": {}}
    for f in fields(cfg):
        section = ("network" if f.name in _NETWORK_FIELDS else
                   "training" if f.name in settings else "experiment")
        sections[section][f.name] = _ini_text(getattr(cfg, f.name))
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
    with open(path, "w") as fh:
        parser.write(fh)
