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


# the sections a file may hold besides [DEFAULT], in the order they are read
_SECTIONS = ("network", "training", "experiment")
# the settings written under [network]; every other setting goes to [training]
_NETWORK_FIELDS = ("hidden_layers", "hidden_width")
_SETTINGS = frozenset(f.name for f in fields(TrainSettings))


def _parse_error(path, e: configparser.Error) -> ValueError:
    """A malformed file as a ValueError naming the file and the line."""
    if isinstance(e, configparser.MissingSectionHeaderError):
        what = f"line {e.lineno}: {e.line.strip()!r} comes before any [section]"
    elif isinstance(e, configparser.ParsingError):
        what = "; ".join(f"line {n}: {line} is neither a [section] header "
                         "nor key = value" for n, line in e.errors)
    elif isinstance(e, configparser.DuplicateOptionError):
        what = f"line {e.lineno}: {e.section}.{e.option} is set twice"
    elif isinstance(e, configparser.DuplicateSectionError):
        what = f"line {e.lineno}: section [{e.section}] appears twice"
    else:
        what = " ".join(str(e).split())
    return ValueError(f"{path}: {what}")


def load_config(path) -> ExperimentConfig:
    """Parse an INI experiment file; errors name the offending field.

    ``problem`` and ``dictionary`` are read from [experiment] (which
    inherits them from [DEFAULT]) and rejected in other sections; any other
    field may sit in any section, and its value is parsed with the type of
    the preset's value for that field.  A section other than [experiment],
    [network], [training] and [DEFAULT] is rejected by name.  Values are
    taken literally (no ``%`` interpolation), and each setting is validated
    as it is read.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as e:
        raise _parse_error(path, e) from None
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text ({e.reason} at byte "
                         f"{e.start})") from None
    if not read:
        raise ValueError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"{path}: unknown section [{section}]")
    if "experiment" not in parser or "problem" not in parser["experiment"]:
        raise ValueError(f"{path}: missing experiment.problem")
    try:
        cfg = preset(parser["experiment"]["problem"])
    except ValueError as e:
        raise ValueError(f"{path}: experiment.problem: {e}") from None

    exp = parser["experiment"]
    if "dictionary" in exp:
        try:
            cfg.dictionary = DictionarySpec.parse(exp["dictionary"])
        except ValueError as e:
            raise ValueError(f"{path}: experiment.dictionary: {e}") from None
        if cfg.dictionary.kind == "none":
            cfg.lift = False

    names = {f.name for f in fields(cfg)}
    for section in _SECTIONS:
        if section not in parser:
            continue
        for key, raw in parser[section].items():
            if (key in ("problem", "dictionary") and section != "experiment"
                    and key not in parser.defaults()):
                raise ValueError(f"{path}: {section}.{key} belongs under "
                                 "[experiment]")
            if key in ("problem", "dictionary"):
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
            if key in _SETTINGS:
                try:
                    cfg.settings()
                except ValueError as e:
                    raise ValueError(f"{path}: {section}.{key}: {e}") from None
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
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
