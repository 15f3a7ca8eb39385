"""Smoke runs of the command-line scripts at a two-iteration budget."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,argv", [
    ("check_bounds", ["poisson1d", "--iterations", "2"]),
    ("compare_dictionaries", ["poisson1d", "--seeds", "0", "--iterations", "2"]),
])
def test_script_exits_0(name, argv, capsys):
    assert load(name).main(argv) == 0
    assert capsys.readouterr().out


def test_run_benchmarks_writes_every_preset(tmp_path, capsys):
    assert load("run_benchmarks").main(["--iterations", "2",
                                        "--out", str(tmp_path)]) == 0
    for pid in ("poisson1d", "poisson2d", "sphere", "diffusion1d"):
        assert (tmp_path / pid / "grid.csv").exists()


def test_check_bounds_choices_come_from_the_records():
    with pytest.raises(SystemExit):
        load("check_bounds").main(["sphere", "--iterations", "2"])
