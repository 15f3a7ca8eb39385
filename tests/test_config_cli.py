import configparser
import contextlib
import io
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdpinn import cli, config, problems, training
from pdpinn.bounds import BoundReport, verify_bound
from pdpinn.dictionaries import DictionarySpec
from pdpinn.network import load_checkpoint

# the published experimental settings, spelled out literally
PRESET_TABLE = {
    "poisson1d": dict(dictionary="fourier1d:8", lift=False, hidden_layers=3,
                      hidden_width=50, iterations=1000, n_pde=100, n_bc=2),
    "poisson2d": dict(dictionary="fourier2d:5,5", lift=False, hidden_layers=3,
                      hidden_width=50, iterations=1000, n_pde=1000, n_bc=400),
    "sphere": dict(dictionary="spherical-harmonics:3", lift=True,
                   hidden_layers=3, hidden_width=50, iterations=2000,
                   n_pde=200, n_bc=1),
    "diffusion1d": dict(dictionary="diffusion1d-fourier:10", lift=False,
                        hidden_layers=3, hidden_width=50, iterations=2000,
                        n_pde=1000, n_bc=300),
}


class TestPresets:
    def test_presets_match_literal_table(self):
        for pid, want in PRESET_TABLE.items():
            cfg = config.preset(pid)
            assert cfg.problem == pid
            assert cfg.dictionary.label() == want["dictionary"]
            assert cfg.lift == want["lift"]
            assert cfg.hidden_layers == want["hidden_layers"]
            assert cfg.hidden_width == want["hidden_width"]
            assert cfg.iterations == want["iterations"]
            assert cfg.n_pde == want["n_pde"]
            assert cfg.n_bc == want["n_bc"]
            assert cfg.n_pred == 1000
            assert cfg.learning_rate == 0.001

    def test_env_var_controls_default_out_dir(self, monkeypatch):
        monkeypatch.setenv(config.ENV_OUT_DIR, "/tmp/elsewhere")
        assert config.preset("poisson1d").out_dir == "/tmp/elsewhere"


class TestConfigFile:
    def test_save_load_round_trip(self, tmp_path):
        cfg = config.preset("poisson2d")
        cfg.seed = 17
        cfg.iterations = 123
        cfg.fresh_batches = False
        path = tmp_path / "exp.ini"
        config.save_config(cfg, path)
        back = config.load_config(path)
        assert back == cfg

    def test_error_names_bad_field(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nproblem = poisson1d\n"
                        "[training]\niterations = soon\n")
        with pytest.raises(ValueError, match="training.iterations"):
            config.load_config(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nproblem = poisson1d\n"
                        "[training]\nmomentum = 0.9\n")
        with pytest.raises(ValueError, match="momentum"):
            config.load_config(path)

    def test_unknown_problem_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nproblem = heat7d\n")
        with pytest.raises(ValueError, match="unknown problem"):
            config.load_config(path)

    def test_retired_deterministic_field_still_loads(self, tmp_path):
        path = tmp_path / "old.ini"
        path.write_text("[experiment]\nproblem = poisson1d\n"
                        "[training]\ndeterministic = true\nseed = 3\n")
        cfg = config.load_config(path)
        assert cfg.seed == 3
        assert not hasattr(cfg, "deterministic")

    def test_problem_inherited_from_default_section_loads(self, tmp_path):
        path = tmp_path / "default.ini"
        path.write_text("[DEFAULT]\nproblem = poisson2d\n[experiment]\n"
                        "[training]\nseed = 3\n")
        cfg = config.load_config(path)
        assert (cfg.problem, cfg.seed) == ("poisson2d", 3)

    @pytest.mark.parametrize("section", ["trainng", "Training", "model"])
    def test_unknown_section_exits_2_naming_it(self, tmp_path, section):
        path = tmp_path / "typo.ini"
        path.write_text("[experiment]\nproblem = poisson1d\n"
                        f"[{section}]\nseed = 5\niterations = 3\n")
        message = f"{path}: unknown section [{section}]"
        with pytest.raises(ValueError) as info:
            config.load_config(path)
        assert str(info.value) == message
        assert run_exit_code(path) == (2, f"error: {message}\n")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            config.load_config(tmp_path / "nope.ini")

    def test_readme_example_loads_with_the_saved_keys(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = tmp_path / "readme.ini"
        example.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
        saved = tmp_path / "saved.ini"
        config.save_config(config.load_config(example), saved)

        def keys(path):
            parser = configparser.ConfigParser()
            parser.read(path)
            return {(s, k) for s in parser.sections() for k in parser[s]}
        assert keys(example) == keys(saved)


def run_exit_code(path):
    """``pdpinn run --config path``'s exit status and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["run", "--config", str(path)])
    return rc, err.getvalue()


# the field names, the sections and values a config file may hold, and a
# misspelt section
FIELD_NAMES = [f.name for f in fields(config.ExperimentConfig)] + ["deterministic"]
SECTIONS = ["experiment", "network", "training", "DEFAULT", "trainng"]
VALUES = ["poisson1d", "sphere", "fourier1d:3", "none", "true", "no", "0", "-1",
          "7", "1e-3", "nan", "inf", "", "runs%x", "%(seed)s", "fourier2d:2,"]
# no surrogates: the file is written as UTF-8
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=16)
LINES = st.one_of(
    st.builds("{} = {}".format,
              st.one_of(st.sampled_from(FIELD_NAMES), TEXT),
              st.one_of(st.sampled_from(VALUES), TEXT)),
    st.builds("[{}]".format, st.one_of(st.sampled_from(SECTIONS), TEXT)),
    TEXT)
CONFIG_TEXT = st.builds(
    lambda head, body: "\n".join(head + body),
    st.sampled_from([[], ["[experiment]", "problem = poisson1d"],
                     ["[experiment]", "problem = sphere", "[training]"]]),
    st.lists(LINES, max_size=10))


class TestMalformedConfig:
    @pytest.mark.parametrize("text,message", [
        ("[experiment]\nproblem = poisson1d\n[training]\nseed = 1\nseed = 2\n",
         "line 5: training.seed is set twice"),
        ("[experiment]\nproblem = poisson1d\n[training]\nseed = 1\n"
         "[training]\nseed = 2\n", "line 5: section [training] appears twice"),
        ("seed = 1\n[experiment]\nproblem = poisson1d\n",
         "line 1: 'seed = 1' comes before any [section]"),
        ("[experiment]\nproblem = poisson1d\nfresh batches\n",
         "line 3: 'fresh batches\\n' is neither a [section] header nor key = value"),
    ])
    def test_parse_error_exits_2_naming_the_line(self, tmp_path, text, message):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            config.load_config(path)
        assert str(info.value) == f"{path}: {message}"
        rc, err = run_exit_code(path)
        assert (rc, err) == (2, f"error: {path}: {message}\n")

    def test_percent_sign_is_a_literal_and_round_trips(self, tmp_path):
        path = tmp_path / "pct.ini"
        path.write_text("[experiment]\nproblem = poisson1d\n"
                        "out_dir = runs%x/%(seed)s\n")
        cfg = config.load_config(path)
        assert cfg.out_dir == "runs%x/%(seed)s"
        config.save_config(cfg, tmp_path / "saved.ini")
        assert config.load_config(tmp_path / "saved.ini") == cfg

    def test_invalid_setting_names_section_and_key_at_load(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nproblem = poisson1d\n"
                        "[network]\nhidden_width = 0\n")
        with pytest.raises(ValueError,
                           match="network.hidden_width: hidden_width must be >= 1"):
            config.load_config(path)

    def test_non_utf8_file_is_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[experiment]\nproblem = poisson1d\nout_dir = \xff\n")
        rc, err = run_exit_code(path)
        assert rc == 2 and f"{path}: not UTF-8 text" in err

    @given(text=CONFIG_TEXT)
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_file_loads_or_names_the_line_or_the_field(self, tmp_path, text):
        path = tmp_path / "fuzz.ini"
        path.write_text(text, encoding="utf-8")
        try:
            cfg = config.load_config(path)
        except ValueError as e:
            message = str(e)
        else:
            cfg.settings()              # a loaded file holds valid settings
            return
        assert message.startswith(f"{path}: ")
        assert re.search(r"line \d+|(experiment|network|training)\.\S"
                         r"|^unknown section \[",
                         message[len(str(path)) + 2:]), message
        # the CLI reports the same message and exits 2 before training
        assert run_exit_code(path) == (2, f"error: {message}\n")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = cli.main(["run", "--preset", "poisson1d", "--iterations", "20",
                   "--hidden-width", "8", "--out", str(out)])
    assert rc == 0
    return out


class TestRunCommand:
    def test_outputs_are_reread_by_the_tool(self, tiny_run):
        summary = json.loads((tiny_run / "summary.json").read_text())
        assert summary["config"]["problem"] == "poisson1d"
        assert summary["config"]["iterations"] == 20
        records = training.read_records_csv(tiny_run / "train.csv")
        assert records[-1].iteration == 20
        assert summary["final"]["error_predict"] == records[-1].error_predict
        store = load_checkpoint(tiny_run / "model.ckpt")
        assert store.output_dim == 17

    def test_unknown_problem_fails_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", "--preset", "heat9d"])

    def test_config_file_run(self, tmp_path):
        cfg = config.preset("poisson1d")
        cfg.iterations = 5
        cfg.hidden_width = 6
        cfg.out_dir = str(tmp_path / "out")
        config.save_config(cfg, tmp_path / "exp.ini")
        rc = cli.main(["run", "--config", str(tmp_path / "exp.ini")])
        assert rc == 0
        assert (tmp_path / "out" / "summary.json").exists()

    def test_dictionary_without_parameter_exits_2(self, capsys):
        rc = cli.main(["run", "--preset", "poisson1d", "--dictionary", "fourier1d"])
        assert rc == 2
        assert "missing k" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path):
        path = tmp_path / "diverge.ini"
        path.write_text("[experiment]\nproblem = poisson1d\n"
                        "[network]\nhidden_width = 8\n"
                        "[training]\niterations = 60\nlearning_rate = 1e7\n"
                        f"out_dir = {tmp_path / 'out'}\n")
        rc = cli.main(["run", "--config", str(path)])
        assert rc == cli.EXIT_DIVERGED

    @pytest.mark.parametrize("key,value", [
        ("record_every", "0"), ("record_every", "-1"), ("iterations", "-2"),
        ("learning_rate", "0"), ("learning_rate", "-0.001"),
        ("learning_rate", "nan"), ("learning_rate", "inf"), ("seed", "-1"),
        ("n_pred", "0"), ("n_pde", "0"), ("n_bc", "-4"),
        ("hidden_layers", "0"), ("hidden_width", "0")])
    def test_invalid_setting_exits_2_naming_the_field(self, tmp_path, capsys,
                                                      key, value):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nproblem = poisson1d\n"
                        f"[training]\n{key} = {value}\n"
                        f"out_dir = {tmp_path / 'out'}\n")
        rc = cli.main(["run", "--config", str(path)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_negative_iterations_flag_exits_2(self, tmp_path, capsys):
        rc = cli.main(["run", "--preset", "poisson1d", "--iterations", "-2",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,field", [
        ("--seed", "-1", "seed"), ("--hidden-layers", "0", "hidden_layers"),
        ("--hidden-width", "0", "hidden_width")])
    def test_invalid_flag_exits_2_naming_the_field(self, tmp_path, capsys,
                                                   flag, value, field):
        rc = cli.main(["run", "--preset", "poisson1d", flag, value,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{field} must be >=" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["describe", "settings", "__class__",
                                     "eval_seed"])
    def test_non_field_key_exits_2_naming_section_and_key(self, tmp_path,
                                                          capsys, key):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nproblem = poisson1d\n"
                        f"[training]\n{key} = 1\n"
                        f"out_dir = {tmp_path / 'out'}\n")
        rc = cli.main(["run", "--config", str(path)])
        assert rc == 2
        assert f"unknown field training.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,line", [
        ("training", "dictionary = none"), ("network", "problem = poisson2d"),
        ("training", "problem = poisson1d")])
    def test_experiment_key_elsewhere_exits_2_naming_section_and_key(
            self, tmp_path, capsys, section, line):
        key = line.split()[0]
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nproblem = poisson1d\n"
                        f"out_dir = {tmp_path / 'out'}\n[{section}]\n{line}\n")
        rc = cli.main(["run", "--config", str(path)])
        assert rc == 2
        assert (f"{section}.{key} belongs under [experiment]"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


class TestDumpGrid:
    def test_grid_rows_and_columns(self, tiny_run, tmp_path):
        out = tmp_path / "grid.csv"
        rc = cli.main(["dump-grid", "--checkpoint", str(tiny_run / "model.ckpt"),
                       "--problem", "poisson1d", "--dictionary", "fourier1d:8",
                       "--resolution", "1000", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,prediction,ground_truth,abs_error"
        assert len(lines) == 1001
        x, pred, truth, err = map(float, lines[500].split(","))
        p = problems.get("poisson1d")
        assert truth == problems.ground_truth(p, [[x]])[0]
        assert err == abs(pred - truth)

    def test_shape_mismatch_detected(self, tiny_run, tmp_path, capsys):
        rc = cli.main(["dump-grid", "--checkpoint", str(tiny_run / "model.ckpt"),
                       "--problem", "poisson1d", "--dictionary", "fourier1d:4",
                       "--out", str(tmp_path / "grid.csv")])
        assert rc == 2
        assert "does not match" in capsys.readouterr().err

    def test_2d_grid_shape(self, tmp_path):
        out_dir = tmp_path / "m"
        rc = cli.main(["run", "--preset", "diffusion1d", "--iterations", "3",
                       "--hidden-width", "6", "--out", str(out_dir)])
        assert rc == 0
        grid = tmp_path / "grid.csv"
        rc = cli.main(["dump-grid", "--checkpoint", str(out_dir / "model.ckpt"),
                       "--problem", "diffusion1d",
                       "--dictionary", "diffusion1d-fourier:10",
                       "--resolution", "50", "--out", str(grid)])
        assert rc == 0
        lines = grid.read_text().strip().splitlines()
        assert lines[0].startswith("x,t,")
        assert len(lines) == 50 * 50 + 1

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    def test_resolution_below_one_exits_2(self, tiny_run, tmp_path, capsys,
                                          resolution):
        out = tmp_path / "grid.csv"
        rc = cli.main(["dump-grid", "--checkpoint", str(tiny_run / "model.ckpt"),
                       "--problem", "poisson1d", "--dictionary", "fourier1d:8",
                       "--resolution", resolution, "--out", str(out)])
        assert rc == 2
        assert "--resolution" in capsys.readouterr().err
        assert not out.exists()

    def test_default_resolution(self, tiny_run, tmp_path):
        out = tmp_path / "grid.csv"
        rc = cli.main(["dump-grid", "--checkpoint", str(tiny_run / "model.ckpt"),
                       "--problem", "poisson1d", "--dictionary", "fourier1d:8",
                       "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 1000 + 1


class TestRegularityCommand:
    def test_interval(self, capsys):
        rc = cli.main(["regularity", "--domain", "interval:0,1"])
        assert rc == 0
        assert abs(float(capsys.readouterr().out) - 0.5) < 0.03

    def test_bad_domain(self, capsys):
        rc = cli.main(["regularity", "--domain", "octagon:1"])
        assert rc == 2

    def test_interval_without_upper_end_exits_2(self, capsys):
        rc = cli.main(["regularity", "--domain", "interval:1"])
        assert rc == 2
        assert "missing b" in capsys.readouterr().err

    @pytest.mark.parametrize("domain", ["interval:5,1", "disk:0,0,-1",
                                        "box:1,0,0,1"])
    def test_degenerate_domain_exits_2(self, capsys, domain):
        rc = cli.main(["regularity", "--domain", domain])
        captured = capsys.readouterr()
        assert rc == 2
        assert "degenerate domain" in captured.err
        assert captured.out == ""

    def test_non_numeric_value_names_the_field(self, capsys):
        rc = cli.main(["regularity", "--domain", "interval:0,a"])
        assert rc == 2
        assert "interval field b" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--grid", "--mc-points"])
    def test_zero_grid_or_samples_exits_2(self, capsys, flag):
        rc = cli.main(["regularity", "--domain", "interval:0,1", flag, "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert flag.lstrip("-").replace("-", "_") in captured.err
        assert captured.out == ""


class TestBoundsCommand:
    def test_bounds_on_briefly_trained_model(self, tiny_run, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(["bounds", "--checkpoint", str(tiny_run / "model.ckpt"),
                       "--problem", "poisson1d", "--dictionary", "fourier1d:8",
                       "--out", str(out)])
        printed = capsys.readouterr().out
        assert "bound report: poisson1d" in printed
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["sup_bound_holds"] and report["exp_bound_holds"]

    def test_square_report_written_and_read_back(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert cli.main(["run", "--preset", "poisson2d", "--iterations", "3",
                         "--hidden-width", "6", "--out", str(run)]) == 0
        out = tmp_path / "report.json"
        rc = cli.main(["bounds", "--checkpoint", str(run / "model.ckpt"),
                       "--problem", "poisson2d", "--dictionary", "fourier2d:5,5",
                       "--out", str(out)])
        assert rc == 0
        assert "bound report: poisson2d" in capsys.readouterr().out
        p = problems.get("poisson2d")
        want = verify_bound(load_checkpoint(run / "model.ckpt"), p, p.dictionary)
        assert BoundReport.from_json(out.read_text()) == want

    def test_shape_mismatch_exits_2_naming_both_shapes(self, tiny_run, capsys):
        rc = cli.main(["bounds", "--checkpoint", str(tiny_run / "model.ckpt"),
                       "--problem", "poisson1d", "--dictionary", "fourier1d:4"])
        assert rc == 2
        assert "checkpoint shape (1 -> 17) does not match problem/dictionary " \
               "(1 -> 9)" in capsys.readouterr().err

    def test_negative_seed_exits_2_naming_the_flag(self, tiny_run, tmp_path,
                                                   capsys):
        out = tmp_path / "report.json"
        rc = cli.main(["bounds", "--checkpoint", str(tiny_run / "model.ckpt"),
                       "--problem", "poisson1d", "--dictionary", "fourier1d:8",
                       "--seed", "-1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: --seed must be >= 0, got -1\n"
        assert captured.out == ""
        assert not out.exists()

    def test_sphere_rejected(self, tiny_run):
        with pytest.raises(SystemExit):
            cli.main(["bounds", "--checkpoint", str(tiny_run / "model.ckpt"),
                      "--problem", "sphere", "--dictionary",
                      "spherical-harmonics:3"])
