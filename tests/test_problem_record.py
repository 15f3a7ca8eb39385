"""A problem defined entirely from outside the package.

Everything the program knows about a problem lives in its ``ProblemSpec``,
so a fifth problem built here must run through sampling, the operator,
training, prediction, the grid dump and the bound report unchanged.
"""

import numpy as np
import pytest

from pdpinn import bounds, cli, problems
from pdpinn import diffgraph as dg
from pdpinn.dictionaries import DictionarySpec
from pdpinn.network import SlotBuffers, save_checkpoint
from pdpinn.problems import ProblemSpec
from pdpinn.sampling import sample_boundary, sample_interior
from pdpinn.training import (TrainSettings, empirical_bc_loss,
                             empirical_pde_loss, predict_values, train)

from conftest import agree

# u'' = q on [0, 1] with u = sin(pi x): q = -pi^2 sin(pi x), u = 0 at the ends
TOY = ProblemSpec(
    id="toy1d", lo=(0.0,), hi=(1.0,),
    n_pde=32, n_bc=2, iterations=5,
    dictionary=DictionarySpec("none"),
    solution=lambda pts: np.sin(np.pi * pts[:, 0]),
    solution_jet=lambda x: dg.sin(x.component(0) * np.pi),
    rhs=lambda pts: -np.pi ** 2 * np.sin(np.pi * pts[:, 0]),
    terms=((2, 0, None),),
    on_boundary=lambda pts: (np.isclose(pts[:, 0], 0.0)
                             | np.isclose(pts[:, 0], 1.0)),
    boundary_data=lambda pts: np.sin(np.pi * pts[:, 0]),
    sample_boundary=lambda n, rng: np.array([[0.0], [1.0]]),
    elliptic_bound=True)

SETTINGS = TrainSettings(iterations=5, record_every=5, hidden_width=8, seed=3)


@pytest.fixture(scope="module")
def trained():
    return train(TOY, TOY.dictionary, SETTINGS)


def test_samples_stay_inside(rng):
    pts = sample_interior(TOY, 500, rng).points
    assert pts.shape == (500, 1)
    assert np.all((pts >= 0.0) & (pts <= 1.0))
    bpts = sample_boundary(TOY, 2, rng).points
    assert np.all(TOY.on_boundary(bpts))
    with pytest.raises(ValueError, match="closure"):
        problems.ground_truth(TOY, [[1.5]])


def test_operator_on_solution_jet_is_the_rhs(rng):
    pts = sample_interior(TOY, 400, rng).points
    lhs = problems.apply_operator(TOY, problems.ground_truth_jet(TOY, pts), pts)
    assert agree(lhs, problems.rhs(TOY, pts), 1e-4)


def test_trained_gradient_matches_directional_fd(trained):
    records, store = trained
    assert records[-1].iteration == 5
    rng = np.random.default_rng(8)
    interior = sample_interior(TOY, TOY.n_pde, rng)
    boundary = sample_boundary(TOY, TOY.n_bc, rng)
    buffers = SlotBuffers()

    def total(st):
        lp, gp = empirical_pde_loss(st, TOY, TOY.dictionary, interior,
                                    buffers=buffers)
        lb, gb = empirical_bc_loss(st, TOY, TOY.dictionary, boundary,
                                   buffers=buffers)
        return lp + lb, gp + gb

    v = rng.standard_normal(store.n_params)
    v /= np.linalg.norm(v)
    h, theta, shifted = 1e-5, store.flat(), store.copy()
    shifted.set_flat(theta + h * v)
    up, _ = total(shifted)
    shifted.set_flat(theta - h * v)
    down, _ = total(shifted)
    _, grad = total(store)
    fd, exact = (up - down) / (2.0 * h), grad @ v
    assert abs(fd - exact) <= 1e-5 * max(abs(fd), abs(exact))


def test_predict_values(trained):
    _, store = trained
    vals = predict_values(store, TOY, TOY.dictionary, np.array([[0.25], [0.5]]),
                          False)
    assert vals.shape == (2,) and np.all(np.isfinite(vals))


def test_dump_grid(trained, tmp_path, monkeypatch, capsys):
    _, store = trained
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(store, ckpt)
    monkeypatch.setitem(problems.PROBLEMS, TOY.id, TOY)
    out = tmp_path / "grid.csv"
    rc = cli.main(["dump-grid", "--checkpoint", str(ckpt), "--problem", TOY.id,
                   "--dictionary", "none", "--resolution", "11",
                   "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,prediction,ground_truth,abs_error"
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs == pytest.approx(np.linspace(0.0, 1.0, 11).tolist(), abs=0.0)


def test_verify_bound_reports(trained):
    _, store = trained
    report = bounds.verify_bound(store, TOY, TOY.dictionary, n_interior=2000,
                                 n_boundary=50)
    assert report.problem == TOY.id
    assert report.slab_width == 1.0
    assert report.regularity_boundary == 1.0     # two-point boundary
    assert report.observed_sup_error > 0.0
    assert report.sup_bound_holds
