import numpy as np
import pytest

from pdpinn import diffgraph as dg
from pdpinn import problems
from pdpinn.diffgraph import Jet2
from pdpinn.sampling import sample_interior

from conftest import agree, fd_jet

ALL_IDS = ("poisson1d", "poisson2d", "sphere", "diffusion1d")


class TestGroundTruth:
    def test_poisson1d_values(self):
        p = problems.get("poisson1d")
        assert problems.ground_truth(p, [[0.0]])[0] == pytest.approx(1.0)
        assert problems.ground_truth(p, [[10.0]])[0] == pytest.approx(
            -1.1027013141400324, rel=1e-14)
        assert problems.ground_truth(p, [[-10.0]])[0] == pytest.approx(
            -0.4166745115776105, rel=1e-14)

    def test_sphere_reference_value(self):
        p = problems.get("sphere")
        assert problems.ground_truth(p, [[1.0, 1.0]])[0] == pytest.approx(
            -0.062488581188901424, rel=1e-14)

    def test_out_of_domain_rejected(self):
        p = problems.get("poisson1d")
        with pytest.raises(ValueError, match="closure"):
            problems.ground_truth(p, [[10.5]])

    def test_truth_jets_match_values(self, rng):
        for pid in ALL_IDS:
            p = problems.get(pid)
            pts = sample_interior(p, 50, rng).points
            jet = problems.ground_truth_jet(p, pts)
            assert np.allclose(jet.value, problems.ground_truth(p, pts),
                               rtol=1e-13, atol=1e-13)


class TestRhs:
    def test_poisson1d_at_origin(self):
        p = problems.get("poisson1d")
        assert problems.rhs(p, [[0.0]])[0] == pytest.approx(-2.25)

    def test_diffusion_at_origin(self):
        p = problems.get("diffusion1d")
        assert problems.rhs(p, [[0.0, 0.0]])[0] == pytest.approx(-1.0)

    def test_sphere_rhs_consistent_with_finite_differences(self, rng):
        # independent oracle: operator applied to FD jets of the closed form
        p = problems.get("sphere")
        pts = sample_interior(p, 300, np.random.default_rng(3)).points
        vals = problems.ground_truth(p, pts)
        d1, d2 = fd_jet(lambda q: problems.ground_truth(p, q), pts, h=1e-5)
        F = Jet2(vals, d1, d2)
        lhs = problems.apply_operator(p, F, pts)
        assert agree(lhs, problems.rhs(p, pts), 1e-4)


class TestOperator:
    def test_second_derivative_operator(self):
        p = problems.get("poisson1d")
        x = Jet2.seed(np.array([[1.7]]))
        F = dg.mul(x.component(0), x.component(0))
        assert problems.apply_operator(p, F, [[1.7]])[0] == pytest.approx(2.0)

    def test_sphere_degree_one_eigenfunction(self, rng):
        p = problems.get("sphere")
        pts = sample_interior(p, 100, rng).points
        x = Jet2.seed(pts)
        F = dg.cos(x.component(0))
        out = problems.apply_operator(p, F, pts)
        assert np.allclose(out, -2.0 * np.cos(pts[:, 0]), rtol=1e-10)

    def test_diffusion_operator(self):
        p = problems.get("diffusion1d")
        pts = np.array([[1.5, 0.25], [-2.0, 0.75]])
        x = Jet2.seed(pts)
        F = dg.mul(dg.mul(x.component(0), x.component(0)), x.component(1))
        out = problems.apply_operator(p, F, pts)
        want = 2.0 * pts[:, 1] - pts[:, 0] ** 2
        assert np.allclose(out, want, rtol=1e-12)

    def test_pole_guard(self):
        p = problems.get("sphere")
        pts = np.array([[0.001, 1.0]])
        F = Jet2.seed(pts).component(0)
        with pytest.raises(ValueError, match="pole"):
            problems.apply_operator(p, F, pts)

    def test_consistency_all_problems(self):
        # operator applied to exact solution jets reproduces the RHS
        rng = np.random.default_rng(11)
        for pid in ALL_IDS:
            p = problems.get(pid)
            pts = sample_interior(p, 1000, rng).points
            lhs = problems.apply_operator(p, problems.ground_truth_jet(p, pts), pts)
            assert agree(lhs, problems.rhs(p, pts), 1e-4), pid

    def test_rotation_consistency_in_longitude(self, rng):
        p = problems.get("sphere")
        pts = sample_interior(p, 200, rng).points
        shifted = pts.copy()
        shifted[:, 1] += 2.0 * np.pi
        assert np.allclose(problems.ground_truth(p, pts),
                           problems.ground_truth(p, shifted), atol=1e-12)
        assert np.allclose(problems.rhs(p, pts), problems.rhs(p, shifted),
                           atol=1e-10)
        F = problems.ground_truth_jet(p, pts)
        a = problems.apply_operator(p, F, pts)
        b = problems.apply_operator(p, F, shifted)
        assert np.allclose(a, b, atol=1e-12)


class TestBoundary:
    def test_poisson2d_edges(self, rng):
        p = problems.get("poisson2d")
        xs = rng.uniform(-10, 10, size=20)
        top = np.column_stack([xs, np.full(20, 10.0)])
        assert np.all(problems.boundary_value(p, top) == 0.0)
        bottom = np.column_stack([xs, np.full(20, -10.0)])
        assert np.all(problems.boundary_value(p, bottom) == 0.0)
        ys = rng.uniform(-10, 10, size=20)
        right = np.column_stack([np.full(20, 10.0), ys])
        want = problems.ground_truth(p, right)
        assert np.allclose(problems.boundary_value(p, right), want, rtol=1e-14)

    def test_diffusion_initial_slab_and_edges(self, rng):
        p = problems.get("diffusion1d")
        xs = rng.uniform(-10, 10, size=15)
        slab = np.column_stack([xs, np.zeros(15)])
        assert np.all(problems.boundary_value(p, slab) == 0.0)
        ts = rng.uniform(0, 1, size=15)
        edge = np.column_stack([np.full(15, 10.0), ts])
        want = problems.ground_truth(p, edge)
        assert np.allclose(problems.boundary_value(p, edge), want, rtol=1e-14)

    def test_sphere_anchor(self):
        p = problems.get("sphere")
        out = problems.boundary_value(p, [[1.0, 1.0]])
        assert out[0] == pytest.approx(-0.062488581188901424, rel=1e-14)

    def test_interior_point_rejected(self):
        p = problems.get("poisson2d")
        with pytest.raises(ValueError, match="boundary"):
            problems.boundary_value(p, [[0.0, 0.0]])

    @pytest.mark.parametrize("pid,point", [
        ("poisson2d", [9.99995, 0.0]),   # 5e-5 inside the edge x = 10
        ("poisson1d", [10.00005])])      # 5e-5 outside the domain
    def test_point_near_the_boundary_rejected(self, pid, point):
        with pytest.raises(ValueError, match="boundary"):
            problems.boundary_value(problems.get(pid), [point])


class TestSpecTable:
    def test_defaults_match_published_setups(self):
        p = problems.get("poisson1d")
        assert (p.n_pde, p.iterations) == (100, 1000)
        assert p.dictionary.label() == "fourier1d:8"
        p = problems.get("poisson2d")
        assert (p.n_pde, p.n_bc, p.iterations) == (1000, 400, 1000)
        assert p.dictionary.label() == "fourier2d:5,5"
        p = problems.get("sphere")
        assert (p.n_pde, p.iterations) == (200, 2000)
        assert p.dictionary.label() == "spherical-harmonics:3"
        assert p.lift
        p = problems.get("diffusion1d")
        assert (p.n_pde, p.n_bc) == (1000, 300)
        assert p.dictionary.label() == "diffusion1d-fourier:10"

    def test_unknown_problem(self):
        with pytest.raises(ValueError, match="unknown problem"):
            problems.get("heat3d")
