import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdpinn import problems
from pdpinn.problems import POLE_EPS
from pdpinn.sampling import sample_boundary, sample_interior

# chi-square critical value, 9 degrees of freedom, significance 0.001
CHI2_CRIT_DF9 = 27.877164871256568

ALL_IDS = ("poisson1d", "poisson2d", "sphere", "diffusion1d")


@given(st.sampled_from(ALL_IDS), st.integers(1, 200), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_interior_points_lie_inside(pid, n, seed):
    p = problems.get(pid)
    batch = sample_interior(p, n, np.random.default_rng(seed))
    assert batch.points.shape == (n, p.dim)
    assert batch.region == "interior"
    lo, hi = np.asarray(p.lo), np.asarray(p.hi)
    assert np.all(batch.points >= lo) and np.all(batch.points <= hi)


def test_zero_samples_rejected(rng):
    p = problems.get("poisson1d")
    with pytest.raises(ValueError):
        sample_interior(p, 0, rng)
    with pytest.raises(ValueError):
        sample_boundary(p, 0, rng)


def test_poisson1d_boundary_is_both_ends(rng):
    batch = sample_boundary(problems.get("poisson1d"), 7, rng)
    assert batch.region == "boundary"
    assert np.array_equal(np.sort(batch.points[:, 0]), [-10.0, 10.0])


def test_sphere_boundary_is_anchor_point(rng):
    batch = sample_boundary(problems.get("sphere"), 5, rng)
    assert np.array_equal(batch.points, [[1.0, 1.0]])


def test_poisson2d_boundary_on_edges(rng):
    p = problems.get("poisson2d")
    batch = sample_boundary(p, 400, rng)
    assert batch.points.shape == (400, 2)
    assert np.all(p.on_boundary(batch.points))


def test_diffusion_boundary_split_by_measure():
    p = problems.get("diffusion1d")
    batch = sample_boundary(p, 20_000, np.random.default_rng(7))
    assert np.all(p.on_boundary(batch.points))
    on_slab = np.isclose(batch.points[:, 1], 0.0)
    frac = np.mean(on_slab)
    assert abs(frac - 20.0 / 22.0) < 0.01     # 20 : 1 : 1 by length


def test_sphere_area_uniform_symmetry():
    p = problems.get("sphere")
    pts = sample_interior(p, 100_000, np.random.default_rng(5)).points
    assert abs(np.mean(np.cos(pts[:, 0]))) < 0.01


def test_equal_seeds_reproduce_batches():
    for pid in ALL_IDS:
        p = problems.get(pid)
        a = sample_interior(p, 64, np.random.default_rng(42)).points
        b = sample_interior(p, 64, np.random.default_rng(42)).points
        assert np.array_equal(a, b)
        c = sample_boundary(p, 64, np.random.default_rng(42)).points
        d = sample_boundary(p, 64, np.random.default_rng(42)).points
        assert np.array_equal(c, d)


def _equal_measure_bin_index(p, pts):
    """Bin by a coordinate whose marginal is uniform in equal-measure bins."""
    if p.id == "sphere":
        z = np.cos(pts[:, 0])
        zlo, zhi = np.cos(np.pi - POLE_EPS), np.cos(POLE_EPS)
        u = (z - zlo) / (zhi - zlo)
    else:
        u = (pts[:, 0] - p.lo[0]) / (p.hi[0] - p.lo[0])
    return np.clip((u * 10).astype(int), 0, 9)


def test_uniformity_chi_square_ten_bins():
    for pid in ALL_IDS:
        p = problems.get(pid)
        pts = sample_interior(p, 10_000, np.random.default_rng(1234)).points
        counts = np.bincount(_equal_measure_bin_index(p, pts), minlength=10)
        expected = 1000.0
        stat = np.sum((counts - expected) ** 2 / expected)
        assert stat < CHI2_CRIT_DF9, (pid, stat)
