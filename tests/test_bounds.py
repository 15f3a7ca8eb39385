import dataclasses
import math
import threading
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdpinn import bounds, network, problems, training
from pdpinn.bounds import (Box, BoundReport, Disk, UnsupportedDomainError,
                           estimate_lipschitz, estimate_regularity,
                           estimate_sup_deltas, parse_domain, poisson_bound,
                           tilde_delta, verify_bound)
from pdpinn.dictionaries import DictionarySpec
from pdpinn.diffgraph import Jet2
from pdpinn.network import VALUES, SlotBuffers
from pdpinn.problems import apply_operator, ground_truth_jet
from pdpinn.sampling import sample_interior
from pdpinn.training import FORWARD_CHUNK, TrainSettings, predictor_jets, train


def segment_arc(a, b, center, r):
    """Length of the segment [a, b] inside the closed disk B(center, r),
    from the roots of |a + t (b - a) - center|^2 = r^2."""
    d = np.subtract(b, a)
    f = np.subtract(a, center)
    qa, qb, qc = d @ d, f @ d, f @ f - r * r
    disc = qb * qb - qa * qc
    if disc <= 0.0:
        return 0.0
    root = math.sqrt(disc)
    t0, t1 = max(0.0, (-qb - root) / qa), min(1.0, (-qb + root) / qa)
    return max(0.0, t1 - t0) * math.sqrt(qa)


def disk_quadrant_area(a, b, r):
    """Area of the disk of radius r about the origin where x >= a, y >= b."""
    def half(c):                        # the part where x >= c
        if c >= r:
            return 0.0
        if c <= -r:
            return math.pi * r * r
        return r * r * math.acos(c / r) - c * math.sqrt(r * r - c * c)

    if b < 0.0:                         # mirror y: take away y <= b
        return half(a) - disk_quadrant_area(a, -b, r)
    if a < 0.0:                         # mirror x: take away x <= a
        return half(b) - disk_quadrant_area(-a, b, r)
    if a * a + b * b >= r * r:
        return 0.0

    def chord(x):                       # integral of sqrt(r^2 - x^2)
        return 0.5 * (x * math.sqrt(r * r - x * x) + r * r * math.asin(x / r))

    x1 = math.sqrt(r * r - b * b)
    return chord(x1) - chord(a) - b * (x1 - a)


def disk_rect_area(center, r, lo, hi):
    """Area of B(center, r) n [lo[0], hi[0]] x [lo[1], hi[1]] by
    inclusion-exclusion of the quadrants at the rectangle's corners."""
    x0, x1 = lo[0] - center[0], hi[0] - center[0]
    y0, y1 = lo[1] - center[1], hi[1] - center[1]
    return (disk_quadrant_area(x0, y0, r) - disk_quadrant_area(x1, y0, r)
            - disk_quadrant_area(x0, y1, r) + disk_quadrant_area(x1, y1, r))


def disk_lens_area(d, big, r):
    """Area shared by disks of radii ``big`` and ``r`` whose centres are
    ``d`` apart."""
    if d >= big + r:
        return 0.0
    if d <= abs(big - r):
        return math.pi * min(big, r) ** 2

    def sector(a, b):                   # of the disk of radius a
        cos = (d * d + a * a - b * b) / (2.0 * d * a)
        return a * a * math.acos(min(1.0, max(-1.0, cos)))

    kite = math.sqrt(max(0.0, (-d + big + r) * (d + big - r) * (d - big + r)
                         * (d + big + r)))
    return sector(big, r) + sector(r, big) - 0.5 * kite


def sweep_radii(diameter, crossover):
    """Radii up to past the measure crossover, the crossover included."""
    return np.unique(np.concatenate([
        np.geomspace(diameter * 1e-3, diameter * 1.05, 40),
        crossover * np.linspace(0.8, 1.2, 9)]))


def rect_ratios(center, a):
    """|B(center, r) n [0, a] x [0, 1]| / min(a, pi r^2) over a sweep."""
    return [disk_rect_area(center, r, (0.0, 0.0), (a, 1.0))
            / min(a, math.pi * r * r)
            for r in sweep_radii(math.hypot(a, 1.0), math.sqrt(a / math.pi))]


def disk_ratios(d):
    """|B(x, r) n B(0, 1)| / min(pi, pi r^2) over a sweep, |x| = d."""
    return [disk_lens_area(d, 1.0, r) / (math.pi * min(1.0, r * r))
            for r in sweep_radii(2.0, 1.0)]


class TestPoissonBound:
    def test_zero_discrepancies(self):
        assert poisson_bound(0.0, 0.0, 20.0) == 0.0

    def test_boundary_only(self):
        assert poisson_bound(0.1, 0.0, 20.0) == pytest.approx(0.1)

    def test_interior_amplification(self):
        # (e^20 - 1) * 1e-9, checked against independent arithmetic
        want = (math.exp(20.0) - 1.0) * 1e-9
        assert poisson_bound(0.0, 1e-9, 20.0) == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(0.48516519440979033, rel=1e-12)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0.1, 1),
           st.floats(0, 0.5), st.floats(0, 0.5), st.floats(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_every_argument(self, d1, d2, w, i1, i2, iw):
        base = poisson_bound(d1, d2, w)
        assert poisson_bound(d1 + i1, d2, w) >= base
        assert poisson_bound(d1, d2 + i2, w) >= base
        assert poisson_bound(d1, d2, w + iw) >= base

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            poisson_bound(0.1, 0.1, 0.0)


class TestTildeDelta:
    def test_zero_delta_gives_zero(self):
        assert tilde_delta(0.0, 5.0, 0.5, 20.0, 1) == 0.0

    def test_frozen_example(self):
        # recomputed independently: max(2d/R, 2 l (d m G(1.5)/(l R sqrt(pi)))^(1/2))
        got = tilde_delta(1e-4, 10.0, 0.5, 20.0, 1)
        inner = 1e-4 * 20.0 * math.gamma(1.5) / (10.0 * 0.5 * math.pi ** 0.5)
        want = max(2e-4 / 0.5, 2.0 * 10.0 * inner ** 0.5)
        assert got == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(0.28284271247461906, rel=1e-12)

    @given(st.floats(1e-8, 1.0), st.floats(1e-8, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_delta(self, d, inc):
        lo = tilde_delta(d, 3.0, 0.4, 20.0, 2)
        hi = tilde_delta(d + inc, 3.0, 0.4, 20.0, 2)
        assert hi >= lo

    def test_continuous_across_branch_crossover(self):
        deltas = np.geomspace(1e-8, 10.0, 4000)
        vals = np.array([tilde_delta(d, 2.0, 0.3, 20.0, 1) for d in deltas])
        jumps = np.abs(np.diff(vals)) / np.maximum(vals[1:], 1e-30)
        assert np.max(jumps) < 0.02
        # both branches are exercised over this range
        first = 2.0 * deltas / 0.3
        assert np.any(np.isclose(vals, first)) and np.any(vals > first + 1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            tilde_delta(0.1, 0.0, 0.5, 20.0, 1)
        with pytest.raises(ValueError):
            tilde_delta(0.1, 1.0, -0.5, 20.0, 1)


class TestRegularity:
    def test_unit_interval_is_half(self):
        r = estimate_regularity(Box((0.0,), (1.0,)))
        assert r == 0.5

    @pytest.mark.parametrize("a,b", [(-10.0, 10.0), (0.0, 1.0), (-3.7, 12.1),
                                     (1e-3, 2e-3), (5.0, 1e4)])
    def test_interval_is_exactly_half(self, a, b):
        # a ball centred on an end point keeps exactly r of the interval
        assert estimate_regularity(Box((a,), (b,))) == 0.5

    def test_square_is_quarter(self):
        r = estimate_regularity(Box((0.0, 0.0), (1.0, 1.0)), mc_points=20_000)
        assert r == pytest.approx(0.25, rel=0.05)

    def test_convex_domains_in_unit_range(self):
        for dom in (Box((-10,), (10,)), Box((0, 0), (2, 1)), Disk(0, 0, 1)):
            r = estimate_regularity(dom, mc_points=5_000)
            assert 0.0 < r <= 1.0

    def test_unsupported_domain(self):
        with pytest.raises(UnsupportedDomainError):
            estimate_regularity("pentagon")

    @pytest.mark.parametrize("side", [20.0, 2.0, 0.5, 0.25])
    def test_square_constants_are_the_dense_minimum(self, side):
        # exact arcs and areas over a dense set of centres and radii; the
        # perimeter constant is attained for sides of at least 4 / pi and
        # where it is capped at 1, and a lower bound in between
        lo, hi = -side / 2.0, side / 2.0
        interior, boundary = bounds._box_regularity((lo, lo), (hi, hi))
        corners = [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]
        edges = list(zip(corners, corners[1:] + corners[:1]))
        perimeter = 4.0 * side

        # 408 perimeter centres, every corner and edge midpoint among them
        along = np.linspace(0.0, 1.0, 103)[:-1]
        assert 0.5 in along
        rim = [np.add(a, t * np.subtract(b, a)) for a, b in edges for t in along]
        rim_cross = math.sqrt(perimeter / math.pi)
        rim_radii = np.unique(np.concatenate([
            np.geomspace(side * 1e-3, side * 1.5, 40),
            rim_cross * np.linspace(0.8, 1.2, 9)]))
        rim_ratio = min(
            sum(segment_arc(a, b, c, r) for a, b in edges)
            / min(perimeter, math.pi * r * r)
            for c in rim for r in rim_radii)

        # a 21 x 21 grid with the corners, edge midpoints and centre
        grid = np.linspace(lo, hi, 21)
        cross = side / math.sqrt(math.pi)
        radii = np.unique(np.concatenate([
            np.geomspace(side * 1e-3, side * 1.5, 30),
            cross * np.linspace(0.8, 1.2, 9)]))
        area_ratio = min(disk_rect_area((x, y), r, (lo, lo), (hi, hi))
                         / min(side * side, math.pi * r * r)
                         for x in grid for y in grid for r in radii)

        assert area_ratio >= interior * (1.0 - 1e-12)
        assert area_ratio == pytest.approx(interior, rel=1e-12)
        assert rim_ratio >= boundary * (1.0 - 1e-12)
        if side >= 4.0 / math.pi or boundary == 1.0:
            assert rim_ratio == pytest.approx(boundary, rel=1e-12)
        else:
            assert rim_ratio > boundary * 1.01
        if side == 20.0:
            assert boundary == pytest.approx(2.0 / math.sqrt(80.0 * math.pi),
                                             rel=1e-15)

    def test_interval_constants_are_the_exact_estimate(self):
        lo, hi = (-10.0,), (10.0,)
        assert bounds._box_regularity(lo, hi) == (
            estimate_regularity(Box(lo, hi)), 1.0) == (0.5, 1.0)

    @pytest.mark.parametrize("a", [1.0, 3.0, 10.0])
    def test_rectangle_minimum_is_at_the_corner(self, a):
        # exact areas over an 11 x 11 grid of centres, corners and edge
        # midpoints included, against the corner (0, 0) alone
        corner = min(rect_ratios((0.0, 0.0), a))
        dense = min(min(rect_ratios((x, y), a))
                    for x in np.linspace(0.0, a, 11)
                    for y in np.linspace(0.0, 1.0, 11))
        assert dense >= corner * (1.0 - 1e-12)
        assert dense == pytest.approx(corner, rel=1e-12)
        if a < math.pi:              # the crossover is inside the short side
            assert corner == pytest.approx(0.25, rel=1e-12)
        else:
            assert corner == pytest.approx(0.168572, abs=1e-6)

    def test_disk_minimum_is_on_the_rim(self):
        # exact lens areas over a 21 x 21 grid inside the unit disk and 32
        # rim points, against the rim point (1, 0) alone
        rim = min(disk_ratios(1.0))
        axis = np.linspace(-1.0, 1.0, 21)
        dists = [math.hypot(x, y) for x in axis for y in axis
                 if math.hypot(x, y) <= 1.0]
        dists += [math.hypot(math.cos(t), math.sin(t))
                  for t in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)]
        dense = min(min(disk_ratios(d)) for d in dists)
        assert dense >= rim * (1.0 - 1e-12)
        assert dense == pytest.approx(rim, rel=1e-12)
        # attained at r = 1: the lens of two unit circles a radius apart
        assert rim == pytest.approx(2.0 / 3.0 - math.sqrt(3.0) / (2.0 * math.pi),
                                    rel=1e-12)

    @pytest.mark.parametrize("a", [1.0, 3.0, 10.0, None],
                             ids=["rect1", "rect3", "rect10", "disk"])
    def test_minimum_over_radii_is_at_the_crossover(self, a):
        # exact areas of the ball about the corner of [0, a] x [0, 1], or
        # about the rim point of the unit disk (a None), over 400 radii
        if a is None:
            diameter, crossover = 2.0, 1.0

            def ratio(r):
                return disk_lens_area(1.0, 1.0, r) / (math.pi * min(1.0, r * r))
        else:
            diameter, crossover = math.hypot(a, 1.0), math.sqrt(a / math.pi)

            def ratio(r):
                return (disk_rect_area((0.0, 0.0), r, (0.0, 0.0), (a, 1.0))
                        / min(a, math.pi * r * r))
        dense = min(ratio(r) for r in np.geomspace(diameter * 1e-3,
                                                   diameter * 1.05, 400))
        assert dense >= ratio(crossover) * (1.0 - 1e-12)

    def test_long_box_reads_a_positive_share(self):
        # past the crossover the ball about a corner is nearly empty, so a
        # reading there would be 0 at this sample size
        box = Box((0.0, 0.0, 0.0), (100.0, 1.0, 1.0))
        reference = estimate_regularity(box, mc_points=1_000_000, seed=1)
        n = 5_000
        sigma = math.sqrt(reference * (1.0 - reference) / n)
        got = estimate_regularity(box, mc_points=n)
        assert got > 0.0
        assert abs(got - reference) <= 6.0 * sigma

    @pytest.mark.parametrize("domain", [
        Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        Box((0.0, 0.0), (1.0, 1.0)),
        Box((0.0, 0.0), (3.0, 1.0)),
        Box((0.0, 0.0), (10.0, 1.0)),
        Box((0.0, 0.0, 0.0), (10.0, 1.0, 1.0)),
        Disk(0.0, 0.0, 1.0),
        Disk(-3.5, 2.25, 2.0),
    ], ids=["cube", "square", "rect3", "rect10", "box10", "disk", "offset-disk"])
    def test_estimate_is_the_least_share_of_its_draws_up_to_the_crossover(
            self, domain):
        # the estimate's own draws about the extreme point, scaled to 40
        # radii up to the crossover r*: the in-domain share never rises, so
        # no smaller radius reads below the share at r* that is returned
        n, seed = 2_000, 3
        dim = domain.dim
        crossover = (domain.measure * math.gamma(dim / 2.0 + 1.0)
                     / math.pi ** (dim / 2.0)) ** (1.0 / dim)
        unit = bounds._unit_ball_points(dim, n, np.random.default_rng(seed))

        def share(r):
            pts = r * unit
            if isinstance(domain, Box):
                side = np.subtract(domain.hi, domain.lo)
                inside = np.all((pts >= 0.0) & (pts <= side), axis=1)
            else:
                pts[:, 0] += domain.r
                inside = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= domain.r ** 2
            return np.count_nonzero(inside) / n

        shares = [share(r) for r in crossover * np.linspace(0.025, 1.0, 40)]
        assert all(a >= b for a, b in zip(shares, shares[1:]))
        cap = 0.5 ** dim if isinstance(domain, Box) else 1.0
        got = estimate_regularity(domain, mc_points=n, seed=seed)
        assert got == min(shares[-1], cap)
        assert got <= min(shares)

    @pytest.mark.parametrize("box", [Box((0.0, 0.0), (1000.0, 1.0)),
                                     Box((0.0, 0.0, 0.0), (10.0, 1.0, 1.0)),
                                     Box((0.0, 0.0, 0.0), (30.0, 1.0, 1.0))],
                             ids=["rect1000", "box10", "box30"])
    def test_elongated_box_reads_within_six_sigma_at_few_draws(self, box):
        # the crossover lies past the short sides, where a reading further
        # out would find a nearly empty ball
        reference = estimate_regularity(box, mc_points=1_000_000, seed=1)
        n = 2_000
        sigma = math.sqrt(reference * (1.0 - reference) / n)
        for seed in range(5):
            got = estimate_regularity(box, mc_points=n, seed=seed)
            assert got > 0.0
            assert abs(got - reference) <= 6.0 * sigma

    @pytest.mark.parametrize("domain", [Box((0.0, 0.0), (10.0, 1.0)),
                                        Disk(0.0, 0.0, 1.0)])
    def test_estimate_is_within_six_sigma_of_the_exact_minimum(self, domain):
        exact = min(rect_ratios((0.0, 0.0), 10.0) if isinstance(domain, Box)
                    else disk_ratios(1.0))
        n = 100_000
        sigma = math.sqrt(exact * (1.0 - exact) / n)
        got = estimate_regularity(domain, mc_points=n, seed=0)
        assert abs(got - exact) <= 6.0 * sigma

    @pytest.mark.parametrize("moved,origin", [
        (Disk(1e17, -1e17, 1.0), Disk(0.0, 0.0, 1.0)),
        (Disk(-3.5, 2.25, 2.0), Disk(0.0, 0.0, 2.0)),
        (Box((2.0 ** 40, -2.0 ** 40), (2.0 ** 40 + 10.0, 1.0 - 2.0 ** 40)),
         Box((0.0, 0.0), (10.0, 1.0))),
        (Box((-7.5, 3.25, 1e6), (-6.5, 4.25, 1e6 + 1.0)),
         Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))),
    ])
    @pytest.mark.parametrize("seed", [1, 4])
    def test_translated_domain_gives_its_origin_copys_estimate(
            self, moved, origin, seed):
        assert (estimate_regularity(moved, mc_points=4_000, seed=seed)
                == estimate_regularity(origin, mc_points=4_000, seed=seed))

    def test_parse_domain_round_trips(self):
        assert parse_domain("interval:0,1") == Box((0.0,), (1.0,))
        assert parse_domain("box:0,1,0,2") == Box((0.0, 0.0), (1.0, 2.0))
        assert parse_domain("box:0,1,0,1,0,1") == Box((0, 0, 0), (1, 1, 1))
        assert parse_domain("disk:0,0,2") == Disk(0.0, 0.0, 2.0)
        with pytest.raises(UnsupportedDomainError):
            parse_domain("torus:1,2")
        with pytest.raises(UnsupportedDomainError):
            parse_domain("box:0,1")

    def test_parse_domain_names_missing_parameter(self):
        with pytest.raises(UnsupportedDomainError, match="missing b$"):
            parse_domain("interval:1")
        with pytest.raises(UnsupportedDomainError, match="missing cy,r"):
            parse_domain("disk:0")

    @pytest.mark.parametrize("text", [
        "interval:5,1", "interval:1,1", "disk:0,0,-1", "disk:0,0,0",
        "box:1,0,0,1", "box:0,1,0,1,2,2", "interval:0,inf", "interval:nan,1",
        "disk:0,0,1e200", "box:-1e308,1e308,0,1",
        "disk:0.0,0.0,2.665965814357895e-171", "box:0,1e-200,0,1e-200"])
    def test_degenerate_domain_rejected(self, text):
        with pytest.raises(UnsupportedDomainError, match="degenerate domain"):
            parse_domain(text)

    def test_non_numeric_value_names_kind_and_field(self):
        with pytest.raises(UnsupportedDomainError,
                           match="interval field b: 'a' is not a number"):
            parse_domain("interval:0,a")
        with pytest.raises(UnsupportedDomainError, match="box field ay"):
            parse_domain("box:0,1,,1")

    @given(st.one_of(
        st.text(max_size=30),
        st.builds(lambda kind, vals: f"{kind}:" + ",".join(vals),
                  st.sampled_from(["interval", "box", "disk", "torus"]),
                  st.lists(st.one_of(st.floats().map(repr),
                                     st.sampled_from(["", "x", "inf", "-0"])),
                           max_size=7))))
    @settings(max_examples=300, deadline=None)
    def test_parse_yields_positive_measure_or_named_error(self, text):
        try:
            domain = parse_domain(text)
        except UnsupportedDomainError:
            return
        assert 0.0 < domain.measure < math.inf

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="mc_points"):
            estimate_regularity(Box((0.0, 0.0), (1.0, 1.0)), mc_points=0)


class TestLipschitz:
    def test_sine_slope_one(self):
        def f(pts):
            return np.cos(pts)[:, :1]
        got = estimate_lipschitz(f, [0.0], [2.0 * np.pi], n=20_000)
        assert got == pytest.approx(1.0, abs=1e-3)

    def test_constant_is_flat(self):
        def f(pts):
            return np.zeros_like(pts)
        assert estimate_lipschitz(f, [0.0], [1.0], n=1000) == 0.0

    def test_linear_is_exact(self):
        def f(pts):
            return np.full_like(pts, 3.0)
        assert estimate_lipschitz(f, [0.0], [1.0], n=1000) == 3.0

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_sample_rejected(self, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            estimate_lipschitz(lambda pts: pts, [0.0], [1.0], n=n)


class TestSupDeltas:
    def test_oracle_injection_vanishes(self):
        p = problems.get("poisson1d")
        d1s, d2s, d1e, d2e = estimate_sup_deltas(
            None, p, p.dictionary, n_interior=2000, n_boundary=100,
            predictor_fn=lambda pts: ground_truth_jet(p, pts))
        for v in (d1s, d2s, d1e, d2e):
            assert v < 1e-7

    def test_constant_offset_is_harmonic(self):
        p = problems.get("poisson1d")
        c = 0.125

        def shifted(pts):
            j = ground_truth_jet(p, pts)
            return Jet2(j.value + c, j.d1, j.d2)

        d1s, d2s, d1e, d2e = estimate_sup_deltas(
            None, p, p.dictionary, n_interior=2000, n_boundary=100,
            predictor_fn=shifted)
        assert d1s == pytest.approx(c, rel=1e-12)
        assert d1e == pytest.approx(c, rel=1e-12)
        assert d2s < 1e-10
        assert d2e < 1e-10

    def test_boundary_argmax_near_a_corner_is_refined_along_its_edge(self):
        # (10, 9.99995) lies on the edge x = 10, within 1e-4 of the corner:
        # a relative tolerance would call it a point of the edge y = 10
        corner = np.array([10.0, 9.99995])
        base = problems.get("poisson2d")

        def boundary(n, rng):
            pts = base.sample_boundary(n, rng)
            pts[0] = corner
            return pts

        p = dataclasses.replace(base, sample_boundary=boundary)

        def bump(pts):
            j = ground_truth_jet(p, pts)
            peak = np.exp(-np.sum((pts - corner) ** 2, axis=1))
            return Jet2(j.value + peak, j.d1, j.d2)

        d1s, d2s, _, _ = estimate_sup_deltas(
            None, p, p.dictionary, n_interior=500, n_boundary=100,
            predictor_fn=bump)
        assert d1s == pytest.approx(1.0, rel=1e-12)
        assert d2s < 1e-7


class TestVerifyBound:
    def test_oracle_injection_bounds_hold_trivially(self):
        p = problems.get("poisson1d")
        report = verify_bound(None, p, p.dictionary, n_interior=2000,
                              n_boundary=100,
                              predictor_fn=lambda pts: ground_truth_jet(p, pts))
        assert report.sup_bound_holds and report.exp_bound_holds
        assert report.observed_sup_error < 1e-7

    def test_constant_offset_is_the_equality_case(self):
        p = problems.get("poisson1d")
        c = 0.5

        def shifted(pts):
            j = ground_truth_jet(p, pts)
            return Jet2(j.value + c, j.d1, j.d2)

        report = verify_bound(None, p, p.dictionary, n_interior=4000,
                              n_boundary=100, predictor_fn=shifted)
        assert report.observed_sup_error == pytest.approx(c, rel=1e-10)
        assert report.bound_sup == pytest.approx(c, rel=2e-3)
        assert report.sup_bound_holds

    @pytest.mark.parametrize("pid,iterations", [("poisson1d", 30),
                                                 ("poisson2d", 3)])
    def test_stored_network_report_is_the_jet_pass_report(self, pid, iterations):
        p = problems.get(pid)
        _, store = train(p, p.dictionary, TrainSettings(
            iterations=iterations, record_every=iterations, seed=4))
        n = FORWARD_CHUNK + 1000        # the interior batch spans two chunks
        fast = verify_bound(store, p, p.dictionary, n_interior=n,
                            n_boundary=400, seed=3)
        jet = verify_bound(store, p, p.dictionary, n_interior=n,
                           n_boundary=400, seed=3,
                           predictor_fn=lambda q: predictor_jets(
                               store.layers, p, p.dictionary, q, False))
        # the slot pass sums the operator in another grouping than
        # apply_operator on the jets, so the fields read from the residual
        # agree to rounding, which central differences amplify
        assert asdict(fast) == pytest.approx(asdict(jet), rel=1e-12, abs=0)
        assert all(type(v) in (str, float, bool) for v in asdict(fast).values())
        assert BoundReport.from_json(fast.to_json()) == fast

    @pytest.mark.parametrize("pid", ["poisson1d", "poisson2d"])
    def test_verifier_chunks_reuse_their_pools(self, chunk_workers,
                                               monkeypatch, pid):
        p = problems.get(pid)
        dspec = DictionarySpec("none")
        _, store = train(p, dspec, TrainSettings(
            iterations=3, record_every=3, hidden_width=8, seed=4))
        pools = []

        class Recorded(SlotBuffers):
            def __init__(self):
                super().__init__()
                pools.append(self)

        def arrays():
            return [(pool, role, a) for pool in pools
                    for role, a in pool.arrays.items()]

        monkeypatch.setattr(training, "SlotBuffers", Recorded)
        monkeypatch.setattr(network, "SlotBuffers", Recorded)
        reports = []
        for workers in (1, None, 3):
            chunk_workers(workers)
            # new threads, each starting without a pool
            monkeypatch.setattr(training, "_chunk_pool", None)
            monkeypatch.setattr(training, "_chunk_buffers", threading.local())
            pools.clear()
            reports.append(asdict(verify_bound(store, p, dspec, seed=6)))
            created, held = len(pools), arrays()
            assert created >= 1
            # each thread's pool also holds the inputs of its chunks
            assert all(any(isinstance(role, tuple) and role[0] == "inputs"
                           for role in pool.arrays) for pool in pools)
            reports.append(asdict(verify_bound(store, p, dspec, seed=6)))
            assert len(pools) == created
            assert len(arrays()) == len(held)
            assert all(pool.arrays[role] is a for pool, role, a in held)
            pts = sample_interior(p, 2 * FORWARD_CHUNK + 5,
                                  np.random.default_rng(1)).points
            for points in (pts, pts[:FORWARD_CHUNK]):
                F = training.predictor_fields(store, p, dspec, points, False,
                                              VALUES)
                assert not any(np.shares_memory(F, a) for _, _, a in arrays())
            if training._chunk_pool is not None:
                training._chunk_pool.shutdown()
        assert all(r == reports[0] for r in reports)

    def test_report_is_bitwise_at_the_old_chunk(self, monkeypatch):
        p = problems.get("poisson2d")
        _, store = train(p, p.dictionary, TrainSettings(
            iterations=3, record_every=3, seed=4))
        chunked = asdict(verify_bound(store, p, p.dictionary, seed=6))
        assert FORWARD_CHUNK < 4096
        monkeypatch.setattr(training, "FORWARD_CHUNK", 4096)
        assert asdict(verify_bound(store, p, p.dictionary, seed=6)) == chunked

    @pytest.mark.parametrize("pid,iterations", [("poisson1d", 30),
                                                 ("poisson2d", 3)])
    def test_report_is_bitwise_under_any_worker_count(self, chunk_workers,
                                                      pid, iterations):
        p = problems.get(pid)
        _, store = train(p, p.dictionary, TrainSettings(
            iterations=iterations, record_every=iterations, seed=4))
        chunk_workers(1)
        serial = asdict(verify_bound(store, p, p.dictionary, seed=6))
        for workers in (None, 3):
            chunk_workers(workers)
            assert asdict(verify_bound(store, p, p.dictionary, seed=6)) == serial

    @pytest.mark.parametrize("pid,iterations", [("poisson1d", 30),
                                                 ("poisson2d", 3)])
    def test_sup_deltas_are_the_reports_deltas(self, pid, iterations):
        p = problems.get(pid)
        _, store = train(p, p.dictionary, TrainSettings(
            iterations=iterations, record_every=iterations, seed=2))
        report = verify_bound(store, p, p.dictionary, n_interior=3000,
                              n_boundary=300, seed=9)
        assert estimate_sup_deltas(store, p, p.dictionary, n_interior=3000,
                                   n_boundary=300, seed=9) == (
            report.delta1_sup, report.delta2_sup,
            report.delta1_exp, report.delta2_exp)

    @pytest.mark.parametrize("slope", [0.0, 0.25])
    def test_lipschitz_constant_is_the_mismatch_slope(self, slope):
        # F = u + slope * x: F - u has gradient slope everywhere and F has
        # the residual of u; slope 0 is the oracle, whose mismatch is flat
        p = problems.get("poisson1d")

        def ramp(pts):
            j = ground_truth_jet(p, pts)
            return Jet2(j.value + slope * pts[:, 0], j.d1 + slope, j.d2)

        def residual_gradients(pts, h=1e-4):
            # central differences of the residual L F - q, one coordinate
            def residual(q):
                return apply_operator(p, ramp(q), q) - problems.rhs(p, q)
            return ((residual(pts + h) - residual(pts - h)) / (2.0 * h))[:, None]

        report = verify_bound(None, p, p.dictionary, n_interior=2000,
                              n_boundary=100, seed=5, predictor_fn=ramp)
        alone = estimate_lipschitz(residual_gradients, p.lo, p.hi, seed=5 + 3)
        assert alone < 1e-6
        assert report.lipschitz_l == pytest.approx(max(slope, alone), rel=1e-12)

    def test_unsupported_problem_rejected(self):
        p = problems.get("sphere")
        with pytest.raises(ValueError, match="Poisson"):
            verify_bound(None, p, p.dictionary)

    def test_report_json_round_trip(self):
        p = problems.get("poisson1d")
        report = verify_bound(None, p, p.dictionary, n_interior=1000,
                              n_boundary=50,
                              predictor_fn=lambda pts: ground_truth_jet(p, pts))
        back = bounds.BoundReport.from_json(report.to_json())
        assert back == report
        assert "sup-norm bound" in report.table()
