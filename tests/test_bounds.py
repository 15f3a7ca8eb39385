import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdpinn import bounds, problems, training
from pdpinn.bounds import (Box, BoundReport, Disk, Interval,
                           UnsupportedDomainError,
                           estimate_lipschitz, estimate_regularity,
                           estimate_sup_deltas, parse_domain, poisson_bound,
                           tilde_delta, verify_bound)
from pdpinn.diffgraph import Jet2
from pdpinn.problems import ground_truth_jet
from pdpinn.training import FORWARD_CHUNK, TrainSettings, predictor_jets, train


def brute_inside(domain, pts):
    """Membership of explicit points, the reference for the exit radii."""
    if isinstance(domain, Interval):
        return (pts[:, 0] >= domain.a) & (pts[:, 0] <= domain.b)
    if isinstance(domain, Box):
        lo, hi = np.asarray(domain.lo), np.asarray(domain.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=1)
    return (pts[:, 0] - domain.cx) ** 2 + (pts[:, 1] - domain.cy) ** 2 <= domain.r ** 2


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
        r = estimate_regularity(Interval(0.0, 1.0))
        assert r == pytest.approx(0.5, rel=0.05)

    def test_square_is_quarter(self):
        r = estimate_regularity(Box((0.0, 0.0), (1.0, 1.0)), mc_points=20_000)
        assert r == pytest.approx(0.25, rel=0.05)

    def test_convex_domains_in_unit_range(self):
        for dom in (Interval(-10, 10), Box((0, 0), (2, 1)), Disk(0, 0, 1)):
            r = estimate_regularity(dom, mc_points=5_000, grid=5)
            assert 0.0 < r <= 1.0

    def test_unsupported_domain(self):
        with pytest.raises(UnsupportedDomainError):
            estimate_regularity("pentagon")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("domain,grid,diameter", [
        (Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 4, math.sqrt(3.0)),
        (Box((-10.0, -10.0), (10.0, 10.0)), 7, math.sqrt(800.0)),
        (Disk(0.0, 0.0, 1.0), 5, 2.0),
    ])
    def test_exit_radius_counts_match_explicit_points(self, domain, grid,
                                                      diameter, seed):
        rng = np.random.default_rng(seed)
        radii = diameter * np.geomspace(1e-3, 1.05, 40)
        for center in bounds._center_grid(domain, grid):
            raw = bounds._unit_ball_points(domain.dim, 2000, rng)
            exits = np.sort(bounds._exit_radii(domain, center, raw))
            got = len(raw) - np.searchsorted(exits, radii, side="left")
            want = [np.count_nonzero(brute_inside(domain, center + raw * r))
                    for r in radii]
            assert got.tolist() == want

    def test_perimeter_estimate_is_the_per_radius_loop(self):
        half, grid, total, n = 10.0, 48, 80.0, 200_000
        rng = np.random.default_rng(0)
        pts = bounds._perimeter_points(rng.uniform(0.0, total, size=n), half)
        centers = bounds._perimeter_points(
            np.linspace(0.0, total, grid, endpoint=False), half)
        crossover = math.sqrt(total / math.pi)
        radii = np.unique(np.concatenate([np.geomspace(0.05, 2.0 * half, 20),
                                          crossover * np.linspace(0.8, 1.2, 9)]))
        want = 1.0
        for c in centers:
            d = np.linalg.norm(pts - c, axis=1)
            for r in radii:
                want = min(want, np.mean(d <= r) * total / min(total, math.pi * r ** 2))
        assert bounds._square_perimeter_regularity(half) == float(want)

    def test_parse_domain_round_trips(self):
        assert parse_domain("interval:0,1") == Interval(0.0, 1.0)
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

    def test_empty_grid_and_sample_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            estimate_regularity(Interval(0.0, 1.0), grid=0)
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
    def test_box_constants_are_computed_once_per_box(self, monkeypatch, pid):
        p = problems.get(pid)
        names = ["estimate_regularity"]
        if p.dim == 2:
            names.append("_square_perimeter_regularity")
        original = {name: getattr(bounds, name) for name in names}
        calls = []
        for name in original:
            def counted(*args, _name=name, **kw):
                calls.append(_name)
                return original[_name](*args, **kw)
            monkeypatch.setattr(bounds, name, counted)

        def report(seed):
            return asdict(verify_bound(
                None, p, p.dictionary, n_interior=1000, n_boundary=50,
                seed=seed, predictor_fn=lambda pts: ground_truth_jet(p, pts)))

        bounds._box_regularity.cache_clear()
        first, second = report(1), report(1)
        assert calls == names
        bounds._box_regularity.cache_clear()
        assert report(1) == first == second
        assert calls == names * 2
        # the cached pair is what the public, uncached estimates give
        domain = Interval(*p.lo, *p.hi) if p.dim == 1 else Box(p.lo, p.hi)
        assert first["regularity_interior"] == original["estimate_regularity"](
            domain, mc_points=20_000)
        if p.dim == 2:
            assert first["regularity_boundary"] == \
                original["_square_perimeter_regularity"](10.0)

    def test_report_is_bitwise_at_the_old_chunk(self, monkeypatch):
        p = problems.get("poisson2d")
        _, store = train(p, p.dictionary, TrainSettings(
            iterations=3, record_every=3, seed=4))
        chunked = asdict(verify_bound(store, p, p.dictionary, seed=6))
        assert FORWARD_CHUNK < 4096
        monkeypatch.setattr(training, "FORWARD_CHUNK", 4096)
        assert asdict(verify_bound(store, p, p.dictionary, seed=6)) == chunked

    def test_report_is_bitwise_under_any_worker_count(self, chunk_workers):
        p = problems.get("poisson2d")
        _, store = train(p, p.dictionary, TrainSettings(
            iterations=3, record_every=3, seed=4))
        chunk_workers(1)
        serial = asdict(verify_bound(store, p, p.dictionary, seed=6))
        for workers in (None, 3):
            chunk_workers(workers)
            assert asdict(verify_bound(store, p, p.dictionary, seed=6)) == serial

    @pytest.mark.parametrize("slope", [0.0, 0.25])
    def test_lipschitz_constant_is_the_mismatch_slope(self, slope):
        # F = u + slope * x: F - u has gradient slope everywhere and F has
        # the residual of u; slope 0 is the oracle, whose mismatch is flat
        p = problems.get("poisson1d")

        def ramp(pts):
            j = ground_truth_jet(p, pts)
            return Jet2(j.value + slope * pts[:, 0], j.d1 + slope, j.d2)

        report = verify_bound(None, p, p.dictionary, n_interior=2000,
                              n_boundary=100, seed=5, predictor_fn=ramp)
        residual = bounds._residual(
            p, bounds._predictor(None, p, p.dictionary, False, ramp))
        alone = estimate_lipschitz(bounds._central_gradients(residual),
                                   p.lo, p.hi, seed=5 + 3)
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
