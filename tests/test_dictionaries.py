import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdpinn import diffgraph as dg
from pdpinn import problems
from pdpinn.diffgraph import Jet2, JetDomainError
from pdpinn.dictionaries import (FAMILIES, DictionarySpec, eval_dictionary,
                                 fuse, legendre_table, lift_sphere)
from pdpinn.training import operator_layout, pack_slots

from conftest import agree, fd_jet
import word_oracle
from word_oracle import const_jet


def seed2(pts):
    return Jet2.seed(np.asarray(pts, dtype=np.float64))


def fourier1d(k, pts):
    return eval_dictionary(DictionarySpec("fourier1d", k=k),
                           np.asarray(pts, dtype=np.float64))


def fourier2d(k1, k2, pts):
    return eval_dictionary(DictionarySpec("fourier2d", k1=k1, k2=k2),
                           np.asarray(pts, dtype=np.float64))


def harmonics(l_max, pts):
    return eval_dictionary(DictionarySpec("spherical-harmonics", l_max=l_max),
                           np.asarray(pts, dtype=np.float64))


class TestValueOnlyWords:
    @pytest.mark.parametrize("pid", sorted(problems.PROBLEMS))
    def test_values_are_bitwise_the_full_jet_values(self, pid, rng):
        p = problems.get(pid)
        pts = np.column_stack([rng.uniform(lo, hi, 300)
                               for lo, hi in zip(p.lo, p.hi)])
        words = eval_dictionary(p.dictionary, pts, derivatives=False)
        assert words.d1.shape[0] == words.d2.shape[0] == 0
        assert np.array_equal(words.value,
                              eval_dictionary(p.dictionary, pts).value)


def edge_and_interior_points(p, rng, n=200):
    """Uniform points in the box of ``p`` plus every corner and the middle
    of every edge; the sphere's box stops POLE_EPS short of the poles."""
    lo, hi = np.array(p.lo), np.array(p.hi)
    corners = np.array(np.meshgrid(*zip(lo, hi), indexing="ij")).reshape(p.dim, -1).T
    mids = []
    for k in range(p.dim):
        for side in (lo[k], hi[k]):
            q = (lo + hi) / 2.0
            q[k] = side
            mids.append(q)
    return np.vstack([corners, mids, rng.uniform(lo, hi, size=(n, p.dim))])


class TestClosedFormParity:
    """The closed-form words against the ``Jet2``-composed families."""

    @staticmethod
    def close(got, want):
        assert got.shape == want.shape
        scale = np.max(np.abs(want), initial=0.0)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale

    @pytest.mark.parametrize("pid", sorted(problems.PROBLEMS))
    @pytest.mark.parametrize("derivatives", [True, False])
    def test_words_match_the_jet2_families(self, pid, derivatives, rng):
        p = problems.get(pid)
        pts = edge_and_interior_points(p, rng)
        got = eval_dictionary(p.dictionary, pts, derivatives=derivatives)
        want = word_oracle.reference_dictionary(p.dictionary, pts, derivatives)
        self.close(got.value, want.value)
        assert got.d1.shape == got.d2.shape == want.d1.shape
        for k in range(got.d1.shape[-1]):
            self.close(got.d1[..., k], want.d1[..., k])
            self.close(got.d2[..., k], want.d2[..., k])

    @pytest.mark.parametrize("pid", sorted(problems.PROBLEMS))
    def test_packed_operator_slots_match(self, pid, rng):
        p = problems.get(pid)
        pts = edge_and_interior_points(p, rng)
        layout = operator_layout(p)
        got = pack_slots(p, layout, eval_dictionary(p.dictionary, pts), pts)
        want = pack_slots(p, layout, word_oracle.reference_dictionary(
            p.dictionary, pts), pts)
        for s in range(len(got)):
            self.close(got[s], want[s])

    @pytest.mark.parametrize("spec", ["none", "fourier1d:3", "fourier2d:2,4",
                                      "diffusion1d-fourier:2",
                                      "spherical-harmonics:0",
                                      "spherical-harmonics:5"])
    def test_other_sizes_and_point_shapes(self, spec, rng):
        dspec = DictionarySpec.parse(spec)
        dim = 1 if dspec.kind == "fourier1d" else 2
        pts = rng.uniform(0.1, 3.0, size=(3, 4, dim))
        got = eval_dictionary(dspec, pts)
        want = word_oracle.reference_dictionary(dspec, pts)
        assert got.value.shape == (3, 4, dspec.word_count)
        for name in ("value", "d1", "d2"):
            self.close(getattr(got, name), getattr(want, name))


class TestSpec:
    def test_word_counts(self):
        assert DictionarySpec("none").word_count == 1
        assert DictionarySpec("fourier1d", k=8).word_count == 17
        assert DictionarySpec("fourier2d", k1=5, k2=5).word_count == 25
        assert DictionarySpec("diffusion1d-fourier", k=10).word_count == 21
        assert DictionarySpec("spherical-harmonics", l_max=3).word_count == 16

    def test_parse_label_round_trip(self):
        for text in ("none", "fourier1d:8", "fourier2d:5,5",
                     "diffusion1d-fourier:10", "spherical-harmonics:3"):
            assert DictionarySpec.parse(text).label() == text
        with pytest.raises(ValueError):
            DictionarySpec.parse("wavelets:3")

    def test_parse_names_missing_parameter(self):
        with pytest.raises(ValueError, match="missing k$"):
            DictionarySpec.parse("fourier1d")
        with pytest.raises(ValueError, match="missing k2"):
            DictionarySpec.parse("fourier2d:5")
        with pytest.raises(ValueError, match="got 2"):
            DictionarySpec.parse("spherical-harmonics:3,4")

    def test_parse_names_a_non_integer_parameter(self):
        with pytest.raises(ValueError,
                           match="fourier1d parameter k: 'a' is not an integer"):
            DictionarySpec.parse("fourier1d:a")
        with pytest.raises(ValueError,
                           match="fourier2d parameter k2: '' is not an integer"):
            DictionarySpec.parse("fourier2d:5,")
        with pytest.raises(ValueError, match="takes 1 parameter"):
            DictionarySpec.parse("fourier1d:8,")

    @given(st.one_of(
        st.text(max_size=30),
        st.builds(lambda kind, vals: f"{kind}:" + ",".join(vals),
                  st.sampled_from(["none", "fourier1d", "fourier2d",
                                   "diffusion1d-fourier", "spherical-harmonics",
                                   "wavelets"]),
                  st.lists(st.one_of(st.integers(-3, 10**6).map(str),
                                     st.sampled_from(["", "a", " 4", "1.5", "-0"])),
                           max_size=3))))
    @settings(max_examples=300, deadline=None)
    def test_parse_yields_a_round_tripping_spec_or_value_error(self, text):
        # only parse and label: a fuzzed spec may be far too large to build
        try:
            spec = DictionarySpec.parse(text)
        except ValueError:
            return
        assert DictionarySpec.parse(spec.label()) == spec

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DictionarySpec("fourier1d", k=0)
        with pytest.raises(ValueError):
            DictionarySpec("fourier2d", k1=1, k2=0)


def least_spec(kind, **override):
    params = {name: least for name, least in FAMILIES[kind].params}
    return DictionarySpec(kind, **{**params, **override})


@pytest.mark.parametrize("kind", list(FAMILIES))
class TestFamilies:
    def test_label_round_trips_at_least_parameters(self, kind):
        spec = least_spec(kind)
        assert DictionarySpec.parse(spec.label()) == spec

    def test_word_count_is_the_width_of_the_words(self, kind, rng):
        for grow in (0, 2):
            spec = least_spec(kind, **{name: least + grow for name, least
                                       in FAMILIES[kind].params})
            pts = rng.uniform(0.1, 3.0, size=(6, 2))
            for derivatives in (True, False):
                words = eval_dictionary(spec, pts, derivatives)
                assert words.value.shape == (6, spec.word_count)

    def test_below_least_names_the_parameter(self, kind):
        for name, least in FAMILIES[kind].params:
            with pytest.raises(ValueError, match=f"{name} >= {least}"):
                least_spec(kind, **{name: least - 1})

    def test_words_are_constant_along_unread_coordinates(self, kind, rng):
        reads = FAMILIES[kind].reads
        pts = rng.uniform(0.1, 3.0, size=(40, reads + 2))
        for _ in range(3):
            # dirty the allocator, so unwritten entries would show
            junk = np.full((reads + 2) * 40 * 16, np.nan)
            del junk
            words = eval_dictionary(least_spec(kind), pts)
            assert np.all(words.d1[reads:] == 0.0)
            assert np.all(words.d2[reads:] == 0.0)

    def test_too_few_coordinates_rejected(self, kind):
        reads = FAMILIES[kind].reads
        with pytest.raises(ValueError, match=f"read {reads} coordinates"):
            eval_dictionary(least_spec(kind), np.zeros((4, reads - 1)))


class TestFourier1d:
    def test_values_at_origin(self):
        words = fourier1d(2, [[0.0]])
        assert np.allclose(words.value[0], [1.0, 1.0, 0.0, 1.0, 0.0])

    def test_second_derivative_of_the_second_sine(self):
        # sin(2 pi x/10) peaks at x = 2.5, where its d2 is -(pi/5)^2
        words = fourier1d(2, [[2.5]])
        assert words.value[0, 4] == pytest.approx(1.0, rel=1e-12)
        assert words.d2[0, 0, 4] == pytest.approx(-(np.pi / 5) ** 2, rel=1e-12)

    def test_word_count_k8(self):
        words = fourier1d(8, [[0.3]])
        assert words.value.shape[-1] == 17

    def test_jets_match_finite_differences(self, rng):
        pts = rng.uniform(-10, 10, size=(50, 1))

        def values(q):
            return fourier1d(5, q).value

        jet = fourier1d(5, pts)
        for j in range(11):
            d1, d2 = fd_jet(lambda q, j=j: values(q)[:, j], pts)
            assert agree(jet.d1[..., j], d1, 1e-5)
            assert agree(jet.d2[..., j], d2, 1e-5)

    def test_orthogonal_on_the_domain(self):
        # trapezoid quadrature on the periodic interval is effectively exact
        n = 10_000
        xs = np.linspace(-10.0, 10.0, n, endpoint=False) + 10.0 / n
        words = fourier1d(8, xs[:, None]).value
        gram = words.T @ words * (20.0 / n)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-6


class TestFourier2d:
    def test_word_count(self):
        words = fourier2d(5, 5, [[0.3, 0.4]])
        assert words.value.shape[-1] == 25

    def test_only_constant_survives_at_corner(self):
        words = fourier2d(5, 5, [[-10.0, -10.0]])
        vals = words.value[0]
        assert vals[0] == pytest.approx(1.0)
        assert np.max(np.abs(vals[1:])) < 1e-15

    def test_scaled_sine_word(self):
        # the word sin(2 pi u)/2 at u = (x+10)/20 = 1/4: value 1/2,
        # d2 = -(2 pi)^2 / 2 in u, times (du/dx)^2 = 1/400 in x
        words = fourier2d(3, 1, [[-5.0, -8.0]])
        w = words.component(2)      # families are [1, sin(pi u), sin(2 pi u)/2]
        assert w.value[0] == pytest.approx(0.5)
        assert w.d1[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert w.d2[0, 0] == pytest.approx(-2.0 * np.pi ** 2 / 400.0, rel=1e-12)

    def test_dictionary_normalizes_raw_coordinates(self, rng):
        spec = DictionarySpec("fourier2d", k1=5, k2=5)
        pts = rng.uniform(-10, 10, size=(40, 2))
        words = eval_dictionary(spec, pts)
        # y-boundary rows vanish for every sine-in-y word
        edge = eval_dictionary(spec, np.column_stack([pts[:, 0],
                                                      np.full(40, 10.0)]))
        sine_in_y = [i for i in range(25) if i % 5 != 0]
        assert np.max(np.abs(edge.value[:, sine_in_y])) < 1e-12

        for j in (0, 7, 13, 24):
            d1, d2 = fd_jet(lambda q, j=j: eval_dictionary(spec, q).value[:, j], pts)
            assert agree(words.d1[..., j], d1, 1e-5)
            assert agree(words.d2[..., j], d2, 1e-5)


class TestLift:
    def test_equator_point(self):
        x = seed2([[np.pi / 2, 0.0]])
        out = lift_sphere(x.component(0), x.component(1))
        assert np.allclose(out.value[0], [0.0, 1.0, 0.0], atol=1e-15)

    def test_unit_norm_identity(self, rng):
        pts = rng.uniform([0.1, 0.0], [np.pi - 0.1, 2 * np.pi], size=(200, 2))
        x = seed2(pts)
        out = lift_sphere(x.component(0), x.component(1))
        norms = np.sum(out.value ** 2, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_reference_point(self):
        x = seed2([[1.0, 1.0]])
        out = lift_sphere(x.component(0), x.component(1))
        want = (0.7080734182735712, 0.4546487134128409, 0.5403023058681398)
        assert np.allclose(out.value[0], want, rtol=1e-15, atol=0)

    def test_jets_match_finite_differences(self, rng):
        pts = rng.uniform([0.2, 0.0], [np.pi - 0.2, 2 * np.pi], size=(60, 2))

        def values(q, j):
            x = seed2(q)
            return lift_sphere(x.component(0), x.component(1)).value[:, j]

        out = lift_sphere(seed2(pts).component(0), seed2(pts).component(1))
        for j in range(3):
            d1, d2 = fd_jet(lambda q, j=j: values(q, j), pts)
            assert agree(out.d1[..., j], d1, 1e-5)
            assert agree(out.d2[..., j], d2, 1e-5)


class TestAssocLegendre:
    def test_degree_zero_is_one(self, rng):
        t = rng.uniform(-1, 1, size=20)
        p, dp, d2p = legendre_table(0, t)[..., 0, 0]
        assert np.all(p == 1.0)
        assert np.all(dp == 0.0)
        assert np.all(d2p == 0.0)

    def test_degree_one_closed_forms(self):
        t = np.array([-0.7, 0.0, 0.4])
        p, dp, _ = legendre_table(1, t)[..., 1, 0]
        assert np.allclose(p, t)
        assert np.allclose(dp, 1.0)
        assert legendre_table(1, np.array([0.0]))[0, 0, 1, 1] == pytest.approx(1.0)

    def test_p32_against_closed_form(self):
        # P_3^2(t) = 15 t (1 - t^2)
        p, dp, d2p = legendre_table(3, np.array([0.5]))[:, 0, 3, 2]
        assert p == pytest.approx(5.625)
        assert dp == pytest.approx(15.0 * (1.0 - 3.0 * 0.25))
        assert d2p == pytest.approx(-90.0 * 0.5)

    def test_derivatives_match_finite_differences(self, rng):
        t = rng.uniform(-0.9, 0.9, size=(40, 1))
        table = legendre_table(4, t[:, 0])
        for l in range(5):
            for m in range(l + 1):
                d1, d2 = fd_jet(
                    lambda q, l=l, m=m: legendre_table(4, q[:, 0])[0, :, l, m], t)
                assert agree(table[1, :, l, m], d1[0], 1e-5)
                assert agree(table[2, :, l, m], d2[0], 1e-4)

    def test_one_recurrence_matches_a_restart_per_degree_and_order(self, rng):
        t = np.concatenate([rng.uniform(-1, 1, 50),
                            np.cos([problems.POLE_EPS, np.pi - problems.POLE_EPS])])
        table = legendre_table(6, t)
        values = legendre_table(6, t, derivatives=False)
        assert values.shape == (1,) + table.shape[1:]
        assert np.array_equal(values[0], table[0])
        for l in range(7):
            assert np.all(table[:, :, l, l + 1:] == 0.0)
            for m in range(l + 1):
                want = word_oracle.assoc_legendre(l, m, t)
                for got, ref in zip(table[:, :, l, m], want):
                    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="l_max"):
            legendre_table(-1, np.array([0.0]))
        with pytest.raises(JetDomainError):
            legendre_table(2, np.array([1.5]))


class TestSphericalHarmonics:
    def test_word_count_and_constant(self, rng):
        pts = rng.uniform([0.2, 0.0], [np.pi - 0.2, 2 * np.pi], size=(30, 2))
        words = harmonics(3, pts)
        assert words.value.shape[-1] == 16
        c = 1.0 / math.sqrt(4.0 * math.pi)
        assert np.allclose(words.value[:, 0], c)
        assert np.max(np.abs(words.d1[..., 0])) == 0.0
        assert np.max(np.abs(words.d2[..., 0])) == 0.0

    def test_eigenfunctions_of_sphere_operator(self, rng):
        p = problems.get("sphere")
        pts = np.column_stack([
            np.arccos(rng.uniform(np.cos(np.pi - 0.01), np.cos(0.01), 100)),
            rng.uniform(0.0, 2 * np.pi, 100),
        ])
        words = harmonics(3, pts)
        i = 0
        for l in range(4):
            lam = -l * (l + 1)
            for _ in range(2 * l + 1):
                w = words.component(i)
                applied = problems.apply_operator(p, w, pts)
                if l == 0:
                    assert np.max(np.abs(applied)) < 1e-8
                else:
                    rel = np.abs(applied - lam * w.value) / np.abs(lam * w.value).max()
                    assert np.max(rel) < 1e-8
                i += 1

    def test_orthonormal_gram_by_area_weighted_monte_carlo(self, rng):
        z = rng.uniform(-1.0, 1.0, size=100_000)
        pts = np.column_stack([np.arccos(z), rng.uniform(0, 2 * np.pi, z.size)])
        words = harmonics(3, pts).value
        gram = words.T @ words * (4.0 * np.pi / z.size)
        assert np.max(np.abs(gram - np.eye(16))) < 2e-2

    def test_jets_match_finite_differences(self, rng):
        pts = rng.uniform([0.3, 0.5], [np.pi - 0.3, 2 * np.pi - 0.5], size=(40, 2))

        def values(q, j):
            return harmonics(3, q).value[:, j]

        words = harmonics(3, pts)
        for j in (1, 4, 9, 12, 15):
            d1, d2 = fd_jet(lambda q, j=j: values(q, j), pts)
            assert agree(words.d1[..., j], d1, 1e-5)
            assert agree(words.d2[..., j], d2, 1e-5)


class TestFuse:
    def test_dot_product_value(self):
        words = fourier1d(2, [[0.0]])
        net = const_jet(np.array([[0.5, -0.5, 1.0, 0.25, 2.0]]), 1)
        out = fuse(words, net)
        assert out.value[0] == pytest.approx(0.25)

    def test_zero_network_gives_zero(self, rng):
        pts = rng.uniform(-3, 3, size=(10, 1))
        words = fourier1d(3, pts)
        net = const_jet(np.zeros((10, 7)), 1)
        out = fuse(words, net)
        assert np.all(out.value == 0.0)
        assert np.all(out.d1 == 0.0)
        assert np.all(out.d2 == 0.0)

    def test_bilinear_in_network_outputs(self, rng):
        pts = rng.uniform(-3, 3, size=(10, 1))
        words = fourier1d(3, pts)

        def random_jet():
            return Jet2(rng.normal(size=(10, 7)), rng.normal(size=(1, 10, 7)),
                        rng.normal(size=(1, 10, 7)))

        n1, n2 = random_jet(), random_jet()
        a, b = 0.37, -1.21
        lhs = fuse(words, n1 * a + n2 * b)
        rhs = fuse(words, n1) * a + fuse(words, n2) * b
        for lv, rv in ((lhs.value, rhs.value), (lhs.d1, rhs.d1), (lhs.d2, rhs.d2)):
            assert np.max(np.abs(lv - rv)) < 1e-12 * max(1.0, np.max(np.abs(rv)))

    def test_length_mismatch_raises(self, rng):
        pts = rng.uniform(-3, 3, size=(4, 1))
        words = fourier1d(2, pts)
        with pytest.raises(ValueError, match="fuse"):
            fuse(words, const_jet(np.zeros((4, 3)), 1))

    def test_product_rule_against_finite_differences(self, rng):
        spec = DictionarySpec("fourier1d", k=4)
        pts = rng.uniform(-5, 5, size=(30, 1))

        def predictor(q):
            words = eval_dictionary(spec, q)
            x = seed2(q).component(0)
            env = dg.stack_jets([dg.tanh(x * (0.1 * (j + 1))) for j in range(9)])
            return fuse(words, env)

        out = predictor(pts)
        d1, d2 = fd_jet(lambda q: predictor(q).value, pts)
        assert agree(out.d1, d1, 1e-5)
        assert agree(out.d2, d2, 1e-5)
