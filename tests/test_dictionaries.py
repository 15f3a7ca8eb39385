import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdpinn import diffgraph as dg
from pdpinn import problems
from pdpinn.diffgraph import Jet2, JetDomainError
from pdpinn.dictionaries import (DictionarySpec, assoc_legendre, eval_dictionary,
                                 eval_fourier1d, eval_fourier2d,
                                 eval_spherical_harmonics, fuse, lift_sphere)

from conftest import agree, fd_jet


def seed2(pts):
    return Jet2.seed(np.asarray(pts, dtype=np.float64))


class TestValueOnlyWords:
    @pytest.mark.parametrize("pid", sorted(problems.PROBLEMS))
    def test_values_are_bitwise_the_full_jet_values(self, pid, rng):
        p = problems.get(pid)
        pts = np.column_stack([rng.uniform(lo, hi, 300)
                               for lo, hi in zip(p.lo, p.hi)])
        words = eval_dictionary(p.dictionary, pts, derivatives=False)
        assert words.d1.shape[-1] == words.d2.shape[-1] == 0
        assert np.array_equal(words.value,
                              eval_dictionary(p.dictionary, pts).value)


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


class TestFourier1d:
    def test_values_at_origin(self):
        words = eval_fourier1d(2, seed2([[0.0]]).component(0))
        assert np.allclose(words.value[0], [1.0, 1.0, 0.0, 1.0, 0.0])

    def test_second_derivative_of_sin2x(self):
        x = seed2([[np.pi / 4]]).component(0)
        words = eval_fourier1d(2, x)
        assert words.d2[0, 4, 0] == pytest.approx(-4.0, rel=1e-12)

    def test_word_count_k8(self):
        words = eval_fourier1d(8, seed2([[0.3]]).component(0))
        assert words.value.shape[-1] == 17

    def test_jets_match_finite_differences(self, rng):
        pts = rng.uniform(-10, 10, size=(50, 1))

        def values(q):
            return eval_fourier1d(5, seed2(q).component(0)).value

        jet = eval_fourier1d(5, seed2(pts).component(0))
        for j in range(11):
            d1, d2 = fd_jet(lambda q, j=j: values(q)[:, j], pts)
            assert agree(jet.d1[:, j, :], d1, 1e-5)
            assert agree(jet.d2[:, j, :], d2, 1e-5)

    def test_orthogonal_on_symmetric_interval(self):
        # trapezoid quadrature on the periodic interval is effectively exact
        n = 10_000
        xs = np.linspace(-np.pi, np.pi, n, endpoint=False) + np.pi / n
        words = eval_fourier1d(8, seed2(xs[:, None]).component(0)).value
        gram = words.T @ words * (2.0 * np.pi / n)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-6


class TestFourier2d:
    def test_word_count(self):
        x = seed2([[0.3, 0.4]])
        words = eval_fourier2d(5, 5, x.component(0), x.component(1))
        assert words.value.shape[-1] == 25

    def test_only_constant_survives_at_corner(self):
        x = seed2([[0.0, 0.0]])
        words = eval_fourier2d(5, 5, x.component(0), x.component(1))
        vals = words.value[0]
        assert vals[0] == pytest.approx(1.0)
        assert np.max(np.abs(vals[1:])) < 1e-15

    def test_scaled_sine_word(self):
        # the word sin(2 pi u)/2 at u = 1/4: value 1/2, d2 = -(2 pi)^2 / 2
        x = seed2([[0.25, 0.1]])
        words = eval_fourier2d(3, 1, x.component(0), x.component(1))
        w = words.component(2)      # families are [1, sin(pi u), sin(2 pi u)/2]
        assert w.value[0] == pytest.approx(0.5)
        assert w.d2[0, 0] == pytest.approx(-2.0 * np.pi ** 2, rel=1e-12)

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
            assert agree(words.d1[:, j, :], d1, 1e-5)
            assert agree(words.d2[:, j, :], d2, 1e-5)


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
            assert agree(out.d1[:, j, :], d1, 1e-5)
            assert agree(out.d2[:, j, :], d2, 1e-5)


class TestAssocLegendre:
    def test_degree_zero_is_one(self, rng):
        t = rng.uniform(-1, 1, size=20)
        p, dp, d2p = assoc_legendre(0, 0, t)
        assert np.all(p == 1.0)
        assert np.all(dp == 0.0)
        assert np.all(d2p == 0.0)

    def test_degree_one_closed_forms(self):
        t = np.array([-0.7, 0.0, 0.4])
        p, dp, _ = assoc_legendre(1, 0, t)
        assert np.allclose(p, t)
        assert np.allclose(dp, 1.0)
        p11, _, _ = assoc_legendre(1, 1, np.array([0.0]))
        assert p11[0] == pytest.approx(1.0)

    def test_p32_against_closed_form(self):
        # P_3^2(t) = 15 t (1 - t^2)
        p, dp, d2p = assoc_legendre(3, 2, np.array([0.5]))
        assert p[0] == pytest.approx(5.625)
        assert dp[0] == pytest.approx(15.0 * (1.0 - 3.0 * 0.25))
        assert d2p[0] == pytest.approx(-90.0 * 0.5)

    def test_derivatives_match_finite_differences(self, rng):
        t = rng.uniform(-0.9, 0.9, size=(40, 1))
        for l in range(5):
            for m in range(l + 1):
                p, dp, d2p = assoc_legendre(l, m, t[:, 0])
                d1, d2 = fd_jet(lambda q, l=l, m=m: assoc_legendre(l, m, q[:, 0])[0], t)
                assert agree(dp, d1[:, 0], 1e-5)
                assert agree(d2p, d2[:, 0], 1e-4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            assoc_legendre(1, 2, np.array([0.0]))
        with pytest.raises(JetDomainError):
            assoc_legendre(2, 1, np.array([1.5]))


class TestSphericalHarmonics:
    def test_word_count_and_constant(self, rng):
        pts = rng.uniform([0.2, 0.0], [np.pi - 0.2, 2 * np.pi], size=(30, 2))
        x = seed2(pts)
        words = eval_spherical_harmonics(3, x.component(0), x.component(1))
        assert words.value.shape[-1] == 16
        c = 1.0 / math.sqrt(4.0 * math.pi)
        assert np.allclose(words.value[:, 0], c)
        assert np.max(np.abs(words.d1[:, 0, :])) == 0.0
        assert np.max(np.abs(words.d2[:, 0, :])) == 0.0

    def test_eigenfunctions_of_sphere_operator(self, rng):
        p = problems.get("sphere")
        pts = np.column_stack([
            np.arccos(rng.uniform(np.cos(np.pi - 0.01), np.cos(0.01), 100)),
            rng.uniform(0.0, 2 * np.pi, 100),
        ])
        x = seed2(pts)
        words = eval_spherical_harmonics(3, x.component(0), x.component(1))
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
        x = seed2(pts)
        words = eval_spherical_harmonics(3, x.component(0), x.component(1)).value
        gram = words.T @ words * (4.0 * np.pi / z.size)
        assert np.max(np.abs(gram - np.eye(16))) < 2e-2

    def test_jets_match_finite_differences(self, rng):
        pts = rng.uniform([0.3, 0.5], [np.pi - 0.3, 2 * np.pi - 0.5], size=(40, 2))

        def values(q, j):
            x = seed2(q)
            return eval_spherical_harmonics(3, x.component(0), x.component(1)).value[:, j]

        x = seed2(pts)
        words = eval_spherical_harmonics(3, x.component(0), x.component(1))
        for j in (1, 4, 9, 12, 15):
            d1, d2 = fd_jet(lambda q, j=j: values(q, j), pts)
            assert agree(words.d1[:, j, :], d1, 1e-5)
            assert agree(words.d2[:, j, :], d2, 1e-5)


class TestFuse:
    def test_dot_product_value(self):
        x = seed2([[0.0]]).component(0)
        words = eval_fourier1d(2, x)
        net = Jet2.const(np.array([[0.5, -0.5, 1.0, 0.25, 2.0]]), 1)
        out = fuse(words, net)
        assert out.value[0] == pytest.approx(0.25)

    def test_zero_network_gives_zero(self, rng):
        pts = rng.uniform(-3, 3, size=(10, 1))
        words = eval_fourier1d(3, seed2(pts).component(0))
        net = Jet2.const(np.zeros((10, 7)), 1)
        out = fuse(words, net)
        assert np.all(out.value == 0.0)
        assert np.all(out.d1 == 0.0)
        assert np.all(out.d2 == 0.0)

    def test_bilinear_in_network_outputs(self, rng):
        pts = rng.uniform(-3, 3, size=(10, 1))
        words = eval_fourier1d(3, seed2(pts).component(0))

        def random_jet():
            return Jet2(rng.normal(size=(10, 7)), rng.normal(size=(10, 7, 1)),
                        rng.normal(size=(10, 7, 1)))

        n1, n2 = random_jet(), random_jet()
        a, b = 0.37, -1.21
        lhs = fuse(words, n1 * a + n2 * b)
        rhs = fuse(words, n1) * a + fuse(words, n2) * b
        for lv, rv in ((lhs.value, rhs.value), (lhs.d1, rhs.d1), (lhs.d2, rhs.d2)):
            assert np.max(np.abs(lv - rv)) < 1e-12 * max(1.0, np.max(np.abs(rv)))

    def test_length_mismatch_raises(self, rng):
        pts = rng.uniform(-3, 3, size=(4, 1))
        words = eval_fourier1d(2, seed2(pts).component(0))
        with pytest.raises(ValueError, match="fuse"):
            fuse(words, Jet2.const(np.zeros((4, 3)), 1))

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
        assert agree(out.d1[:, 0], d1[:, 0], 1e-5)
        assert agree(out.d2[:, 0], d2[:, 0], 1e-5)
