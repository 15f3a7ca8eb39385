import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdpinn import diffgraph as dg
from pdpinn.diffgraph import Jet2, NonFiniteError, ParamStore
from pdpinn.network import SlotLayout

from conftest import agree, fd_jet, fd_loss_gradient


def scalar_jet(x):
    return Jet2.seed(np.array([[x]])).component(0)


class TestLayout:
    """Every jet keeps its derivative slots first: d1[k] is shaped like
    the value."""

    def test_seed_slots_are_the_unit_fields(self, rng):
        pts = rng.uniform(-1.0, 1.0, size=(6, 3))
        x = Jet2.seed(pts)
        assert x.dim == x.d1.shape[0] == 3
        assert x.d1.shape == x.d2.shape == (3, 6, 3)
        for k in range(3):
            unit = np.zeros((6, 3))
            unit[:, k] = 1.0
            assert np.array_equal(x.d1[k], unit)
        assert np.all(x.d2 == 0.0)

    def test_component_stack_and_sum_keep_the_slot_axis_first(self, rng):
        x = Jet2.seed(rng.uniform(-1.0, 1.0, size=(5, 2)))
        c = x.component(1)
        assert c.d1.shape == (2, 5)
        assert np.array_equal(c.d1[1], np.ones(5))
        s = dg.stack_jets([c, x.component(0), c])
        assert s.value.shape == (5, 3)
        assert s.d1.shape == s.d2.shape == (2, 5, 3)
        assert np.array_equal(s.d1[0, :, 1], np.ones(5))
        total = dg.sum_words(s)
        assert total.d1.shape == (2, 5)
        assert np.array_equal(total.d1, [np.ones(5), 2.0 * np.ones(5)])

    def test_pack_stacks_the_selected_slots(self, rng):
        jet = Jet2(rng.normal(size=(4, 7)), rng.normal(size=(3, 4, 7)),
                   rng.normal(size=(3, 4, 7)))
        op = rng.normal(size=(4, 7))
        for d1 in ((0, 1, 2), (2, 0), ()):
            layout = SlotLayout(("x", "y", "z"), d1=d1, operator=True)
            assert np.array_equal(layout.pack(jet, op),
                                  np.stack([jet.value, *jet.d1[list(d1)], op]))


class TestPrimitives:
    def test_square_of_coordinate(self):
        x = scalar_jet(3.0)
        h = dg.mul(x, x)
        assert h.value[0] == 9.0
        assert h.d1[0, 0] == 6.0
        assert h.d2[0, 0] == 2.0

    def test_sin_of_scaled_coordinate(self):
        x = scalar_jet(np.pi / 4)
        s = dg.sin(x * 2.0)
        assert np.isclose(s.d2[0, 0], -4.0, atol=1e-12)

    def test_tanh_at_origin(self):
        t = dg.tanh(scalar_jet(0.0))
        assert t.value[0] == 0.0
        assert t.d1[0, 0] == 1.0
        assert t.d2[0, 0] == 0.0

    def test_integer_power_chain(self):
        x = scalar_jet(2.0)
        p = dg.powi(x, 5)
        assert p.value[0] == 32.0
        assert p.d1[0, 0] == 80.0
        assert p.d2[0, 0] == 160.0

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_product_rule_symmetry_is_bitwise(self, a, b, c, e):
        f = Jet2(np.float64(a), np.array([b, 0.1]), np.array([c, -0.3]))
        g = Jet2(np.float64(e), np.array([0.7, a]), np.array([b, c]))
        fg, gf = dg.mul(f, g), dg.mul(g, f)
        assert np.array_equal(fg.value, gf.value)
        assert np.array_equal(fg.d1, gf.d1)
        assert np.array_equal(fg.d2, gf.d2)


class TestFiniteDifferenceOracle:
    def composed(self, pts):
        x = Jet2.seed(pts)
        a, b = x.component(0), x.component(1)
        return (dg.mul(dg.sin(a * 1.3), dg.tanh(b))
                + dg.mul(dg.powi(b, 3), dg.cos(a))
                - dg.mul(a, b) * 0.5)

    def test_jets_match_central_differences(self, rng):
        pts = rng.uniform(-2.0, 2.0, size=(120, 2))
        jet = self.composed(pts)
        d1, d2 = fd_jet(lambda q: self.composed(q).value, pts)
        assert agree(jet.d1, d1, 1e-5)
        assert agree(jet.d2, d2, 1e-5)


def tiny_traced_network(store, pts, target):
    leaves = dg.wrap_params(store)
    x = dg.trace_input(Jet2.seed(pts))
    h = x
    for i, (W, b) in enumerate(leaves):
        h = dg.affine(h, W, b)
        if i < len(leaves) - 1:
            h = dg.tanh(h)
    out = dg.sum_words(h)            # width-1 output to a scalar jet
    res = out.d2_arr(0) + out.value_arr() - target
    return (res * res).mean(), leaves


class TestParameterGradient:
    def test_scalar_quadratic_gradient(self):
        store = ParamStore([(np.array([[2.0]]), np.array([0.0]))])
        leaves = dg.wrap_params(store)
        x = dg.trace_input(Jet2.seed(np.array([[1.0]])))
        out = dg.affine(x, leaves[0][0], leaves[0][1])
        m = out.value_arr() - 1.0
        loss = (m * m).mean()
        grad = dg.loss_parameter_gradient(loss, leaves)
        assert grad[0] == pytest.approx(2.0)     # 2 (Wx - c) x at W=2, x=1, c=1

    def test_gradient_matches_finite_differences(self, rng):
        store = ParamStore([
            (rng.uniform(-0.5, 0.5, (7, 2)), rng.uniform(-0.5, 0.5, 7)),
            (rng.uniform(-0.5, 0.5, (5, 7)), rng.uniform(-0.5, 0.5, 5)),
            (rng.uniform(-0.5, 0.5, (1, 5)), rng.uniform(-0.5, 0.5, 1)),
        ])
        pts = rng.uniform(-1.0, 1.0, size=(8, 2))
        target = rng.uniform(-1.0, 1.0, size=8)
        loss, leaves = tiny_traced_network(store, pts, target)
        grad = dg.loss_parameter_gradient(loss, leaves)
        idx = rng.choice(store.n_params, size=20, replace=False)

        def loss_value(s):
            val, _ = tiny_traced_network(s, pts, target)
            return float(val.arr)

        fd = fd_loss_gradient(loss_value, store, idx)
        assert agree(grad[idx], fd, 1e-5)

    def test_zero_residual_has_zero_gradient(self, rng):
        store = ParamStore([
            (rng.uniform(-0.5, 0.5, (4, 1)), rng.uniform(-0.5, 0.5, 4)),
            (np.zeros((1, 4)), np.zeros(1)),
        ])
        pts = rng.uniform(-1, 1, (6, 1))

        def build(target):
            leaves = dg.wrap_params(store)
            x = dg.trace_input(Jet2.seed(pts))
            out = dg.affine(dg.tanh(dg.affine(x, *leaves[0])), *leaves[1])
            m = out.value_arr() - target
            return (m * m).mean(), leaves

        loss, leaves = build(0.0)     # zero net output, zero target
        assert np.all(dg.loss_parameter_gradient(loss, leaves) == 0.0)
        loss, leaves = build(1.0)     # nonzero residual: final bias feels it
        grad = dg.loss_parameter_gradient(loss, leaves)
        assert abs(grad[-1]) > 0.0

    def test_nonfinite_intermediate_names_node(self):
        store = ParamStore([(np.array([[1e308]]), np.array([1e308]))])
        leaves = dg.wrap_params(store)
        x = dg.trace_input(Jet2.seed(np.array([[1e3]])))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="affine"):
            y = dg.affine(x, *leaves[0])
            _ = dg.affine(y, *leaves[0])


class TestParamStore:
    def test_dimension_chaining_enforced(self):
        with pytest.raises(ValueError):
            ParamStore([(np.zeros((3, 2)), np.zeros(3)),
                        (np.zeros((4, 5)), np.zeros(4))])

    def test_flat_round_trip(self, rng):
        store = ParamStore([
            (rng.normal(size=(3, 2)), rng.normal(size=3)),
            (rng.normal(size=(2, 3)), rng.normal(size=2)),
        ])
        assert store.n_params == 3 * 2 + 3 + 2 * 3 + 2
        vec = store.flat()
        other = store.copy()
        other.set_flat(np.zeros_like(vec))
        assert np.all(other.flat() == 0.0)
        other.set_flat(vec)
        assert np.array_equal(other.flat(), vec)
        with pytest.raises(ValueError):
            store.set_flat(np.zeros(store.n_params + 1))
