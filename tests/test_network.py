import struct

import numpy as np
import pytest

from pdpinn.diffgraph import Jet2, ParamStore, layer_views
from pdpinn.network import (MlpConfig, SlotBuffers, init_mlp, load_checkpoint,
                            mlp_forward, save_checkpoint)
from pdpinn.training import AdamState, adam_step

from conftest import agree, fd_jet


class TestInit:
    def test_bounds_follow_fan_in(self):
        cfg = MlpConfig(input_dim=1, hidden_widths=(50, 50), output_dim=3, seed=9)
        store = init_mlp(cfg)
        W1, b1 = store.layers[0]
        assert np.max(np.abs(W1)) <= 1.0          # fan-in 1
        assert np.max(np.abs(b1)) <= 1.0
        W2, b2 = store.layers[1]
        bound = 1.0 / np.sqrt(50.0)
        assert np.max(np.abs(W2)) <= bound        # fan-in 50
        assert np.max(np.abs(b2)) <= bound
        # the draw actually fills the range instead of collapsing
        assert np.max(np.abs(W2)) > 0.9 * bound

    def test_seed_reproducibility(self):
        cfg = MlpConfig(2, (8,), 3, seed=123)
        a, b = init_mlp(cfg), init_mlp(cfg)
        assert np.array_equal(a.flat(), b.flat())
        c = init_mlp(MlpConfig(2, (8,), 3, seed=124))
        assert not np.array_equal(a.flat(), c.flat())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MlpConfig(0, (5,), 1)
        with pytest.raises(ValueError):
            MlpConfig(1, (), 1)
        with pytest.raises(ValueError):
            MlpConfig(1, (5, 0), 1)


class TestForward:
    def test_zero_parameters_give_zero_jets(self):
        store = init_mlp(MlpConfig(2, (6, 6), 4, seed=0))
        store.set_flat(np.zeros(store.n_params))
        out = mlp_forward(store.layers, Jet2.seed(np.zeros((5, 2))))
        assert np.all(out.value == 0.0)
        assert np.all(out.d1 == 0.0)
        assert np.all(out.d2 == 0.0)

    def test_identity_composition_at_origin(self):
        layers = [(np.array([[1.0]]), np.array([0.0])),
                  (np.array([[1.0]]), np.array([0.0]))]
        out = mlp_forward(layers, Jet2.seed(np.array([[0.0]])))
        assert out.value[0, 0] == 0.0
        assert out.d1[0, 0, 0] == 1.0

    def test_jets_match_finite_differences(self, rng):
        store = init_mlp(MlpConfig(2, (7, 7, 7), 3, seed=5))
        pts = rng.uniform(-1.5, 1.5, size=(40, 2))
        out = mlp_forward(store.layers, Jet2.seed(pts))
        for j in range(3):
            d1, d2 = fd_jet(
                lambda q, j=j: mlp_forward(store.layers, Jet2.seed(q)).value[:, j],
                pts)
            assert agree(out.d1[..., j], d1, 1e-5)
            assert agree(out.d2[..., j], d2, 1e-5)

    def test_final_layer_is_linear(self, rng):
        store = init_mlp(MlpConfig(1, (6,), 2, seed=3))
        pts = rng.uniform(-1, 1, size=(4, 1))
        base = mlp_forward(store.layers, Jet2.seed(pts))
        scaled = store.copy()
        W, b = scaled.layers[-1]
        W *= 2.0
        b *= 2.0
        out = mlp_forward(scaled.layers, Jet2.seed(pts))
        assert np.array_equal(out.value, 2.0 * base.value)
        assert np.array_equal(out.d1, 2.0 * base.d1)
        assert np.array_equal(out.d2, 2.0 * base.d2)

    def test_dimension_mismatch_raises(self):
        store = init_mlp(MlpConfig(2, (4,), 1, seed=0))
        with pytest.raises(ValueError):
            mlp_forward(store.layers, Jet2.seed(np.zeros((3, 3))))

    def test_jets_stay_finite(self, rng):
        store = init_mlp(MlpConfig(2, (50, 50, 50), 17, seed=1))
        pts = rng.uniform(-10.0, 10.0, size=(50, 2))
        out = mlp_forward(store.layers, Jet2.seed(pts))
        for arr in (out.value, out.d1, out.d2):
            assert np.all(np.isfinite(arr))


def hand_layers():
    return [(np.array([[1.0, -2.0], [0.5, 3.0], [4.0, 0.25]]),
             np.array([0.1, 0.2, 0.3])),
            (np.array([[-1.5, 2.5, 7.0]]), np.array([-0.75]))]


class TestParamStore:
    def test_layers_are_views_of_theta(self):
        store = init_mlp(MlpConfig(2, (5, 4), 3, seed=1))
        for W, b in store.layers:
            assert np.shares_memory(W, store.theta)
            assert np.shares_memory(b, store.theta)
        assert store.n_params == store.theta.size == 15 + 24 + 15

    def test_theta_is_in_layer_order(self):
        store = ParamStore(hand_layers())
        assert store.theta.tolist() == [1.0, -2.0, 0.5, 3.0, 4.0, 0.25,
                                        0.1, 0.2, 0.3, -1.5, 2.5, 7.0, -0.75]
        views = layer_views([(3, 2), (1, 3)], store.theta)
        for (W, b), (Wv, bv) in zip(store.layers, views):
            assert np.array_equal(W, Wv) and np.array_equal(b, bv)

    def test_adam_step_moves_layers_in_place(self):
        store = ParamStore(hand_layers())
        W0 = store.layers[0][0]
        before = W0.copy()
        adam_step(AdamState.init(store.n_params), store,
                  np.ones(store.n_params))
        assert store.layers[0][0] is W0
        assert np.all(W0 < before)

    def test_flat_is_a_copy(self):
        store = ParamStore(hand_layers())
        vec = store.flat()
        vec[:] = 0.0
        assert store.layers[0][0][0, 0] == 1.0
        store.set_flat(vec)
        assert np.all(store.layers[1][1] == 0.0)

    def test_constructor_does_not_alias_its_arguments(self):
        layers = hand_layers()
        store = ParamStore(layers)
        store.theta[:] = 9.0
        assert layers[0][0][0, 0] == 1.0 and layers[1][1][0] == -0.75
        copy = store.copy()
        copy.theta[:] = 0.0
        assert np.all(store.theta == 9.0)


class TestSlotBuffers:
    def test_take_keeps_one_growing_array_per_role(self):
        pool = SlotBuffers()
        big = pool.take("z", (3, 4, 5))
        small = pool.take("z", (2, 5))
        assert small.shape == (2, 5) and small.flags.c_contiguous
        assert small.ctypes.data == big.ctypes.data       # the same memory
        other = pool.take(("z", 1), (3, 4, 5))
        assert not np.shares_memory(other, big)           # roles never share
        assert pool.take("z", (3, 4, 5)) is big
        larger = pool.take("z", (4, 4, 5))
        assert not np.shares_memory(larger, big)          # reallocated
        assert pool.take("z", (2, 3)).ctypes.data == larger.ctypes.data
        assert sorted(map(str, pool.arrays)) == ["('z', 1)", "z"]
        # no kept view holds on to the memory it replaced
        assert all(np.shares_memory(v, pool.arrays[role])
                   for (role, _), v in pool.views.items())


class TestCheckpoint:
    def test_bytes_match_per_layer_packing(self, tmp_path):
        layers = hand_layers()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ParamStore(layers), path)
        golden = (b"MLPC" + struct.pack("<II", 1, 2)
                  + struct.pack("<IIII", 3, 2, 1, 3))
        for W, b in layers:
            golden += struct.pack(f"<{W.size}d", *W.ravel())
            golden += struct.pack(f"<{b.size}d", *b)
        assert path.read_bytes() == golden
        back = load_checkpoint(path)
        assert np.array_equal(back.theta, ParamStore(layers).theta)
        assert back.theta.flags.writeable

    def test_round_trip(self, rng, tmp_path):
        store = init_mlp(MlpConfig(3, (11, 7), 5, seed=77))
        path = tmp_path / "model.ckpt"
        save_checkpoint(store, path)
        back = load_checkpoint(path)
        assert [W.shape for W, _ in back.layers] == [W.shape for W, _ in store.layers]
        assert np.array_equal(back.flat(), store.flat())

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a parameter checkpoint"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        store = init_mlp(MlpConfig(1, (4,), 1, seed=0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(store, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)
