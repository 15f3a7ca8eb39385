import collections
import dataclasses
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdpinn import diffgraph as dg
from pdpinn import network, problems, training
from pdpinn.bounds import verify_bound
from pdpinn.dictionaries import DictionarySpec, eval_dictionary, write_words
from pdpinn.diffgraph import Jet2, NonFiniteError, ParamStore
from pdpinn.network import (VALUES, GradientUnavailableError, MlpConfig,
                            SlotBuffers, SlotLayout, SlotPass, init_mlp,
                            mlp_forward)
from pdpinn.problems import (apply_operator, boundary_value, ground_truth,
                             ground_truth_jet, operator_terms, rhs)
from pdpinn.sampling import SampleBatch, sample_boundary, sample_interior
from pdpinn.training import (EVAL_SEED, FORWARD_CHUNK, AdamState, TrainSettings,
                             adam_step, empirical_bc_loss, empirical_losses,
                             empirical_pde_loss,
                             net_input_jet, operator_layout, pack_slots,
                             predict_error, predict_values, predictor_fields,
                             predictor_jets, predictor_slots, train)

from conftest import agree, fd_loss_gradient
from test_problem_record import TOY

ALL_IDS = ("poisson1d", "poisson2d", "sphere", "diffusion1d")


def small_store(p, dspec, lift, seed=1, width=8):
    din = 3 if lift else p.dim
    return init_mlp(MlpConfig(din, (width,) * 3, dspec.word_count, seed=seed))


class TestLosses:
    def test_oracle_injection_losses_vanish(self):
        # the loss formulas applied to exact solution jets
        rng = np.random.default_rng(3)
        for pid in ALL_IDS:
            p = problems.get(pid)
            ipts = sample_interior(p, 200, rng).points
            r = apply_operator(p, ground_truth_jet(p, ipts), ipts) - rhs(p, ipts)
            assert np.mean(r ** 2) < 1e-8, pid
            bpts = sample_boundary(p, 100, rng).points
            m = ground_truth_jet(p, bpts).value - boundary_value(p, bpts)
            assert np.mean(m ** 2) < 1e-8, pid

    def test_zero_predictor_pde_loss_is_mean_squared_rhs(self, rng):
        p = problems.get("poisson1d")
        dspec = p.dictionary
        store = small_store(p, dspec, False)
        store.set_flat(np.zeros(store.n_params))
        batch = sample_interior(p, 64, rng)
        loss, grad = empirical_pde_loss(store, p, dspec, batch)
        assert loss == pytest.approx(np.mean(rhs(p, batch.points) ** 2), rel=1e-12)
        assert loss > 0.0

    def test_sphere_single_point_bc_loss(self, rng):
        p = problems.get("sphere")
        dspec = p.dictionary
        store = small_store(p, dspec, True)
        batch = sample_boundary(p, 1, rng)
        loss, _ = empirical_bc_loss(store, p, dspec, batch, lift=True)
        fval = predict_values(store, p, dspec, np.array([[1.0, 1.0]]), True)[0]
        want = (fval - (-0.062488581188901424)) ** 2
        assert loss == pytest.approx(want, rel=1e-12)

    def test_region_mismatch_rejected(self, rng):
        p = problems.get("poisson1d")
        store = small_store(p, p.dictionary, False)
        interior = sample_interior(p, 4, rng)
        boundary = sample_boundary(p, 2, rng)
        with pytest.raises(ValueError):
            empirical_pde_loss(store, p, p.dictionary, boundary)
        with pytest.raises(ValueError):
            empirical_bc_loss(store, p, p.dictionary, interior)

    def test_gradients_match_finite_differences_all_problems(self):
        rng = np.random.default_rng(17)
        for pid in ALL_IDS:
            p = problems.get(pid)
            dspec = p.dictionary
            lift = p.lift
            store = small_store(p, dspec, lift)
            ibatch = sample_interior(p, 12, rng)
            bbatch = sample_boundary(p, 8, rng)
            for fn, batch in ((empirical_pde_loss, ibatch),
                              (empirical_bc_loss, bbatch)):
                _, grad = fn(store, p, dspec, batch, lift)
                idx = rng.choice(store.n_params, 20, replace=False)
                fd = fd_loss_gradient(
                    lambda s: fn(s, p, dspec, batch, lift)[0], store, idx)
                assert agree(grad[idx], fd, 1e-5), (pid, fn.__name__)


class TestPlainPinnReduction:
    def test_fusion_with_no_dictionary_is_identity(self, rng):
        p = problems.get("poisson1d")
        none = DictionarySpec("none")
        store = small_store(p, none, False)
        pts = rng.uniform(-10, 10, size=(20, 1))
        via_fuse = predict_values(store, p, none, pts, False)
        direct = mlp_forward(store.layers, Jet2.seed(pts)).value[:, 0]
        assert np.array_equal(via_fuse, direct)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self, rng):
        store = small_store(problems.get("poisson1d"),
                            DictionarySpec("none"), False)
        before = store.flat()
        state = AdamState.init(store.n_params)
        adam_step(state, store, np.zeros(store.n_params))
        assert np.array_equal(store.flat(), before)
        assert state.t == 1

    def test_single_step_matches_hand_formula(self):
        store = small_store(problems.get("poisson1d"),
                            DictionarySpec("none"), False)
        before = store.flat()
        g = np.full(store.n_params, 2.0)
        state = AdamState.init(store.n_params, lr=0.001)
        adam_step(state, store, g)
        want = before - 0.001 * 2.0 / (np.abs(2.0) + 1e-8)
        assert np.allclose(store.flat(), want, rtol=0, atol=1e-15)

    def test_step_counter_strictly_increases(self, rng):
        store = small_store(problems.get("poisson1d"),
                            DictionarySpec("none"), False)
        state = AdamState.init(store.n_params)
        for t in range(1, 5):
            adam_step(state, store, rng.normal(size=store.n_params))
            assert state.t == t

    def test_length_mismatch_rejected(self):
        store = small_store(problems.get("poisson1d"),
                            DictionarySpec("none"), False)
        state = AdamState.init(store.n_params + 1)
        with pytest.raises(ValueError):
            adam_step(state, store, np.zeros(store.n_params))

    def test_steps_are_bitwise_the_out_of_place_formula(self, rng):
        store = small_store(problems.get("sphere"), DictionarySpec("none"),
                            False)
        n = store.n_params
        state = AdamState.init(n, lr=0.003)
        theta, m, v = store.flat(), np.zeros(n), np.zeros(n)
        b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
        for t in range(1, 201):
            g = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 3)
            adam_step(state, store, g)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            mhat = m / (1.0 - b1 ** t)
            vhat = v / (1.0 - b2 ** t)
            theta -= 0.003 * mhat / (np.sqrt(vhat) + training.ADAM_EPS)
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
            assert np.array_equal(store.flat(), theta)


class TestPredictError:
    def test_zero_predictor_matches_quadrature(self):
        # independent oracle: Simpson quadrature of the squared solution
        p = problems.get("poisson1d")
        dspec = p.dictionary
        store = small_store(p, dspec, False)
        store.set_flat(np.zeros(store.n_params))
        xs = np.linspace(-10.0, 10.0, 1_000_001)
        g = np.sin(0.7 * xs) + np.cos(1.5 * xs) - 0.1 * xs
        w = np.ones_like(xs)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        quad = np.sum(w * g ** 2) * (xs[1] - xs[0]) / 3.0 / 20.0
        mc = predict_error(store, p, dspec, 100_000, np.random.default_rng(8))
        assert mc == pytest.approx(quad, rel=0.02)

    def test_n_must_be_positive(self, rng):
        p = problems.get("poisson1d")
        store = small_store(p, p.dictionary, False)
        with pytest.raises(ValueError):
            predict_error(store, p, p.dictionary, 0, rng)

    def test_default_sample_count_is_one_thousand(self):
        p = problems.get("poisson1d")
        store = small_store(p, p.dictionary, False)
        explicit = predict_error(store, p, p.dictionary, 1000,
                                 np.random.default_rng(EVAL_SEED))
        assert predict_error(store, p, p.dictionary) == explicit

    def test_nonfinite_loss_blames_a_point(self, rng):
        p = problems.get("poisson1d")
        store = small_store(p, p.dictionary, False)
        store.set_flat(np.full(store.n_params, 1e308))
        batch = sample_interior(p, 8, rng)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match="batch point"):
            empirical_pde_loss(store, p, p.dictionary, batch)

    def test_nonfinite_report_names_an_overflowing_row(self):
        # out = A tanh(c x): d1 and d2 overflow only near x = 0
        p = problems.get("poisson1d")
        store = ParamStore([(np.array([[10.0]]), np.zeros(1)),
                            (np.array([[1e308]]), np.zeros(1))])
        pts = np.array([[5.0], [-3.0], [0.05], [7.0], [-0.1], [9.0]])
        batch = SampleBatch(pts, "interior")
        with np.errstate(over="ignore", invalid="ignore"):
            out = mlp_forward(store.layers, Jet2.seed(pts))
            bad = ~(np.isfinite(out.value) & np.isfinite(out.d1[0])
                    & np.isfinite(out.d2[0]))[:, 0]
        assert 0 < bad.sum() < len(pts)
        first = pts[np.argmax(bad)]
        # a pool whose arrays a finite pass on the same shapes filled
        pool = SlotBuffers()
        finite = ParamStore([(np.array([[10.0]]), np.zeros(1)),
                             (np.array([[1.0]]), np.zeros(1))])
        empirical_pde_loss(finite, p, DictionarySpec("none"), batch,
                           buffers=pool)
        for buffers in (None, pool):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NonFiniteError) as err:
                empirical_pde_loss(store, p, DictionarySpec("none"), batch,
                                   buffers=buffers)
            assert str(err.value) == (
                "non-finite d1[x] in the output of layer 2 of 2; "
                f"batch point {np.array2string(first)}")

    def test_nonfinite_report_names_the_operator_slot(self):
        # out = A tanh(10 x): at x = 0.3 the value A t and d1 10 A f1 stay
        # finite while the operator slot 100 A f2 overflows
        p = problems.get("poisson1d")
        store = ParamStore([(np.array([[10.0]]), np.zeros(1)),
                            (np.array([[1e308]]), np.zeros(1))])
        batch = SampleBatch(np.array([[5.0], [0.3], [-7.0]]), "interior")
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError) as err:
            empirical_pde_loss(store, p, DictionarySpec("none"), batch)
        assert err.value.row == 1
        assert str(err.value) == ("non-finite L in the output of layer 2 of 2; "
                                  "batch point [0.3]")

    def test_chunked_pass_names_the_row_of_the_whole_batch(self):
        # d1 of A tanh(10 x) overflows only near x = 0
        p = problems.get("poisson1d")
        store = ParamStore([(np.array([[10.0]]), np.zeros(1)),
                            (np.array([[1e308]]), np.zeros(1))])
        pts = np.linspace(5.0, 9.0, FORWARD_CHUNK + 100)[:, None]
        row = FORWARD_CHUNK + 37                # in the second chunk
        pts[row] = 0.05
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError) as err:
            predictor_fields(store, p, DictionarySpec("none"), pts, False,
                             SlotLayout(("x",)))
        assert err.value.row == row
        assert str(err.value) == ("non-finite d1[x] in the output of layer 2 "
                                  "of 2; batch point [0.05]")

    def test_an_overflow_in_a_slot_the_loss_skips_is_reported(self):
        # out = A tanh(10 x) with A = 2e307: near x = 0, d1 = 10 A f1
        # overflows while the value A t and the operator slot 100 A f2,
        # the only slot the PDE loss reads, stay finite
        p = problems.get("poisson1d")
        store = ParamStore([(np.array([[10.0]]), np.zeros(1)),
                            (np.array([[2e307]]), np.zeros(1))])
        pts = np.array([[5.0], [1e-4], [-7.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            out = mlp_forward(store.layers, Jet2.seed(pts))
            with pytest.raises(NonFiniteError) as err:
                empirical_pde_loss(store, p, DictionarySpec("none"),
                                   SampleBatch(pts, "interior"))
        assert np.all(np.isfinite(out.value)) and np.all(np.isfinite(out.d2))
        assert not np.isfinite(out.d1[0, 1, 0])
        assert err.value.row == 1
        assert str(err.value) == ("non-finite d1[x] in the output of layer 2 "
                                  "of 2; batch point [0.0001]")

    @pytest.mark.parametrize("retain", [True, False])
    def test_nan_in_the_words_names_the_fusion(self, rng, retain):
        p = problems.get("poisson1d")
        store = small_store(p, p.dictionary, False)
        pts = sample_interior(p, 10, rng).points
        layout = operator_layout(p)
        x, words, coeffs = predictor_slots(p, p.dictionary, pts, False, layout)
        words[1, 6, 3] = np.nan                 # d1 of a word, at row 6
        with np.errstate(invalid="ignore"), \
                pytest.raises(NonFiniteError) as err:
            SlotPass(store.layers, layout, x, words, coeffs, retain=retain)
        assert err.value.row == 6
        assert str(err.value) == "non-finite d1[x] in the fusion with the words"

    def test_nan_in_the_words_names_the_row_of_the_whole_batch(
            self, monkeypatch):
        p = problems.get("poisson1d")
        store = small_store(p, p.dictionary, False)
        pts = np.linspace(-9.0, 9.0, FORWARD_CHUNK + 100)[:, None]
        row = FORWARD_CHUNK + 37                # in the second chunk
        original = training.write_words

        def planted(spec, points, value, d1, d2):
            original(spec, points, value, d1, d2)
            value[np.all(points == pts[row], axis=-1)] = np.nan

        monkeypatch.setattr(training, "write_words", planted)
        with np.errstate(invalid="ignore"), \
                pytest.raises(NonFiniteError) as err:
            predictor_fields(store, p, p.dictionary, pts, False, VALUES)
        assert err.value.row == row
        assert str(err.value) == (
            "non-finite value in the fusion with the words; batch point "
            f"{np.array2string(pts[row])}")


def per_layer_walk(layers, layout, x, words, coeffs, retain):
    """``SlotPass.F`` with every layer output tested as it is made, the
    way each pass was checked before the single test of ``F``; then a
    NaN/Inf left in ``F`` is blamed on the fusion.

    The reference for the single test: whatever this raises, the pass must
    raise with the same message and row.  It runs the pass's own layer
    arithmetic, on a pool of its own.
    """
    walk = object.__new__(SlotPass)
    walk.layers, walk.layout, walk.words = layers, layout, words
    walk.coeffs, walk.retain = coeffs, retain
    walk._take = SlotBuffers().take
    walk.inputs, walk.hidden = [], []
    # the pass's flat rows, with no boundary group
    S, n, _ = x.shape
    walk.S, walk.n, walk.m, walk.v = S, n, 0, n
    h = x.reshape(S * n, -1)
    for i, (W, b) in enumerate(layers):
        h = walk._affine(h, W, b, i)
        if i < len(layers) - 1:
            h = walk._tanh(h, i)
        walk._check_finite(h, i)
    F = (h[:, 0] if words is None
         else walk._fuse(words.reshape(S * n, -1), h)).reshape(S, n)
    bad = ~np.isfinite(F)
    if bad.any():
        row = int(np.argmax(bad.any(axis=0)))
        raise NonFiniteError(
            f"non-finite {layout.name(int(np.argmax(bad[:, row])))} in the "
            "fusion with the words", row=row)
    return F


def outcome(run):
    """``(F, None)`` of a pass that returns, ``(None, (message, row))`` of
    one that raises ``NonFiniteError``."""
    try:
        return run(), None
    except NonFiniteError as e:
        return None, (str(e), e.row)


class TestSingleFiniteCheck:
    """``SlotPass`` tests ``F`` alone, and reports what a test of every
    layer output would."""

    @given(st.sampled_from(("poisson1d", "sphere")),
           st.sampled_from(("values", "coords", "operator")),
           st.booleans(), st.booleans(), st.integers(1, 12),
           st.integers(0, 2 ** 32 - 1),
           st.lists(st.tuples(st.integers(1, 5),
                              st.sampled_from((0, 1, 3, 160, 300, 308))),
                    min_size=1, max_size=4),
           st.sampled_from((0, 160, 308)))
    @settings(max_examples=200, deadline=None)
    def test_single_check_raises_what_the_per_layer_walk_raises(
            self, pid, kind, dictionary, retain, n, seed, layers, word_scale):
        p = problems.get(pid)
        layout = {"values": VALUES, "coords": SlotLayout(p.coord_names),
                  "operator": operator_layout(p)}[kind]
        dspec = p.dictionary if dictionary else DictionarySpec("none")
        lift = p.lift and dictionary
        rng = np.random.default_rng(seed)
        # the widths of the hidden layers, then the output's, each layer's
        # weights scaled by 10**e so that some layers overflow
        dims = [3 if lift else p.dim] + [w for w, _ in layers[:-1]]
        dims.append(dspec.word_count)
        pts = sample_interior(p, n, rng).points
        with np.errstate(all="ignore"):
            store = ParamStore([
                (rng.normal(size=(fan_out, fan_in)) * 10.0 ** e,
                 rng.normal(size=fan_out))
                for fan_in, fan_out, (_, e) in zip(dims[:-1], dims[1:],
                                                   layers)])
            x, words, coeffs = predictor_slots(p, dspec, pts, lift, layout)
            if words is not None:
                words *= 10.0 ** word_scale
            got, got_err = outcome(lambda: SlotPass(
                store.layers, layout, x, words, coeffs, retain=retain).F)
            want, want_err = outcome(lambda: per_layer_walk(
                store.layers, layout, x, words, coeffs, retain))
        assert got_err == want_err
        assert got_err is not None or np.array_equal(got, want)


PUBLISHED = [(pid, model) for pid in ALL_IDS for model in ("dictionary", "plain")]


def published_model(pid, model, seed=0):
    """A preset's dictionary model (3x50) or the plain 4x50 baseline."""
    p = problems.get(pid)
    if model == "dictionary":
        dspec, lift, depth = p.dictionary, p.lift, 3
    else:
        dspec, lift, depth = DictionarySpec("none"), False, 4
    store = init_mlp(MlpConfig(3 if lift else p.dim, (50,) * depth,
                               dspec.word_count, seed=seed))
    return p, dspec, lift, store


def tape_loss(store, p, dspec, batch, lift):
    """Loss and gradient through the generic reverse tape, as a reference."""
    pts = batch.points
    leaves = dg.wrap_params(store)
    h = dg.trace_input(net_input_jet(p, pts, lift))
    for i, (W, b) in enumerate(leaves):
        h = dg.affine(h, W, b)
        if i < len(leaves) - 1:
            h = dg.tanh(h)
    if dspec.kind != "none":
        h = dg.mul(eval_dictionary(dspec, pts), h)
    F = dg.sum_words(h)
    if batch.region == "boundary":
        r = F.value_arr() - boundary_value(p, pts)
    else:
        terms = []
        for order, coord, coeff in operator_terms(p, pts):
            term = F.d1_arr(coord) if order == 1 else F.d2_arr(coord)
            terms.append(term if coeff is None else term * coeff)
        r = sum(terms[1:], terms[0]) - rhs(p, pts)
    loss = (r * r).mean()
    return float(loss.arr), dg.loss_parameter_gradient(loss, leaves)


class TestSlotPass:
    @pytest.mark.parametrize("pid,model", PUBLISHED)
    def test_gradient_matches_directional_fd_and_tape(self, pid, model):
        p, dspec, lift, store = published_model(pid, model)
        rng = np.random.default_rng(23)
        interior = sample_interior(p, p.n_pde, rng)
        boundary = sample_boundary(p, p.n_bc, rng)
        buffers = SlotBuffers()         # one pool for every parameter state

        def total(st):
            lp, gp = empirical_pde_loss(st, p, dspec, interior, lift, buffers)
            lb, gb = empirical_bc_loss(st, p, dspec, boundary, lift, buffers)
            return lp + lb, gp + gb

        v = rng.standard_normal(store.n_params)
        v /= np.linalg.norm(v)
        h, theta, shifted = 1e-5, store.flat(), store.copy()
        shifted.set_flat(theta + h * v)
        up, _ = total(shifted)
        shifted.set_flat(theta - h * v)
        down, _ = total(shifted)
        _, grad = total(store)          # on arrays the shifted passes wrote
        fd, exact = (up - down) / (2.0 * h), grad @ v
        assert abs(fd - exact) <= 1e-5 * max(abs(fd), abs(exact))

        for fn, batch in ((empirical_pde_loss, interior),
                          (empirical_bc_loss, boundary)):
            loss, g = fn(store, p, dspec, batch, lift)
            want_loss, want_g = tape_loss(store, p, dspec, batch, lift)
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
            assert np.max(np.abs(g - want_g)) <= 1e-12 * np.max(np.abs(want_g))

    @pytest.mark.parametrize("pid,model", PUBLISHED)
    def test_value_pass_is_bitwise_the_jet_pass(self, pid, model):
        p, dspec, lift, store = published_model(pid, model)
        pts = sample_interior(p, 1000, np.random.default_rng(4)).points
        net = SlotPass(store.layers, VALUES,
                       *predictor_slots(p, dspec, pts, lift, VALUES)).net[0]
        assert np.array_equal(
            net, mlp_forward(store.layers, net_input_jet(p, pts, lift)).value)
        assert np.array_equal(predict_values(store, p, dspec, pts, lift),
                              predictor_jets(store.layers, p, dspec, pts, lift).value)

    @pytest.mark.parametrize("pid,model", PUBLISHED)
    def test_operator_slot_is_the_operator_on_the_jet_pass(self, pid, model):
        p, dspec, lift, store = published_model(pid, model)
        pts = sample_interior(p, 1000, np.random.default_rng(7)).points
        layout = operator_layout(p)
        # d1 only where the operator differentiates twice: not t
        assert layout.d1 == {"diffusion1d": (0,)}.get(pid, tuple(range(p.dim)))
        F = SlotPass(store.layers, layout,
                     *predictor_slots(p, dspec, pts, lift, layout)).F
        jets = predictor_jets(store.layers, p, dspec, pts, lift)
        want = apply_operator(p, jets, pts)
        assert F.shape == (2 + len(layout.d1), len(pts))
        assert np.max(np.abs(F[-1] - want)) <= 1e-12 * np.max(np.abs(want))
        d1 = jets.d1[list(layout.d1)]
        assert np.max(np.abs(F[1:-1] - d1)) <= 1e-12 * np.max(np.abs(d1))
        assert np.array_equal(F[0], jets.value)

    @pytest.mark.parametrize("pid,model", PUBLISHED)
    def test_gradient_is_taken_once_and_leaves_the_input_slots(self, pid,
                                                                model):
        p, dspec, lift, store = published_model(pid, model)
        pts = sample_interior(p, 300, np.random.default_rng(8)).points
        layout = operator_layout(p)
        # writable copies, so a write into them would go unnoticed
        slots = predictor_slots(p, dspec, pts, lift, layout)
        x, words, coeffs = (np.array(a) if isinstance(a, np.ndarray) else a
                            for a in slots)
        kept = x.copy(), None if words is None else words.copy()
        fwd = SlotPass(store.layers, layout, x, words, coeffs)
        gF = np.random.default_rng(9).standard_normal(fwd.F.shape)
        grad = fwd.gradient(gF)
        assert same_bits(x, kept[0])
        assert words is None or same_bits(words, kept[1])
        fresh = SlotPass(store.layers, layout, x, words, coeffs)
        assert same_bits(fresh.gradient(gF), grad)
        with pytest.raises(GradientUnavailableError, match="taken once"):
            fwd.gradient(gF)
        forward_only = SlotPass(store.layers, layout, x, words, coeffs,
                                retain=False)
        with pytest.raises(GradientUnavailableError, match="retain=False"):
            forward_only.gradient(gF)

    @pytest.mark.parametrize("pid,limit_mib", [("poisson2d", 20.39),
                                               ("diffusion1d", 16.48)])
    @pytest.mark.parametrize("model", ["dictionary", "plain"])
    def test_training_pool_keeps_no_consumed_arrays(self, monkeypatch, pid,
                                                    limit_mib, model):
        pools = []

        class Recorded(SlotBuffers):
            def __init__(self):
                super().__init__()
                pools.append(self)

        monkeypatch.setattr(training, "SlotBuffers", Recorded)
        p, dspec, lift, store = published_model(pid, model)
        train(p, dspec, TrainSettings(iterations=2), store=store, lift=lift)
        # the run's pool and the pool of its second row block
        assert len(pools) == 2 and pools[0].others == pools[1:]
        # the adjoints go over the layer inputs and the fusion product, and
        # the third derivative of tanh is one array shared by the layers;
        # the boundary points ride in the interior pass's value rows
        for pool in pools:
            roles = collections.Counter(k[0] if isinstance(k, tuple) else k
                                        for k in pool.arrays)
            assert roles["gh"] == roles["gnet"] == 0 and roles["f3"] <= 1
        assert sum(a.nbytes for pool in pools
                   for a in pool.arrays.values()) <= limit_mib * 2**20

    @pytest.mark.parametrize("d1", [(), (0, 1)])
    def test_operator_slot_needs_d1_for_exactly_the_second_order_terms(self, d1):
        p = problems.get("diffusion1d")
        layout = SlotLayout(p.coord_names, d1=d1, operator=True)
        with pytest.raises(ValueError, match="exactly the coordinates"):
            predictor_slots(p, p.dictionary, np.zeros((3, 2)), False, layout)

    @pytest.mark.parametrize("pid,model", PUBLISHED)
    def test_chunked_forward_pass_is_bitwise_the_whole_batch_pass(
            self, pid, model, chunk_workers):
        p, dspec, lift, store = published_model(pid, model)
        pts = sample_interior(p, 2 * FORWARD_CHUNK + 333,
                              np.random.default_rng(5)).points
        pool = SlotBuffers()
        for layout in (VALUES, SlotLayout(p.coord_names), operator_layout(p)):
            slots = predictor_slots(p, dspec, pts, lift, layout)
            F = SlotPass(store.layers, layout, *slots).F
            for _ in range(2):          # the second pass reuses filled arrays
                pooled = SlotPass(store.layers, layout, *slots, retain=False,
                                  buffers=pool)
                assert np.array_equal(pooled.F, F)
            # the serial loop, the usable CPUs, and more threads than CPUs
            for workers in (1, None, 3):
                chunk_workers(workers)
                chunked = predictor_fields(store, p, dspec, pts, lift, layout)
                assert np.array_equal(chunked, F)

    @pytest.mark.parametrize("pid,model", PUBLISHED)
    def test_buffered_training_is_bitwise_the_unbuffered_training(
            self, pid, model, monkeypatch):
        p, dspec, lift, store = published_model(pid, model)
        s = TrainSettings(iterations=6, record_every=3)

        def run():
            records, st = train(p, dspec, s, store=store.copy(), lift=lift)
            return ([(r.iteration, r.loss_pde, r.loss_bc, r.error_predict)
                     for r in records], st.flat())

        class Unpooled(SlotBuffers):
            """Keeps nothing: every array is fresh, every input built
            again."""

            def take(self, role, shape):
                return np.empty(shape)

            def memo(self, role, points, build):
                return build()

        buffered = run()
        monkeypatch.setattr(training, "SlotBuffers", Unpooled)
        records, theta = run()
        assert buffered[0] == records
        assert np.array_equal(buffered[1], theta)

    def test_buffer_pool_is_fixed_after_the_second_iteration(self, monkeypatch):
        pools, pool_ids = [], []

        class Recorded(SlotBuffers):
            def __init__(self):
                super().__init__()
                pools.append(self)

        def step(state, store, grad):
            adam_step(state, store, grad)
            pool_ids.append({(i, k): id(a) for i, pool in enumerate(pools)
                             for k, a in pool.arrays.items()})

        monkeypatch.setattr(training, "SlotBuffers", Recorded)
        monkeypatch.setattr(training, "adam_step", step)
        p = problems.get("poisson2d")
        train(p, p.dictionary,
              TrainSettings(iterations=10, hidden_width=8, record_every=1))
        # the run's pool and the pool of its second row block
        assert len(pools) == 2 and len(pool_ids) == 10
        # iteration 2 is the first to follow a record-time evaluation
        assert pool_ids[1] == pool_ids[9]
        assert len(pool_ids[1]) > len(pool_ids[0])
        # the rows of each block's one pass per step, the boundary block's
        # own inputs and the evaluation set hold arrays of their own from
        # the first iteration on
        scopes = (("pde", p.n_bc // 2), "bc", "eval")
        inputs = [(i, k) for i, k in pool_ids[0]
                  if isinstance(k, tuple) and k[0] in scopes]
        assert {(i, k[0]) for i, k in inputs} == {
            (0, s) for s in scopes} | {(1, s) for s in scopes[:2]}
        assert all(pool_ids[9][k] == pool_ids[0][k] for k in inputs)

    @pytest.mark.parametrize("pid", ["poisson2d", "sphere"])
    def test_evaluation_inputs_survive_the_training_passes(self, monkeypatch,
                                                           pid):
        pools = []

        class Recorded(SlotBuffers):
            def __init__(self):
                super().__init__()
                pools.append(self)

        monkeypatch.setattr(training, "SlotBuffers", Recorded)
        p = problems.get(pid)
        # every batch has the evaluation set's size, so a shared array
        # would be written over by each pass
        train(p, p.dictionary, TrainSettings(
            iterations=5, hidden_width=8, n_pde=40, n_bc=40, n_pred=40,
            record_every=5))
        (pool,) = pools
        pts = sample_interior(p, 40, np.random.default_rng(EVAL_SEED)).points
        x, words, _ = predictor_slots(p, p.dictionary, pts, p.lift, VALUES)
        kept = pool.scope("eval")
        assert np.array_equal(kept.take("x", x.shape), x)
        assert np.array_equal(kept.take("words", words.shape), words)

    def test_buffered_gradients_own_their_memory(self):
        p, dspec, lift, store = published_model("poisson2d", "dictionary")
        rng = np.random.default_rng(6)
        buffers = SlotBuffers()
        grads, kept = [], []
        for _ in range(2):
            for fn, batch in ((empirical_pde_loss, sample_interior(p, 200, rng)),
                              (empirical_bc_loss, sample_boundary(p, 50, rng))):
                grads.append(fn(store, p, dspec, batch, lift, buffers)[1])
                kept.append(grads[-1].copy())
        for i, g in enumerate(grads):
            assert np.array_equal(g, kept[i])   # no later pass wrote over it
            assert not any(np.shares_memory(g, a)
                           for a in buffers.arrays.values())
            assert not any(np.shares_memory(g, other) for other in grads[i + 1:])

    def test_recorded_error_is_bitwise_the_jet_pass_error(self):
        p = problems.get("sphere")
        # the record-time evaluation runs FORWARD_CHUNK points at a time
        s = TrainSettings(iterations=4, hidden_width=8, record_every=4,
                          n_pred=2 * FORWARD_CHUNK + 333)
        records, store = train(p, p.dictionary, s)
        pts = sample_interior(p, s.n_pred,
                              np.random.default_rng(EVAL_SEED)).points
        F = predictor_jets(store.layers, p, p.dictionary, pts, p.lift)
        assert records[-1].error_predict == float(
            np.mean((F.value - ground_truth(p, pts)) ** 2))


def directional_fd_gap(total, store, rng, h=1e-5):
    """Relative gap between grad . v and the central difference of the
    loss along a random unit direction v; ``total(store)`` gives (loss,
    grad)."""
    v = rng.standard_normal(store.n_params)
    v /= np.linalg.norm(v)
    theta, shifted = store.flat(), store.copy()
    shifted.set_flat(theta + h * v)
    up, _ = total(shifted)
    shifted.set_flat(theta - h * v)
    down, _ = total(shifted)
    fd, exact = (up - down) / (2.0 * h), total(store)[1] @ v
    return abs(fd - exact) / max(abs(fd), abs(exact))


def one_pass_batches(p, seed):
    rng = np.random.default_rng(seed)
    return sample_interior(p, p.n_pde, rng), sample_boundary(p, p.n_bc, rng)


class TestOnePass:
    """``empirical_losses``: both losses and the summed gradient from one
    slot pass, the boundary points in its value slot."""

    @pytest.mark.parametrize("pid,model", PUBLISHED)
    def test_losses_and_gradient_are_the_single_batch_ones(self, pid, model):
        p, dspec, lift, store = published_model(pid, model)
        interior, boundary = one_pass_batches(p, 41)
        pool = SlotBuffers()
        for _ in range(2):              # the second pass reuses the memos
            loss_pde, loss_bc, grad = empirical_losses(
                store, p, dspec, interior, boundary, lift, pool)
            want_pde, grad_pde = empirical_pde_loss(store, p, dspec, interior,
                                                    lift, pool)
            want_bc, grad_bc = empirical_bc_loss(store, p, dspec, boundary,
                                                 lift, pool)
            assert abs(loss_pde - want_pde) <= 1e-14 * want_pde
            assert abs(loss_bc - want_bc) <= 1e-14 * want_bc
            want = grad_pde + grad_bc
            assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("pid,model", PUBLISHED)
    def test_gradient_matches_directional_fd(self, pid, model):
        p, dspec, lift, store = published_model(pid, model)
        interior, boundary = one_pass_batches(p, 43)
        pool = SlotBuffers()

        def total(st):
            lp, lb, grad = empirical_losses(st, p, dspec, interior, boundary,
                                            lift, pool)
            return lp + lb, grad

        assert directional_fd_gap(total, store,
                                  np.random.default_rng(44)) <= 1e-5

    @pytest.mark.parametrize("pid", ALL_IDS)
    def test_plain_output_adjoint_is_the_gemm_values(self, pid, monkeypatch):
        p, dspec, lift, store = published_model(pid, "plain")
        interior, boundary = one_pass_batches(p, 45)

        def total(st):
            lp, lb, grad = empirical_losses(st, p, dspec, interior, boundary,
                                            lift)
            return lp + lb, grad

        assert store.layers[-1][0].shape[0] == 1      # one output unit
        _, grad = total(store)
        assert directional_fd_gap(total, store,
                                  np.random.default_rng(46)) <= 1e-5
        monkeypatch.setattr(network, "_input_adjoint",
                            lambda g, W, out: np.matmul(g, W, out=out))
        _, gemm = total(store)
        assert np.array_equal(grad, gemm)

    @pytest.mark.parametrize("pid,model", [
        ("poisson2d", "dictionary"), ("poisson2d", "plain"),
        ("sphere", "dictionary"), ("sphere", "plain")])
    @pytest.mark.parametrize("region", ["interior", "boundary"])
    def test_nan_in_one_row_names_its_point(self, monkeypatch, pid, model,
                                            region):
        p, dspec, lift, store = published_model(pid, model)
        interior, boundary = one_pass_batches(p, 47)
        batch = interior if region == "interior" else boundary
        row = len(batch.points) // 2
        # words for a dictionary model, the network input for a plain one
        name = ("write_words" if model == "dictionary"
                else "write_lifted" if lift else "_write_coordinates")
        original = getattr(training, name)

        def planted(*args):
            original(*args)
            points, value = args[-4:-2]
            value[np.all(points == batch.points[row], axis=-1)] = np.nan

        monkeypatch.setattr(training, name, planted)
        with np.errstate(invalid="ignore"), \
                pytest.raises(NonFiniteError) as err:
            empirical_losses(store, p, dspec, interior, boundary, lift)
        assert err.value.row == row
        what = "batch point" if region == "interior" else "boundary point"
        where = ("in the fusion with the words" if model == "dictionary"
                 else f"in the output of layer 1 of {len(store.layers)}")
        assert str(err.value) == (
            f"non-finite value {where}; {what} "
            f"{np.array2string(batch.points[row])}")


def training_run(pid, model, iterations=3):
    """Records and theta of a few published-size iterations."""
    p, dspec, lift, store = published_model(pid, model)
    records, st = train(p, dspec, TrainSettings(iterations=iterations,
                                                record_every=1),
                        store=store, lift=lift)
    return [(r.iteration, r.loss_pde, r.loss_bc, r.error_predict)
            for r in records], st.flat()


def plant_nan(monkeypatch, points):
    """Has every word build write NaN into the value of each of
    ``points``."""
    original = training.write_words

    def planted(*args):
        original(*args)
        pts, value = args[-4:-2]
        for point in points:
            value[np.all(pts == point, axis=-1)] = np.nan

    monkeypatch.setattr(training, "write_words", planted)


class TestRowBlocks:
    """``empirical_losses`` cuts each batch into ceil(n / TRAIN_BLOCK) row
    blocks, runs them on the chunk pool and adds their gradients."""

    @pytest.mark.parametrize("model", ["dictionary", "plain"])
    def test_training_is_bitwise_on_one_or_two_cpus(self, chunk_workers,
                                                    model):
        runs = []
        for workers in (1, 2):
            chunk_workers(workers)
            runs.append(training_run("poisson2d", model))
        (records, theta), (records2, theta2) = runs
        assert len(records) == 3 and records == records2
        assert same_bits(theta, theta2)

    @pytest.mark.parametrize("pid", ["poisson1d", "sphere"])
    def test_small_presets_run_one_unsplit_block(self, monkeypatch, pid):
        runs = []
        original = training._slot_pass

        def counted(*args, **kw):
            fwd = original(*args, **kw)
            if fwd.retain:
                passes.append((fwd.n, fwd.m))
            return fwd

        monkeypatch.setattr(training, "_slot_pass", counted)
        for block in (training.TRAIN_BLOCK, 1 << 30):
            passes = []
            monkeypatch.setattr(training, "TRAIN_BLOCK", block)
            runs.append(training_run(pid, "dictionary"))
            p = problems.get(pid)
            assert passes == [(p.n_pde, p.n_bc)] * 3
        assert runs[0][0] == runs[1][0] and same_bits(runs[0][1], runs[1][1])

    @staticmethod
    def ragged():
        """poisson2d's dictionary model on 1025 interior points (three
        blocks of 341, 342 and 342) and 401 boundary points (133, 134 and
        134)."""
        p, dspec, lift, store = published_model("poisson2d", "dictionary")
        rng = np.random.default_rng(48)
        return (p, dspec, lift, store, sample_interior(p, 1025, rng),
                sample_boundary(p, 401, rng))

    def test_ragged_blocks_match_fd_and_the_unsplit_pass(self, monkeypatch):
        p, dspec, lift, store, interior, boundary = self.ragged()
        pool = SlotBuffers()

        def total(st):
            lp, lb, grad = empirical_losses(st, p, dspec, interior, boundary,
                                            lift, pool)
            return lp + lb, grad

        assert directional_fd_gap(total, store,
                                  np.random.default_rng(49)) <= 1e-5
        lp, lb, grad = empirical_losses(store, p, dspec, interior, boundary,
                                        lift)
        assert len(pool.others) == 2
        monkeypatch.setattr(training, "TRAIN_BLOCK", 1 << 30)
        want_pde, want_bc, want = empirical_losses(store, p, dspec, interior,
                                                   boundary, lift)
        assert abs(lp - want_pde) <= 1e-14 * want_pde
        assert abs(lb - want_bc) <= 1e-14 * want_bc
        assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("region,row", [("interior", 400),
                                            ("boundary", 200)])
    def test_nan_in_a_second_block_row_names_its_row_in_the_batch(
            self, chunk_workers, monkeypatch, workers, region, row):
        chunk_workers(workers)
        p, dspec, lift, store, interior, boundary = self.ragged()
        batch = interior if region == "interior" else boundary
        plant_nan(monkeypatch, [batch.points[row]])
        with np.errstate(invalid="ignore"), \
                pytest.raises(NonFiniteError) as err:
            empirical_losses(store, p, dspec, interior, boundary, lift)
        assert err.value.row == row
        what = "batch point" if region == "interior" else "boundary point"
        assert str(err.value) == (
            f"non-finite value in the fusion with the words; {what} "
            f"{np.array2string(batch.points[row])}")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("planted,named", [
        # a boundary row of block 0 and an interior row of block 1: the
        # lowest block wins over the interior-first order of one pass
        ((("boundary", 10), ("interior", 400)), ("boundary", 10)),
        # both in block 1: the interior point comes first in its pass
        ((("boundary", 200), ("interior", 400)), ("interior", 400))])
    def test_the_lowest_failing_block_is_named(self, chunk_workers,
                                               monkeypatch, workers, planted,
                                               named):
        chunk_workers(workers)
        p, dspec, lift, store, interior, boundary = self.ragged()
        batches = {"interior": interior, "boundary": boundary}
        plant_nan(monkeypatch, [batches[region].points[row]
                                for region, row in planted])
        with np.errstate(invalid="ignore"), \
                pytest.raises(NonFiniteError) as err:
            empirical_losses(store, p, dspec, interior, boundary, lift)
        region, row = named
        assert err.value.row == row
        assert str(err.value).endswith(
            np.array2string(batches[region].points[row]))


def input_problem(pid):
    """A preset, or the fifth problem defined outside the package."""
    return TOY if pid == TOY.id else problems.get(pid)


INPUT_CASES = [(pid, model, lift) for pid in (*ALL_IDS, TOY.id)
               for model in ("dictionary", "plain")
               for lift in ((False, True) if input_problem(pid).lift else (False,))]


def reference_slots(p, dspec, pts, lift, layout):
    """``predictor_slots`` through the ``Jet2`` reference: the packed input
    and word jets, and the coefficients from the operator terms."""
    x = pack_slots(p, layout, net_input_jet(p, pts, lift), pts)
    words = (None if dspec.kind == "none"
             else pack_slots(p, layout, eval_dictionary(dspec, pts), pts))
    a = {coord: coeff for order, coord, coeff in operator_terms(p, pts)
         if order == 2}
    coeffs = tuple(a[k][:, None] if np.ndim(a[k]) == 1 else a[k]
                   for k in layout.d1) if layout.operator else ()
    return x, words, coeffs


def same_bits(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


class TestSlotNativeInputs:
    """``predictor_slots`` writes its inputs straight into slot arrays."""

    @pytest.mark.parametrize("n", [1, 7, FORWARD_CHUNK + 1])
    @pytest.mark.parametrize("pid,model,lift", INPUT_CASES)
    def test_inputs_are_bitwise_the_packed_jet_reference(self, pid, model,
                                                         lift, n):
        p = input_problem(pid)
        dspec = DictionarySpec("none")
        if model == "dictionary":
            dspec = (DictionarySpec("fourier1d", k=3) if p is TOY
                     else p.dictionary)
        rng = np.random.default_rng(n)
        pts = sample_interior(p, n, rng).points
        pool = SlotBuffers()
        for layout in (operator_layout(p), SlotLayout(p.coord_names), VALUES):
            # a pool that an earlier call filled: no stale entry may show
            predictor_slots(p, dspec, sample_interior(p, n, rng).points,
                            lift, layout, pool.scope("in"))
            for a in pool.arrays.values():
                a.fill(np.nan)
            want = reference_slots(p, dspec, pts, lift, layout)
            for buffers in (None, pool.scope("in")):
                x, words, coeffs = predictor_slots(p, dspec, pts, lift,
                                                   layout, buffers)
                assert same_bits(x, want[0])
                assert (words is None) == (want[1] is None)
                assert words is None or same_bits(words, want[1])
                assert len(coeffs) == len(want[2])
                assert all(map(same_bits, coeffs, want[2]))

    def test_operator_terms_are_evaluated_once_per_fresh_batch(self):
        sphere = problems.get("sphere")
        calls = collections.Counter()

        def counted(i, coeff):
            def call(pts):
                calls[i] += 1
                return coeff(pts)
            return call

        # the cot and 1/sin^2 coefficients of terms 1 and 2
        p = dataclasses.replace(sphere, terms=tuple(
            (order, coord, counted(i, c) if callable(c) else c)
            for i, (order, coord, c) in enumerate(sphere.terms)))
        train(p, p.dictionary, TrainSettings(iterations=4, hidden_width=8,
                                             n_pred=20, record_every=2))
        # one PDE batch per iteration; the boundary and evaluation passes
        # carry values alone
        assert calls == {1: 4, 2: 4}

    def test_training_and_verification_skip_the_jet_builders(self,
                                                             monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Jet2 input builder was called")

        for name in ("eval_dictionary", "net_input_jet", "lift_sphere"):
            monkeypatch.setattr(training, name, refuse)
        monkeypatch.setattr(SlotLayout, "pack", refuse)
        settings = TrainSettings(iterations=3, hidden_width=8, n_pred=50,
                                 record_every=1)
        sphere = problems.get("sphere")
        train(sphere, sphere.dictionary, settings)
        p = problems.get("poisson1d")
        _, store = train(p, p.dictionary, settings)
        # the verifier's chunks, two of them per interior request
        verify_bound(store, p, p.dictionary, n_interior=2 * FORWARD_CHUNK,
                     n_boundary=50)


def overflowing_store():
    # out = A tanh(10 x): the value stays finite while d1 = 10 A f1
    # overflows near x = 0
    return ParamStore([(np.array([[10.0]]), np.zeros(1)),
                       (np.array([[1e308]]), np.zeros(1))])


def operator_fields(pid, model, n=2 * FORWARD_CHUNK + 333):
    """``predictor_fields`` in the operator layout of a published model."""
    p, dspec, lift, store = published_model(pid, model)
    pts = sample_interior(p, n, np.random.default_rng(5)).points
    return predictor_fields(store, p, dspec, pts, lift, operator_layout(p))


class TestConcurrentChunks:
    """``predictor_fields`` runs its chunks on one thread per usable CPU."""

    def test_empty_batch_gives_no_columns(self):
        p = problems.get("poisson2d")
        store = small_store(p, p.dictionary, False)
        for layout in (VALUES, operator_layout(p)):
            F = predictor_fields(store, p, p.dictionary, np.empty((0, 2)),
                                 False, layout)
            assert F.shape == (layout.slots, 0)

    def test_one_worker_or_one_chunk_creates_no_pool(self, chunk_workers,
                                                     monkeypatch):
        monkeypatch.setattr(training, "_chunk_pool", None)
        p = problems.get("poisson1d")
        store = small_store(p, p.dictionary, False)
        pts = np.linspace(-9.0, 9.0, 3 * FORWARD_CHUNK)[:, None]
        chunk_workers(1)
        predictor_fields(store, p, p.dictionary, pts, False, VALUES)
        chunk_workers(2)
        predictor_fields(store, p, p.dictionary, pts[:FORWARD_CHUNK], False,
                         VALUES)
        assert training._map_in_order(lambda a: 2 * a, iter([4])) == [8]
        assert training._chunk_pool is None
        predictor_fields(store, p, p.dictionary, pts, False, VALUES)
        assert training._chunk_pool is not None
        training._chunk_pool.shutdown()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_lowest_failing_chunk_is_raised(self, chunk_workers, monkeypatch,
                                            workers):
        chunk_workers(workers)
        p = problems.get("poisson1d")
        pts = np.linspace(5.0, 9.0, 5 * FORWARD_CHUNK)[:, None]
        row = 2 * FORWARD_CHUNK + 700           # chunk 2
        pts[row] = 0.05
        pts[3 * FORWARD_CHUNK + 5] = -0.02      # chunk 3
        # with threads, chunk 2 fails only once chunk 3 has failed
        chunk_3_failed = threading.Event()
        original = training._slot_pass

        def ordered(store, layout, slots, points, start=0, **kw):
            if start == 2 * FORWARD_CHUNK and workers > 1:
                assert chunk_3_failed.wait(timeout=30)
            try:
                return original(store, layout, slots, points, start, **kw)
            except NonFiniteError:
                if start == 3 * FORWARD_CHUNK:
                    chunk_3_failed.set()
                raise

        monkeypatch.setattr(training, "_slot_pass", ordered)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError) as err:
            predictor_fields(overflowing_store(), p, DictionarySpec("none"),
                             pts, False, SlotLayout(("x",)))
        assert err.value.row == row
        assert str(err.value) == ("non-finite d1[x] in the output of layer 2 "
                                  "of 2; batch point [0.05]")

    @pytest.mark.parametrize("workers", [1, 3])
    def test_chunks_run_under_the_callers_error_state(self, chunk_workers,
                                                      workers):
        chunk_workers(workers)
        p = problems.get("poisson1d")
        pts = np.linspace(5.0, 9.0, 3 * FORWARD_CHUNK)[:, None]
        pts[2 * FORWARD_CHUNK + 9] = 0.05
        args = (overflowing_store(), p, DictionarySpec("none"), pts, False,
                SlotLayout(("x",)))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            predictor_fields(*args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
                predictor_fields(*args)
        assert [w.message for w in caught] == []

    @pytest.mark.parametrize("workers", [1, 3])
    def test_lowest_failing_chunk_of_several_requests_is_raised(
            self, chunk_workers, monkeypatch, workers):
        chunk_workers(workers)
        p = problems.get("poisson1d")
        first = np.linspace(5.0, 9.0, 3 * FORWARD_CHUNK)[:, None]
        second = np.linspace(5.0, 9.0, 2 * FORWARD_CHUNK)[:, None]
        row = FORWARD_CHUNK + 700               # chunk 1 of the first request
        first[row] = 0.05
        second[5] = -0.02                       # chunk 0 of the second
        # with threads, the first request fails only once the second has
        second_failed = threading.Event()
        original = training._slot_pass

        def ordered(store, layout, slots, points, start=0, **kw):
            if points is first and start == FORWARD_CHUNK and workers > 1:
                assert second_failed.wait(timeout=30)
            try:
                return original(store, layout, slots, points, start, **kw)
            except NonFiniteError:
                if points is second:
                    second_failed.set()
                raise

        monkeypatch.setattr(training, "_slot_pass", ordered)
        layout = SlotLayout(("x",))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError) as err:
            training.predictor_fields_many(
                overflowing_store(), p, DictionarySpec("none"),
                [(first, layout), (second, layout)], False)
        assert err.value.row == row
        assert str(err.value).endswith("batch point [0.05]")

    @pytest.mark.parametrize("workers", [1, None, 3])
    def test_several_requests_are_bitwise_their_own_calls(self, chunk_workers,
                                                          workers):
        chunk_workers(workers)
        p, dspec, lift, store = published_model("poisson2d", "dictionary")
        sizes = (2 * FORWARD_CHUNK + 333, 0, 5, FORWARD_CHUNK)
        layouts = (operator_layout(p), operator_layout(p), VALUES,
                   SlotLayout(p.coord_names))
        pts = sample_interior(p, sum(sizes), np.random.default_rng(8)).points
        requests = list(zip(np.split(pts, np.cumsum(sizes)[:-1]), layouts))
        got = training.predictor_fields_many(store, p, dspec, requests, lift)
        assert len(got) == len(requests)
        for F, (pts, layout) in zip(got, requests):
            assert np.array_equal(
                F, predictor_fields(store, p, dspec, pts, lift, layout))
        assert got[1].shape == (operator_layout(p).slots, 0)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_stream_runs_under_the_callers_error_state(self, chunk_workers,
                                                         workers):
        chunk_workers(workers)
        with np.errstate(over="raise", under="ignore"):
            got = training._map_in_order(lambda _: np.geterr(),
                                         (i for i in range(7)))
        assert len(got) == 7
        assert all(e["over"] == "raise" and e["under"] == "ignore"
                   for e in got)

    def test_importing_pdpinn_leaves_the_pool_module_unloaded(self):
        src = os.path.dirname(os.path.dirname(training.__file__))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import pdpinn.bounds, pdpinn.cli; "
                "print('concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, src], check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "False"

    def test_forked_child_runs_chunks_after_the_parent_used_the_pool(
            self, chunk_workers):
        chunk_workers(2)
        want = operator_fields("poisson2d", "dictionary")
        assert training._chunk_pool is not None
        pool = ProcessPoolExecutor(max_workers=1,
                                   mp_context=multiprocessing.get_context("fork"))
        try:
            got = pool.submit(operator_fields, "poisson2d",
                              "dictionary").result(timeout=60)
        except TimeoutError:
            for proc in pool._processes.values():   # do not wait on a hung child
                proc.kill()
            raise
        finally:
            pool.shutdown()
        assert np.array_equal(got, want)


def count_word_builds(monkeypatch):
    """Point counts of every ``write_words`` call training makes."""
    sizes = []

    def counted(spec, points, value, d1, d2):
        sizes.append(len(points))
        return write_words(spec, points, value, d1, d2)

    monkeypatch.setattr(training, "write_words", counted)
    return sizes


class TestInputMemo:
    """A run builds the words and loss target of a repeated point set once."""

    @pytest.mark.parametrize("pid,fixed_boundary", [
        ("poisson1d", True), ("sphere", True), ("poisson2d", False)])
    def test_fixed_boundary_words_are_built_once(self, monkeypatch, pid,
                                                 fixed_boundary):
        p = problems.get(pid)
        sizes = count_word_builds(monkeypatch)
        train(p, p.dictionary, TrainSettings(iterations=7, hidden_width=8,
                                             n_pred=50, record_every=100))
        # the evaluation set, then one PDE batch per iteration and row
        # block; each preset's batches split into equal blocks
        blocks = -(-p.n_pde // training.TRAIN_BLOCK)
        assert sizes[0] == 50
        assert sizes.count(p.n_pde // blocks) == 7 * blocks
        assert sizes.count(p.n_bc // blocks) == (
            (1 if fixed_boundary else 7) * blocks)
        assert len(sizes) == 1 + 7 * blocks + sizes.count(p.n_bc // blocks)

    def test_fixed_boundary_data_is_evaluated_once(self, monkeypatch):
        calls = {"rhs": 0, "boundary_value": 0}
        for name, fn in (("rhs", rhs), ("boundary_value", boundary_value)):
            def counted(p, pts, _name=name, _fn=fn):
                calls[_name] += 1
                return _fn(p, pts)
            monkeypatch.setattr(training, name, counted)
        p = problems.get("poisson1d")
        train(p, p.dictionary, TrainSettings(iterations=20, hidden_width=8,
                                             record_every=10))
        # fresh interior batches, the two fixed end points
        assert calls == {"rhs": 20, "boundary_value": 1}

    def test_fixed_collocation_builds_both_batches_once(self, monkeypatch):
        p = problems.get("poisson2d")
        sizes = count_word_builds(monkeypatch)
        train(p, p.dictionary, TrainSettings(
            iterations=5, hidden_width=8, n_pred=50, n_pde=30, n_bc=20,
            record_every=2, fresh_batches=False))
        assert sorted(sizes) == [20, 30, 50]

    @pytest.mark.parametrize("fn,region", [(empirical_pde_loss, "interior"),
                                           (empirical_bc_loss, "boundary")])
    def test_changed_points_are_never_served_stale(self, fn, region):
        p, dspec, lift, store = published_model("poisson2d", "dictionary")
        rng = np.random.default_rng(4)
        sample = sample_interior if region == "interior" else sample_boundary
        a, b = sample(p, 40, rng), sample(p, 40, rng)
        pool = SlotBuffers()
        fn(store, p, dspec, a, lift, pool)
        for batch in (b, a, a):
            want = fn(store, p, dspec, batch, lift)
            got = fn(store, p, dspec, batch, lift, pool)
            assert got[0] == want[0] and np.array_equal(got[1], want[1])
        # the same array with other points in it
        a.points[:] = b.points
        got = fn(store, p, dspec, a, lift, pool)
        want = fn(store, p, dspec, b, lift)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("pid", ["poisson1d", "sphere"])
    def test_memoised_inputs_are_unchanged_after_a_run(self, monkeypatch, pid):
        pools = []

        class Recorded(SlotBuffers):
            def __init__(self):
                super().__init__()
                pools.append(self)

        monkeypatch.setattr(training, "SlotBuffers", Recorded)
        p = problems.get(pid)
        train(p, p.dictionary, TrainSettings(iterations=6, hidden_width=8,
                                             record_every=3))
        (pool,) = pools
        m, layout = p.n_bc, operator_layout(p)
        assert set(pool.memos) == {("pde", m), "bc"}
        points, ((x, words, coeffs), q, _) = pool.memos["pde", m]
        bpoints, ((bx, bwords, _), data) = pool.memos["bc"]
        n, S = len(points), layout.slots
        want = predictor_slots(p, p.dictionary, points, p.lift, layout)
        bwant = predictor_slots(p, p.dictionary, bpoints, p.lift, VALUES)
        # the pass's rows: the interior's value slot, the boundary values
        # copied from the boundary batch's own arrays, the other slots
        for got, ref in ((x[:n], want[0][0]), (words[:n], want[1][0]),
                         (x[n + m:].reshape(S - 1, n, -1), want[0][1:]),
                         (words[n + m:].reshape(S - 1, n, -1), want[1][1:]),
                         (x[n:n + m], bwant[0][0]),
                         (words[n:n + m], bwant[1][0]),
                         *zip(coeffs, want[2]), (q, rhs(p, points)),
                         (bx, bwant[0]), (bwords, bwant[1]),
                         (data, boundary_value(p, bpoints))):
            if isinstance(got, np.ndarray):
                assert not got.flags.writeable
            assert np.array_equal(got, ref)


class TestTrainLoop:
    def test_zero_iterations_returns_initial_params(self):
        p = problems.get("poisson1d")
        s = TrainSettings(iterations=0, hidden_width=8)
        records, store = train(p, p.dictionary, s)
        assert records == []
        fresh = init_mlp(MlpConfig(1, (8,) * 3, p.dictionary.word_count, seed=0))
        assert np.array_equal(store.flat(), fresh.flat())

    def test_deterministic_repetition(self):
        p = problems.get("poisson1d")
        s = TrainSettings(iterations=30, hidden_width=8, record_every=10,
                          seed=5)
        r1, st1 = train(p, p.dictionary, s)
        r2, st2 = train(p, p.dictionary, s)
        assert np.array_equal(st1.flat(), st2.flat())
        assert [(r.iteration, r.loss_pde, r.loss_bc, r.error_predict)
                for r in r1] == \
               [(r.iteration, r.loss_pde, r.loss_bc, r.error_predict)
                for r in r2]

    def test_objective_is_plain_sum_and_decreases(self):
        p = problems.get("poisson1d")
        s = TrainSettings(iterations=200, hidden_width=16, record_every=100, seed=2)
        records, _ = train(p, p.dictionary, s)
        assert all(r.loss_pde >= 0 and r.loss_bc >= 0 for r in records)
        assert records[-1].loss_pde < records[0].loss_pde

    def test_divergence_aborts_with_report(self):
        p = problems.get("poisson1d")
        s = TrainSettings(iterations=50, hidden_width=8, learning_rate=1e7)
        with pytest.raises(training.DivergenceError, match="iteration"):
            train(p, p.dictionary, s)

    def test_fixed_collocation_mode(self):
        p = problems.get("poisson1d")
        s = TrainSettings(iterations=20, hidden_width=8, record_every=10,
                          fresh_batches=False)
        records, _ = train(p, p.dictionary, s)
        assert len(records) == 2


class TestRecordsCsv:
    def test_round_trip_preserves_doubles(self, tmp_path, rng):
        recs = [training.TrainRecord(i, rng.random(), rng.random(),
                                     rng.random(), rng.random())
                for i in range(1, 8)]
        path = tmp_path / "train.csv"
        training.write_records_csv(recs, path)
        back = training.read_records_csv(path)
        assert back == recs

    def test_header_is_stable(self, tmp_path):
        training.write_records_csv([], tmp_path / "t.csv")
        header = (tmp_path / "t.csv").read_text().strip()
        assert header == "iteration,loss_pde,loss_bc,error_predict,elapsed_s"
