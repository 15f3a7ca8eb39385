import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from pdpinn import diffgraph as dg
from pdpinn import problems, training
from pdpinn.dictionaries import DictionarySpec, eval_dictionary
from pdpinn.diffgraph import Jet2, NonFiniteError, ParamStore
from pdpinn.network import (VALUES, MlpConfig, SlotBuffers, SlotLayout,
                            SlotPass, init_mlp, mlp_forward)
from pdpinn.problems import (apply_operator, boundary_value, ground_truth,
                             ground_truth_jet, operator_terms, rhs)
from pdpinn.sampling import SampleBatch, sample_boundary, sample_interior
from pdpinn.training import (EVAL_SEED, FORWARD_CHUNK, AdamState, TrainSettings,
                             adam_step, empirical_bc_loss, empirical_pde_loss,
                             net_input_jet, operator_layout, predict_error,
                             predict_values, predictor_fields, predictor_jets,
                             predictor_slots, train)

from conftest import agree, fd_loss_gradient

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
            bad = ~(np.isfinite(out.value) & np.isfinite(out.d1)
                    & np.isfinite(out.d2))[:, 0]
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
        d1 = jets.d1[:, list(layout.d1)].T
        assert np.max(np.abs(F[1:-1] - d1)) <= 1e-12 * np.max(np.abs(d1))
        assert np.array_equal(F[0], jets.value)

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

        buffered = run()
        monkeypatch.setattr(training, "SlotBuffers", lambda: None)
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
            pool_ids.append({k: id(a) for k, a in pools[0].arrays.items()})

        monkeypatch.setattr(training, "SlotBuffers", Recorded)
        monkeypatch.setattr(training, "adam_step", step)
        p = problems.get("poisson2d")
        train(p, p.dictionary,
              TrainSettings(iterations=10, hidden_width=8, record_every=1))
        assert len(pools) == 1 and len(pool_ids) == 10
        # iteration 2 is the first to follow a record-time evaluation
        assert pool_ids[1] == pool_ids[9]
        assert len(pool_ids[1]) > len(pool_ids[0])

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
        s = TrainSettings(iterations=4, hidden_width=8, record_every=4)
        records, store = train(p, p.dictionary, s)
        pts = sample_interior(p, s.n_pred,
                              np.random.default_rng(EVAL_SEED)).points
        F = predictor_jets(store.layers, p, p.dictionary, pts, p.lift)
        assert records[-1].error_predict == float(
            np.mean((F.value - ground_truth(p, pts)) ** 2))


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
    """Point counts of every ``eval_dictionary`` call training makes."""
    sizes = []

    def counted(spec, points, derivatives=True):
        sizes.append(len(points))
        return eval_dictionary(spec, points, derivatives)

    monkeypatch.setattr(training, "eval_dictionary", counted)
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
        # the evaluation set, then one PDE batch per iteration
        assert sizes[0] == 50
        assert sizes.count(p.n_pde) == 7
        assert sizes.count(p.n_bc) == (1 if fixed_boundary else 7)
        assert len(sizes) == 1 + 7 + sizes.count(p.n_bc)

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
        assert sorted(pool.memos) == ["bc", "pde"]
        for role, layout, target in (("pde", operator_layout(p), rhs),
                                     ("bc", VALUES, boundary_value)):
            points, ((x, words, coeffs), data) = pool.memos[role]
            want = predictor_slots(p, p.dictionary, points, p.lift, layout)
            for got, ref in ((x, want[0]), (words, want[1]),
                             *zip(coeffs, want[2]), (data, target(p, points))):
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
