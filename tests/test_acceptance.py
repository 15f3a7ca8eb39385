"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL line and
measured values for every criterion.  The training batteries (criteria 3,
4 and 6) are stochastic reproductions at the published budgets and take
about five minutes on two cores; everything else finishes in seconds.
Every test here carries the ``acceptance`` marker, so
`pytest -m "not acceptance"` runs the fast suite alone.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from pdpinn import bounds, problems, training
from pdpinn.dictionaries import (DictionarySpec, eval_dictionary,
                                 eval_fourier1d, eval_spherical_harmonics, fuse)
from pdpinn.diffgraph import Jet2
from pdpinn.network import MlpConfig, init_mlp
from pdpinn.problems import (apply_operator, boundary_value, ground_truth,
                             ground_truth_jet, rhs)
from pdpinn.sampling import sample_boundary, sample_interior
from pdpinn.training import (AdamState, TrainSettings, adam_step,
                             empirical_bc_loss, empirical_pde_loss,
                             predictor_jets, train)

from conftest import agree, fd_jet, fd_loss_gradient

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2)
ALL_IDS = ("poisson1d", "poisson2d", "sphere", "diffusion1d")


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)


def _train_job(args):
    pid, dict_label, hidden_layers, seed = args
    p = problems.get(pid)
    dspec = DictionarySpec.parse(dict_label)
    settings = TrainSettings(hidden_layers=hidden_layers, seed=seed,
                             record_every=100)
    records, store = train(p, dspec, settings)
    return records[-1].error_predict, store


@pytest.fixture(scope="session")
def trained():
    """All benchmark runs for criteria 3, 4 and 6, trained once."""
    jobs = {}
    for seed in SEEDS:
        jobs[("poisson1d", "pd", seed)] = ("poisson1d", "fourier1d:8", 3, seed)
        jobs[("poisson1d", "pinn", seed)] = ("poisson1d", "none", 4, seed)
        jobs[("sphere", "pd", seed)] = ("sphere", "spherical-harmonics:3", 3, seed)
        jobs[("poisson2d", "pd", seed)] = ("poisson2d", "fourier2d:5,5", 3, seed)
        jobs[("poisson2d", "pinn", seed)] = ("poisson2d", "none", 4, seed)
        jobs[("diffusion1d", "pd", seed)] = ("diffusion1d", "diffusion1d-fourier:10", 3, seed)
        jobs[("diffusion1d", "pinn", seed)] = ("diffusion1d", "none", 4, seed)
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=2) as ex:
        futures = {key: ex.submit(_train_job, spec) for key, spec in jobs.items()}
        results = {key: fut.result() for key, fut in futures.items()}
    print(f"\n[trained {len(jobs)} models in {time.perf_counter() - t0:.0f}s]",
          flush=True)
    return results


def test_criterion_1_derivative_oracles():
    """Fused predictor jets and loss gradients match finite differences."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_jet, worst_grad = 0.0, 0.0
    for pid in ALL_IDS:
        p = problems.get(pid)
        dspec = p.dictionary
        lift = p.lift
        store = init_mlp(MlpConfig(3 if lift else p.dim, (50, 50, 50),
                                   dspec.word_count, seed=11))
        pts = sample_interior(p, 100, rng).points

        def values(q):
            return predictor_jets(store.layers, p, dspec, q, lift).value

        F = predictor_jets(store.layers, p, dspec, pts, lift)
        d1, d2 = fd_jet(values, pts)
        assert np.array_equal(F.value, values(pts))
        assert agree(F.d1, d1, 1e-5), pid
        assert agree(F.d2, d2, 1e-5), pid
        worst_jet = max(worst_jet,
                        np.max(np.abs(F.d1 - d1) / np.maximum(np.abs(d1), 1.0)),
                        np.max(np.abs(F.d2 - d2) / np.maximum(np.abs(d2), 1.0)))

        ibatch = sample_interior(p, 20, rng)
        bbatch = sample_boundary(p, 10, rng)
        for fn, batch in ((empirical_pde_loss, ibatch),
                          (empirical_bc_loss, bbatch)):
            _, grad = fn(store, p, dspec, batch, lift)
            idx = rng.choice(store.n_params, 20, replace=False)
            fd = fd_loss_gradient(lambda s: fn(s, p, dspec, batch, lift)[0],
                                  store, idx)
            assert agree(grad[idx], fd, 1e-5), (pid, fn.__name__)
            worst_grad = max(worst_grad, np.max(
                np.abs(grad[idx] - fd)
                / np.maximum.reduce([np.abs(fd), np.abs(grad[idx]),
                                     np.ones_like(fd)])))
    report(1, True, f"max jet FD error {worst_jet:.2e}, max gradient FD "
                    f"error {worst_grad:.2e}, {time.perf_counter() - t0:.0f}s")


def test_criterion_2_operator_rhs_consistency():
    """The operator applied to the exact solution reproduces the RHS."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for pid in ALL_IDS:
        p = problems.get(pid)
        pts = sample_interior(p, 1000, rng).points
        lhs = apply_operator(p, ground_truth_jet(p, pts), pts)
        q = rhs(p, pts)
        assert agree(lhs, q, 1e-4), pid
        worst = max(worst, np.max(np.abs(lhs - q)
                                  / np.maximum.reduce([np.abs(lhs), np.abs(q),
                                                       np.ones_like(q)])))
    report(2, True, f"max consistency error {worst:.2e}, "
                    f"{time.perf_counter() - t0:.0f}s")


def test_criterion_3_poisson1d_reproduction(trained):
    """Dictionary run reaches 1e-2 while the plain MLP stays 10x worse."""
    outcomes = []
    for seed in SEEDS:
        pd_err, _ = trained[("poisson1d", "pd", seed)]
        pinn_err, _ = trained[("poisson1d", "pinn", seed)]
        outcomes.append((seed, pd_err, pinn_err,
                         pd_err < 1e-2 and pinn_err >= 10.0 * pd_err))
    passes = sum(1 for *_, ok in outcomes if ok)
    detail = "; ".join(f"seed {s}: pd {pe:.3e}, mlp {me:.3e}"
                       for s, pe, me, _ in outcomes)
    report(3, passes >= 2, f"{passes}/3 seeds pass; {detail}")
    assert passes >= 2, detail


def test_criterion_4_remaining_reproductions(trained):
    """Sphere absolute target plus the 2-D and diffusion comparatives."""
    sphere = [(s, trained[("sphere", "pd", s)][0]) for s in SEEDS]
    sphere_pass = sum(1 for _, e in sphere if e < 1e-3)
    parts = ["sphere " + ", ".join(f"{e:.2e}" for _, e in sphere)]
    ok = sphere_pass >= 2
    for pid in ("poisson2d", "diffusion1d"):
        pairs = [(trained[(pid, "pd", s)][0], trained[(pid, "pinn", s)][0])
                 for s in SEEDS]
        wins = sum(1 for pd_e, pinn_e in pairs if pd_e < pinn_e)
        ok = ok and wins >= 2
        parts.append(f"{pid} pd/mlp " + ", ".join(
            f"{a:.2e}/{b:.2e}" for a, b in pairs))
    report(4, ok, f"sphere {sphere_pass}/3 below 1e-3; " + "; ".join(parts))
    assert sphere_pass >= 2, parts[0]
    assert ok


def test_criterion_5_regularity_constants():
    """Cube and disk regularity at their published values."""
    t0 = time.perf_counter()
    cube = bounds.estimate_regularity(bounds.Box((0, 0, 0), (1, 1, 1)))
    disk = bounds.estimate_regularity(bounds.Disk(0.0, 0.0, 1.0))
    ok = 0.118 <= cube <= 0.132 and disk >= 0.37
    report(5, ok, f"cube {cube:.4f} (want [0.118, 0.132]), disk {disk:.4f} "
                  f"(want >= 0.37), {time.perf_counter() - t0:.0f}s")
    assert 0.118 <= cube <= 0.132
    assert disk >= 0.37


def test_criterion_6_bound_verification(trained):
    """Observed sup error within both Poisson bounds for trained models."""
    t0 = time.perf_counter()
    details = []
    all_ok = True
    for pid, dict_label in (("poisson1d", "fourier1d:8"),
                            ("poisson2d", "fourier2d:5,5")):
        _, store = trained[(pid, "pd", 0)]
        p = problems.get(pid)
        rep = bounds.verify_bound(store, p, DictionarySpec.parse(dict_label))
        all_ok = all_ok and rep.sup_bound_holds and rep.exp_bound_holds
        details.append(f"{pid}: observed {rep.observed_sup_error:.3e} <= "
                       f"sup bound {rep.bound_sup:.3e}, exp bound "
                       f"{rep.bound_exp:.3e}")
        assert rep.sup_bound_holds, details[-1]
        assert rep.exp_bound_holds, details[-1]
    report(6, all_ok, "; ".join(details)
           + f", {time.perf_counter() - t0:.0f}s")


def test_criterion_7_property_suite():
    """Orthogonality, eigenvalues, bilinearity, determinism, uniformity."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)

    # dictionary Gram orthogonality by quadrature
    n = 10_000
    xs = np.linspace(-np.pi, np.pi, n, endpoint=False) + np.pi / n
    words = eval_fourier1d(8, Jet2.seed(xs[:, None]).component(0)).value
    gram = words.T @ words * (2.0 * np.pi / n)
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-6

    # spherical harmonic eigenvalues under the sphere operator
    p = problems.get("sphere")
    pts = sample_interior(p, 100, rng).points
    x = Jet2.seed(pts)
    sph = eval_spherical_harmonics(3, x.component(0), x.component(1))
    i = 0
    for l in range(4):
        for _ in range(2 * l + 1):
            w = sph.component(i)
            applied = apply_operator(p, w, pts)
            want = -l * (l + 1) * w.value
            scale = max(np.max(np.abs(want)), 1e-8)
            assert np.max(np.abs(applied - want)) / scale < 1e-8
            i += 1

    # fuse bilinearity
    qpts = rng.uniform(-3, 3, size=(20, 1))
    dwords = eval_fourier1d(3, Jet2.seed(qpts).component(0))
    n1 = Jet2(rng.normal(size=(20, 7)), rng.normal(size=(20, 7, 1)),
              rng.normal(size=(20, 7, 1)))
    n2 = Jet2(rng.normal(size=(20, 7)), rng.normal(size=(20, 7, 1)),
              rng.normal(size=(20, 7, 1)))
    lhs = fuse(dwords, n1 * 0.6 + n2 * (-1.7))
    rhs_ = fuse(dwords, n1) * 0.6 + fuse(dwords, n2) * (-1.7)
    for a, b in ((lhs.value, rhs_.value), (lhs.d1, rhs_.d1), (lhs.d2, rhs_.d2)):
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(b)))

    # Adam determinism
    p1 = problems.get("poisson1d")
    s = TrainSettings(iterations=25, hidden_width=8, record_every=5, seed=3)
    r1, st1 = train(p1, p1.dictionary, s)
    r2, st2 = train(p1, p1.dictionary, s)
    assert np.array_equal(st1.flat(), st2.flat())
    assert [(r.loss_pde, r.error_predict) for r in r1] == \
           [(r.loss_pde, r.error_predict) for r in r2]

    # sampler uniformity, ten equal-measure bins at significance 0.001
    crit = 27.877164871256568
    for pid in ALL_IDS:
        pp = problems.get(pid)
        pts = sample_interior(pp, 10_000, np.random.default_rng(99)).points
        if pid == "sphere":
            z = np.cos(pts[:, 0])
            zlo, zhi = np.cos(np.pi - problems.POLE_EPS), np.cos(problems.POLE_EPS)
            u = (z - zlo) / (zhi - zlo)
        else:
            u = (pts[:, 0] - pp.lo[0]) / (pp.hi[0] - pp.lo[0])
        counts = np.bincount(np.clip((u * 10).astype(int), 0, 9), minlength=10)
        stat = np.sum((counts - 1000.0) ** 2 / 1000.0)
        assert stat < crit, (pid, stat)

    # oracle injection: exact solution makes both losses vanish
    for pid in ALL_IDS:
        pp = problems.get(pid)
        ipts = sample_interior(pp, 300, rng).points
        r = apply_operator(pp, ground_truth_jet(pp, ipts), ipts) - rhs(pp, ipts)
        assert np.mean(r ** 2) < 1e-8, pid
        bpts = sample_boundary(pp, 100, rng).points
        m = ground_truth_jet(pp, bpts).value - boundary_value(pp, bpts)
        assert np.mean(m ** 2) < 1e-8, pid

    report(7, True, f"all properties hold, {time.perf_counter() - t0:.0f}s")
