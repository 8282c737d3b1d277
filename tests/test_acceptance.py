"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The end-to-end generator criterion trains a real
model and is the long pole (several minutes); the whole suite is sized
for a single CPU core.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from nbflow import autodiff as ad
from nbflow import bench
from nbflow import boltzmann as bz
from nbflow import flow
from nbflow import graphs as gt
from nbflow import network as net
from nbflow import training as tr


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def safe_positions(rng, n, k, d, scale=1.0):
    while True:
        x = rng.standard_normal((n, d)) * scale
        dist = np.sqrt(np.sum((x[:, None] - x[None, :]) ** 2, axis=-1))
        np.fill_diagonal(dist, np.inf)
        srt = np.sort(dist, axis=1)
        if np.all(np.abs(np.diff(srt[:, :min(k + 2, n - 1)], axis=1)) > 1e-3):
            return x


def jacobian_reverse(prog, nd):
    J = np.empty((nd, nd))
    for m in range(nd):
        u = np.zeros(nd)
        u[m] = 1.0
        J[m] = ad.vjp(prog, u)
    return J


class TestCriterion1BlockHollowDecomposition:
    def test_fifty_random_instances(self):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        combos = list(itertools.product((False, True),
                                        (None, "product", "softmax")))
        worst_diag, worst_off = 0.0, 0.0
        for trial in range(50):
            pd, attention = combos[trial % len(combos)]
            n = int(rng.integers(4, 11))
            d = int(rng.choice([2, 3]))
            k = int(rng.integers(2, n))
            steps = int(rng.integers(1, 4))
            cfg = net.ArchConfig(n_hidden=5, steps=steps, knn_k=k,
                                 pairwise_diff=pd,
                                 attention=attention).validate()
            params = net.init_params(cfg, seed=trial)
            x = safe_positions(rng, n, k, d)
            prog = net.make_field_program(params, cfg, n, d, t=0.3)
            det = net.make_field_program(params, cfg, n, d, t=0.3,
                                         detach_conditioner=True)
            J_fd = ad.full_jacobian_fd(lambda v: ad.forward_eval(prog, v),
                                       x.reshape(-1), eps=1e-5)
            ad.forward_eval(det, x.reshape(-1))
            J_tau = jacobian_reverse(det, n * d)
            blocks = np.kron(np.eye(n, dtype=bool), np.ones((d, d), bool))
            worst_off = max(worst_off, np.abs(J_tau[~blocks]).max())
            worst_diag = max(worst_diag, np.abs((J_fd - J_tau)[blocks]).max())
        elapsed = time.perf_counter() - t0
        ok = worst_diag < 1e-5 and worst_off < 1e-5 and elapsed < 300
        report(1, ok,
               f"50 instances: max diagonal block of hollow part "
               f"{worst_diag:.2e} (<1e-5), max off-diagonal block of "
               f"detached part {worst_off:.2e} (<1e-5), {elapsed:.0f}s")


class TestCriterion2DivergenceEquivalence:
    def test_modes_and_counters(self):
        rng = np.random.default_rng(7)
        worst_div = 0.0
        for trial in range(10):
            n = int(rng.integers(4, 9))
            cfg = net.ArchConfig(n_hidden=6, steps=2,
                                 knn_k=int(rng.integers(2, n))).validate()
            params = net.init_params(cfg, seed=trial)
            x = rng.standard_normal((n, 2))
            ih, ib = {}, {}
            dh = flow.divergence(params, cfg, x, t=0.4, mode="hollow", info=ih)
            db = flow.divergence(params, cfg, x, t=0.4, mode="brute", info=ib)
            worst_div = max(worst_div, abs(dh - db))
            assert ih["reverse_passes"] == 2
            assert ib["reverse_passes"] == n * 2

        cfg = net.ArchConfig(n_hidden=6, steps=2, knn_k=3).validate()
        params = net.init_params(cfg, seed=99)
        prior = flow.GaussianPrior(n=6, d=2)
        rh = flow.sample_with_likelihood(params, cfg, prior, 16,
                                         mode="hollow", steps=20, seed=5)
        rb = flow.sample_with_likelihood(params, cfg, prior, 16,
                                         mode="brute", steps=20, seed=5)
        worst_ll = np.abs(rh.logrho1 - rb.logrho1).max()
        ok = worst_div <= 1e-10 and worst_ll <= 1e-9
        report(2, ok,
               f"hollow-vs-brute divergence gap {worst_div:.2e} (<=1e-10), "
               f"trajectory log-likelihood gap {worst_ll:.2e} (<=1e-9), "
               f"passes d and n*d exact")


def feature_target_gradients(params, cfg, x, graph, rng, t=0.2):
    """Gradients of every step's line features w.r.t. each edge's target."""
    xs = x[None]
    plan = net.make_plan(xs, cfg, [[graph]])
    tape = ad.Tape()
    pv = net.param_vars(tape, params)
    xv = tape.leaf(xs.reshape(-1, x.shape[1]))
    fb = net.build_field(tape, pv, cfg, xv,
                         np.zeros(x.shape[0], dtype=int),
                         np.array([t]), plan)
    out = []
    for s_var, v_var in fb.h_steps[0]:
        grads = []
        for ln in range(graph.n_edges):
            us = np.zeros(s_var.shape)
            us[ln] = rng.standard_normal(us.shape[1])
            uv = np.zeros(v_var.shape)
            uv[ln] = rng.standard_normal(uv.shape[1:])
            (gs,) = tape.vjp(s_var, us, [xv])
            (gv,) = tape.vjp(v_var, uv, [xv])
            grads.append(gs + gv)
        out.append(grads)
    return out


class TestCriterion3NonBacktrackingOracle:
    def test_pruned_features_ignore_their_target(self):
        rng = np.random.default_rng(11)
        violations = 0
        for trial in range(20):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, n))
            steps = 3 if trial % 2 == 0 else int(rng.integers(1, 4))
            cfg = net.ArchConfig(n_hidden=5, steps=steps, knn_k=k,
                                 pairwise_diff=bool(trial % 3 == 0)).validate()
            params = net.init_params(cfg, seed=trial)
            x = rng.standard_normal((n, 2))
            g = gt.build_knn_graph(x, k)
            per_step = feature_target_gradients(params, cfg, x, g, rng)
            for grads in per_step:
                for ln, grad in enumerate(grads):
                    if np.abs(grad[g.dst[ln]]).max() != 0.0:
                        violations += 1

        # control: pruning disabled on a symmetrized triangle must leak at t>=2
        cfg = net.ArchConfig(n_hidden=5, steps=3, knn_k=2,
                             prune=False).validate()
        params = net.init_params(cfg, seed=123)
        x = rng.standard_normal((3, 2))
        tri = gt.complete_graph(3)
        per_step = feature_target_gradients(params, cfg, x, tri, rng)
        early_clean = all(
            np.abs(grad[tri.dst[ln]]).max() == 0.0
            for t_idx in (0, 1) for ln, grad in enumerate(per_step[t_idx]))
        late_leaks = any(
            np.abs(grad[tri.dst[ln]]).max() > 0.0
            for t_idx in (2, 3) for ln, grad in enumerate(per_step[t_idx]))
        ok = violations == 0 and early_clean and late_leaks
        report(3, ok,
               f"20 pruned graphs: {violations} target-dependence "
               f"violations (need 0); unpruned triangle leaks at t>=2: "
               f"{late_leaks} (must leak)")


class TestCriterion4BacktrackTable:
    def test_soundness_and_completeness(self):
        rng = np.random.default_rng(13)
        sound_violations = 0
        marked = dependent = 0
        for trial in range(6):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, n))
            pd = trial % 2 == 1
            cfg = net.ArchConfig(n_hidden=5, steps=2, knn_k=k,
                                 pairwise_diff=pd).validate()
            params = net.init_params(cfg, seed=trial + 60)
            x = safe_positions(rng, n, k, 2)
            g = gt.build_knn_graph(x, k)
            lg = gt.build_line_graph(g)
            bt = gt.init_backtracking(lg, pd)
            tables = [bt.table.copy()]
            for _ in range(cfg.steps):
                gt.prune_and_update(lg, bt)
                tables.append(bt.table.copy())
            per_step = feature_target_gradients(params, cfg, x, g, rng)
            # soundness: unmarked entries have exactly zero AD gradient
            for t_idx, grads in enumerate(per_step):
                for ln, grad in enumerate(grads):
                    for node in range(n):
                        if not tables[t_idx][ln, node] \
                                and np.abs(grad[node]).max() != 0.0:
                            sound_violations += 1
            if pd:
                continue  # completeness is only claimed for plain mode
            u_s = rng.standard_normal(cfg.n_hidden)
            u_v = rng.standard_normal((cfg.n_hidden, 2))

            def probe(flat, t_idx):
                plan = net.make_plan(flat.reshape(1, n, 2), cfg, [[g]])
                tape = ad.Tape()
                pv = net.param_vars(tape, params)
                xv = tape.leaf(flat.reshape(n, 2))
                fb = net.build_field(tape, pv, cfg, xv,
                                     np.zeros(n, dtype=int),
                                     np.array([0.2]), plan)
                s_var, v_var = fb.h_steps[0][t_idx]
                return (s_var.value @ u_s
                        + np.einsum("ldc,cd->l", v_var.value, u_v))

            for t_idx in range(cfg.steps + 1):
                J = ad.full_jacobian_fd(lambda v: probe(v, t_idx),
                                        x.reshape(-1), eps=1e-5)
                dep = np.abs(J).reshape(g.n_edges, n, 2).max(axis=2)
                for ln in range(g.n_edges):
                    for node in range(n):
                        if tables[t_idx][ln, node]:
                            marked += 1
                            dependent += dep[ln, node] > 1e-8
        frac = dependent / marked
        ok = sound_violations == 0 and frac >= 0.95
        report(4, ok,
               f"soundness violations {sound_violations} (need 0); "
               f"completeness {100 * frac:.1f}% of {marked} marked entries "
               f"show FD dependence (need >=95%)")


class TestCriterion5EdgeCountLaws:
    def test_complete_and_knn_scaling(self):
        exact = all(
            gt.build_line_graph(gt.complete_graph(n)).n_triples
            == n * (n - 1) * (n - 2)
            for n in range(3, 31))
        rng = np.random.default_rng(17)
        ns = [16, 32, 64, 128]
        counts = []
        for n in ns:
            x = rng.standard_normal((n, 2))
            counts.append(gt.build_line_graph(
                gt.build_knn_graph(x, 4)).n_triples)
        slope, stderr = bench.fit_scaling(ns, counts)
        ok = exact and abs(slope - 1.0) <= 0.2
        report(5, ok,
               f"complete-graph counts exact for n=3..30: {exact}; "
               f"kNN(k=4) line-edge slope {slope:.3f} (need 1.0 +/- 0.2)")


@pytest.mark.timing
class TestCriterion6RuntimeTrends:
    def test_scaling_and_speedup(self):
        rng = np.random.default_rng(19)
        t0 = time.perf_counter()
        hollow, base = [], []
        for n in (8, 16, 32, 64):
            x = rng.standard_normal((n, 2))
            hcfg = net.ArchConfig(n_hidden=32, steps=2, knn_k=4).validate()
            bcfg = net.ArchConfig(n_hidden=32, steps=2,
                                  baseline=True).validate()
            hollow.append(bench.measure_step(
                net.init_params(hcfg, seed=1), hcfg, x, mode="hollow",
                repeats=3))
            base.append(bench.measure_step(
                net.init_params(bcfg, seed=1), bcfg, x, mode="baseline",
                repeats=3))
        ns = [8, 16, 32, 64]
        b_slope, _ = bench.fit_scaling(ns, [r.rt_divergence for r in base])
        h_slope, _ = bench.fit_scaling(ns, [r.rt for r in hollow])
        ratios = [b.rt / h.rt for h, b in zip(hollow, base)]
        increasing = all(a < c for a, c in zip(ratios, ratios[1:]))
        elapsed = time.perf_counter() - t0
        ok = b_slope >= 2.5 and h_slope <= 1.5 and increasing \
            and elapsed < 1800
        report(6, ok,
               f"baseline divergence slope {b_slope:.2f} (>=2.5), hollow "
               f"step slope {h_slope:.2f} (<=1.5), speed-up "
               f"{ratios[0]:.0f}x->{ratios[-1]:.0f}x increasing: "
               f"{increasing}, {elapsed:.0f}s")


class TestCriterion7AnalyticFlow:
    def test_contraction_field(self):
        def rate(x, t):
            return -x, np.full(x.shape[0], -float(x.shape[1] * x.shape[2]))

        rng = np.random.default_rng(23)
        x0 = rng.standard_normal((8, 5, 3))
        state = flow.rk4_integrate(rate, x0, steps=20)
        dl_err = np.abs(state.delta_logrho - 15.0).max()
        x_err = np.abs(state.x - np.exp(-1.0) * x0).max()
        ok = dl_err <= 1e-9 and x_err <= 1e-6
        report(7, ok,
               f"log-density change error {dl_err:.2e} (<=1e-9), endpoint "
               f"error {x_err:.2e} (<=1e-6) for 20-step RK4 on b=-x")


class TestCriterion8Metrics:
    def test_kish_and_clipping(self):
        uniform = bz.ess_kish(np.zeros(64))
        onehot = bz.ess_kish(np.concatenate([[0.0], np.full(7, -np.inf)]))
        rng = np.random.default_rng(29)
        logw = rng.standard_normal(100)
        noop = bz.ess_clipped(logw, pct=0.0) == bz.ess_kish(logw)
        inner = np.sort(logw)[1:99]
        clipped = bz.ess_clipped(logw, pct=1.0)
        retains98 = clipped == pytest.approx(bz.ess_kish(inner))
        ok = (abs(uniform - 1.0) < 1e-12 and abs(onehot - 1 / 8) < 1e-12
              and noop and retains98)
        report(8, ok,
               f"uniform ESS {uniform:.12f} (=1), one-hot ESS {onehot:.4f} "
               f"(=1/8), pct=0 no-op: {noop}, pct=1 retains exactly 98: "
               f"{retains98}")


class TestCriterion9MinibatchOt:
    def test_hungarian_equals_enumeration(self):
        rng = np.random.default_rng(31)
        failures = 0
        for trial in range(100):
            B = int(rng.integers(2, 8))
            x0 = rng.standard_normal((B, 2))
            x1 = rng.standard_normal((B, 2))
            perm = tr.minibatch_ot_coupling(x0, x1)
            got = sum(np.sum((x0[i] - x1[perm[i]]) ** 2) for i in range(B))
            best = min(
                sum(np.sum((x0[i] - x1[p[i]]) ** 2) for i in range(B))
                for p in itertools.permutations(range(B)))
            if not np.isclose(got, best, rtol=0, atol=1e-12):
                failures += 1
        report(9, failures == 0,
               f"{failures} of 100 random batches (size<=7) off the "
               f"exhaustive minimum (need 0)")


class TestCriterion10EndToEndGenerator:
    def test_two_mode_boltzmann_generator(self):
        t0 = time.perf_counter()
        spec = bz.SystemSpec(kind="gaussian_mixture", n=5, d=2, beta=1.0,
                             mixture_means=[[0.0, 0.0], [0.0, 0.0]],
                             mixture_sigmas=[0.4, 1.2]).validate()
        chain = bz.mcmc_sample(spec, 10_000, step_size=0.35, seed=0,
                               burn_in=2000, thin=5)
        cfg = net.ArchConfig(n_hidden=16, steps=2, knn_k=3).validate()
        tc = tr.TrainConfig(batch_size=128, epochs=40, seed=0,
                            lr_initial=5e-4, lr_final=5e-5, ramp_epochs=30,
                            validation_fraction=0.1)
        import tempfile
        result = tr.train(tc, cfg, chain.samples, tempfile.mkdtemp())
        params, _, _ = net.load_checkpoint(result.best_checkpoint)
        prior = flow.GaussianPrior(n=5, d=2)
        run = flow.sample_with_likelihood(params, cfg, prior, count=2000,
                                          mode="hollow", steps=20, seed=1,
                                          batch_size=250)
        ws = bz.importance_weights(run.x, run.logrho1, spec)
        ess_rem = bz.ess_clipped(ws.logw, pct=1.0)

        # hollow vs brute weights on a subset
        rb = flow.sample_with_likelihood(params, cfg, prior, count=250,
                                         mode="brute", steps=20, seed=1,
                                         batch_size=250)
        wb = bz.importance_weights(rb.x, rb.logrho1, spec)
        weight_gap = np.abs(ws.logw[:250] - wb.logw).max()
        elapsed = time.perf_counter() - t0
        ok = ess_rem >= 0.10 and weight_gap <= 1e-9 and elapsed < 1800
        report(10, ok,
               f"clipped ESS {100 * ess_rem:.1f}% (>=10%), hollow-vs-brute "
               f"log-weight gap {weight_gap:.2e} (<=1e-9), "
               f"{elapsed / 60:.1f} min (<30)")


class TestCriterion11Equivariance:
    def test_rotation_translation_permutation(self):
        rng = np.random.default_rng(37)
        x = None
        while x is None:
            cand = rng.standard_normal((6, 2))
            d2 = np.sqrt(np.sum((cand[:, None] - cand[None, :]) ** 2, -1))
            np.fill_diagonal(d2, np.inf)
            if np.abs(np.diff(np.sort(d2, 1)[:, :4], axis=1)).min() > 1e-3:
                x = cand
        theta = rng.uniform(0, 2 * np.pi)
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        shift = np.array([2.5, -1.0])
        perm = rng.permutation(6)

        cfg = net.ArchConfig(n_hidden=8, steps=2, knn_k=3).validate()
        params = net.init_params(cfg, seed=41)
        b = net.hollow_forward(params, cfg, x, t=0.3)
        rot_err = np.abs(net.hollow_forward(params, cfg, x @ R.T, t=0.3)
                         - b @ R.T).max()

        pcfg = net.ArchConfig(n_hidden=8, steps=2, knn_k=3,
                              pairwise_diff=True).validate()
        pparams = net.init_params(pcfg, seed=42)
        bp = net.hollow_forward(pparams, pcfg, x, t=0.3)
        tr_err = np.abs(net.hollow_forward(pparams, pcfg, x + shift, t=0.3)
                        - bp).max()

        perm_err = np.abs(net.hollow_forward(params, cfg, x[perm], t=0.3)
                          - b[perm]).max()
        ucfg = net.ArchConfig(n_hidden=8, steps=2, knn_k=3,
                              unique_nodes=6).validate()
        uparams = net.init_params(ucfg, seed=43)
        bu = net.hollow_forward(uparams, ucfg, x, t=0.3)
        broken_gap = np.abs(net.hollow_forward(uparams, ucfg, x[perm], t=0.3)
                            - bu[perm]).max()
        ok = (rot_err <= 1e-8 and tr_err <= 1e-10 and perm_err <= 1e-10
              and broken_gap > 1e-6)
        report(11, ok,
               f"rotation {rot_err:.1e} (<=1e-8), translation {tr_err:.1e} "
               f"(<=1e-10), permutation {perm_err:.1e} (=0), unique-node "
               f"embeddings break permutation by {broken_gap:.1e} (>1e-6)")


class TestCriterion12ConnectivityProfile:
    def test_complete_graph_disconnects_after_one_step(self):
        profile = gt.connectivity_profile(gt.complete_graph(4), pd=False,
                                          steps=2)
        ok = profile.tolist() == [24, 0]
        report(12, ok,
               f"complete n=4 active line edges per step {profile.tolist()} "
               f"(need [24, 0])")
