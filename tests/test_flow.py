"""Integrator accuracy, divergence-mode agreement, priors, and sampling."""

import contextlib
import dataclasses
import multiprocessing
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import multivariate_normal

from nbflow import autodiff as ad
from nbflow import flow
from nbflow import graphs as gt
from nbflow import network as net
from nbflow import training
from test_autodiff import NanPool, in_pool, pool_swapped, shard_pools
from test_graphs import make_cloud


def linear_rate(A):
    """Rate function of the linear field b(x) = x A^T per particle row."""
    def rate(x, t):
        B, n, d = x.shape
        vel = x.reshape(B, n * d) @ A.T
        div = np.full(B, np.trace(A))
        return vel.reshape(B, n, d), div
    return rate


def contraction_rate(x, t):
    B = x.shape[0]
    return -x, np.full(B, -x.shape[1] * x.shape[2])


def zero_rate(x, t):
    return np.zeros_like(x), np.zeros(x.shape[0])


class TestRk4:
    def test_scalar_contraction_reaches_exp_minus_one(self):
        x0 = np.array([[[1.0]]])
        state = flow.rk4_integrate(contraction_rate, x0, steps=20)
        assert abs(state.x[0, 0, 0] - np.exp(-1.0)) < 1e-6

    def test_zero_field_is_identity(self):
        x0 = np.random.default_rng(0).standard_normal((3, 4, 2))
        state = flow.rk4_integrate(zero_rate, x0, steps=20)
        np.testing.assert_array_equal(state.x, x0)
        np.testing.assert_array_equal(state.delta_logrho, np.zeros(3))

    def test_contraction_log_density_change_is_dn(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((5, 4, 3))
        state = flow.rk4_integrate(contraction_rate, x0, steps=20)
        np.testing.assert_allclose(state.delta_logrho, np.full(5, 12.0),
                                   atol=1e-9)
        np.testing.assert_allclose(state.x, np.exp(-1.0) * x0, atol=1e-6)

    def test_forward_then_reverse_roundtrip(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 6))
        A = 0.6 * A / np.linalg.norm(A, 2)
        rate = linear_rate(A)
        x0 = rng.standard_normal((4, 3, 2))
        fwd = flow.rk4_integrate(rate, x0, steps=20, direction="forward")
        back = flow.rk4_integrate(rate, fwd.x, steps=20, direction="reverse")
        assert np.abs(back.x - x0).max() < 1e-8
        assert np.abs(fwd.delta_logrho + back.delta_logrho).max() < 1e-8

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            flow.rk4_integrate(zero_rate, np.zeros((1, 2, 2)), steps=0)
        with pytest.raises(ValueError):
            flow.rk4_integrate(zero_rate, np.zeros((1, 2, 2)), steps=5,
                               direction="sideways")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_state_reports_step(self):
        def blowup(x, t):
            return x * 1e200, np.zeros(x.shape[0])
        with pytest.raises(FloatingPointError, match="step"):
            flow.rk4_integrate(blowup, np.ones((1, 2, 2)), steps=10)


class TestGaussianPrior:
    def test_full_log_density_matches_scipy(self):
        prior = flow.GaussianPrior(n=4, d=2)
        rng = np.random.default_rng(3)
        x = prior.sample(rng, 10)
        ours = prior.log_density(x)
        ref = multivariate_normal(mean=np.zeros(8)).logpdf(x.reshape(10, 8))
        np.testing.assert_allclose(ours, ref, atol=1e-10)

    def test_mean_free_samples_are_centered(self):
        prior = flow.GaussianPrior(n=5, d=3, mean_free=True)
        x = prior.sample(np.random.default_rng(4), 7)
        np.testing.assert_allclose(x.mean(axis=1), 0.0, atol=1e-14)

    def test_mean_free_density_matches_subspace_gaussian(self):
        # build an orthonormal basis of the zero-mean subspace per dimension
        n, d = 5, 2
        prior = flow.GaussianPrior(n=n, d=d, mean_free=True)
        rng = np.random.default_rng(5)
        x = prior.sample(rng, 6)
        ones = np.ones((n, 1)) / np.sqrt(n)
        Q, _ = np.linalg.qr(np.eye(n) - ones @ ones.T)
        Q = Q[:, :n - 1]  # columns span the subspace
        coords = np.einsum("bnd,nm->bmd", x, Q).reshape(6, (n - 1) * d)
        ref = multivariate_normal(mean=np.zeros((n - 1) * d)).logpdf(coords)
        np.testing.assert_allclose(prior.log_density(x), ref, atol=1e-10)


class TestDivergenceModes:
    def setup_method(self):
        self.cfg = net.ArchConfig(n_hidden=6, steps=2, knn_k=3).validate()
        self.params = net.init_params(self.cfg, seed=0)
        self.x = np.random.default_rng(6).standard_normal((6, 2))

    def test_hollow_equals_brute(self):
        dh = flow.divergence(self.params, self.cfg, self.x, t=0.3, mode="hollow")
        db = flow.divergence(self.params, self.cfg, self.x, t=0.3, mode="brute")
        assert abs(dh - db) <= 1e-10

    def test_hollow_matches_fd(self):
        dh = flow.divergence(self.params, self.cfg, self.x, t=0.3, mode="hollow")
        df = flow.divergence(self.params, self.cfg, self.x, t=0.3, mode="fd")
        assert abs(dh - df) <= 1e-4

    def test_pass_counters(self):
        info = {}
        flow.divergence(self.params, self.cfg, self.x, mode="hollow", info=info)
        assert info["reverse_passes"] == 2
        flow.divergence(self.params, self.cfg, self.x, mode="brute", info=info)
        assert info["reverse_passes"] == 12

    def test_batched_agreement(self):
        xb = np.random.default_rng(7).standard_normal((5, 6, 2))
        dh = flow.divergence(self.params, self.cfg, xb, t=0.1, mode="hollow")
        db = flow.divergence(self.params, self.cfg, xb, t=0.1, mode="brute")
        np.testing.assert_allclose(dh, db, atol=1e-10)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            flow.divergence(self.params, self.cfg, self.x, mode="hutchinson")


class TestFiniteDifferenceMode:
    def setup_method(self):
        self.cfg = net.ArchConfig(n_hidden=6, steps=2, knn_k=2,
                                  n_types=2).validate()
        self.params = net.init_params(self.cfg, seed=1)
        self.x = np.random.default_rng(2).standard_normal((2, 4, 2))
        self.Z = np.array([[0, 1, 1, 0], [1, 1, 0, 0]])

    def test_per_sample_labels(self):
        args = (self.params, self.cfg, self.x, self.Z, 0.2)
        dh = flow.divergence(*args, mode="hollow")
        df = flow.divergence(*args, mode="fd")
        np.testing.assert_allclose(df, dh, rtol=0, atol=1e-6)
        vh, rh = flow.ModelField(self.params, self.cfg, Z=self.Z,
                                 mode="hollow").rate(self.x, 0.2)
        vf, rf = flow.ModelField(self.params, self.cfg, Z=self.Z,
                                 mode="fd").rate(self.x, 0.2)
        np.testing.assert_array_equal(vf, vh)
        np.testing.assert_allclose(rf, rh, rtol=0, atol=1e-6)

    def test_per_sample_graph_override(self):
        override = [[gt.complete_graph(4)],
                    [gt.build_knn_graph(self.x[1], 1)]]
        args = (self.params, self.cfg, self.x, self.Z, 0.6)
        dh = flow.divergence(*args, mode="hollow", graph_override=override)
        df = flow.divergence(*args, mode="fd", graph_override=override)
        np.testing.assert_allclose(df, dh, rtol=0, atol=1e-6)

    def test_sampling_reports_timings(self):
        prior = flow.GaussianPrior(n=3, d=2)
        run = flow.sample_with_likelihood(self.params, self.cfg, prior,
                                          count=2, mode="fd", steps=1, seed=0)
        assert run.rt_forward > 0 and run.rt_divergence > 0
        assert run.reverse_passes == 0


# random hollow fields: clouds with ties and duplicates, kNN or head graphs
FIELD_CASES = dict(
    kind=st.sampled_from(["gaussian", "lattice", "coincident"]),
    n=st.integers(2, 12), d=st.sampled_from([2, 3]), B=st.integers(1, 3),
    graph=st.sampled_from(["knn", "heads"]),
    attention=st.sampled_from([None, "product", "softmax"]),
    pairwise_diff=st.booleans(), seed=st.integers(0, 2**32 - 1))


def random_field(kind, n, d, B, graph, attention, pairwise_diff, seed):
    """(cfg, params, x, Z, t, rng) for one FIELD_CASES example."""
    rng = np.random.default_rng(seed)
    if graph == "knn":
        shape = dict(knn_k=int(rng.integers(1, n)))
    else:
        H = int(rng.integers(1, 4))
        shape = dict(heads=H, overlap=int(rng.integers(0, H)))
    cfg = net.ArchConfig(n_hidden=5, n_types=3, attention=attention,
                         pairwise_diff=pairwise_diff, **shape).validate()
    params = net.init_params(cfg, seed=seed % 1000)
    x = np.stack([make_cloud(kind, n, d, seed + s) for s in range(B)])
    Z = rng.integers(0, 3, size=(B, n))
    return cfg, params, x, Z, float(rng.random()), rng


@contextlib.contextmanager
def shards_forced(cores):
    """``field_and_divergence`` sees ``cores`` usable cores, one BLAS thread
    and one particle per shard at least, so it runs min(B, cores) shards."""
    saved = flow.usable_cores, flow.blas_threads, flow.SHARD_PARTICLES
    flow.usable_cores, flow.blas_threads = (lambda: cores), (lambda: 1)
    flow.SHARD_PARTICLES = 1
    try:
        yield
    finally:
        flow.usable_cores, flow.blas_threads, flow.SHARD_PARTICLES = saved


class TestFieldAndDivergenceProperties:
    """Hollow divergence against the dense brute-force oracle (n*d unit
    cotangents), both through ``field_and_divergence``, and every mode's
    sharded stage against its one-shard stage.  Every shard runs on a
    NanPool at every depth, so a read of a conditioner buffer that its
    build released would show up as NaN."""

    @given(**FIELD_CASES, steps=st.integers(1, 3), shards=st.integers(1, 3),
           override=st.booleans())
    def test_hollow_equals_brute(self, steps, shards, override, **case):
        cfg, params, x, Z, _, rng = random_field(**case)
        cfg = dataclasses.replace(cfg, steps=steps).validate()
        B, n, d = x.shape
        t = rng.random(B)  # one flow time per sample
        # each sample gets its own graphs, built from another sample
        go = [net.sample_graphs(x[(s + 1) % B], cfg)
              for s in range(B)] if override else None
        make_field_program, built = net.make_field_program, []

        def recording(*args, **kw):  # each shard's labels, times, graphs
            built.append((kw["Z"], kw["t"], kw["graph_override"]))
            return make_field_program(*args, **kw)

        out = {}
        for S in (1, shards):
            with shards_forced(S), pool_swapped(NanPool()), \
                    pytest.MonkeyPatch.context() as mp:
                mp.setattr(net, "make_field_program", recording)
                for mode in ("hollow", "brute", "fd"):
                    built.clear()
                    out[S, mode] = flow.field_and_divergence(
                        params, cfg, x, Z, t, mode, go)
                    assert out[S, mode][2]["shards"] == len(built) == min(B, S)
                    blocks = []  # shards run in any order: find each one's
                    for z, u, o in built:  # samples by its first time
                        a, m = int(np.flatnonzero(t == u[0])[0]), len(u)
                        assert np.array_equal(u, t[a:a + m])
                        assert np.array_equal(z, Z[a:a + m])
                        assert o == (go and go[a:a + m])
                        blocks.append((a, a + m))
                    cuts = [a for a, _ in sorted(blocks)] + [B]
                    assert sorted(blocks) == list(zip(cuts, cuts[1:]))
                    assert len(shard_pools()) == min(B, S)
                    assert all(isinstance(p, NanPool) for p in shard_pools())
        for mode in ("hollow", "brute", "fd"):
            (v1, d1, s1), (vs, ds, ss) = out[1, mode], out[shards, mode]
            assert (vs.tobytes(), ds.tobytes()) == (v1.tobytes(), d1.tobytes())
            assert ss["reverse_passes"] == s1["reverse_passes"]
        (vh, dh, sh), (vb, db, sb) = out[1, "hollow"], out[1, "brute"]
        assert vh.tobytes() == vb.tobytes() == out[1, "fd"][0].tobytes()
        assert np.abs(dh - db).max() <= 1e-10
        assert (sh["reverse_passes"], sb["reverse_passes"]) == (d, n * d)


def pool_bytes_after_a_stage(steps):
    """Bytes every shard's fresh pool holds after one hollow B=64, n=13
    stage."""
    cfg = net.ArchConfig(n_hidden=32, steps=steps, knn_k=4,
                         pairwise_diff=True).validate()
    x = np.random.default_rng(2).standard_normal((64, 13, 3))
    with pool_swapped(ad.Arena()):
        flow.field_and_divergence(net.init_params(cfg, seed=1), cfg, x, t=0.3)
        return sum(b.nbytes for pool in shard_pools()
                   for b in pool.bufs.values())


class TestConditionerRelease:
    """A detached (hollow) build gives each conditioner stage's buffers
    back to the pool once the next stage exists, so a stage's pool stops
    growing with the number of message rounds."""

    def test_pool_does_not_grow_with_depth(self):
        one, four = pool_bytes_after_a_stage(1), pool_bytes_after_a_stage(4)
        assert four <= 1.3 * one


class TestPrunedReversePassProperties:
    """A reverse pass that computes only what reaches ``wrt`` against the
    same tape's pass over every leaf, which is the oracle."""

    @given(**FIELD_CASES)
    def test_input_gradient_alone_equals_full_pass(self, **case):
        cfg, params, x, Z, t, rng = random_field(**case)
        B, n, d = x.shape
        for detach in (False, True):
            prog = net.make_field_program(params, cfg, n, d, Z=Z, t=t, batch=B,
                                          detach_conditioner=detach)
            ad.forward_eval(prog, x.reshape(-1))
            tape, out, xin = prog.tape, prog.out_var, prog.in_var
            leaves = [ad.Var(tape, i) for i, kind in enumerate(tape.kinds)
                      if kind == "leaf" and i != xin.i]
            u = rng.standard_normal(out.shape)
            (alone,) = tape.vjp(out, u, [xin])
            full = tape.vjp(out, u, [xin, *leaves])
            assert alone.tobytes() == full[0].tobytes()

    @given(**FIELD_CASES)
    def test_cfm_gradients_do_not_depend_on_requesting_x(self, **case):
        cfg, params, x, Z, t, rng = random_field(**case)
        B = len(x)
        batch = training.make_cfm_batch(rng.standard_normal(x.shape), x,
                                        rng.random(B), 0.01, rng=rng, Z=Z)
        _, grads = training.cfm_loss_and_grad(params, cfg, batch)
        tape, pv, loss = training._loss_tape(params, cfg, batch)
        x_t = ad.Var(tape, len(pv))  # the const after the parameter leaves
        assert tape.kinds[x_t.i] == "const"
        np.testing.assert_array_equal(x_t.value, batch.x_t.reshape(-1, x.shape[2]))
        (x_only,) = tape.vjp(loss, np.asarray(1.0), [x_t])
        with_x = tape.vjp(loss, np.asarray(1.0), [*pv.values(), x_t])
        assert x_only.tobytes() == with_x[-1].tobytes() and np.any(x_only)
        for name, g in zip(pv, with_x):
            assert g.tobytes() == grads[name].tobytes()


def fresh_rate(params, cfg, Z, mode, log):
    """The RK4 rate from tapes without a pool; the oracle for ModelField."""
    def rate(x, t):
        B, n, d = x.shape
        prog = net.make_field_program(params, cfg, n, d, Z=Z, t=t, batch=B,
                                      detach_conditioner=(mode == "hollow"))
        vel = ad.forward_eval(prog, x.reshape(-1)).reshape(B, n, d)
        probes = (ad.probe_vectors(B * n, d) if mode == "hollow"
                  else ad.probe_vectors(B, n * d))
        div = ad.jacobian_diagonal(prog, probes).reshape(B, -1).sum(axis=1)
        log.append((x.copy(), vel, div))
        return vel, div
    return rate


def logged(rate, log):
    def logged_rate(x, t):
        vel, div = rate(x, t)
        log.append((x.copy(), vel, div))
        return vel, div
    return logged_rate


def integrate_both(params, cfg, Z, mode, x, steps):
    """ModelField's integration on a NanPool and the fresh-tape one, checked
    bitwise stage by stage; returns the ModelField and the stage inputs."""
    mf = flow.ModelField(params, cfg, Z=Z, mode=mode)
    got, ref = [], []
    with pool_swapped(NanPool()) as pool:
        s1 = flow.rk4_integrate(logged(mf.rate, got), x, steps)
    s2 = flow.rk4_integrate(fresh_rate(params, cfg, Z, mode, ref), x, steps)
    assert s1.x.tobytes() == s2.x.tobytes()
    assert s1.delta_logrho.tobytes() == s2.delta_logrho.tobytes()
    assert len(got) == len(ref) == 4 * steps
    for (xa, va, da), (xb, vb, db) in zip(got, ref):
        assert (xa.tobytes(), va.tobytes(), da.tobytes()) == (
            xb.tobytes(), vb.tobytes(), db.tobytes())
        for a in (va, da):
            assert not in_pool(a, pool)
    return mf, [xa for xa, _, _ in got]


class TestModelFieldArena:
    """ModelField records every stage on the pool, whose buffers hold the
    last stage's values; its results must be those of fresh tapes."""

    @given(**FIELD_CASES, mode=st.sampled_from(["hollow", "brute"]),
           steps=st.integers(1, 2))
    def test_stages_match_fresh_tapes(self, mode, steps, **case):
        cfg, params, x, Z, _, _ = random_field(**case)
        integrate_both(params, cfg, Z, mode, x, steps)

    @pytest.mark.parametrize("mode", ["hollow", "brute"])
    def test_topology_changes_between_stages(self, mode):
        cfg = net.ArchConfig(n_hidden=8, steps=2, knn_k=3,
                             pairwise_diff=True).validate()
        params = net.init_params(cfg, seed=8)
        params["read.Wo"] *= 3.0  # a faster field: more kNN switches
        x = np.random.default_rng(4).standard_normal((3, 9, 3))
        _, xs = integrate_both(params, cfg, None, mode, x, steps=3)
        # edges E and line-graph triples T per stage: both grow and shrink
        sizes = [(hp.src.idx.size, hp.init_from.idx.size) for hp in
                 (net.make_plan(xa, cfg).heads[0] for xa in xs)]
        for k in (0, 1):
            steps = np.diff([size[k] for size in sizes])
            assert np.any(steps > 0) and np.any(steps < 0)

    def test_fd_mode_reads_each_sample_jacobian(self):
        # one program for the batch; each sample's own program is the oracle
        cfg = net.ArchConfig(n_hidden=5, steps=2, knn_k=2, n_types=2).validate()
        params = net.init_params(cfg, seed=6)
        x = np.random.default_rng(7).standard_normal((2, 4, 2))
        Z = np.array([[0, 1, 1, 0], [1, 0, 0, 1]])
        with pool_swapped(NanPool()) as pool:
            vel, div, stats = flow.field_and_divergence(params, cfg, x, Z, 0.3,
                                                        "fd")
        for s in range(2):
            prog = net.make_field_program(params, cfg, 4, 2, Z=Z[s], t=0.3)
            J = ad.full_jacobian_fd(lambda v: ad.forward_eval(prog, v),
                                    x[s].reshape(-1))
            assert abs(div[s] - np.trace(J)) <= 1e-9
        shared = flow.divergence(params, cfg, x, Z[0], 0.3, "fd")
        assert abs(shared[1] - div[1]) > 1e-6  # sample 1's labels matter
        assert not in_pool(vel, pool) and not in_pool(div, pool)
        assert stats["reverse_passes"] == 0

    @pytest.mark.parametrize("attention", ["product", "softmax"])
    def test_fd_velocity_is_the_batch_program_velocity(self, attention):
        cfg = net.ArchConfig(n_hidden=32, steps=2, knn_k=4, attention=attention,
                             pairwise_diff=True).validate()
        params = net.init_params(cfg, seed=3)
        x = np.random.default_rng(4).standard_normal((8, 13, 3))
        vel = [flow.field_and_divergence(params, cfg, x, t=0.4, mode=mode)[0]
               for mode in ("hollow", "brute", "fd")]
        assert vel[0].tobytes() == vel[1].tobytes() == vel[2].tobytes()

    def test_later_stages_allocate_no_slot(self):
        # a fixed graph keeps every shape, so later stages make no buffer
        cfg = net.ArchConfig(n_hidden=6, steps=2, knn_k=2).validate()
        params = net.init_params(cfg, seed=8)
        x = np.random.default_rng(9).standard_normal((2, 5, 2))
        override = [[gt.build_knn_graph(x[s], 2)] for s in range(2)]
        mf = flow.ModelField(params, cfg, graph_override=override)
        with pool_swapped(NanPool()) as pool:
            mf.rate(x, 0.0)
            bufs = list(pool.bufs.values())
            for t in (0.25, 0.5, 1.0):
                mf.rate(x * (1.0 + t), t)
                assert all(a is b for a, b in zip(pool.bufs.values(), bufs,
                                                  strict=True))
        assert mf.reverse_passes == 4 * 2


def interleaved_calls(params, cfg, x, Z, t, batches):
    """Sampling stages, full reverse-mode Jacobians and CFM steps, one after
    the other on whatever ``autodiff.POOL`` is; every array they return."""
    B, n, d = x.shape
    out = []
    modes = ["brute"] if cfg.baseline else ["hollow", "brute"]
    for mode, batch in zip(modes * 2, batches):
        vel, div, stats = flow.field_and_divergence(params, cfg, x, Z, t, mode)
        assert stats["reverse_passes"] == (d if mode == "hollow" else n * d)
        out += [vel, div]
        loss, grads = training.cfm_loss_and_grad(params, cfg, batch)
        out += [np.float64(loss), *grads.values()]
        prog = net.make_field_program(params, cfg, n, d, Z=Z, t=t, batch=B,
                                      detach_conditioner=(mode == "hollow"))
        prog.arena = ad.POOL
        ad.forward_eval(prog, x.reshape(-1))
        out.append(np.stack([ad.vjp(prog, e) for e in np.eye(B * n * d)]))
        out.append(np.float64(training.cfm_loss(params, cfg, batch)))
    return out


class TestPoolProperties:
    """Sampling and training interleaved on one pool that fills each buffer
    with NaN when it hands it out and when it takes it back: bitwise the
    results of the same calls on tapes without a pool."""

    @given(**FIELD_CASES, baseline=st.booleans())
    def test_interleaved_calls_match_tapes_without_a_pool(self, baseline,
                                                           **case):
        cfg, params, x, Z, t, rng = random_field(**case)
        if baseline:  # no heads and no attention: plain kNN or complete
            cfg = dataclasses.replace(cfg, baseline=True, attention=None,
                                      heads=None, overlap=0).validate()
            params = net.init_params(cfg, seed=case["seed"] % 1000)
        batches = [training.make_cfm_batch(rng.standard_normal(x.shape), x,
                                           rng.random(len(x)), 0.01, rng=rng,
                                           Z=Z) for _ in range(2)]
        with pool_swapped(None):
            ref = interleaved_calls(params, cfg, x, Z, t, batches)
        with pool_swapped(NanPool()) as pool:
            got = interleaved_calls(params, cfg, x, Z, t, batches)
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not in_pool(a, pool)


class TestSampleWithLikelihood:
    def test_zero_field_keeps_prior_density(self):
        cfg = net.ArchConfig(n_hidden=4, steps=1, knn_k=2).validate()
        params = net.zero_params(cfg)
        prior = flow.GaussianPrior(n=4, d=2)
        run = flow.sample_with_likelihood(params, cfg, prior, count=16,
                                          steps=5, seed=1)
        np.testing.assert_array_equal(run.logrho1, run.logrho0)
        np.testing.assert_array_equal(run.delta_logrho, np.zeros(16))

    def test_hollow_and_brute_identical_on_same_seed(self):
        cfg = net.ArchConfig(n_hidden=5, steps=2, knn_k=2).validate()
        params = net.init_params(cfg, seed=2)
        prior = flow.GaussianPrior(n=4, d=2)
        rh = flow.sample_with_likelihood(params, cfg, prior, count=8,
                                         mode="hollow", steps=8, seed=3)
        rb = flow.sample_with_likelihood(params, cfg, prior, count=8,
                                         mode="brute", steps=8, seed=3)
        np.testing.assert_array_equal(rh.x, rb.x)
        assert np.abs(rh.logrho1 - rb.logrho1).max() <= 1e-9

    def test_pass_accounting(self):
        cfg = net.ArchConfig(n_hidden=4, steps=1, knn_k=2).validate()
        params = net.init_params(cfg, seed=4)
        prior = flow.GaussianPrior(n=3, d=2)
        run = flow.sample_with_likelihood(params, cfg, prior, count=4,
                                          mode="hollow", steps=5, seed=5)
        # 5 steps x 4 stages x d probe passes, one union batch
        assert run.reverse_passes == 5 * 4 * 2
        assert run.rt >= run.rt_forward + run.rt_divergence - 0.05 * run.rt

    def test_rotation_invariant_density_with_pairwise_field(self):
        cfg = net.ArchConfig(n_hidden=5, steps=2, knn_k=3,
                             pairwise_diff=True).validate()
        params = net.init_params(cfg, seed=6)
        prior = flow.GaussianPrior(n=5, d=2, mean_free=True)
        rng = np.random.default_rng(8)
        x0 = prior.sample(rng, 3)
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])

        def logrho1_of(x_start):
            mf = flow.ModelField(params, cfg, mode="hollow")
            state = flow.rk4_integrate(mf.rate, x_start, steps=10)
            return prior.log_density(x_start) + state.delta_logrho

        base = logrho1_of(x0)
        rot = logrho1_of(x0 @ R.T)
        np.testing.assert_allclose(rot, base, atol=1e-6)

    def test_mean_free_projection_of_outputs(self):
        cfg = net.ArchConfig(n_hidden=5, steps=1, knn_k=2,
                             pairwise_diff=True).validate()
        params = net.init_params(cfg, seed=7)
        prior = flow.GaussianPrior(n=4, d=2, mean_free=True)
        run = flow.sample_with_likelihood(params, cfg, prior, count=6,
                                          steps=5, seed=9)
        np.testing.assert_allclose(run.x.mean(axis=1), 0.0, atol=1e-12)


class TestShards:
    """How many shards a stage runs as, and what a failing shard leaves."""

    def setup_method(self):
        self.cfg = net.ArchConfig(n_hidden=6, steps=1, knn_k=3).validate()
        self.params = net.init_params(self.cfg, seed=0)
        self.x = np.random.default_rng(3).standard_normal((60, 13, 2))

    def stage(self, x, mode="hollow"):
        return flow.field_and_divergence(self.params, self.cfg, x, t=0.4,
                                         mode=mode)

    @pytest.mark.parametrize("sample", [1, 3])  # in shard 0, in shard 1
    @pytest.mark.parametrize("mode", ["hollow", "fd"])
    def test_failing_shard_raises_and_the_next_call_works(self, sample, mode):
        x = self.x[:4]
        bad = x.copy()
        bad[sample, 0, 0] = np.nan
        with pool_swapped(NanPool()):
            with shards_forced(1):
                with pytest.raises(Exception) as alone:
                    self.stage(bad, mode)
                v1, d1, _ = self.stage(x, mode)
            with shards_forced(2):
                with pytest.raises(alone.type, match=str(alone.value)):
                    self.stage(bad, mode)
                v2, d2, stats = self.stage(x, mode)
        assert stats["shards"] == 2
        assert (v2.tobytes(), d2.tobytes()) == (v1.tobytes(), d1.tobytes())

    @pytest.mark.parametrize("cores, env, blas", [
        (1, {}, 1), (2, {}, 2), (2, {"OPENBLAS_NUM_THREADS": "2"}, 2),
        (4, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "4"}, 4),
        (2, {"OPENBLAS_NUM_THREADS": "x"}, 2)])
    def test_no_idle_core_starts_no_worker(self, monkeypatch, cores, env,
                                           blas):
        monkeypatch.setattr(flow, "_WORKERS", None)
        monkeypatch.setattr(flow.os, "sched_getaffinity",
                            lambda pid: set(range(cores)))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        threads = threading.active_count()
        with pool_swapped(ad.Arena()):
            *_, stats = self.stage(self.x)
            assert ad.SHARD_POOLS == [] and flow._WORKERS is None
        assert threading.active_count() == threads
        assert (stats["shards"], flow.usable_cores(),
                flow.blas_threads()) == (1, cores, blas)

    def test_idle_core_runs_a_second_shard(self, monkeypatch):
        monkeypatch.setattr(flow, "_WORKERS", None)
        monkeypatch.setattr(flow.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        with pool_swapped(ad.Arena()):
            for B, shards in ((59, 1), (60, 2)):  # 767 and 780 particles
                *_, stats = self.stage(self.x[:B])
                assert stats["shards"] == shards
                assert len(ad.SHARD_POOLS) == shards - 1
            # a forked child has no worker threads, so it starts its own
            child = multiprocessing.get_context("fork").Process(
                target=self.stage, args=(self.x,))
            child.start()
            child.join(60)
            if child.is_alive():
                child.kill()
            assert child.exitcode == 0
        flow._WORKERS.shutdown()

    def test_more_shards_than_cores_under_fast_switching(self, monkeypatch):
        monkeypatch.setattr(flow, "_WORKERS", None)
        x = self.x[:8]
        with pool_swapped(NanPool()), shards_forced(1):
            v1, d1, _ = self.stage(x, "brute")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pool_swapped(NanPool()), shards_forced(8):
                for _ in range(3):
                    v8, d8, stats = self.stage(x, "brute")
                    assert stats["shards"] == 8
                    assert (v8.tobytes(), d8.tobytes()) == (v1.tobytes(),
                                                            d1.tobytes())
        finally:
            sys.setswitchinterval(interval)
            flow._WORKERS.shutdown()


class TestModelFieldGuards:
    def test_hollow_rejected_on_baseline(self):
        cfg = net.ArchConfig(n_hidden=4, steps=1, baseline=True).validate()
        params = net.init_params(cfg, seed=0)
        with pytest.raises(ValueError):
            flow.ModelField(params, cfg, mode="hollow")

    def test_brute_allowed_on_baseline(self):
        cfg = net.ArchConfig(n_hidden=4, steps=1, baseline=True).validate()
        params = net.init_params(cfg, seed=0)
        mf = flow.ModelField(params, cfg, mode="brute")
        x = np.random.default_rng(1).standard_normal((2, 3, 2))
        vel, div = mf.rate(x, 0.5)
        assert vel.shape == (2, 3, 2)
        assert div.shape == (2,)
        assert mf.reverse_passes == 6
