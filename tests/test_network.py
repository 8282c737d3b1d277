"""Field properties: Jacobian structure, dependence-table soundness,
equivariance, attention variants, multi-head additivity, checkpoints.

Gradients of intermediate features are taken directly off the tape;
finite differences on injected (fixed) graphs provide the independent
dependence oracle.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nbflow import autodiff as ad
from nbflow import graphs as gt
from nbflow import network as net
from test_graphs import make_cloud


def build_with_tape(params, cfg, x, t=0.0, Z=None, graph_override=None,
                    detach_conditioner=False):
    """Run one forward on a fresh tape, returning (FieldBuild, x leaf)."""
    x = np.asarray(x, dtype=np.float64)
    xs = x[None] if x.ndim == 2 else x
    B, n, d = xs.shape
    if Z is None:
        Zf = np.zeros(B * n, dtype=int)
    else:
        Zf = np.broadcast_to(np.asarray(Z, dtype=int), (B, n)).reshape(-1)
    go = graph_override
    if go is not None and not isinstance(go[0], list):
        go = [list(go)] * B
    plan = net.make_plan(xs, cfg, go)
    tape = ad.Tape()
    pv = net.param_vars(tape, params)
    xv = tape.leaf(xs.reshape(B * n, d))
    fb = net.build_field(tape, pv, cfg, xv, Zf, np.full(B, float(t)), plan,
                         detach_conditioner)
    return fb, xv


def feature_gradient(fb, xv, s_var, v_var, row, rng):
    """d(feature row)/dx for one line node, via two random-cotangent vjps."""
    us = np.zeros(s_var.shape)
    us[row] = rng.standard_normal(us.shape[1])
    uv = np.zeros(v_var.shape)
    uv[row] = rng.standard_normal(uv.shape[1:])
    (gs,) = fb.tape.vjp(s_var, us, [xv])
    (gv,) = fb.tape.vjp(v_var, uv, [xv])
    return gs + gv


def safe_positions(rng, n, k, d, scale=1.0):
    """Positions whose kNN decision margins tolerate FD perturbation."""
    while True:
        x = rng.standard_normal((n, d)) * scale
        d2 = np.sqrt(np.sum((x[:, None] - x[None, :]) ** 2, axis=-1))
        np.fill_diagonal(d2, np.inf)
        srt = np.sort(d2, axis=1)
        if np.all(np.abs(np.diff(srt[:, :min(k + 2, n - 1)], axis=1)) > 1e-3):
            return x


def rotation(d, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestEmbed:
    def test_zero_difference_gives_zero_vectors(self):
        cfg = net.ArchConfig(n_hidden=5, knn_k=1).validate()
        params = net.init_params(cfg, seed=0)
        s, v = net.embed_features(params, cfg, np.zeros((3, 2)))
        assert np.array_equal(v, np.zeros_like(v))
        assert np.all(np.isfinite(s))

    def test_rotation_equivariance(self):
        cfg = net.ArchConfig(n_hidden=5, knn_k=1).validate()
        params = net.init_params(cfg, seed=1)
        rng = np.random.default_rng(2)
        delta = rng.standard_normal((4, 3))
        R = rotation(3, rng)
        s1, v1 = net.embed_features(params, cfg, delta)
        s2, v2 = net.embed_features(params, cfg, delta @ R.T)
        np.testing.assert_allclose(s1, s2, atol=1e-12)
        np.testing.assert_allclose(v2, v1 @ R.T, atol=1e-12)

    def test_labels_change_invariant_channel(self):
        cfg = net.ArchConfig(n_hidden=5, n_types=2, knn_k=1).validate()
        params = net.init_params(cfg, seed=3)
        delta = np.array([[1.0, 0.5]])
        s0, _ = net.embed_features(params, cfg, delta, Z=[0])
        s1, _ = net.embed_features(params, cfg, delta, Z=[1])
        assert np.abs(s0 - s1).max() > 1e-6


class TestForwardBasics:
    def test_single_particle_zero_field(self):
        cfg = net.ArchConfig(n_hidden=4, steps=2, knn_k=3).validate()
        params = net.init_params(cfg, seed=0)
        b = net.hollow_forward(params, cfg, np.array([[0.3, -1.2]]))
        np.testing.assert_array_equal(b, np.zeros((1, 2)))

    def test_zero_readout_weights_zero_field(self):
        cfg = net.ArchConfig(n_hidden=4, steps=2, knn_k=2).validate()
        params = net.init_params(cfg, seed=1)
        for name in params:
            if name.startswith("read."):
                params[name] = np.zeros_like(params[name])
        x = np.random.default_rng(0).standard_normal((5, 2))
        b = net.hollow_forward(params, cfg, x)
        np.testing.assert_array_equal(b, np.zeros((5, 2)))

    def test_batch_matches_per_sample(self):
        cfg = net.ArchConfig(n_hidden=6, steps=2, knn_k=3).validate()
        params = net.init_params(cfg, seed=2)
        rng = np.random.default_rng(5)
        xb = rng.standard_normal((3, 6, 2))
        batched = net.hollow_forward(params, cfg, xb, t=0.3)
        for s in range(3):
            single = net.hollow_forward(params, cfg, xb[s], t=0.3)
            np.testing.assert_allclose(batched[s], single, atol=1e-12)

    def test_time_conditioning_changes_field(self):
        cfg = net.ArchConfig(n_hidden=6, steps=1, knn_k=2).validate()
        params = net.init_params(cfg, seed=3)
        x = np.random.default_rng(1).standard_normal((5, 2))
        b0 = net.hollow_forward(params, cfg, x, t=0.1)
        b1 = net.hollow_forward(params, cfg, x, t=0.7)
        assert np.abs(b0 - b1).max() > 1e-8

    def test_misshapen_labels_rejected(self):
        cfg = net.ArchConfig(n_hidden=4, steps=1, knn_k=2,
                             n_types=2).validate()
        params = net.init_params(cfg, seed=0)
        x = np.random.default_rng(2).standard_normal((2, 4, 2))
        with pytest.raises(ValueError, match="labels Z"):
            net.evaluate_field(params, cfg, x, Z=np.zeros((3, 4), int))
        with pytest.raises(ValueError, match="labels Z"):
            net.make_field_program(params, cfg, 4, 2, Z=np.zeros(8, int),
                                   batch=2)

    def test_forward_dispatch_guards(self):
        cfg = net.ArchConfig(n_hidden=4, baseline=True).validate()
        params = net.init_params(cfg, seed=0)
        x = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.hollow_forward(params, cfg, x)
        cfg2 = net.ArchConfig(n_hidden=4, knn_k=1).validate()
        with pytest.raises(ValueError):
            net.baseline_forward(net.init_params(cfg2, seed=0), cfg2, x)


class TestEquivariance:
    @pytest.mark.parametrize("pd", [False, True])
    @pytest.mark.parametrize("d", [2, 3])
    def test_rotation(self, pd, d):
        cfg = net.ArchConfig(n_hidden=6, steps=2, knn_k=3,
                             pairwise_diff=pd).validate()
        params = net.init_params(cfg, seed=4)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((6, d))
        R = rotation(d, rng)
        b = net.hollow_forward(params, cfg, x, t=0.2)
        b_rot = net.hollow_forward(params, cfg, x @ R.T, t=0.2)
        assert np.abs(b_rot - b @ R.T).max() <= 1e-8

    def test_translation_invariance_pairwise_mode(self):
        cfg = net.ArchConfig(n_hidden=6, steps=2, knn_k=3,
                             pairwise_diff=True).validate()
        params = net.init_params(cfg, seed=5)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 2))
        shift = np.array([3.7, -2.2])
        b = net.hollow_forward(params, cfg, x, t=0.4)
        b_shift = net.hollow_forward(params, cfg, x + shift, t=0.4)
        assert np.abs(b_shift - b).max() <= 1e-10

    def test_translation_sensitivity_plain_mode(self):
        cfg = net.ArchConfig(n_hidden=6, steps=1, knn_k=2).validate()
        params = net.init_params(cfg, seed=6)
        x = np.random.default_rng(8).standard_normal((5, 2))
        b = net.hollow_forward(params, cfg, x)
        b_shift = net.hollow_forward(params, cfg, x + 1.5)
        assert np.abs(b_shift - b).max() > 1e-6

    def test_permutation_equivariance(self):
        cfg = net.ArchConfig(n_hidden=6, steps=2, knn_k=2).validate()
        params = net.init_params(cfg, seed=7)
        rng = np.random.default_rng(9)
        x = safe_positions(rng, 6, 2, 2)
        perm = rng.permutation(6)
        b = net.hollow_forward(params, cfg, x, t=0.3)
        b_perm = net.hollow_forward(params, cfg, x[perm], t=0.3)
        np.testing.assert_allclose(b_perm, b[perm], atol=1e-10)

    def test_unique_embeddings_break_permutation_equivariance(self):
        cfg = net.ArchConfig(n_hidden=6, steps=2, knn_k=2,
                             unique_nodes=6).validate()
        params = net.init_params(cfg, seed=8)
        rng = np.random.default_rng(10)
        x = safe_positions(rng, 6, 2, 2)
        perm = np.roll(np.arange(6), 1)
        b = net.hollow_forward(params, cfg, x, t=0.3)
        b_perm = net.hollow_forward(params, cfg, x[perm], t=0.3)
        assert np.abs(b_perm - b[perm]).max() > 1e-6

    @pytest.mark.parametrize("baseline", [False, True])
    def test_unique_nodes_must_equal_particle_count(self, baseline):
        cfg = net.ArchConfig(n_hidden=4, knn_k=2, unique_nodes=3,
                             baseline=baseline).validate()
        params = net.init_params(cfg, seed=0)
        x = np.random.default_rng(0).standard_normal((4, 2))
        with pytest.raises(ValueError, match=r"unique_nodes.*3.*4"):
            net.evaluate_field(params, cfg, x)

    def test_unique_nodes_embedding_needs_local_ids(self):
        cfg = net.ArchConfig(n_hidden=4, knn_k=2, unique_nodes=3).validate()
        params = net.init_params(cfg, seed=0)
        with pytest.raises(ValueError, match="local_ids"):
            net.embed_features(params, cfg, np.ones((3, 2)))


def jacobian_reverse(prog, nd):
    J = np.empty((nd, nd))
    for m in range(nd):
        u = np.zeros(nd)
        u[m] = 1.0
        J[m] = ad.vjp(prog, u)
    return J


def block_masks(n, d):
    diag = np.kron(np.eye(n, dtype=bool), np.ones((d, d), dtype=bool))
    return diag, ~diag


class TestJacobianStructure:
    @pytest.mark.parametrize("pd", [False, True])
    @pytest.mark.parametrize("attention", [None, "product", "softmax"])
    def test_hollow_plus_diagonal_split(self, pd, attention):
        rng = np.random.default_rng(11)
        n, d = 6, 2
        cfg = net.ArchConfig(n_hidden=6, steps=2, knn_k=3, pairwise_diff=pd,
                             attention=attention).validate()
        params = net.init_params(cfg, seed=12)
        x = safe_positions(rng, n, 3, d)
        prog = net.make_field_program(params, cfg, n, d, t=0.3)
        det = net.make_field_program(params, cfg, n, d, t=0.3,
                                     detach_conditioner=True)
        J_fd = ad.full_jacobian_fd(lambda v: ad.forward_eval(prog, v),
                                   x.reshape(-1))
        ad.forward_eval(det, x.reshape(-1))
        J_tau = jacobian_reverse(det, n * d)
        diag, off = block_masks(n, d)
        assert np.abs(J_tau[off]).max() == 0.0
        assert np.abs((J_fd - J_tau)[diag]).max() < 1e-5

    def test_multihead_jacobian_structure(self):
        n, d = 6, 2
        cfg = net.ArchConfig(n_hidden=6, steps=2, heads=2, overlap=1,
                             pairwise_diff=True).validate()
        params = net.init_params(cfg, seed=13)
        x = np.random.default_rng(14).standard_normal((n, d))
        prog = net.make_field_program(params, cfg, n, d, t=0.1)
        det = net.make_field_program(params, cfg, n, d, t=0.1,
                                     detach_conditioner=True)
        ad.forward_eval(prog, x.reshape(-1))
        ad.forward_eval(det, x.reshape(-1))
        J = jacobian_reverse(prog, n * d)
        J_tau = jacobian_reverse(det, n * d)
        diag, off = block_masks(n, d)
        assert np.abs(J_tau[off]).max() == 0.0
        assert np.abs((J - J_tau)[diag]).max() == 0.0


class TestConditionerIndependence:
    @pytest.mark.parametrize("pd", [False, True])
    def test_features_never_depend_on_own_target(self, pd):
        rng = np.random.default_rng(15)
        for trial in range(4):
            n = int(rng.integers(4, 8))
            k = int(rng.integers(2, n))
            cfg = net.ArchConfig(n_hidden=5, steps=3, knn_k=k,
                                 pairwise_diff=pd).validate()
            params = net.init_params(cfg, seed=trial)
            x = rng.standard_normal((n, 2))
            fb, xv = build_with_tape(params, cfg, x, t=0.2)
            g = gt.build_knn_graph(x, k)
            for t_idx, (s_var, v_var) in enumerate(fb.h_steps[0]):
                for ln in range(g.n_edges):
                    grad = feature_gradient(fb, xv, s_var, v_var, ln, rng)
                    assert np.array_equal(grad[g.dst[ln]], np.zeros(2)), \
                        f"h^{t_idx} of edge {ln} depends on its target"

    def test_pruning_disabled_violates_on_triangle(self):
        cfg = net.ArchConfig(n_hidden=5, steps=3, knn_k=2,
                             prune=False).validate()
        params = net.init_params(cfg, seed=16)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((3, 2))
        tri = gt.complete_graph(3)
        fb, xv = build_with_tape(params, cfg, x, graph_override=[tri])
        g = tri
        # steps 0 and 1 are still clean on a triangle (girth 3)
        for t_idx in (0, 1):
            s_var, v_var = fb.h_steps[0][t_idx]
            for ln in range(g.n_edges):
                grad = feature_gradient(fb, xv, s_var, v_var, ln, rng)
                assert np.array_equal(grad[g.dst[ln]], np.zeros(2))
        # step 2 must leak
        s_var, v_var = fb.h_steps[0][2]
        leaks = 0
        for ln in range(g.n_edges):
            grad = feature_gradient(fb, xv, s_var, v_var, ln, rng)
            if np.abs(grad[g.dst[ln]]).max() > 0:
                leaks += 1
        assert leaks > 0


class TestHollowInvariantProperties:
    """Every line feature h_ij in ``h_steps`` has zero gradient in x_j, on
    random kNN and head graphs, read by reverse passes from the interior
    feature nodes to the position leaf."""

    @given(kind=st.sampled_from(["gaussian", "lattice", "coincident", "near"]),
           n=st.integers(2, 9), d=st.sampled_from([2, 3]),
           B=st.integers(1, 2), graph=st.sampled_from(["knn", "heads"]),
           steps=st.integers(1, 3), pairwise_diff=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_line_features_ignore_their_target(self, kind, n, d, B, graph,
                                               steps, pairwise_diff, seed):
        rng = np.random.default_rng(seed)
        if graph == "knn":
            shape = dict(knn_k=int(rng.integers(1, n)))
        else:
            H = int(rng.integers(1, 4))
            shape = dict(heads=H, overlap=int(rng.integers(0, H)))
        cfg = net.ArchConfig(n_hidden=4, steps=steps,
                             pairwise_diff=pairwise_diff, **shape).validate()
        params = net.init_params(cfg, seed=seed % 1000)
        cloud = "coincident" if kind == "near" else kind
        x = np.stack([make_cloud(cloud, n, d, seed + s) for s in range(B)])
        if kind == "near":
            x += 1e-9 * rng.standard_normal(x.shape)
        fb, xv = build_with_tape(params, cfg, x, t=0.4)
        plan = net.make_plan(x, cfg)
        for hp, h_steps in zip(plan.heads, fb.h_steps):
            for feature in (var for pair in h_steps for var in pair):
                for j in np.unique(hp.dst):
                    u = np.zeros(feature.shape)
                    rows = hp.dst == j
                    u[rows] = rng.standard_normal(u[rows].shape)
                    (g,) = fb.tape.vjp(feature, u, [xv])
                    assert not np.any(g[j]), f"a feature of an edge into {j}"


class TestBacktrackTableAgainstGradients:
    def test_soundness_zero_entries_mean_zero_gradient(self):
        rng = np.random.default_rng(18)
        for pd in (False, True):
            for trial in range(3):
                n = int(rng.integers(4, 9))
                k = int(rng.integers(2, n))
                cfg = net.ArchConfig(n_hidden=5, steps=3, knn_k=k,
                                     pairwise_diff=pd).validate()
                params = net.init_params(cfg, seed=trial + 20)
                x = rng.standard_normal((n, 2))
                g = gt.build_knn_graph(x, k)
                lg = gt.build_line_graph(g)
                bt = gt.init_backtracking(lg, pd)
                tables = [bt.table.copy()]
                for _ in range(cfg.steps):
                    gt.prune_and_update(lg, bt)
                    tables.append(bt.table.copy())
                fb, xv = build_with_tape(params, cfg, x, t=0.1,
                                         graph_override=[g])
                for t_idx, (s_var, v_var) in enumerate(fb.h_steps[0]):
                    for ln in range(g.n_edges):
                        grad = feature_gradient(fb, xv, s_var, v_var, ln, rng)
                        for node in range(n):
                            if not tables[t_idx][ln, node]:
                                assert np.array_equal(grad[node], np.zeros(2))

    def test_completeness_marked_entries_show_fd_dependence(self):
        rng = np.random.default_rng(19)
        marked = 0
        dependent = 0
        for trial in range(4):
            n = int(rng.integers(4, 8))
            k = int(rng.integers(2, n))
            cfg = net.ArchConfig(n_hidden=5, steps=2, knn_k=k).validate()
            params = net.init_params(cfg, seed=trial + 40)
            x = safe_positions(rng, n, k, 2)
            g = gt.build_knn_graph(x, k)
            lg = gt.build_line_graph(g)
            bt = gt.init_backtracking(lg, pd=False)
            tables = [bt.table.copy()]
            for _ in range(cfg.steps):
                gt.prune_and_update(lg, bt)
                tables.append(bt.table.copy())
            u_s = rng.standard_normal(cfg.n_hidden)
            u_v = rng.standard_normal((cfg.n_hidden, 2))

            def probe(flat, t_idx):
                fb, _ = build_with_tape(params, cfg,
                                        flat.reshape(n, 2), t=0.1,
                                        graph_override=[g])
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
                            if dep[ln, node] > 1e-8:
                                dependent += 1
        assert marked > 100
        assert dependent / marked >= 0.95


class TestMessageStep:
    def _setup(self, n_hidden=5, seed=0, **kw):
        cfg = net.ArchConfig(n_hidden=n_hidden, steps=1, knn_k=2, **kw).validate()
        params = net.init_params(cfg, seed=seed)
        return cfg, params

    def _mlp_np(self, params, name, x):
        h = x @ params[f"{name}.W1"] + params[f"{name}.b1"]
        s = np.where(h >= 0, 1 / (1 + np.exp(-np.abs(h))),
                     np.exp(-np.abs(h)) / (1 + np.exp(-np.abs(h))))
        return (h * s) @ params[f"{name}.Wo"] + params[f"{name}.bo"]

    def _update_np(self, params, cfg, h_s, h_v, M_s, M_v, t):
        nh = cfg.n_hidden
        tf = np.stack([np.full(len(h_s), np.sin(2 * np.pi * t)),
                       np.full(len(h_s), np.cos(2 * np.pi * t))], axis=1)
        cn = np.sqrt(np.sum(M_v * M_v, axis=-1) + 1e-12)
        z = self._mlp_np(params, "upd", np.concatenate([h_s, M_s, cn, tf], 1))
        return h_s + z[:, :nh], h_v + M_v * z[:, nh:2 * nh][..., None]

    def test_empty_neighborhood_is_zero_message_update(self):
        cfg, params = self._setup()
        g = gt.DirectedGraph(n=2, src=np.array([0, 1]), dst=np.array([1, 0]))
        lg = gt.build_line_graph(g)  # two line nodes, no triples
        rng = np.random.default_rng(1)
        h_s = rng.standard_normal((2, cfg.n_hidden))
        h_v = rng.standard_normal((2, cfg.n_hidden, 2))
        s2, v2 = net.message_step(params, cfg, h_s, h_v, lg, t=0.3)
        es, ev = self._update_np(params, cfg, h_s, h_v,
                                 np.zeros_like(h_s), np.zeros_like(h_v), 0.3)
        np.testing.assert_allclose(s2, es, atol=1e-12)
        np.testing.assert_array_equal(v2, ev)

    def test_single_in_edge_aggregation_is_that_message(self):
        cfg, params = self._setup(seed=2)
        nh = cfg.n_hidden
        g = gt.DirectedGraph(n=3, src=np.array([0, 1]), dst=np.array([1, 2]))
        lg = gt.build_line_graph(g)  # one triple (0,1,2)
        rng = np.random.default_rng(3)
        h_s = rng.standard_normal((2, nh))
        h_v = rng.standard_normal((2, nh, 2))
        s2, v2 = net.message_step(params, cfg, h_s, h_v, lg, t=0.1)
        snd = int(lg.t_from[0])
        rcv = int(lg.t_to[0])
        tf = np.array([[np.sin(0.2 * np.pi), np.cos(0.2 * np.pi)]])
        dots = np.sum(h_v[rcv] * h_v[snd], axis=-1)[None]
        z = self._mlp_np(params, "msg",
                         np.concatenate([h_s[rcv][None], h_s[snd][None],
                                         dots, tf], 1))
        m_s = z[:, :nh]
        m_v = (h_v[snd][None] * z[:, nh:2 * nh][..., None]
               + h_v[rcv][None] * z[:, 2 * nh:][..., None])
        M_s, M_v = np.zeros_like(h_s), np.zeros_like(h_v)
        M_s[rcv], M_v[rcv] = m_s[0], m_v[0]
        es, ev = self._update_np(params, cfg, h_s, h_v, M_s, M_v, 0.1)
        np.testing.assert_allclose(s2, es, atol=1e-12)
        np.testing.assert_allclose(v2, ev, atol=1e-12)


class TestAttention:
    def _lg_two_senders(self):
        # edges (0,2), (1,2), (2,3): receiver (2,3) has two in-neighbors
        g = gt.DirectedGraph(n=4, src=np.array([0, 1, 2]),
                             dst=np.array([2, 2, 3]))
        return g, gt.build_line_graph(g)

    def test_softmax_singleton_weight_is_exactly_one(self):
        y = np.array([[2.5]])
        tape = ad.Tape()
        a = ad.segment_softmax(tape.leaf(y), np.array([0]), 1)
        assert a.value[0, 0] == 1.0

    def test_softmax_normalization(self):
        rng = np.random.default_rng(4)
        seg = np.repeat(np.arange(5), [3, 1, 4, 2, 5])
        y = rng.standard_normal((seg.size, 1)) * 3
        tape = ad.Tape()
        a = ad.segment_softmax(tape.leaf(y), seg, 5).value[:, 0]
        sums = np.zeros(5)
        np.add.at(sums, seg, a)
        np.testing.assert_allclose(sums, np.ones(5), atol=1e-12)

    def test_constant_attention_reduces_to_mean(self):
        cfg = net.ArchConfig(n_hidden=4, steps=1, knn_k=2,
                             attention="softmax").validate()
        params = net.init_params(cfg, seed=5)
        params["att.Wo"] = np.zeros_like(params["att.Wo"])
        params["att.bo"] = np.zeros_like(params["att.bo"])
        g, lg = self._lg_two_senders()
        rng = np.random.default_rng(6)
        nh = cfg.n_hidden
        h_s = rng.standard_normal((3, nh))
        h_v = rng.standard_normal((3, nh, 2))
        s2, v2 = net.message_step(params, cfg, h_s, h_v, lg, t=0.0)
        # receiver line node is edge (2,3); senders are edges (0,2), (1,2)
        rcv = 2
        tf = np.array([[0.0, 1.0]])
        helper = TestMessageStep()
        vals = []
        for snd in (0, 1):
            z = helper._mlp_np(params, "attval",
                               np.concatenate([h_s[snd][None], tf], 1))
            vals.append((z[:, :nh], h_v[snd][None] * z[:, nh:][..., None]))
        M_s = 0.5 * (vals[0][0] + vals[1][0])
        M_v = 0.5 * (vals[0][1] + vals[1][1])
        Ms_full = np.zeros_like(h_s)
        Mv_full = np.zeros_like(h_v)
        Ms_full[rcv], Mv_full[rcv] = M_s[0], M_v[0]
        es, ev = helper._update_np(params, cfg, h_s, h_v, Ms_full, Mv_full, 0.0)
        np.testing.assert_allclose(s2, es, atol=1e-12)
        np.testing.assert_allclose(v2, ev, atol=1e-12)

    @pytest.mark.parametrize("attention", ["product", "softmax"])
    def test_attention_equivariance(self, attention):
        cfg = net.ArchConfig(n_hidden=6, steps=2, knn_k=3,
                             attention=attention).validate()
        params = net.init_params(cfg, seed=7)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 2))
        R = rotation(2, rng)
        b = net.hollow_forward(params, cfg, x, t=0.5)
        b_rot = net.hollow_forward(params, cfg, x @ R.T, t=0.5)
        assert np.abs(b_rot - b @ R.T).max() <= 1e-8


class TestMultihead:
    def test_forward_is_sum_of_single_head_forwards(self):
        cfg = net.ArchConfig(n_hidden=6, steps=2, heads=3, overlap=1,
                             pairwise_diff=True).validate()
        params = net.init_params(cfg, seed=9)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 2))
        b_multi = net.hollow_forward(params, cfg, x, t=0.2)
        part = gt.partition_multihead(x, 3, 1)
        single_cfg = dataclasses.replace(cfg, heads=None, knn_k=1)
        total = np.zeros_like(b_multi)
        for head in part.heads:
            total += net.hollow_forward(params, single_cfg, x, t=0.2,
                                        graph_override=[head])
        np.testing.assert_allclose(b_multi, total, atol=1e-10)


class TestBaseline:
    def test_single_particle(self):
        cfg = net.ArchConfig(n_hidden=4, steps=2, baseline=True).validate()
        params = net.init_params(cfg, seed=0)
        b = net.baseline_forward(params, cfg, np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(b, np.zeros((1, 2)))

    @pytest.mark.parametrize("pd", [False, True])
    def test_equivariance(self, pd):
        cfg = net.ArchConfig(n_hidden=6, steps=2, baseline=True,
                             pairwise_diff=pd).validate()
        params = net.init_params(cfg, seed=1)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 3))
        R = rotation(3, rng)
        b = net.baseline_forward(params, cfg, x, t=0.3)
        b_rot = net.baseline_forward(params, cfg, x @ R.T, t=0.3)
        assert np.abs(b_rot - b @ R.T).max() <= 1e-8

    def test_divergence_needs_nd_passes(self):
        from nbflow import flow
        cfg = net.ArchConfig(n_hidden=5, steps=2, baseline=True).validate()
        params = net.init_params(cfg, seed=2)
        x = np.random.default_rng(12).standard_normal((5, 2))
        info = {}
        flow.divergence(params, cfg, x, mode="brute", info=info)
        assert info["reverse_passes"] == 10
        with pytest.raises(ValueError):
            flow.divergence(params, cfg, x, mode="hollow")


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        cfg = net.ArchConfig(n_hidden=5, steps=2, knn_k=2, n_types=2,
                             attention="softmax").validate()
        params = net.init_params(cfg, seed=3)
        path = net.save_checkpoint(tmp_path / "ck", params, cfg, seed=3)
        loaded, cfg2, manifest = net.load_checkpoint(tmp_path / "ck")
        assert cfg2 == cfg
        assert manifest["seed"] == 3
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])

    def test_truncated_blob_rejected(self, tmp_path):
        cfg = net.ArchConfig(n_hidden=4, steps=1, knn_k=1).validate()
        params = net.init_params(cfg, seed=0)
        net.save_checkpoint(tmp_path / "ck", params, cfg)
        blob = np.fromfile(tmp_path / "ck.bin", dtype="<f8")
        blob[:-3].tofile(tmp_path / "ck.bin")
        with pytest.raises(ValueError):
            net.load_checkpoint(tmp_path / "ck")

    def _edit_manifest(self, tmp_path, edit):
        cfg = net.ArchConfig(n_hidden=4, steps=1, knn_k=1).validate()
        net.save_checkpoint(tmp_path / "ck", net.init_params(cfg, seed=0), cfg)
        path = tmp_path / "ck.json"
        manifest = json.loads(path.read_text())
        rec = next(r for r in manifest["arrays"] if r["name"] == "embed.W1")
        edit(rec)
        path.write_text(json.dumps(manifest))

    def test_renamed_array_rejected(self, tmp_path):
        self._edit_manifest(tmp_path, lambda rec: rec.update(name="embed.W9"))
        with pytest.raises(ValueError, match="embed.W1"):
            net.load_checkpoint(tmp_path / "ck")

    def test_misshapen_array_rejected(self, tmp_path):
        # same element count, so the blob size still matches
        self._edit_manifest(tmp_path, lambda rec: rec.update(
            shape=rec["shape"][::-1]))
        with pytest.raises(ValueError, match="embed.W1"):
            net.load_checkpoint(tmp_path / "ck")


class TestParticleConfiguration:
    def test_forward_accepts_configuration_object(self):
        cfg = net.ArchConfig(n_hidden=5, steps=1, knn_k=2).validate()
        params = net.init_params(cfg, seed=0)
        x = np.random.default_rng(0).standard_normal((4, 2))
        pc = net.ParticleConfiguration(x=x, Z=np.zeros(4, dtype=int), t=0.4)
        np.testing.assert_array_equal(
            net.hollow_forward(params, cfg, pc),
            net.hollow_forward(params, cfg, x, Z=np.zeros(4, int), t=0.4))

    def test_validation(self):
        with pytest.raises(ValueError):
            net.ParticleConfiguration(x=np.zeros((3, 4))).validate()
        with pytest.raises(ValueError):
            net.ParticleConfiguration(x=np.full((2, 2), np.nan)).validate()
        with pytest.raises(ValueError):
            net.ParticleConfiguration(x=np.zeros((2, 2)),
                                      Z=np.zeros(3)).validate()


class TestConfigValidation:
    def test_exactly_one_graph_mode(self):
        with pytest.raises(ValueError):
            net.ArchConfig(knn_k=3, heads=2).validate()
        with pytest.raises(ValueError):
            net.ArchConfig().validate()

    def test_unknown_attention(self):
        with pytest.raises(ValueError):
            net.ArchConfig(knn_k=2, attention="multihead").validate()

    @pytest.mark.parametrize("attention", ["product", "softmax"])
    def test_baseline_rejects_attention(self, attention):
        with pytest.raises(ValueError, match="attention"):
            net.ArchConfig(n_hidden=4, baseline=True,
                           attention=attention).validate()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="n_layres"):
            net.ArchConfig.from_dict({"knn_k": 2, "n_layres": 3})
