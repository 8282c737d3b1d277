"""Tape correctness: values, gradients vs finite differences, detach,
probe-vector diagonal extraction, and pass accounting."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nbflow import autodiff as ad
from nbflow import network as net
from test_graphs import make_cloud, random_graph


def square_program():
    def build(tape, x):
        xv = tape.leaf(x)
        return xv, xv * xv
    return ad.Program(build, n_in=1)


def random_hollow_program(n, d, seed, **cfg_kw):
    kw = dict(n_hidden=6, steps=2, knn_k=min(3, n - 1))
    kw.update(cfg_kw)
    cfg = net.ArchConfig(**kw).validate()
    params = net.init_params(cfg, seed=seed)
    return net.make_field_program(params, cfg, n, d), cfg


class NanPool(ad.Arena):
    """A pool that fills each buffer with NaN when it hands it out and when
    it takes it back, so a result that reads a buffer it does not own shows
    up as NaN; a buffer given back twice fails at once."""

    __slots__ = ("handed",)
    small = 0  # every buffer, however small, comes from the pool

    def __init__(self):
        super().__init__()
        self.handed = 0  # buffers handed out by ``empty``

    def empty(self, shape):
        out = super().empty(shape)
        self.log[-1].fill(np.nan)
        self.handed += 1
        return out

    def give(self, buf):
        assert id(buf) in self.bufs and not any(buf is b for b in self.free)
        buf.fill(np.nan)
        super().give(buf)

    def rewind(self):
        super().rewind()
        for buf in self.free:
            buf.fill(np.nan)


def in_pool(a, pool):
    return any(np.shares_memory(a, b) for b in pool.bufs.values())


@contextlib.contextmanager
def pool_swapped(pool):
    """``autodiff.POOL`` is ``pool`` inside the block (None: no pool)."""
    saved, ad.POOL = ad.POOL, pool
    try:
        yield pool
    finally:
        ad.POOL = saved


class TestForwardEval:
    def test_scalar_square(self):
        prog = square_program()
        assert ad.forward_eval(prog, [3.0]) == pytest.approx(9.0)

    def test_detach_preserves_values(self):
        def build(tape, x):
            xv = tape.leaf(x)
            return xv, ad.detach(xv)
        prog = ad.Program(build, n_in=1)
        out = ad.forward_eval(prog, [2.0])
        assert out[0] == 2.0

    def test_zero_weight_network_outputs_zero(self):
        cfg = net.ArchConfig(n_hidden=4, steps=1, knn_k=1).validate()
        prog = net.make_field_program(net.zero_params(cfg), cfg, 2, 2)
        out = ad.forward_eval(prog, np.array([0.0, 0.0, 1.0, 0.5]))
        assert np.array_equal(out, np.zeros(4))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            ad.forward_eval(square_program(), [1.0, 2.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_output_detected(self):
        def build(tape, x):
            xv = tape.leaf(x)
            return xv, xv / (xv - xv)  # 0/0
        with pytest.raises(FloatingPointError):
            ad.forward_eval(ad.Program(build, n_in=1), [1.0])


class TestVjp:
    def test_derivative_of_square(self):
        prog = square_program()
        ad.forward_eval(prog, [3.0])
        assert ad.vjp(prog, [1.0])[0] == pytest.approx(6.0)

    def test_detach_cuts_one_branch(self):
        def build(tape, x):
            xv = tape.leaf(x.reshape(1, 2))
            prod = ad.detach(ad.slice_cols(xv, 0, 1)) * ad.slice_cols(xv, 1, 2)
            return xv, prod
        prog = ad.Program(build, n_in=2)
        out = ad.forward_eval(prog, [2.0, 5.0])
        assert out[0] == 10.0
        g = ad.vjp(prog, [[1.0]])
        np.testing.assert_array_equal(g, [0.0, 2.0])

    def test_linear_map_row_extraction(self):
        A = np.arange(9.0).reshape(3, 3) + 1.0

        def build(tape, x):
            xv = tape.leaf(x.reshape(1, 3))
            return xv, ad.affine(xv, tape.const(A.T), tape.const(np.zeros(3)))
        prog = ad.Program(build, n_in=3)
        ad.forward_eval(prog, np.ones(3))
        g = ad.vjp(prog, np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(g, A[0])

    def test_reverse_before_forward_errors(self):
        prog = square_program()
        with pytest.raises(RuntimeError):
            ad.vjp(prog, [1.0])

    def test_vjp_linearity(self):
        rng = np.random.default_rng(0)
        prog, _ = random_hollow_program(5, 2, seed=1)
        x = rng.standard_normal(10)
        ad.forward_eval(prog, x)
        for trial in range(5):
            u = rng.standard_normal(10)
            w = rng.standard_normal(10)
            lhs = ad.vjp(prog, u + w)
            rhs = ad.vjp(prog, u) + ad.vjp(prog, w)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_interior_wrt_keeps_its_cotangent(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        y = x * x
        out = ad.sum_all(y * 3.0)
        gy, gx = tape.vjp(out, np.asarray(1.0), [y, x])
        np.testing.assert_array_equal(gy, [3.0, 3.0])
        np.testing.assert_array_equal(gx, [6.0, 12.0])

    def test_reverse_visits_bounded_by_forward(self):
        prog, _ = random_hollow_program(6, 2, seed=2)
        x = np.random.default_rng(3).standard_normal(12)
        ad.forward_eval(prog, x)
        tape = prog.tape
        before = tape.n_reverse_visits
        ad.vjp(prog, np.ones(12))
        assert tape.n_reverse_visits - before <= len(tape)


class TestArena:
    """Tapes recorded on a pool: the same results as tapes without one,
    and no pool memory in what the tape hands back."""

    def setup_method(self):
        self.prog, _ = random_hollow_program(6, 3, seed=4, pairwise_diff=True)
        self.fresh, _ = random_hollow_program(6, 3, seed=4, pairwise_diff=True)
        self.prog.arena = self.pool = NanPool()
        rng = np.random.default_rng(5)
        self.xs = [rng.standard_normal(18) for _ in range(3)]
        self.probes = ad.probe_vectors(6, 3)

    def test_repeated_evaluations_match_fresh_tapes(self):
        pool = self.pool
        for x in self.xs:
            out = ad.forward_eval(self.prog, x)
            diag = ad.jacobian_diagonal(self.prog, self.probes)
            (g,) = self.prog.tape.vjp(self.prog.out_var, x, [self.prog.in_var])
            ref = ad.forward_eval(self.fresh, x)
            assert out.tobytes() == ref.tobytes()
            assert diag.tobytes() == ad.jacobian_diagonal(
                self.fresh, self.probes).tobytes()
            assert g.tobytes() == ad.vjp(self.fresh, x).tobytes()
            for a in (out, diag, g):
                assert not in_pool(a, pool)
        assert self.prog.tape.arena is pool and self.fresh.tape.arena is None

    def test_vjp_on_a_rewound_tape_raises(self):
        ad.forward_eval(self.prog, self.xs[0])
        tape, out, x = self.prog.tape, self.prog.out_var, self.prog.in_var
        ad.forward_eval(self.prog, self.xs[1])  # rewinds: tape is gone
        with pytest.raises(RuntimeError, match="rewound"):
            tape.vjp(out, self.probes[0], [x])
        self.pool.rewind()
        with pytest.raises(RuntimeError, match="rewound"):
            ad.vjp(self.prog, self.probes[0])

    def test_vjp_on_a_consumed_tape_raises(self):
        grads = []
        for prog in (self.fresh, self.prog):
            ad.forward_eval(prog, self.xs[0])
            grads += prog.tape.vjp(prog.out_var, self.probes[0], [prog.in_var],
                                   consume=True)
            assert all(v is None for v in prog.tape.vals)
            with pytest.raises(RuntimeError, match="consumed"):
                ad.vjp(prog, self.probes[1])
        assert grads[0].tobytes() == grads[1].tobytes()
        assert not in_pool(grads[1], self.pool)
        # the consumed pass gave back every buffer the tape held
        assert len(self.pool.free) == len(self.pool.bufs)

    def test_shared_cotangents_are_not_added_into(self):
        # add hands one cotangent to u and v; u takes more from j, whose
        # rule runs before v's, which must still read the add's cotangent
        def grads(arena):
            tape = ad.Tape(arena)
            x = tape.leaf(np.array([0.5, -2.0, 3.0]))
            u, v = x * 3.0, x * 5.0
            j = u * u
            out = ad.sum_all((u + v) * j)
            return tape.vjp(out, 1.0, [x, u, v])

        x = np.array([0.5, -2.0, 3.0])  # out = sum(72 x^3), exactly
        ref = (216.0 * x * x, 57.0 * x * x, 9.0 * x * x)
        for arena in (None, NanPool()):
            got = grads(arena)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))

    def test_outputs_outlive_the_next_evaluation(self):
        prog = square_program()  # its output is a pool buffer
        prog.arena = NanPool()
        out = ad.forward_eval(prog, [3.0])
        assert ad.forward_eval(prog, [4.0]) == 16.0 and out == 9.0
        assert ad.vjp(prog, [1.0]) == 8.0

    def test_passes_reuse_one_set_of_buffers(self):
        pool = self.pool
        ad.forward_eval(self.prog, self.xs[0])
        made, handed = len(pool.bufs), pool.handed
        ad.vjp(self.prog, self.probes[0])
        # a pass hands its dead cotangents to its later rules
        assert len(pool.bufs) - made < (pool.handed - handed) / 4
        bufs, free = list(pool.bufs.values()), {id(b) for b in pool.free}
        for probe in self.probes[1:]:
            ad.vjp(self.prog, probe)
            # no new buffer, and the pass gave back all it took
            assert all(a is b for a, b in zip(pool.bufs.values(), bufs,
                                              strict=True))
            assert {id(b) for b in pool.free} == free


class TestProbeVectors:
    def test_invariants(self):
        vs = ad.probe_vectors(n=5, d=3)
        assert vs.shape == (3, 15)
        assert np.all(vs.sum(axis=1) == 5)
        np.testing.assert_array_equal(vs @ vs.T, 5.0 * np.eye(3))
        np.testing.assert_array_equal(vs.sum(axis=0), np.ones(15))


def negation_program(n, d):
    def build(tape, x):
        xv = tape.leaf(x)
        return xv, xv * -1.0
    return ad.Program(build, n_in=n * d)


class TestJacobianDiagonal:
    def test_identity_scaled_field(self):
        prog = negation_program(3, 2)
        ad.forward_eval(prog, np.arange(6.0))
        tape = prog.tape
        diag = ad.jacobian_diagonal(prog, ad.probe_vectors(3, 2))
        np.testing.assert_array_equal(diag, -np.ones(6))
        assert tape.n_reverse_passes == 2

    def test_exact_pass_count(self):
        prog = negation_program(5, 3)
        ad.forward_eval(prog, np.ones(15))
        ad.jacobian_diagonal(prog, ad.probe_vectors(5, 3))
        assert prog.tape.n_reverse_passes == 3

    def test_probe_mismatch_rejected(self):
        prog = negation_program(3, 2)
        ad.forward_eval(prog, np.zeros(6))
        with pytest.raises(ValueError):
            ad.jacobian_diagonal(prog, ad.probe_vectors(4, 2))

    def test_matches_fd_diagonal_on_random_network(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(12)
        prog, cfg = random_hollow_program(6, 2, seed=4)
        det = net.make_field_program(
            net.init_params(cfg, seed=4), cfg, 6, 2, detach_conditioner=True)
        ad.forward_eval(det, x)
        diag = ad.jacobian_diagonal(det, ad.probe_vectors(6, 2))
        J = ad.full_jacobian_fd(lambda v: ad.forward_eval(prog, v), x, eps=1e-5)
        np.testing.assert_allclose(diag, np.diag(J), atol=1e-4)


class TestFullJacobianFd:
    def test_square(self):
        J = ad.full_jacobian_fd(lambda v: v * v, np.array([3.0]), eps=1e-5)
        assert abs(J[0, 0] - 6.0) < 1e-8

    def test_permutation_map(self):
        J = ad.full_jacobian_fd(lambda v: v[::-1].copy(), np.array([1.0, 2.0]))
        np.testing.assert_allclose(J, [[0.0, 1.0], [1.0, 0.0]], atol=1e-8)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            ad.full_jacobian_fd(lambda v: v, np.zeros(2), eps=0.0)

    def test_ad_jacobian_matches_fd_on_network(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(10)
        prog, _ = random_hollow_program(5, 2, seed=9)
        ad.forward_eval(prog, x)
        J_ad = np.stack([ad.vjp(prog, np.eye(10)[m]) for m in range(10)])
        J_fd = ad.full_jacobian_fd(lambda v: ad.forward_eval(prog, v), x)
        np.testing.assert_allclose(J_ad, J_fd, atol=1e-4)


class TestOpGradients:
    """Each primitive's vjp against central finite differences."""

    def _check(self, build_fn, x_shape, seed=0, atol=1e-6):
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(x_shape)

        def run(flat):
            tape = ad.Tape()
            xv = tape.leaf(flat.reshape(x_shape))
            out = build_fn(tape, xv)
            return out.value.reshape(-1)

        tape = ad.Tape()
        xv = tape.leaf(x0)
        out = build_fn(tape, xv)
        n_out = out.value.size
        u = rng.standard_normal(n_out)
        (g,) = tape.vjp(out, u.reshape(out.value.shape), [xv])
        J = ad.full_jacobian_fd(run, x0.reshape(-1))
        np.testing.assert_allclose(g.reshape(-1), u @ J, atol=atol)

    def test_affine(self):
        W = np.random.default_rng(1).standard_normal((3, 4))
        self._check(lambda t, x: ad.affine(x, t.const(W), t.const(np.zeros(4))),
                    (5, 3))

    def test_affine_weight_and_bias(self):
        rng = np.random.default_rng(2)
        X, W, b = (rng.standard_normal(s) for s in ((5, 3), (3, 4), (4,)))
        self._check(lambda t, w: ad.affine(t.const(X), w, t.const(b)), (3, 4))
        self._check(lambda t, c: ad.affine(t.const(X), t.const(W), c), (4,))

    def test_silu(self):
        self._check(lambda t, x: ad.silu(x), (4, 3))

    def test_div_broadcast(self):
        self._check(lambda t, x: x / ad.channel_norm(x), (4, 3), seed=2)

    def test_smooth_norm(self):
        self._check(lambda t, x: ad.channel_norm(x), (4, 3))

    def test_channel_norm(self):
        self._check(lambda t, x: ad.channel_norm(x), (3, 2, 3))

    def test_dot_last(self):
        self._check(lambda t, x: ad.dot_last(x, x * 2.0), (3, 2, 3))

    def test_scale_channels(self):
        def b(t, x):
            s = ad.dot_last(x, x)
            return ad.scale_channels(x, s)
        self._check(b, (3, 2, 3))

    def test_outer_rows(self):
        def b(t, x):
            s = ad.channel_norm(x)
            u = ad.gated_sum(x, s)
            return ad.outer_rows(s, u)
        self._check(b, (3, 2, 3))

    def test_gated_sum(self):
        def b(t, x):
            return ad.gated_sum(x, ad.dot_last(x, x))
        self._check(b, (3, 2, 3))

    def test_gather_segsum(self):
        idx = np.array([0, 2, 1, 2])
        seg = np.array([1, 0, 0, 1])

        def b(t, x):
            rows = ad.gather(x, idx)
            return ad.segment_sum(rows, seg, 2)
        self._check(b, (3, 4))

    def test_concat_slice(self):
        def b(t, x):
            c = ad.concat([x, x * 3.0])
            return ad.slice_cols(c, 2, 5)
        self._check(b, (3, 3))

    def test_rbf(self):
        centers = np.linspace(0.0, 2.0, 5)

        def b(t, x):
            return ad.gauss_rbf(ad.channel_norm(x), centers, 1.3)
        self._check(b, (4, 3))

    def test_segment_softmax(self):
        seg = np.array([0, 0, 1, 1, 1])

        def b(t, x):
            return ad.segment_softmax(x, seg, 2)
        self._check(b, (5, 1))

    def test_sum_all(self):
        self._check(lambda t, x: ad.sum_all(x * x), (3, 3))

    def test_add_sub_mul(self):
        def b(t, x):
            y = x * x + x - x * 0.5
            return y * x
        self._check(b, (3, 4))


class TestDetachValueInvariance:
    def test_network_values_identical_with_detach(self):
        rng = np.random.default_rng(20)
        for pd in (False, True):
            cfg = net.ArchConfig(n_hidden=6, steps=2, knn_k=2,
                                 pairwise_diff=pd).validate()
            params = net.init_params(cfg, seed=5)
            x = rng.standard_normal(8)
            p1 = net.make_field_program(params, cfg, 4, 2)
            p2 = net.make_field_program(params, cfg, 4, 2,
                                        detach_conditioner=True)
            out1 = ad.forward_eval(p1, x)
            out2 = ad.forward_eval(p2, x)
            np.testing.assert_array_equal(out1, out2)


# multi-parent ops on fresh leaves: the rules that must honour ``want``
MULTI_PARENT = {
    "add": lambda t, r: t.leaf(r((4, 3))) + t.leaf(r((3,))),
    "sub": lambda t, r: t.leaf(r((4, 3))) - t.leaf(r((3,))),
    "mul": lambda t, r: t.leaf(r((4, 3))) * t.leaf(r((4, 1))),
    "div": lambda t, r: t.leaf(r((4, 3))) / t.leaf(np.abs(r((3,))) + 1.0),
    "affine": lambda t, r: ad.affine(t.leaf(r((4, 3))), t.leaf(r((3, 2))),
                                     t.leaf(r((2,)))),
    "dotl": lambda t, r: ad.dot_last(t.leaf(r((4, 2, 3))), t.leaf(r((4, 2, 3)))),
    "scalec": lambda t, r: ad.scale_channels(t.leaf(r((4, 2, 3))),
                                             t.leaf(r((4, 3)))),
    "outer": lambda t, r: ad.outer_rows(t.leaf(r((4, 2))), t.leaf(r((4, 3)))),
    "gated": lambda t, r: ad.gated_sum(t.leaf(r((4, 2, 3))), t.leaf(r((4, 3)))),
    "concat": lambda t, r: ad.concat([t.leaf(r((4, 2))), t.leaf(r((4, 3))),
                                      t.leaf(r((4, 1)))]),
}


class TestPrunedReversePass:
    @pytest.mark.parametrize("kind", sorted(MULTI_PARENT))
    def test_unwanted_parent_gets_none(self, kind):
        rng = np.random.default_rng(0)
        tape = ad.Tape()
        out = MULTI_PARENT[kind](tape, rng.standard_normal)
        assert tape.kinds[out.i] == kind
        ps = tape.parents[out.i]
        g = rng.standard_normal(out.shape)
        rule = ad._BACKWARD[kind]
        full = rule(g, tape, ps, tape.aux[out.i], (True,) * len(ps))
        for j in range(len(ps)):
            want = tuple(k != j for k in range(len(ps)))
            part = rule(g, tape, ps, tape.aux[out.i], want)
            assert part[j] is None
            for k in range(len(ps)):
                if k != j:
                    assert part[k].tobytes() == full[k].tobytes()

    def test_every_multi_parent_kind_is_covered(self):
        kinds = set()
        for cfg_kw in (dict(knn_k=3, attention="softmax", pairwise_diff=True),
                       dict(heads=2, attention="product"),
                       dict(knn_k=3, baseline=True, pairwise_diff=True)):
            cfg = net.ArchConfig(n_hidden=4, steps=2, **cfg_kw).validate()
            prog = net.make_field_program(net.init_params(cfg), cfg, 6, 2)
            ad.forward_eval(prog, np.random.default_rng(1).standard_normal(12))
            tape = prog.tape
            kinds |= {tape.kinds[i] for i in range(len(tape))
                      if len(tape.parents[i]) > 1}
        assert kinds == set(MULTI_PARENT)

    def test_gather_sum_rule_runs_on_pairwise_tapes(self, monkeypatch):
        cfg = net.ArchConfig(n_hidden=4, steps=2, knn_k=3,
                             pairwise_diff=True).validate()
        prog = net.make_field_program(net.init_params(cfg, seed=2), cfg, 6, 2)
        ad.forward_eval(prog, np.random.default_rng(3).standard_normal(12))
        tape = prog.tape
        fused = [i for i, kind in enumerate(tape.kinds) if kind == "gsum"]
        assert len(fused) == 2  # M_s and M_v of the pairwise init
        assert tape.aux[fused[0]] is tape.aux[fused[1]]  # one matrix pair
        node_of = {id(ps): i for i, ps in enumerate(tape.parents)}
        ran, rule = [], ad._BACKWARD["gsum"]

        def spy(g, tape, ps, aux, want):
            ran.append(node_of[id(ps)])
            return rule(g, tape, ps, aux, want)
        monkeypatch.setitem(ad._BACKWARD, "gsum", spy)
        ad.vjp(prog, ad.probe_vectors(6, 2)[0])
        assert sorted(ran) == fused

    def test_probe_pass_visits_only_nodes_reaching_x(self, monkeypatch):
        cfg = net.ArchConfig(n_hidden=6, steps=2, knn_k=3,
                             pairwise_diff=True).validate()
        prog = net.make_field_program(net.init_params(cfg, seed=3), cfg, 6, 2,
                                      detach_conditioner=True)
        ad.forward_eval(prog, np.random.default_rng(4).standard_normal(12))
        tape = prog.tape
        kinds, parents = tape.kinds, tape.parents
        out, x = prog.out_var.i, prog.in_var.i
        terminal = ("leaf", "const", "detach")
        # oracles: paths from x that avoid detach, and the nodes an
        # unpruned pass reaches from the output
        from_x = [False] * len(tape)
        for i in range(len(tape)):
            from_x[i] = i == x or (kinds[i] not in terminal
                                   and any(from_x[p] for p in parents[i]))
        unpruned = {out}
        for i in range(out, -1, -1):
            if i in unpruned and kinds[i] not in terminal:
                unpruned.update(parents[i])
        node_of = {id(ps): i for i, ps in enumerate(parents)}
        ran = []
        for kind, rule in list(ad._BACKWARD.items()):
            def spy(g, tape, ps, aux, want, _rule=rule):
                ran.append(node_of[id(ps)])
                return _rule(g, tape, ps, aux, want)
            monkeypatch.setitem(ad._BACKWARD, kind, spy)
        for probe in ad.probe_vectors(6, 2):
            before, ran[:] = tape.n_reverse_visits, []
            ad.vjp(prog, probe)
            visits = tape.n_reverse_visits - before
            assert all(from_x[i] for i in ran)
            assert set(ran) | {x} == {i for i in unpruned if from_x[i]}
            assert visits == len(ran) + 1  # the rules' nodes and x itself
            assert visits < len(unpruned)


def channel_major(a):
    """An (R, d, C) array's data laid out (R, C, d), for the oracles."""
    return np.ascontiguousarray(np.swapaxes(a, 1, 2))


def awkward(rng, shape):
    """Random entries with -0.0 and +-1e-300 mixed in."""
    a = rng.standard_normal(shape)
    flat = a.reshape(-1)
    flat[::5], flat[1::7], flat[2::11] = -0.0, 1e-300, -1e-300
    return a


def run_op(op, *args, arena=None):
    """An op's value and its rule's gradients for a random cotangent.

    On a ``NanPool`` every buffer comes filled with NaN, so no output may
    rely on what a buffer held.  The next tape on it rewinds the pool.
    """
    tape = ad.Tape(arena)
    out = op(*(tape.leaf(a) for a in args))
    g = awkward(np.random.default_rng(1), out.shape)
    i = out.i
    grads = ad._BACKWARD[tape.kinds[i]](g, tape, tape.parents[i],
                                        tape.aux[i], (True,) * len(args))
    return out.value, g, grads


def same_bits(got, ref):
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


def sigmoid(x):
    tape = ad.Tape()
    return tape.aux[ad.silu(tape.leaf(x)).i]


def two_branch_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def exact_sums(terms):
    """The exactly rounded sums over the last axis, and the bound
    len(terms) * eps * sum|terms| that any order of additions keeps to."""
    ref = np.array([math.fsum(t) for t in terms.reshape(-1, terms.shape[-1])])
    bound = terms.shape[-1] * np.finfo(float).eps * np.abs(terms).sum(axis=-1)
    return ref.reshape(terms.shape[:-1]), bound


def assert_sums(got, terms):
    """Each entry of ``got`` sums the last axis of ``terms`` within the
    bound (so exactly where every term is 0)."""
    ref, bound = exact_sums(terms)
    assert got.shape == ref.shape and np.all(np.abs(got - ref) <= bound)


def assert_norms(got, terms):
    """``got`` is sqrt(sum + NORM_EPS) of the last axis of ``terms``: the
    sum's bound carried through the square root, plus 2 ulp for the
    roundings of + eps and sqrt."""
    ref, bound = exact_sums(terms)
    ref = np.sqrt(ref + ad.NORM_EPS)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= bound / (2 * ref) + 2 * np.spacing(ref))


class TestKernels:
    """The tape's kernels against plain numpy and exactly rounded sums."""

    @pytest.mark.parametrize("row_shape", [(), (3,), (4, 3)])
    @pytest.mark.parametrize("idx,n_seg", [
        ([2, 0, 2, 1, 0, 2], 4),   # repeated, unsorted, segment 3 empty
        ([1, 1, 1], 3),
        ([], 3),                   # zero rows
        ([], 0),
        (np.random.default_rng(5).integers(0, 40, 300), 50),
    ])
    def test_scatter_adds_match_add_at(self, idx, n_seg, row_shape):
        rng = np.random.default_rng(6)
        idx = np.asarray(idx, dtype=np.intp)
        rows = rng.standard_normal((len(idx),) + row_shape)
        rows.reshape(-1)[::4] = -0.0
        ref = np.zeros((n_seg,) + row_shape)
        np.add.at(ref, idx, rows)
        tape = ad.Tape()
        summed = ad.segment_sum(tape.leaf(rows), idx, n_seg).value
        assert summed.shape == ref.shape and summed.tobytes() == ref.tobytes()
        # gather's backward scatters the cotangent rows the same way
        src = tape.leaf(rng.standard_normal((n_seg,) + row_shape))
        gathered = ad.gather(src, idx)
        (g,) = tape.vjp(gathered, rows, [src])
        assert g.shape == ref.shape and g.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("R", [0, 6])
    @pytest.mark.parametrize("C", [1, 5, 32])
    @pytest.mark.parametrize("d", [2, 3])
    def test_layout_ops_match_channel_major_formulas(self, R, C, d):
        rng = np.random.default_rng(C + d)
        a, b = awkward(rng, (R, d, C)), awkward(rng, (R, d, C))
        a[:1], b[:1] = -0.0, np.abs(b[:1]) + 1.0  # a row of -0.0 products
        u, s = awkward(rng, (R, d)), awkward(rng, (R, C))
        s1 = awkward(rng, (R, 1))
        outs = []  # per run: copies of every value and gradient
        # tapes without a pool, and on a pool's NaN-filled buffers
        for arena in (None, NanPool()):
            outs.append([])

            def op(*args):
                v, g, grads = run_op(*args, arena=arena)
                outs[-1] += [x.copy() for x in (v, *grads)]
                return v, g, grads

            v, g, (ga,) = op(ad.channel_norm, a)
            assert_norms(v, channel_major(a * a))
            assert same_bits(ga, g[:, None, :] * a / v[:, None, :])
            v, g, (gu,) = op(ad.channel_norm, u)  # (R, d) rows: one channel
            assert_norms(v, (u * u)[:, None, :])
            assert same_bits(gu, g * u / v)

            v, g, (ga, gb) = op(ad.dot_last, a, b)
            assert_sums(v, channel_major(a * b))
            assert same_bits(ga, g[:, None, :] * b)
            assert same_bits(gb, g[:, None, :] * a)

            for gate in (s, s1):
                v, g, (ga, gs) = op(ad.scale_channels, a, gate)
                assert same_bits(v, a * gate[:, None, :])
                assert same_bits(ga, g * gate[:, None, :])
                k = gate.shape[1]  # an (R, 1) gate sums over d and C
                assert_sums(gs, channel_major(g * a).reshape(R, k, d * C // k))

            v, g, (gs, gu) = op(ad.outer_rows, s, u)
            assert same_bits(v, u[:, :, None] * s[:, None, :])
            assert_sums(gs, channel_major(g * u[:, :, None]))
            assert_sums(gu, g * s[:, None, :])

            v, g, (ga, gs) = op(ad.gated_sum, a, s)
            assert_sums(v, a * s[:, None, :])
            assert same_bits(ga, g[:, :, None] * s[:, None, :])
            assert_sums(gs, channel_major(g[:, :, None] * a))
        # the same bits with and without a pool
        assert all(map(same_bits, *outs))

    def test_gather_rejects_out_of_range_rows(self):
        tape = ad.Tape()
        a = tape.leaf(np.ones((3, 2)))
        for idx in ([0, 3], [-1, 0]):
            with pytest.raises(IndexError, match="3 rows"):
                ad.gather(a, idx)
        assert ad.gather(a, []).shape == (0, 2)

    @given(source=st.sampled_from(["gaussian", "lattice", "coincident",
                                   "random"]),
           n=st.integers(2, 30), d=st.sampled_from([2, 3]),
           k=st.integers(1, 6), B=st.integers(1, 3),
           C=st.sampled_from([1, 5, 32]), seed=st.integers(0, 2**32 - 1))
    def test_gather_sum_matches_gather_then_segment_sum(self, source, n, d,
                                                         k, B, C, seed):
        cfg = net.ArchConfig(knn_k=min(k, n - 1), pairwise_diff=True)
        if source == "random":  # may have no triple at all
            xs = np.zeros((B, n, d))
            override = [[random_graph(n, seed + s)] for s in range(B)]
        else:
            xs = np.stack([make_cloud(source, n, d, seed + s) for s in range(B)])
            override = None
        hp = net.make_plan(xs, cfg.validate(), override).heads[0]
        E = len(hp.src)
        rng = np.random.default_rng(seed)
        tape = ad.Tape()
        leaves = [tape.leaf(awkward(rng, (E, C))),
                  tape.leaf(awkward(rng, (E, d, C)))]
        fused = ad.gather_sum(leaves, hp.init_from, hp.init_to, E)
        for a, f in zip(leaves, fused):
            ref = ad.segment_sum(ad.gather(a, hp.init_from), hp.init_to, E)
            assert same_bits(f.value, ref.value)
            g = awkward(rng, ref.shape)
            (got,) = tape.vjp(f, g, [a])
            (expect,) = tape.vjp(ref, g, [a])
            assert same_bits(got, expect)

    @pytest.mark.parametrize("seg,n_seg", [
        ([2, 0, 2, 1, 0, 2], 4),   # repeated, unsorted, segment 3 empty
        ([3, 1], 5),               # single members, empty segments
        ([], 2),
        (np.random.default_rng(9).integers(0, 3, 60), 4),  # ~20 per segment
        (np.random.default_rng(9).integers(0, 40, 300), 50),
    ])
    def test_segment_softmax_matches_add_at_formulas(self, seg, n_seg):
        seg = np.asarray(seg, dtype=np.intp)
        rng = np.random.default_rng(10)
        y = awkward(rng, (len(seg), 1)) * 5.0
        ties = rng.choice([0.0, -0.0, -1.0], (len(seg), 1))
        for y in (y, ties):  # ties: maxima of +-0.0 shared by many rows
            m = np.full(n_seg, -np.inf)
            np.maximum.at(m, seg, y[:, 0])
            # the reduceat maxima: the same values, a zero's sign aside
            assert np.array_equal(ad._Scatter(seg, n_seg).max(y[:, 0]), m)
            e = np.exp(y[:, 0] - m[seg])
            tot = np.zeros(n_seg)
            np.add.at(tot, seg, e)
            alpha = e / tot[seg]
            for arena in (None, NanPool()):
                v, g, (gy,) = run_op(
                    lambda a: ad.segment_softmax(a, seg, n_seg), y, arena=arena)
                ga = g[:, 0] * alpha  # g has -0.0 entries
                dots = np.zeros(n_seg)
                np.add.at(dots, seg, ga)
                assert same_bits(v, alpha[:, None])
                assert same_bits(gy, (ga - alpha * dots[seg])[:, None])
                single = np.bincount(seg, minlength=n_seg)[seg] == 1
                assert np.all(v[single] == 1.0)

    def test_sigmoid_matches_two_branch_formula(self):
        rng = np.random.default_rng(7)
        special = [0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 800.0, -800.0,
                   np.nan]
        x = np.concatenate([special, rng.standard_normal(500) * 30,
                            rng.uniform(-700, 700, 500)])
        s = sigmoid(x)
        # the formula in extended precision, rounded once to float64
        ref = two_branch_sigmoid(x.astype(np.longdouble)).astype(np.float64)
        nan = np.isnan(ref)
        np.testing.assert_array_equal(np.isnan(s), nan)
        assert np.all(np.abs(s[~nan] - ref[~nan]) <= 4 * np.spacing(ref[~nan]))
        assert s[:2].tolist() == [0.5, 0.5]  # exact at 0, +-800 and NaN
        assert s[6:8].tolist() == [1.0, 0.0] and np.isnan(s[8])

    def test_silu_backward_matches_formula(self):
        rng = np.random.default_rng(8)
        x = np.concatenate([[0.0, -0.0, 700.0, -700.0, 800.0, -800.0],
                            rng.standard_normal(500) * 30])
        g = rng.standard_normal(x.shape)
        s = sigmoid(x)
        tape = ad.Tape()
        tape.leaf(x)
        (got,) = ad._BACKWARD["silu"](g, tape, (0,), s, (True,))
        assert got.tobytes() == (g * (s * (1.0 + x * (1.0 - s)))).tobytes()
