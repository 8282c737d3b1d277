"""Tape correctness: values, gradients vs finite differences, detach,
probe-vector diagonal extraction, and pass accounting."""

import numpy as np
import pytest

from nbflow import autodiff as ad
from nbflow import network as net


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
            return xv, ad.matmul(xv, tape.const(A.T))
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

    def test_reverse_visits_bounded_by_forward(self):
        prog, _ = random_hollow_program(6, 2, seed=2)
        x = np.random.default_rng(3).standard_normal(12)
        ad.forward_eval(prog, x)
        tape = prog.tape
        before = tape.n_reverse_visits
        ad.vjp(prog, np.ones(12))
        assert tape.n_reverse_visits - before <= tape.n_forward_visits


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

    def test_matmul(self):
        W = np.random.default_rng(1).standard_normal((3, 4))
        self._check(lambda t, x: ad.matmul(x, t.const(W)), (5, 3))

    def test_silu(self):
        self._check(lambda t, x: ad.silu(x), (4, 3))

    def test_div_broadcast(self):
        self._check(lambda t, x: x / ad.smooth_norm(x), (4, 3), seed=2)

    def test_smooth_norm(self):
        self._check(lambda t, x: ad.smooth_norm(x), (4, 3))

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
            u = ad.sum_channels(x)
            return ad.outer_rows(s, u)
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
            return ad.gauss_rbf(ad.smooth_norm(x), centers, 1.3)
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
