"""Interpolants, exact OT coupling vs enumeration, loss gradients vs FD,
and the training loop's bookkeeping."""

import itertools

import numpy as np
import pytest

from nbflow import network as net
from nbflow import training as tr


class TestInterpolant:
    def test_midpoint(self):
        x_t, u_t = tr.interpolant_sample(np.array([[0.0, 0.0]]),
                                         np.array([[2.0, 0.0]]),
                                         np.array([0.5]), sigma=0.0)
        np.testing.assert_array_equal(x_t, [[1.0, 0.0]])
        np.testing.assert_array_equal(u_t, [[2.0, 0.0]])

    def test_t_zero_returns_start(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((4, 3, 2))
        x1 = rng.standard_normal((4, 3, 2))
        x_t, _ = tr.interpolant_sample(x0, x1, np.zeros(4), sigma=0.0)
        np.testing.assert_array_equal(x_t, x0)

    def test_noise_scale(self):
        rng = np.random.default_rng(1)
        x0 = np.zeros((100_000, 1, 1))
        x_t, _ = tr.interpolant_sample(x0, x0, np.zeros(100_000), 0.1, rng)
        assert abs(x_t.std() - 0.1) < 0.002

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            tr.interpolant_sample(np.zeros((1, 1)), np.zeros((1, 1)),
                                  np.zeros(1), sigma=-0.1)


def brute_force_min_cost(x0, x1):
    B = len(x0)
    best, best_perm = np.inf, None
    for perm in itertools.permutations(range(B)):
        cost = sum(np.sum((x0[i] - x1[perm[i]]) ** 2) for i in range(B))
        if cost < best:
            best, best_perm = cost, perm
    return best, np.array(best_perm)


def coupling_cost(x0, x1, perm):
    return float(sum(np.sum((x0[i] - x1[perm[i]]) ** 2)
                     for i in range(len(x0))))


class TestOtCoupling:
    def test_scalar_toy(self):
        x0 = np.array([[0.0], [10.0]])
        x1 = np.array([[11.0], [1.0]])
        perm = tr.minibatch_ot_coupling(x0, x1)
        np.testing.assert_array_equal(perm, [1, 0])
        assert coupling_cost(x0, x1, perm) == 2.0

    def test_identity_on_equal_batches(self):
        x = np.random.default_rng(2).standard_normal((6, 2, 2))
        perm = tr.minibatch_ot_coupling(x, x)
        assert coupling_cost(x, x, perm) == 0.0

    @pytest.mark.parametrize("B", [2, 3, 5, 7])
    def test_matches_exhaustive_minimum(self, B):
        rng = np.random.default_rng(B)
        for trial in range(25):
            x0 = rng.standard_normal((B, 2))
            x1 = rng.standard_normal((B, 2))
            perm = tr.minibatch_ot_coupling(x0, x1)
            best, _ = brute_force_min_cost(x0, x1)
            assert coupling_cost(x0, x1, perm) == pytest.approx(best)

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        x0 = rng.standard_normal((6, 3))
        x1 = rng.standard_normal((6, 3))
        shift = rng.standard_normal(3) * 5
        p1 = tr.minibatch_ot_coupling(x0, x1)
        p2 = tr.minibatch_ot_coupling(x0 + shift, x1 + shift)
        np.testing.assert_array_equal(p1, p2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            tr.minibatch_ot_coupling(np.zeros((3, 1)), np.zeros((4, 1)))

    def test_batch_too_large(self):
        with pytest.raises(ValueError):
            tr.minibatch_ot_coupling(np.zeros((513, 1)), np.zeros((513, 1)))


def small_setup(seed=0, **kw):
    cfg_kw = dict(n_hidden=5, steps=1, knn_k=2)
    cfg_kw.update(kw)
    cfg = net.ArchConfig(**cfg_kw).validate()
    params = net.init_params(cfg, seed=seed)
    return cfg, params


class TestCfmLoss:
    def test_zero_when_field_matches_target(self):
        cfg, _ = small_setup()
        params = net.zero_params(cfg)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((4, 4, 2))
        batch = tr.make_cfm_batch(x0, x0.copy(), rng.uniform(size=4),
                                  sigma=0.0, couple=False)
        assert tr.cfm_loss(params, cfg, batch) == 0.0

    def test_zero_field_gives_mean_squared_target(self):
        cfg, _ = small_setup()
        params = net.zero_params(cfg)
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((5, 4, 2))
        x1 = rng.standard_normal((5, 4, 2))
        batch = tr.make_cfm_batch(x0, x1, rng.uniform(size=5), sigma=0.0,
                                  couple=False)
        expect = np.mean(np.sum((x1 - x0) ** 2, axis=(1, 2)))
        assert tr.cfm_loss(params, cfg, batch) == pytest.approx(expect)

    def test_gradient_matches_finite_differences(self):
        cfg, params = small_setup(seed=5)
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal((3, 4, 2))
        x1 = rng.standard_normal((3, 4, 2))
        batch = tr.make_cfm_batch(x0, x1, rng.uniform(size=3), sigma=0.0)
        _, grads = tr.cfm_loss_and_grad(params, cfg, batch)
        picked = []
        for trial in range(10):
            name = list(params)[rng.integers(len(params))]
            flat = params[name].reshape(-1)
            idx = int(rng.integers(flat.size))
            eps = 1e-6
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = tr.cfm_loss(params, cfg, batch)
            flat[idx] = orig - eps
            lm = tr.cfm_loss(params, cfg, batch)
            flat[idx] = orig
            picked.append((grads[name].reshape(-1)[idx], (lp - lm) / (2 * eps)))
        g_ad = np.array([p[0] for p in picked])
        g_fd = np.array([p[1] for p in picked])
        assert np.linalg.norm(g_ad - g_fd) <= 1e-5 * max(np.linalg.norm(g_fd), 1e-8)


class TestAdam:
    def test_quadratic_descent(self):
        params = {"w": np.array([5.0, -3.0])}
        opt = tr.Adam(params, lr=0.1)
        for _ in range(300):
            opt.step({"w": 2.0 * params["w"]})
        assert np.abs(params["w"]).max() < 1e-3


class TestTrainLoop:
    def test_one_epoch_writes_loadable_checkpoint(self, tmp_path):
        cfg, _ = small_setup(seed=7)
        tc = tr.TrainConfig(batch_size=5, epochs=1, seed=7,
                            validation_fraction=0.2)
        rng = np.random.default_rng(8)
        data = rng.standard_normal((10, 4, 2))
        result = tr.train(tc, cfg, data, tmp_path)
        loaded, cfg2, _ = net.load_checkpoint(result.last_checkpoint)
        assert cfg2 == cfg
        for name in result.params:
            np.testing.assert_array_equal(loaded[name], result.params[name])
        assert result.loss_log.exists()
        header = result.loss_log.read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss,lr,wallclock_s"

    def test_toy_loss_decreases_over_20_epochs(self, tmp_path):
        # linear-target toy x1 = 2*x0: the fixed-draw validation loss must
        # fall monotonically over the first 20 epochs in >= 9 of 10 seeds
        # (per-batch training loss is a stochastic estimate, so the
        # deterministic validation estimate is the monotone quantity)
        wins = 0
        for seed in range(10):
            cfg = net.ArchConfig(n_hidden=4, steps=1, knn_k=1).validate()
            tc = tr.TrainConfig(batch_size=64, epochs=20, seed=seed,
                                lr_initial=3e-3, lr_final=3e-3,
                                ramp_epochs=0, validation_fraction=0.5,
                                sigma=0.0)
            rng = np.random.default_rng(100 + seed)
            data = 2.0 * rng.standard_normal((128, 2, 2))
            result = tr.train(tc, cfg, data, tmp_path / f"s{seed}")
            if np.all(np.diff(result.val_losses) < 0):
                wins += 1
        assert wins >= 9

    def test_split_that_leaves_no_training_data_names_the_fraction(
            self, tmp_path):
        cfg, _ = small_setup(seed=7)
        tc = tr.TrainConfig(batch_size=5, epochs=1, validation_fraction=0.75)
        data = np.random.default_rng(8).standard_normal((2, 4, 2))
        with pytest.raises(ValueError,
                           match=r"validation_fraction=0\.75 .* 2 of M=2"):
            tr.train(tc, cfg, data, tmp_path)

    def test_best_checkpoint_is_argmin_validation(self, tmp_path):
        cfg, _ = small_setup(seed=9)
        tc = tr.TrainConfig(batch_size=8, epochs=5, seed=9,
                            validation_fraction=0.25)
        data = np.random.default_rng(10).standard_normal((24, 4, 2))
        result = tr.train(tc, cfg, data, tmp_path)
        assert result.best_epoch == int(np.argmin(result.val_losses))
        _, _, manifest = net.load_checkpoint(result.best_checkpoint)
        assert manifest["extra"]["epoch"] == result.best_epoch


class TestDataCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((7, 3, 2))
        Z = np.array([0, 1, 0])
        path = tmp_path / "data.csv"
        tr.save_data_csv(path, x, Z)
        x2, Z2 = tr.load_data_csv(path)
        np.testing.assert_array_equal(x, x2)
        np.testing.assert_array_equal(Z, Z2)
        assert path.read_text().splitlines()[0] == "3,2"

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("hello\n1,2,3\n")
        with pytest.raises(ValueError):
            tr.load_data_csv(p)

    @pytest.mark.parametrize("rows,line,what", [
        (["0.1,0.2,0,1", "0.3,0.4,1,0"], 3, "labels 1,0 differ from line 2"),
        (["0.1,0.2,0.5,0"], 2, "labels must be integers"),
        (["0.1,0.2,0,0", "", "nan,0.4,0,0"], 4, "coordinates must be finite"),
        (["0.1,-inf,0,0"], 2, "coordinates must be finite"),
    ], ids=["mixed_labels", "fractional_label", "nan", "inf"])
    def test_bad_rows_name_their_line(self, tmp_path, rows, line, what):
        p = tmp_path / "bad.csv"
        p.write_text("2,1\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=f"line {line}: {what}"):
            tr.load_data_csv(p)
