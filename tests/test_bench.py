"""Pass counting, runtime accounting, and scaling-law fits."""

import numpy as np
import pytest

from nbflow import bench
from nbflow import graphs as gt
from nbflow import network as net


class TestMeasureStep:
    def _record(self, mode, n=6, d=2):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, d))
        if mode == "hollow":
            cfg = net.ArchConfig(n_hidden=6, steps=2, knn_k=3).validate()
        else:
            cfg = net.ArchConfig(n_hidden=6, steps=2, baseline=True).validate()
        params = net.init_params(cfg, seed=0)
        rec = bench.measure_step(params, cfg, x, repeats=3)
        assert rec.mode == mode
        return rec

    def test_hollow_pass_count_is_d(self):
        rec = self._record("hollow")
        assert rec.reverse_passes == 2

    def test_baseline_pass_count_is_nd(self):
        rec = self._record("baseline")
        assert rec.reverse_passes == 12

    def test_runtime_accounting(self):
        rec = self._record("hollow")
        assert rec.rt >= rec.rt_forward + rec.rt_divergence - 0.05 * rec.rt
        assert rec.rt_forward > 0 and rec.rt_divergence > 0

    def test_edge_counts_recorded(self):
        rec = self._record("hollow")
        assert rec.n_edges > 0 and rec.n_lg_edges > 0

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            self_cfg = net.ArchConfig(n_hidden=4, steps=1, knn_k=2).validate()
            bench.measure_step(net.init_params(self_cfg, seed=0), self_cfg,
                               np.zeros((4, 2)), repeats=2)


class TestFitScaling:
    def test_exact_cubic_law_of_complete_line_graphs(self):
        # n(n-1)(n-2) exactly; the log-log slope needs an asymptotic range
        # before the (n-1)(n-2) curvature drops below the 0.05 tolerance
        ns = np.array([32, 64, 128, 256])
        counts = [gt.build_line_graph(gt.complete_graph(n)).n_triples
                  for n in ns]
        assert all(c == n * (n - 1) * (n - 2) for c, n in zip(counts, ns))
        slope, stderr = bench.fit_scaling(ns, counts)
        assert abs(slope - 3.0) < 0.05

    def test_synthetic_power_law(self):
        ns = np.array([8, 16, 32, 64, 128])
        slope, stderr = bench.fit_scaling(ns, 3.5 * ns**2.25)
        assert slope == pytest.approx(2.25, abs=1e-12)
        assert stderr < 1e-12

    def test_noisy_law_reproducible_across_seeds(self):
        ns = np.array([8, 16, 32, 64, 128, 256])
        fits = []
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            ys = ns**1.5 * np.exp(rng.normal(0, 0.05, ns.size))
            fits.append(bench.fit_scaling(ns, ys))
        (s1, e1), (s2, e2) = fits
        assert abs(s1 - s2) <= 2 * (e1 + e2)

    def test_validation(self):
        with pytest.raises(ValueError):
            bench.fit_scaling([1, 2, 3], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            bench.fit_scaling([8, 9, 10, 11], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            bench.fit_scaling([1, 2, 4, 8], [1.0, -2.0, 3.0, 4.0])


def record(mode, n, rt, passes):
    return bench.BenchRecord(mode=mode, n=n, d=2, k=4, steps=2, n_edges=0,
                             n_lg_edges=0, rt=rt, rt_forward=rt / 2,
                             rt_divergence=rt / 2, reverse_passes=passes,
                             repeats=3, seed=0)


class TestSpeedupReport:
    def test_equal_models_ratio_one(self):
        h = [record("hollow", 8, 1.0, 2)]
        b = [record("baseline", 8, 1.0, 16)]
        rows = bench.speedup_report(h, b)
        assert rows[0]["speedup"] == pytest.approx(1.0)

    def test_monotone_flag(self):
        h = [record("hollow", n, 1.0, 2) for n in (8, 16, 32)]
        b = [record("baseline", n, float(n), 2 * n) for n in (8, 16, 32)]
        rows = bench.speedup_report(h, b)
        assert all(r["monotone_in_n"] for r in rows)
        assert [r["speedup"] for r in rows] == [8.0, 16.0, 32.0]

    def test_missing_pair(self):
        with pytest.raises(ValueError):
            bench.speedup_report([record("hollow", 8, 1.0, 2)],
                                 [record("baseline", 16, 1.0, 32)])
