"""Command line behavior: validation, exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest

from nbflow import cli
from nbflow import flow
from nbflow import network as net
from nbflow import training


def run(args):
    return cli.main([str(a) for a in args])


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"systm": {}}))
        assert run(["inspect-graph", "--config", cfg, "--out", tmp_path]) == 1
        assert "systm" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"knn_q": 3}}))
        assert run(["inspect-graph", "--config", cfg, "--out", tmp_path]) == 1
        assert "model.knn_q" in capsys.readouterr().err

    def test_override_syntax_error(self, tmp_path, capsys):
        assert run(["inspect-graph", "--out", tmp_path, "--set", "noequals"]) == 1

    def test_invalid_json_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run(["inspect-graph", "--config", cfg, "--out", tmp_path]) == 1

    @pytest.mark.parametrize("key", ["checkpoint_every", "batch_size"])
    def test_train_config_error_names_key(self, tmp_path, capsys, key):
        x = np.random.default_rng(0).standard_normal((8, 3, 2))
        training.save_data_csv(tmp_path / "data.csv", x)
        assert run(["train", "--out", tmp_path, "--quiet",
                    "--set", "system.n=3", "--set", "model.n_hidden=4",
                    "--set", "model.knn_k=2", "--set", "train.epochs=1",
                    "--set", f"train.{key}=0"]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["count", "batch_size", "integrator_steps"])
    def test_sample_count_below_one_names_key(self, tmp_path, capsys, key):
        cfg = net.ArchConfig(n_hidden=4, steps=1, knn_k=2).validate()
        net.save_checkpoint(tmp_path / "checkpoint_best",
                            net.init_params(cfg), cfg)
        assert run(["sample", "--out", tmp_path, "--quiet",
                    "--set", "system.n=3", "--set", f"sample.{key}=0"]) == 1
        assert f"sample.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("bench", "bench.repeats", 2), ("bench", "bench.k", 0),
        ("bench", "bench.d", 4), ("generate-data", "mcmc.thin", 0),
        ("generate-data", "mcmc.burn_in", -1),
        ("generate-data", "mcmc.step_size", 0)])
    def test_bench_and_mcmc_values_name_key(self, tmp_path, capsys, command,
                                            key, value):
        assert run([command, "--out", tmp_path, "--quiet",
                    "--set", f"{key}={value}"]) == 1
        assert key in capsys.readouterr().err

    def test_train_seed_is_rejected(self, tmp_path, capsys):
        # the top-level seed is the one seed; train.seed used to be ignored
        x = np.random.default_rng(0).standard_normal((8, 3, 2))
        training.save_data_csv(tmp_path / "data.csv", x)
        assert run(["train", "--out", tmp_path, "--quiet",
                    "--set", "system.n=3", "--set", "model.n_hidden=4",
                    "--set", "model.knn_k=2", "--set", "train.epochs=1",
                    "--set", "train.seed=5"]) == 1
        assert "train.seed" in capsys.readouterr().err

    def test_split_that_leaves_no_training_data_names_key(self, tmp_path,
                                                           capsys):
        x = np.random.default_rng(0).standard_normal((2, 3, 2))
        training.save_data_csv(tmp_path / "data.csv", x)
        assert run(["train", "--out", tmp_path, "--quiet",
                    "--set", "system.n=3", "--set", "model.n_hidden=4",
                    "--set", "model.knn_k=2", "--set", "train.epochs=1",
                    "--set", "train.validation_fraction=0.75"]) == 1
        assert "train.validation_fraction" in capsys.readouterr().err

    def test_batch_above_the_ot_limit_names_key(self, tmp_path, capsys):
        x = np.random.default_rng(0).standard_normal((700, 3, 2))
        training.save_data_csv(tmp_path / "data.csv", x)
        assert run(["train", "--out", tmp_path, "--quiet",
                    "--set", "system.n=3", "--set", "model.n_hidden=4",
                    "--set", "model.knn_k=2", "--set", "train.epochs=1",
                    "--set", "train.batch_size=600"]) == 1
        err = capsys.readouterr().err
        assert "train.batch_size" in err and "512" in err

    def test_runtime_failure_exit_code(self, tmp_path):
        # bench requires >= 4 sweep points
        assert run(["bench", "--out", tmp_path, "--set",
                    "bench.n_list=[4,8,12]", "--quiet"]) == 2


class TestInspectGraph:
    def test_complete_graph_profile(self, tmp_path):
        assert run(["inspect-graph", "--out", tmp_path, "--quiet",
                    "--set", "system.n=4", "--set", "model.knn_k=3"]) == 0
        lines = (tmp_path / "graph.csv").read_text().splitlines()
        assert lines[0] == "t,active_lg_edges,removed_this_step"
        assert lines[1] == "0,24,0"
        assert lines[2] == "1,0,24"
        summary = json.loads((tmp_path / "graph_summary.json").read_text())
        assert summary == {"n": 4, "k": 3, "E": 12, "E_lg": 24}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "inspect-graph"
        assert "config_hash" in manifest


class TestPipeline:
    def _base_args(self, out):
        return ["--out", out, "--quiet",
                "--set", "system.kind=gaussian",
                "--set", "system.n=3", "--set", "system.d=2",
                "--set", "model.n_hidden=6", "--set", "model.steps=1",
                "--set", "model.knn_k=2",
                "--set", "train.epochs=2", "--set", "train.batch_size=32",
                "--set", "mcmc.n_samples=200", "--set", "mcmc.burn_in=200",
                "--set", "mcmc.thin=2",
                "--set", "sample.count=64", "--set", "sample.batch_size=32",
                "--set", "sample.integrator_steps=5"]

    def test_end_to_end(self, tmp_path):
        args = self._base_args(tmp_path)
        assert run(["generate-data"] + args) == 0
        assert run(["train"] + args) == 0
        assert run(["sample"] + args) == 0
        assert run(["evaluate"] + args) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        for key in ("ess", "ess_rem", "n_samples", "n_rejected", "rt_s",
                    "rt_forward_s", "rt_backward_s", "bp_count"):
            assert key in metrics
        assert metrics["n_samples"] == 64
        assert 0 < metrics["ess"] <= 1

    def test_sample_determinism(self, tmp_path):
        args = self._base_args(tmp_path)
        assert run(["generate-data"] + args) == 0
        assert run(["train"] + args) == 0
        assert run(["sample"] + args + ["--seed", "7"]) == 0
        first = (tmp_path / "samples.csv").read_bytes()
        assert run(["sample"] + args + ["--seed", "7"]) == 0
        assert (tmp_path / "samples.csv").read_bytes() == first

    def test_zeroed_checkpoint_reproduces_prior_density(self, tmp_path):
        cfg = net.ArchConfig(n_hidden=6, steps=1, knn_k=2).validate()
        net.save_checkpoint(tmp_path / "zero", net.zero_params(cfg), cfg)
        args = self._base_args(tmp_path)
        assert run(["sample", "--checkpoint", tmp_path / "zero"] + args) == 0
        rows = np.genfromtxt(tmp_path / "samples.csv", delimiter=",",
                             names=True)
        np.testing.assert_array_equal(rows["logrho1"], rows["logrho0"])
        prior = flow.GaussianPrior(n=3, d=2)
        x = np.stack([rows[f"x{i}"] for i in range(6)], axis=1)
        np.testing.assert_allclose(
            rows["logrho1"], prior.log_density(x.reshape(-1, 3, 2)),
            atol=1e-12)

    def test_self_consistency_ess_is_one(self, tmp_path):
        cfg = net.ArchConfig(n_hidden=6, steps=1, knn_k=2).validate()
        net.save_checkpoint(tmp_path / "zero", net.zero_params(cfg), cfg)
        args = self._base_args(tmp_path)
        assert run(["sample", "--checkpoint", tmp_path / "zero"] + args) == 0
        assert run(["evaluate"] + args) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["ess"] == pytest.approx(1.0, abs=1e-10)

    def test_effsu_against_baseline_metrics(self, tmp_path):
        cfg = net.ArchConfig(n_hidden=6, steps=1, knn_k=2).validate()
        net.save_checkpoint(tmp_path / "zero", net.zero_params(cfg), cfg)
        args = self._base_args(tmp_path)
        assert run(["sample", "--checkpoint", tmp_path / "zero"] + args) == 0
        assert run(["evaluate"] + args) == 0
        base = tmp_path / "metrics.json"
        other = tmp_path / "base_metrics.json"
        other.write_text(base.read_text())
        assert run(["evaluate", "--baseline-metrics", other] + args) == 0
        metrics = json.loads(base.read_text())
        assert metrics["effsu"] == pytest.approx(1.0)
        assert metrics["effsu_rem"] == pytest.approx(1.0)

    def test_sample_uses_training_labels(self, tmp_path):
        labels = np.array([0, 1, 1])
        x = np.random.default_rng(0).standard_normal((64, 3, 2))
        training.save_data_csv(tmp_path / "data.csv", x, Z=labels)
        args = self._base_args(tmp_path) + ["--set", "model.n_types=2",
                                            "--seed", "3"]
        assert run(["train"] + args) == 0
        assert run(["sample"] + args) == 0
        params, arch, _ = net.load_checkpoint(tmp_path / "checkpoint_best")
        prior = flow.GaussianPrior(n=3, d=2, mean_free=arch.pairwise_diff)
        expect = flow.sample_with_likelihood(
            params, arch, prior, 64, steps=5, seed=3, batch_size=32, Z=labels)
        rows = np.genfromtxt(tmp_path / "samples.csv", delimiter=",",
                             names=True)
        x1 = np.stack([rows[f"x{i}"] for i in range(6)], axis=1)
        np.testing.assert_array_equal(x1, expect.x.reshape(64, 6))
        np.testing.assert_array_equal(rows["logrho1"], expect.logrho1)


class TestMissingInputs:
    def test_train_without_data(self, tmp_path):
        assert run(["train", "--out", tmp_path, "--quiet"]) == 1

    def test_evaluate_without_samples(self, tmp_path):
        assert run(["evaluate", "--out", tmp_path, "--quiet"]) == 1
