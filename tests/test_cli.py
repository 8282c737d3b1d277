"""Command line behavior: validation, exit codes, artifacts, determinism."""

import json

import numpy as np
import pytest

from nbflow import bench, cli
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

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1, 2]")
        assert run(["inspect-graph", "--config", cfg, "--out", tmp_path]) == 1
        assert "JSON object" in capsys.readouterr().err

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

    @pytest.mark.parametrize("key,value", [
        ("n_types", 0), ("rbf_cutoff", 0), ("rbf_cutoff", -1), ("knn_k", 2.5),
        ("knn_k", 0), ("knn_k", 3), ("n_hidden", 0), ("steps", "two")])
    def test_model_config_error_names_key(self, tmp_path, capsys, key, value):
        # knn_k=3 leaves too few neighbours among system.n=3 particles
        x = np.random.default_rng(0).standard_normal((8, 3, 2))
        training.save_data_csv(tmp_path / "data.csv", x)
        args = ["--set", "system.n=3", "--set", "model.n_hidden=4",
                "--set", "model.knn_k=2", "--set", "train.epochs=1",
                "--set", f"model.{key}={value}"]
        assert run(["train", "--out", tmp_path, "--quiet"] + args) == 1
        assert f"model.{key}" in capsys.readouterr().err
        assert run(["inspect-graph", "--out", tmp_path, "--quiet"] + args) == 1
        assert f"model.{key}" in capsys.readouterr().err

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
        ("bench", "bench.d", 4), ("bench", "bench.n_list", '["a"]'),
        ("bench", "bench.n_list", "[1,4,8,16]"),
        ("bench", "bench.n_list", "[4,8,16,32.5]"),
        ("bench", "bench.n_list", 16), ("bench", "bench.n_list", "[4,8,12]"),
        ("bench", "bench.n_list", "[4,8,12,15]"),
        ("generate-data", "mcmc.thin", 0),
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

    @pytest.mark.parametrize("key,value,k", [("n", 6, 4), ("d", 3, 2)])
    def test_train_data_must_match_system(self, tmp_path, capsys, key, value,
                                          k):
        # the knn_k check reads system.n, so it must be the data's n
        x = np.random.default_rng(0).standard_normal((8, 3, 2))
        training.save_data_csv(tmp_path / "data.csv", x)
        assert run(["train", "--out", tmp_path, "--quiet",
                    "--set", "system.n=3", "--set", f"system.{key}={value}",
                    "--set", "model.n_hidden=4", "--set", f"model.knn_k={k}",
                    "--set", "train.epochs=1"]) == 1
        err = capsys.readouterr().err
        assert f"system.{key}={value}" in err
        assert f"{key}={dict(n=3, d=2)[key]}" in err

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

    @pytest.mark.parametrize("key", [
        "sample.count", "sample.batch_size", "sample.integrator_steps",
        "mcmc.n_samples", "mcmc.thin", "mcmc.burn_in", "bench.k",
        "bench.steps", "bench.n_hidden", "bench.d", "bench.repeats"])
    def test_integer_keys_reject_non_integers(self, tmp_path, capsys, key):
        # int(v) would truncate: sample.count=2.5 sampled 2 configurations
        assert run(["inspect-graph", "--out", tmp_path, "--quiet",
                    "--set", f"{key}=3.5"]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("n", 0), ("n", 2.5), ("n", "true"), ("d", 4), ("d", 1), ("d", 2.5),
        ("beta", "NaN"), ("beta", "nan"), ("beta", 0), ("r_min", -1),
        ("eps_lj", "Infinity"), ("tau_lj", 0), ("kind", "argon")])
    def test_system_config_error_names_key(self, tmp_path, capsys, key,
                                           value):
        assert run(["generate-data", "--out", tmp_path, "--quiet",
                    "--set", "mcmc.n_samples=4", "--set", "mcmc.burn_in=0",
                    "--set", f"system.{key}={value}"]) == 1
        assert f"system.{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "data.csv").exists()

    def test_command_config_error_leaves_no_out_dir(self, tmp_path, capsys):
        # only the command sees three sigmas against two means
        out = tmp_path / "runs" / "bad4"
        args = ["generate-data", "--out", out, "--quiet",
                "--set", "system.kind=gaussian_mixture",
                "--set", "system.mixture_means=[[0,0],[0,0]]",
                "--set", "system.mixture_sigmas=[0.4,1.2,3]"]
        assert run(args) == 1
        assert "system.mixture_sigmas" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        out.mkdir(parents=True)  # a directory that was there stays
        assert run(args) == 1 and out.is_dir()

    def test_runtime_failure_exit_code(self, tmp_path):
        # a checkpoint whose blob lost its last float fails at run time
        cfg = net.ArchConfig(n_hidden=4, steps=1, knn_k=2).validate()
        net.save_checkpoint(tmp_path / "checkpoint_best",
                            net.init_params(cfg), cfg)
        blob = tmp_path / "checkpoint_best.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        assert run(["sample", "--out", tmp_path, "--quiet",
                    "--set", "system.n=3", "--set", "sample.count=2"]) == 2


# key: (the command that reads it, an out-of-range value); integer keys
# also get a non-integer
_INTEGER_KEYS = {
    "system.n": ("generate-data", 0), "system.d": ("generate-data", 4),
    "model.n_hidden": ("inspect-graph", 0), "model.n_rbf": ("inspect-graph", 0),
    "model.n_types": ("inspect-graph", 0), "model.steps": ("inspect-graph", 0),
    "model.unique_nodes": ("inspect-graph", -1),
    "model.knn_k": ("inspect-graph", 0), "model.heads": ("inspect-graph", 0),
    "model.overlap": ("inspect-graph", -1), "model.seed": ("inspect-graph", -1),
    "train.batch_size": ("train", 0), "train.ramp_epochs": ("train", -3),
    "train.epochs": ("train", 0), "train.checkpoint_every": ("train", 0),
    "sample.count": ("sample", 0), "sample.integrator_steps": ("sample", 0),
    "sample.batch_size": ("sample", 0), "mcmc.n_samples": ("generate-data", 0),
    "mcmc.burn_in": ("generate-data", -1), "mcmc.thin": ("generate-data", 0),
    "bench.k": ("bench", 0), "bench.d": ("bench", 1), "bench.steps": ("bench", 0),
    "bench.n_hidden": ("bench", 0), "bench.repeats": ("bench", 2),
    "seed": ("inspect-graph", -1)}
_NUMBER_KEYS = {
    "system.beta": ("generate-data", 0), "system.r_min": ("generate-data", -1),
    "system.eps_lj": ("generate-data", 0), "system.tau_lj": ("generate-data", 0),
    "model.rbf_cutoff": ("inspect-graph", 0), "train.lr_initial": ("train", 0),
    "train.lr_final": ("train", -1e-4), "train.validation_fraction": ("train", 1),
    "train.sigma": ("train", -0.5), "mcmc.step_size": ("generate-data", 0)}
_MIXTURE = ["system.kind=gaussian_mixture", "system.mixture_means=[[0,0],[0,0]]",
            "system.mixture_sigmas=[0.4,1.2]"]
_BAD_VALUES = [
    (command, key, value)
    for keys, extra in ((_INTEGER_KEYS, ["2.5"]), (_NUMBER_KEYS, []))
    for key, (command, low) in keys.items()
    for value in extra + ["NaN", "Infinity", "-Infinity", "true", json.dumps(low)]
] + [("inspect-graph", f"model.{key}", value)
     for key in ("pairwise_diff", "baseline", "prune")
     for value in ('"False"', "0", "1")] + [
    ("sample", "sample.divergence_mode", '"exact"'),
    ("generate-data", "system.mixture_sigmas", "[NaN,1.2]"),
    ("generate-data", "system.mixture_means", "[[0,NaN],[0,0]]"),
    ("generate-data", "system.mixture_means", "[[0,0],[0]]"),
    ("generate-data", "system.mixture_weights", "[Infinity,1]"),
    ("inspect-graph", "seed", '"a"'), ("inspect-graph", "out_dir", "5")]


class TestEveryKeyIsChecked:
    @pytest.mark.parametrize("command,key,value", _BAD_VALUES)
    def test_bad_value_exits_1_naming_key(self, tmp_path, monkeypatch, capsys,
                                          command, key, value):
        # the data and checkpoint the commands read are here, so a value the
        # checks let through would reach the command's work
        monkeypatch.chdir(tmp_path)
        cfg = net.ArchConfig(n_hidden=4, steps=1, knn_k=2).validate()
        net.save_checkpoint(tmp_path / "checkpoint_best",
                            net.init_params(cfg), cfg)
        training.save_data_csv(tmp_path / "data.csv", np.random.default_rng(
            0).standard_normal((8, 3, 2)))
        sets = ["system.n=3", "model.n_hidden=4", "model.knn_k=2",
                "train.epochs=1", "mcmc.n_samples=4", "mcmc.burn_in=0",
                "sample.count=2", "bench.n_hidden=4"]
        if key.startswith("system.mixture"):
            sets += _MIXTURE
        args = [command, "--quiet"] + [a for kv in sets + [f"{key}={value}"]
                                        for a in ("--set", kv)]
        assert run(args if key == "out_dir" else args + ["--out", "."]) == 1
        assert f"{key} must be" in capsys.readouterr().err


class TestBench:
    def test_sweep_writes_records_and_summary(self, tmp_path):
        ns, d = [4, 8, 16, 32], 2
        assert run(["bench", "--out", tmp_path, "--quiet",
                    "--set", f"bench.n_list={json.dumps(ns)}",
                    "--set", "bench.n_hidden=4"]) == 0
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[0] == ",".join(bench.BENCH_FIELDS)
        rows = [dict(zip(bench.BENCH_FIELDS, line.split(",")))
                for line in lines[1:]]
        assert [(r["mode"], int(r["n"])) for r in rows] == \
            [(mode, n) for n in ns for mode in ("hollow", "baseline")]
        for r in rows:
            n = int(r["n"])
            assert int(r["reverse_passes"]) == (d if r["mode"] == "hollow"
                                                else n * d)
        summary = json.loads((tmp_path / "bench_summary.json").read_text())
        assert summary["n_list"] == ns
        for key in ("hollow_step_slope", "baseline_divergence_slope",
                    "lg_edges_slope"):
            assert len(summary[key]) == 2  # slope and its stderr
        assert [r["n"] for r in summary["speedups"]] == ns


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
        meta = json.loads((tmp_path / "samples_meta.json").read_text())
        assert meta["shards"] >= 1
        assert meta["usable_cores"] >= 1 and meta["blas_threads"] >= 1

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
