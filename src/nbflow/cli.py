"""Command line entry point wiring data generation, training, sampling,
evaluation, benchmarking, and graph inspection.

Configuration is one JSON file with sections ``system``, ``model``,
``train``, ``sample``, ``mcmc``, ``bench`` plus top-level ``seed`` and
``out_dir``.  ``--set a.b=c`` applies dotted-path overrides, read as JSON.
Before any work, every key is checked against its kind in
``config.TABLE`` (integers as JSON integers, flags as JSON booleans); an
unknown key or bad value exits 1 with a message naming ``section.key``.
Every subcommand writes a ``manifest.json`` recording the configuration
hash, seed, library versions, and wallclock, which is enough to re-run
the command.  Bulk numeric output is CSV with %.17g floats so a fixed
seed reproduces artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, bench, boltzmann, config, flow, network as net, training


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "system": {"kind": "gaussian", "n": 4, "d": 2, "beta": 1.0},
    "model": {"n_hidden": 16, "steps": 2, "knn_k": 3},
    "train": {},
    "sample": {"count": 256, "divergence_mode": "hollow",
               "integrator_steps": 20, "batch_size": 128},
    "mcmc": {"n_samples": 2000, "step_size": 0.25, "burn_in": 2000, "thin": 5},
    "bench": {"n_list": [8, 16, 32, 64], "k": 4, "d": 2, "steps": 2,
              "n_hidden": 32, "repeats": 3},
    "seed": 0,
    "out_dir": "runs/latest",
}


def _checked(section: str, make):
    """Call ``make``; a ValueError from it, whose message starts with a key,
    becomes a ConfigError that names ``section.key``."""
    try:
        return make()
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}" if section else str(exc)) from exc


def validate_config(cfg: dict) -> dict:
    """The defaults updated by ``cfg``, each key checked against its kind."""
    _checked("", lambda: config.check("", cfg))
    merged = copy.deepcopy(DEFAULT_CONFIG)
    for key, value in cfg.items():
        if isinstance(value, dict):
            _checked(key, lambda: config.check(key, value))
            merged[key].update(value)
        else:
            merged[key] = value
    return merged


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(cfg: dict, sets: list[str]) -> dict:
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        path, raw = item.split("=", 1)
        keys = path.split(".")
        node = cfg
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a leaf")
        node[keys[-1]] = _parse_value(raw)
    return cfg


def _system_spec(cfg: dict) -> boltzmann.SystemSpec:
    return _checked("system", lambda: boltzmann.SystemSpec(
        **cfg["system"]).validate())


def _arch_config(cfg: dict) -> net.ArchConfig:
    arch = _checked("model", lambda: net.ArchConfig.from_dict(cfg["model"]))
    n = cfg["system"]["n"]
    if arch.knn_k is not None and arch.knn_k > n - 1:
        raise ConfigError(f"model.knn_k={arch.knn_k} exceeds system.n - 1 = "
                          f"{n - 1}")
    return arch


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_manifest(out_dir: Path, command: str, cfg: dict, wall: float,
                    extra: dict | None = None):
    manifest = {
        "command": command,
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "versions": {
            "nbflow": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "wallclock_s": round(wall, 3),
    }
    if extra:
        manifest.update(extra)
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt_row(values) -> str:
    cells = []
    for v in values:
        if isinstance(v, float):
            cells.append(f"{v:.17g}")
        else:
            cells.append(str(v))
    return ",".join(cells)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate_data(cfg, out_dir, quiet):
    spec = _system_spec(cfg)
    result = boltzmann.mcmc_sample(spec, seed=cfg["seed"], **cfg["mcmc"])
    path = out_dir / "data.csv"
    training.save_data_csv(path, result.samples)
    if not quiet:
        print(f"wrote {len(result.samples)} samples to {path} "
              f"(acceptance {result.acceptance_rate:.3f})")
    return {"n_samples": len(result.samples),
            "acceptance_rate": result.acceptance_rate,
            "data": str(path)}


def cmd_train(cfg, out_dir, quiet, data_path=None):
    arch = _arch_config(cfg)
    tc = training.TrainConfig(**cfg["train"], seed=cfg["seed"])
    data_path = Path(data_path) if data_path else out_dir / "data.csv"
    if not data_path.exists():
        raise ConfigError(f"training data not found: {data_path}")
    x, Z = training.load_data_csv(data_path)
    spec = _system_spec(cfg)
    for key, want, got in zip("nd", (spec.n, spec.d), x.shape[1:]):
        if got != want:
            raise ConfigError(f"system.{key}={want} does not match "
                              f"{data_path}, whose configurations have "
                              f"{key}={got}")
    n_train = len(x) - _checked("train", lambda: tc.n_validation(len(x)))
    if min(tc.batch_size, n_train) > training.MAX_OT_BATCH:
        raise ConfigError(
            f"train.batch_size={tc.batch_size} with "
            f"{n_train} training configurations exceeds the exact OT "
            f"coupling's limit of {training.MAX_OT_BATCH}")
    result = training.train(tc, arch, x, out_dir, Z=Z, quiet=quiet)
    if not quiet:
        print(f"best epoch {result.best_epoch}, "
              f"val loss {min(result.val_losses):.5f}")
    return {"best_epoch": result.best_epoch,
            "best_checkpoint": str(result.best_checkpoint),
            "last_checkpoint": str(result.last_checkpoint),
            "final_train_loss": result.train_losses[-1],
            "best_val_loss": min(result.val_losses)}


def cmd_sample(cfg, out_dir, quiet, checkpoint=None):
    ck = Path(checkpoint) if checkpoint else out_dir / "checkpoint_best"
    params, arch, manifest = net.load_checkpoint(ck)
    spec = _system_spec(cfg)
    sc = cfg["sample"]
    _checked("sample", lambda: flow.check_mode(arch, sc["divergence_mode"]))
    prior = flow.GaussianPrior(n=spec.n, d=spec.d,
                               mean_free=arch.pairwise_diff)
    run = flow.sample_with_likelihood(
        params, arch, prior, sc["count"], mode=sc["divergence_mode"],
        steps=sc["integrator_steps"], seed=cfg["seed"],
        Z=manifest.get("extra", {}).get("labels"), batch_size=sc["batch_size"])
    path = out_dir / "samples.csv"
    nd = spec.n * spec.d
    with open(path, "w", newline="", encoding="utf-8") as fh:
        cols = [f"x{i}" for i in range(nd)] + ["logrho1", "delta_logrho",
                                               "logrho0"]
        fh.write(",".join(cols) + "\n")
        flat = run.x.reshape(len(run.x), -1)
        for i in range(len(run.x)):
            row = list(flat[i]) + [run.logrho1[i], run.delta_logrho[i],
                                   run.logrho0[i]]
            fh.write(_fmt_row(row) + "\n")
    meta = {"samples": str(path), "count": len(run.x), "seed": run.seed,
            "mode": run.mode, "integrator_steps": run.steps,
            "rt_s": run.rt, "rt_forward_s": run.rt_forward,
            "rt_divergence_s": run.rt_divergence,
            "reverse_passes": run.reverse_passes,
            "max_divergence_jump": run.max_divergence_jump,
            "shards": run.shards, "usable_cores": flow.usable_cores(),
            "blas_threads": flow.blas_threads()}
    with open(path.with_name("samples_meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not quiet:
        print(f"wrote {len(run.x)} samples to {path} "
              f"(max divergence jump {run.max_divergence_jump:.3g})")
    return meta


def cmd_evaluate(cfg, out_dir, quiet, samples_path=None, baseline_metrics=None):
    spec = _system_spec(cfg)
    samples_path = Path(samples_path) if samples_path else out_dir / "samples.csv"
    if not samples_path.exists():
        raise ConfigError(f"samples not found: {samples_path}")
    meta_path = samples_path.with_name("samples_meta.json")
    timings = {}
    if meta_path.exists():
        with open(meta_path, encoding="utf-8") as fh:
            timings = json.load(fh)
    arr = np.genfromtxt(samples_path, delimiter=",", names=True, ndmin=1)
    nd = spec.n * spec.d
    x = np.stack([arr[f"x{i}"] for i in range(nd)], axis=1)
    x = x.reshape(-1, spec.n, spec.d)
    logrho1 = np.asarray(arr["logrho1"])
    ws = boltzmann.importance_weights(x, logrho1, spec)
    metrics = {
        "ess": boltzmann.ess_kish(ws.logw),
        "ess_rem": boltzmann.ess_clipped(ws.logw, pct=1.0),
        "n_samples": int(len(ws.logw)),
        "n_rejected": ws.n_rejected,
        "rt_s": timings.get("rt_s", 0.0),
        "rt_forward_s": timings.get("rt_forward_s", 0.0),
        "rt_backward_s": timings.get("rt_divergence_s", 0.0),
        "bp_count": timings.get("reverse_passes", 0),
    }
    if baseline_metrics:
        with open(baseline_metrics, encoding="utf-8") as fh:
            base = json.load(fh)
        mine, theirs = ({"ess": m["ess"], "ess_rem": m["ess_rem"],
                         "n_samples": m["n_samples"], "rt": m["rt_s"]}
                        for m in (metrics, base))
        metrics["effsu"] = boltzmann.effective_speedup(mine, theirs)
        metrics["effsu_rem"] = boltzmann.effective_speedup(mine, theirs,
                                                           key="ess_rem")
    path = out_dir / "metrics.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not quiet:
        print(f"ess {metrics['ess']:.4f}  ess_rem {metrics['ess_rem']:.4f} "
              f"({metrics['n_samples']} samples, {metrics['n_rejected']} rejected)")
    return metrics


def cmd_bench(cfg, out_dir, quiet):
    hollow, baseline = [], []
    for h, b in bench.scaling_sweep(**cfg["bench"], seed=cfg["seed"]):
        hollow.append(h)
        baseline.append(b)
        if not quiet:
            print(f"n={h.n}: hollow {h.rt*1e3:.2f} ms ({h.reverse_passes} bp), "
                  f"baseline {b.rt*1e3:.2f} ms ({b.reverse_passes} bp)")
    csv_path = out_dir / "bench.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(bench.BENCH_FIELDS) + "\n")
        for pair in zip(hollow, baseline):
            for rec in pair:
                fh.write(_fmt_row(rec.as_row()) + "\n")
    summary = bench.scaling_summary(hollow, baseline)
    with open(out_dir / "bench_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"bench_csv": str(csv_path),
            "hollow_step_slope": summary["hollow_step_slope"][0],
            "baseline_divergence_slope": summary["baseline_divergence_slope"][0]}


def cmd_inspect_graph(cfg, out_dir, quiet):
    """The plan the field runs on one configuration: per round, the active
    triples summed over heads and the drop from the round before."""
    spec = _system_spec(cfg)
    arch = _arch_config(cfg)
    x = np.random.default_rng(cfg["seed"]).standard_normal((spec.n, spec.d))
    plan = net.make_plan(x[None], arch)
    active = np.sum([[len(hp.init_from.idx)]
                     + [len(t_from.idx) for t_from, _ in hp.step_pairs]
                     for hp in plan.heads], axis=0)
    path = out_dir / "graph.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,active_lg_edges,removed_this_step\n")
        for t in range(1, len(active)):
            fh.write(f"{t - 1},{active[t]},{active[t - 1] - active[t]}\n")
    summary = {"n": spec.n, "k": arch.knn_k,
               "E": sum(len(hp.src.idx) for hp in plan.heads),
               "E_lg": int(active[0])}
    with open(out_dir / "graph_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True)
        fh.write("\n")
    if not quiet:
        print(json.dumps(summary, sort_keys=True))
    return summary


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nbflow",
        description="train, sample and evaluate flows with constant-cost "
                    "exact divergence")
    p.add_argument("command",
                   choices=["generate-data", "train", "sample", "evaluate",
                            "bench", "inspect-graph"])
    p.add_argument("--config", type=Path, default=None,
                   help="JSON configuration file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="dotted-path config override, e.g. model.knn_k=4")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--data", type=Path, default=None,
                   help="training data CSV (train)")
    p.add_argument("--checkpoint", type=Path, default=None,
                   help="checkpoint prefix (sample)")
    p.add_argument("--samples", type=Path, default=None,
                   help="samples CSV (evaluate)")
    p.add_argument("--baseline-metrics", type=Path, default=None,
                   help="metrics JSON of a baseline run (evaluate)")
    return p


def _remove_empty(made: list[Path]):
    """Remove the directories made for ``out_dir`` (innermost first) that a
    failed command left empty."""
    for d in made:
        if any(d.iterdir()):
            return
        d.rmdir()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        raw = {}
        if args.config is not None:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ConfigError(f"{args.config} must hold a JSON object")
        raw = apply_overrides(raw, args.set)
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.out is not None:
            raw["out_dir"] = str(args.out)
        cfg = validate_config(raw)
        out_dir = Path(cfg["out_dir"])
        made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "generate-data":
            extra = cmd_generate_data(cfg, out_dir, args.quiet)
        elif args.command == "train":
            extra = cmd_train(cfg, out_dir, args.quiet, args.data)
        elif args.command == "sample":
            extra = cmd_sample(cfg, out_dir, args.quiet, args.checkpoint)
        elif args.command == "evaluate":
            extra = cmd_evaluate(cfg, out_dir, args.quiet, args.samples,
                                 args.baseline_metrics)
        elif args.command == "bench":
            extra = cmd_bench(cfg, out_dir, args.quiet)
        else:
            extra = cmd_inspect_graph(cfg, out_dir, args.quiet)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        _remove_empty(made)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        _remove_empty(made)
        return 2
    _write_manifest(out_dir, args.command, cfg, time.perf_counter() - t0,
                    {"result": extra})
    return 0


if __name__ == "__main__":
    sys.exit(main())
