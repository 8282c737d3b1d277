"""Run the benchmark once per seed and summarise every metric.

    python3 perfbench/sweep.py --workload sample_batch --seeds 1-10
    python3 perfbench/sweep.py --workload all --seeds 1-5

Runs the command from BENCHMARK.json one seed at a time, from the root of
the checkout, untraced and for ``run_seconds``, and prints per end-to-end
metric the median, the quartiles (as ``statistics.quantiles(values, n=4)``
gives them), the spread (q3 - q1) / median and the bound.  The summary
also goes to ``perfbench/out/sweep-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload, seed, seconds) -> dict:
    argv = list(command) + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan"),
                     "bound": bounds[name], "values": values}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    OUT.mkdir(parents=True, exist_ok=True)
    for workload in names:
        results = []
        for seed in seed_list(args.seeds):
            r = run_once(spec["command"], workload, seed, seconds)
            print(f"{workload} seed {seed}: wall {r['wall_s']:.1f} s, "
                  f"{r['attempted']} attempted, {r['failed']} failed, "
                  f"correct {r['correct']}", flush=True)
            results.append(r)
        summary = summarise(results, bounds)
        print(f"{workload}: {'metric':26s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, s in summary.items():
            print(f"{workload}: {name:26s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:8.4f} {s['bound']:6.2f}")
        walls = [r["wall_s"] for r in results]
        print(f"{workload}: wall per run median {statistics.median(walls):.1f} s,"
              f" max {max(walls):.1f} s; failed share "
              f"{sum(r['failed'] for r in results)}/"
              f"{sum(r['attempted'] for r in results)}", flush=True)
        with open(OUT / f"sweep-{workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"seeds": args.seeds, "seconds": seconds,
                       "summary": summary, "runs": results}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
