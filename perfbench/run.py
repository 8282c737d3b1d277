"""Run one nbflow benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload sample_batch --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: it imports the library from ``src/``.
With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` rounds alternate between untraced and traced, and the last
line carries the per-layer metrics of the traced rounds.  A record of the
run (configuration, environment, per-operation times, checks) is written
to ``perfbench/out/``; traced runs also write their spans there.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()


def _before_start() -> float:
    """Seconds the process ran before T_START (interpreter start-up).

    Read from the process start time in /proc/self/stat, in clock ticks
    since boot; 0.0 where that is not available or not plausible.
    """
    try:
        import os
        with open("/proc/self/stat", encoding="ascii") as fh:
            ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = (time.clock_gettime(time.CLOCK_BOOTTIME)
               - ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


BEFORE_START_S = _before_start()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: set before numpy loads OpenBLAS, which reads it once.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"


def _pin_mmap_threshold() -> int | None:
    """Fix glibc's mmap threshold at its 128 KiB default, before numpy loads.

    By default glibc raises the threshold as large blocks are freed, and
    from then on serves or returns them through the heap in an order that
    differs from run to run: minor page faults per round of the same
    workload ranged from 100k to 500k, and the operation times with them.
    Pinned, every block of 128 KiB or more is a fresh mapping, so the
    program's large temporaries always cost their page faults.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return None
    m_mmap_threshold, threshold = -3, 128 * 1024  # from glibc's malloc.h
    return threshold if mallopt(m_mmap_threshold, threshold) == 1 else None


MMAP_THRESHOLD = _pin_mmap_threshold()

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("sample_batch", "sample_large", "cfm_train")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[Path(path).name] = int(fn())
                break
    return found


def git_sha() -> str | None:
    """HEAD of the checkout's git metadata, if it has any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nbflow" / "__init__.py").is_file():
        print(f"perfbench: no library at {ROOT / 'src' / 'nbflow'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy
    import layers
    import workloads as W
    import_s = time.perf_counter() - T_START

    wl = W.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    bench = W.Bench(wl, args.seed)
    init_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    # the timed rounds repeat the warm-up's checks and count their failures
    problems = [f"warm-up: {b}" for b in bench.warm_up()]
    warm_up_s = time.perf_counter() - t0

    trace = layers.LayerTrace() if args.trace else None
    op_times = {"sample": [], "train": []}
    round_times = {False: [], True: []}   # keyed by "was traced"
    attempted = failed = 0
    r = 0
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t_window = time.perf_counter()
    # from the start of the process to the start of the timed window
    setup_s = BEFORE_START_S + (t_window - T_START)
    while True:
        traced = trace is not None and r % 2 == 1
        if traced:
            trace.rec.install()
        round_s = 0.0
        try:
            for kind, op in bench.round_ops(r):
                attempted += 1
                try:
                    secs, bad = op(trace.call if traced else W.plain_call)
                except Exception:  # an operation that raises counts as failed
                    traceback.print_exc()
                    failed += 1
                    problems.append(f"round {r} {kind}: raised")
                    continue
                round_s += secs
                if bad:
                    failed += 1
                    problems += [f"round {r} {kind}: {b}" for b in bad]
                elif not traced:
                    op_times[kind].append(secs)
        finally:
            if traced:
                trace.rec.uninstall()
        round_times[traced].append(round_s)
        r += 1
        # a traced run needs one untraced and one traced round at least
        if time.perf_counter() - t_window >= args.seconds and (
                trace is None or r >= 2):
            break
    window_s = time.perf_counter() - t_window
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = usage1.ru_maxrss / 1024.0
    window_usage = {"user_s": usage1.ru_utime - usage0.ru_utime,
                    "sys_s": usage1.ru_stime - usage0.ru_stime,
                    "minor_faults": usage1.ru_minflt - usage0.ru_minflt}

    try:
        final = bench.final_checks()
    except Exception:  # a check that cannot run marks the run incorrect
        traceback.print_exc()
        final = ["final checks raised"]
    correct = not final

    if trace is None:
        def per_s(count, times):  # 0 when every operation of the kind failed
            return count / statistics.median(times) if times else 0.0

        metrics = {
            "samples_per_s": (per_s(wl.sample_count, op_times["sample"]), "1/s"),
            "train_examples_per_s": (per_s(wl.train_batch, op_times["train"]),
                                     "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        rounds = round_times[True]
        per_layer = trace.metrics(
            len(rounds), sum(rounds) / len(rounds),
            statistics.median(rounds) / statistics.median(round_times[False]),
            bench.mcmc_s)
        metrics = {k: (v, layers.UNITS[k]) for k, v in per_layer.items()}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {
        "result": result,
        "args": vars(args),
        "config": W.describe(wl),
        "env": {"nproc": os.cpu_count(), "blas_threads": blas_threads(),
                "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
                "mmap_threshold": MMAP_THRESHOLD,
                "git_sha": git_sha(), "python": sys.version.split()[0],
                "numpy": np.__version__, "scipy": scipy.__version__},
        "rounds": r, "window_s": window_s, "window_usage": window_usage,
        "before_start_s": BEFORE_START_S, "import_s": import_s,
        "init_s": init_s, "warm_up_s": warm_up_s,
        "setup_s": setup_s, "mcmc_s": bench.mcmc_s,
        "op_times_s": op_times, "round_times_s": {
            "untraced": round_times[False], "traced": round_times[True]},
        "problems": problems, "final_check_problems": final,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace is not None:
        with open(OUT / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(trace.rec.to_json(), fh)

    for msg in problems + final:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {r} rounds in {window_s:.1f} s, "
          f"{attempted} operations, {failed} failed, final checks "
          f"{'passed' if correct else 'FAILED'}")
    for k, (v, u) in metrics.items():
        print(f"  {k:28s} {v:14.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
