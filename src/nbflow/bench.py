"""Runtime measurement and scaling-law verification.

One "step" is a single vector-field evaluation plus one divergence at the
same point, which is the unit of work one RK4 stage performs during
sampling with likelihoods.  Forward and backward wallclock are timed
separately; backward-pass counts are exact integers read off the tape, so
they are immune to timing noise: d for the hollow field, n*d for the
brute-force baseline.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from . import flow
from . import network as net
from .config import SWEEP_SHAPE, check, sweep_ok


@dataclass
class BenchRecord:
    mode: str
    n: int
    d: int
    k: int | None
    steps: int
    n_edges: int
    n_lg_edges: int
    rt: float
    rt_forward: float
    rt_divergence: float
    reverse_passes: int
    repeats: int
    seed: int

    def as_row(self) -> list:
        return list(astuple(self))


BENCH_FIELDS = [f.name for f in fields(BenchRecord)]

MIN_TIMABLE = 1e-4  # seconds; below this the repeat count is raised


def measure_step(params, cfg: net.ArchConfig, x: np.ndarray, Z=None,
                 repeats: int = 3, t: float = 0.5, seed: int = 0) -> BenchRecord:
    """Median wallclock of one field evaluation + one divergence.

    A hollow configuration spends d probe passes on the detached program
    (record mode "hollow"), a baseline n*d unit-cotangent passes ("baseline").
    Runs one warm-up first; if the total is too fast to time reliably the
    repeat count is increased automatically.
    """
    check("bench", {"repeats": repeats})
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    plan = net.make_plan(x[None], cfg)
    n_edges = len(plan.heads[0].src.idx)
    n_lg = len(plan.heads[0].init_from.idx)
    div_mode = "brute" if cfg.baseline else "hollow"

    def one_step():
        _, _, stats = flow.field_and_divergence(params, cfg, x[None], Z, t,
                                                mode=div_mode)
        return (stats["seconds_forward"], stats["seconds_divergence"],
                stats["reverse_passes"])

    one_step()  # warm-up
    while True:
        fw, bw, passes = [], [], None
        for _ in range(repeats):
            f, b, passes = one_step()
            fw.append(f)
            bw.append(b)
        med_f, med_b = float(np.median(fw)), float(np.median(bw))
        if med_f + med_b >= MIN_TIMABLE or repeats >= 200:
            break
        repeats *= 4
    return BenchRecord(mode="baseline" if cfg.baseline else "hollow", n=n,
                       d=d, k=cfg.knn_k, steps=cfg.steps,
                       n_edges=n_edges, n_lg_edges=n_lg,
                       rt=med_f + med_b, rt_forward=med_f,
                       rt_divergence=med_b, reverse_passes=passes,
                       repeats=repeats, seed=seed)


def fit_scaling(ns, ys) -> tuple[float, float]:
    """Least-squares slope of log(y) against log(n), with its stderr."""
    if not sweep_ok(ns):
        raise ValueError(f"need {SWEEP_SHAPE}")
    ns = np.asarray(ns, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if np.any(ys <= 0):
        raise ValueError("metric must be positive")
    lx, ly = np.log(ns), np.log(ys)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope = float(coef[0])
    dof = ns.size - 2
    if dof > 0 and res.size:
        s2 = float(res[0]) / dof
        stderr = float(np.sqrt(s2 / np.sum((lx - lx.mean()) ** 2)))
    else:
        stderr = 0.0
    return slope, stderr


def speedup_report(hollow: list[BenchRecord],
                   baseline: list[BenchRecord]) -> list[dict]:
    """Per-n ratio of baseline step time over hollow step time.

    Requires matched (n, d) pairs and checks that the ratio grows
    monotonically with n, which is the qualitative scaling claim.
    """
    base_by_n = {(r.n, r.d): r for r in baseline}
    rows = []
    for h in sorted(hollow, key=lambda r: r.n):
        key = (h.n, h.d)
        if key not in base_by_n:
            raise ValueError(f"no baseline record for n={h.n}, d={h.d}")
        b = base_by_n[key]
        rows.append({
            "n": h.n, "d": h.d,
            "rt_hollow": h.rt, "rt_baseline": b.rt,
            "speedup": b.rt / h.rt,
            "passes_hollow": h.reverse_passes,
            "passes_baseline": b.reverse_passes,
        })
    ratios = [r["speedup"] for r in rows]
    monotone = all(a < b for a, b in zip(ratios, ratios[1:]))
    for r in rows:
        r["monotone_in_n"] = monotone
    return rows
