"""Continuous-flow transport of samples and their exact log-densities.

The generative model integrates dx/dt = b(x, t) from a Gaussian prior at
t=0 to the data space at t=1; the log-density changes by minus the
integrated divergence of b along the trajectory.  Integration is classic
fixed-step RK4 with the log-density carried as an augmented state so the
divergence is evaluated at the same stage points as the velocity.

``field_and_divergence`` is the one evaluation of the velocity with its
divergence; ``divergence``, ``ModelField.rate`` (the RK4 rate) and the
benchmark step all call it.  It splits the batch into S contiguous
shards, each one program evaluated as one disjoint union of its samples
on an arena of its own, and reads each program's Jacobian diagonal along
probe vectors:

- ``hollow``: detach the conditioner path and read the full Jacobian
  diagonal with d probe backward passes (valid only for the hollow field,
  whose detached Jacobian is block-diagonal).
- ``brute``: n*d backward passes with unit cotangents; works for any
  field and is the reference the hollow mode must match exactly.
- ``fd``: brute's probes read by central differences instead, on all
  samples at once (2*n*d + 1 forward evaluations); the slow independent
  oracle.

Both backward-pass modes are ``autodiff.jacobian_diagonal`` with a
different probe set, so hollow mode spends only d backward passes per
stage and shard.  All three modes return the same velocity.

Samples are independent and every op works per row or per segment, so a
shard's outputs are bitwise those of the same samples in one program.
The calling thread runs shard 0; a thread pool made on first use runs
the others on the cores that BLAS leaves idle.  S is
``min(B, usable cores // BLAS threads, B*n // SHARD_PARTICLES)``, at
least 1, so a small batch, a single configuration or a BLAS library that
already has every core runs as one shard on the calling thread.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import network as net
from .config import check

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GaussianPrior:
    """Standard normal over n*d coordinates, optionally mean-free.

    Mean-free mode projects samples to zero center of mass and evaluates
    the density on the (n-1)*d-dimensional subspace, where the projected
    standard normal is again standard normal in orthonormal coordinates.
    Use it together with translation-invariant fields.
    """

    n: int
    d: int
    mean_free: bool = False

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        x = rng.standard_normal((count, self.n, self.d))
        if self.mean_free:
            x = x - x.mean(axis=1, keepdims=True)
        return x

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 2
        if single:
            x = x[None]
        if self.mean_free:
            x = x - x.mean(axis=1, keepdims=True)
            dof = (self.n - 1) * self.d
        else:
            dof = self.n * self.d
        out = -0.5 * np.sum(x * x, axis=(1, 2)) - 0.5 * dof * LOG_2PI
        return out[0] if single else out


# ---------------------------------------------------------------------------
# divergence of the model field
# ---------------------------------------------------------------------------

def _check_mode(cfg: net.ArchConfig, mode: str):
    check("sample", {"divergence_mode": mode})
    if mode == "hollow" and cfg.baseline:
        raise ValueError("hollow divergence requires the hollow field, "
                         "not a baseline")


SHARD_PARTICLES = 384  # particles per shard at least (see the README)
_WORKERS: ThreadPoolExecutor | None = None  # runs shards 1.., made on first use


def _forget_workers():  # a forked child has none of its parent's threads
    global _WORKERS
    _WORKERS = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def blas_threads() -> int:
    """BLAS threads as OpenBLAS reads them at load: the first positive
    ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``, else one per core."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return usable_cores()


def shard_count(B: int, n: int) -> dict:
    """How many shards a stage of B samples of n particles runs as, with
    the usable cores and BLAS threads that count came from."""
    cores, blas = usable_cores(), blas_threads()
    shards = max(1, min(B, cores // blas, B * n // SHARD_PARTICLES))
    return {"shards": shards, "usable_cores": cores, "blas_threads": blas}


def _run_shards(fn, shards: int) -> list:
    """[fn(0), ..., fn(shards - 1)]: shard 0 on the calling thread, the
    others on the workers.  Returns once every shard is done, and raises
    the error of the first shard that failed."""
    global _WORKERS
    if shards > 1 and _WORKERS is None:
        _WORKERS = ThreadPoolExecutor(max(1, usable_cores() - 1),
                                      thread_name_prefix="nbflow-shard")
    futures = [_WORKERS.submit(fn, k) for k in range(1, shards)]
    try:
        first = fn(0)
    finally:
        wait(futures)  # no shard may still run when the call returns
    return [first] + [f.result() for f in futures]


def field_and_divergence(params, cfg: net.ArchConfig, x, Z=None,
                         t: float = 0.0, mode: str = "hollow",
                         graph_override=None):
    """Velocity and exact divergence of the field for a (B, n, d) batch.

    Returns (velocity (B, n, d), divergence (B,), stats).  ``stats`` holds
    the reverse-pass count (probe vectors per stage, which every shard
    runs), the wall-clock seconds of the forward pass (graph plan
    included) and of the divergence, and ``shard_count``'s fields.  Each
    shard is one program of its samples, with their labels, times and
    graph overrides; hollow and brute mode read its diagonal with d or n*d
    probe passes, fd by central differences along brute's n*d probes.
    Shard k records its tapes on ``autodiff.shard_pool(k)``; the arrays
    returned are not pool memory.
    """
    _check_mode(cfg, mode)
    x = np.asarray(x, dtype=np.float64)
    B, n, d = x.shape
    info = shard_count(B, n)
    S = info["shards"]
    cuts = [B * k // S for k in range(S + 1)]
    Zs, ts, go = net.batch_inputs(B, n, Z, t, graph_override)
    pools = [ad.shard_pool(k) for k in range(S)]
    progs = [None] * S

    def forward(k):
        a, b = cuts[k], cuts[k + 1]
        prog = progs[k] = net.make_field_program(
            params, cfg, n, d, Z=Zs[a:b], t=ts[a:b], batch=b - a,
            graph_override=None if go is None else go[a:b],
            detach_conditioner=(mode == "hollow"))
        prog.arena = pools[k]
        return ad.forward_eval(prog, x[a:b].reshape(-1))

    def diagonal(k):
        prog, (a, b) = progs[k], cuts[k:k + 2]
        if mode == "hollow":
            return ad.jacobian_diagonal(prog, ad.probe_vectors((b - a) * n, d))
        probes = ad.probe_vectors(b - a, n * d)
        if mode == "brute":
            return ad.jacobian_diagonal(prog, probes)
        # samples are independent, so moving coordinate i of every sample
        # at once (along probe i) gives column i of every sample's own
        # Jacobian block
        xf = x[a:b].reshape(-1)
        J = ad.full_jacobian_fd(
            lambda u: ad.forward_eval(prog, xf + u @ probes), np.zeros(n * d))
        return np.diagonal(J.reshape(b - a, n * d, n * d), axis1=1, axis2=2)

    t0 = time.perf_counter()
    vel = np.concatenate(_run_shards(forward, S))
    t1 = time.perf_counter()
    diag = np.concatenate([a.reshape(-1, n * d)
                           for a in _run_shards(diagonal, S)])
    passes = {prog.tape.n_reverse_passes for prog in progs}
    assert len(passes) == 1, f"shards ran different pass counts: {passes}"
    stats = {"reverse_passes": passes.pop(),
             "seconds_forward": t1 - t0,
             "seconds_divergence": time.perf_counter() - t1, **info}
    return vel.reshape(B, n, d), diag.sum(axis=1), stats


def divergence(params, cfg: net.ArchConfig, x, Z=None, t: float = 0.0,
               mode: str = "hollow", graph_override=None,
               info: dict | None = None) -> np.ndarray | float:
    """Exact divergence of the field at (x, t).

    Accepts (n, d) or (B, n, d); returns a scalar or a (B,) array.  When
    ``info`` is a dict it receives the backward-pass count and the field
    values under keys "reverse_passes" and "velocity".
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 2
    vel, div, stats = field_and_divergence(
        params, cfg, x[None] if single else x, Z, t, mode, graph_override)
    if info is not None:
        info["reverse_passes"] = stats["reverse_passes"]
        info["velocity"] = vel[0] if single else vel
    return float(div[0]) if single else div


class ModelField:
    """Joint velocity/divergence evaluator that adds up timings and passes,
    and keeps ``shard_count``'s fields of the stage with the most shards."""

    def __init__(self, params, cfg: net.ArchConfig, Z=None,
                 mode: str = "hollow", graph_override=None):
        _check_mode(cfg, mode)
        self.params = params
        self.cfg = cfg
        self.Z = Z
        self.mode = mode
        self.graph_override = graph_override
        self.seconds_forward = 0.0
        self.seconds_divergence = 0.0
        self.reverse_passes = 0
        self.sharding = {"shards": 0, "usable_cores": 0, "blas_threads": 0}

    def rate(self, x, t):
        """(velocity, divergence) at one time point for a (B,n,d) batch."""
        vel, div, stats = field_and_divergence(
            self.params, self.cfg, x, self.Z, t, self.mode,
            self.graph_override)
        self.seconds_forward += stats["seconds_forward"]
        self.seconds_divergence += stats["seconds_divergence"]
        self.reverse_passes += stats["reverse_passes"]
        if stats["shards"] > self.sharding["shards"]:
            self.sharding = {k: stats[k] for k in self.sharding}
        return vel, div


# ---------------------------------------------------------------------------
# RK4 with augmented log-density state
# ---------------------------------------------------------------------------

@dataclass
class FlowState:
    """Result of one integration: endpoint, log-density change, monitors."""

    x: np.ndarray
    delta_logrho: np.ndarray
    div_first_stage: np.ndarray = field(default=None)  # (steps, B) monitor

    @property
    def max_divergence_jump(self) -> float:
        if self.div_first_stage is None or len(self.div_first_stage) < 2:
            return 0.0
        return float(np.max(np.abs(np.diff(self.div_first_stage, axis=0))))


def rk4_integrate(rate, x0, steps: int, direction: str = "forward") -> FlowState:
    """Classic RK4 on the state (x, log-density change).

    ``rate(x, t)`` returns the velocity and the divergence at (x, t); the
    log-density accumulates -divergence through the same RK4 stages.
    Forward runs t from 0 to 1, reverse from 1 to 0.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if direction not in ("forward", "reverse"):
        raise ValueError("direction must be 'forward' or 'reverse'")
    x = np.asarray(x0, dtype=np.float64).copy()
    single = x.ndim == 2
    if single:
        x = x[None]
    B = x.shape[0]
    ell = np.zeros(B)
    h = 1.0 / steps if direction == "forward" else -1.0 / steps
    t = 0.0 if direction == "forward" else 1.0
    div_monitor = np.empty((steps, B))
    for step in range(steps):
        b1, d1 = rate(x, t)
        b2, d2 = rate(x + 0.5 * h * b1, t + 0.5 * h)
        b3, d3 = rate(x + 0.5 * h * b2, t + 0.5 * h)
        b4, d4 = rate(x + h * b3, t + h)
        x = x + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        ell = ell + (-h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        div_monitor[step] = d1
        t += h
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(ell))):
            raise FloatingPointError(f"non-finite state at step {step}")
    return FlowState(
        x=x[0] if single else x,
        delta_logrho=ell[0] if single else ell,
        div_first_stage=div_monitor,
    )


# ---------------------------------------------------------------------------
# sampling with likelihoods
# ---------------------------------------------------------------------------

@dataclass
class SampleRun:
    """Generated configurations with exact model log-densities."""

    x: np.ndarray            # (N, n, d) endpoints at t=1
    logrho1: np.ndarray      # (N,)
    logrho0: np.ndarray
    delta_logrho: np.ndarray
    mode: str
    steps: int
    seed: int
    rt: float
    rt_forward: float
    rt_divergence: float
    reverse_passes: int
    max_divergence_jump: float
    shards: int              # most shards a stage ran as
    usable_cores: int        # and what that count came from
    blas_threads: int


def sample_with_likelihood(params, cfg: net.ArchConfig, prior: GaussianPrior,
                           count: int, mode: str = "hollow", steps: int = 20,
                           seed: int = 0, Z=None, batch_size: int = 128
                           ) -> SampleRun:
    """Draw from the prior, integrate forward, and report log rho_1.

    With a translation-invariant (pairwise-difference) field and a
    mean-free prior the trajectory's center of mass is projected out of
    the returned samples; the reported densities live on the mean-free
    subspace either way.
    """
    rng = np.random.default_rng(seed)
    xs, l0s, dls, jumps = [], [], [], []
    t_start = time.perf_counter()
    mf = ModelField(params, cfg, Z=Z, mode=mode)
    remaining = count
    while remaining > 0:
        b = min(batch_size, remaining)
        x0 = prior.sample(rng, b)
        state = rk4_integrate(mf.rate, x0, steps, "forward")
        x1 = state.x
        if cfg.pairwise_diff and prior.mean_free:
            x1 = x1 - x1.mean(axis=1, keepdims=True)
        xs.append(x1)
        l0s.append(prior.log_density(x0))
        dls.append(state.delta_logrho)
        jumps.append(state.max_divergence_jump)
        remaining -= b
    rt = time.perf_counter() - t_start
    x = np.concatenate(xs)
    logrho0 = np.concatenate(l0s)
    delta = np.concatenate(dls)
    return SampleRun(
        x=x, logrho1=logrho0 + delta, logrho0=logrho0, delta_logrho=delta,
        mode=mode, steps=steps, seed=seed, rt=rt,
        rt_forward=mf.seconds_forward, rt_divergence=mf.seconds_divergence,
        reverse_passes=mf.reverse_passes,
        max_divergence_jump=max(jumps) if jumps else 0.0, **mf.sharding,
    )
