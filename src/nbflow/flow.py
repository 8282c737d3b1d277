"""Continuous-flow transport of samples and their exact log-densities.

The generative model integrates dx/dt = b(x, t) from a Gaussian prior at
t=0 to the data space at t=1; the log-density changes by minus the
integrated divergence of b along the trajectory.  Integration is classic
fixed-step RK4 with the log-density carried as an augmented state so the
divergence is evaluated at the same stage points as the velocity.

``field_and_divergence`` is the one evaluation of the velocity with its
divergence; ``divergence``, ``ModelField.rate`` (the RK4 rate) and the
benchmark step all call it.  Divergence modes:

- ``hollow``: detach the conditioner path and read the full Jacobian
  diagonal with d probe backward passes (valid only for the hollow field,
  whose detached Jacobian is block-diagonal).
- ``brute``: n*d backward passes with unit cotangents; works for any
  field and is the reference the hollow mode must match exactly.
- ``fd``: trace of the central finite-difference Jacobian, one sample at
  a time; the slow independent oracle.

Both backward-pass modes are ``autodiff.jacobian_diagonal`` with a
different probe set.  Batches evaluate as one disjoint union, so hollow
mode still spends only d backward passes per stage for the whole batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import network as net

LOG_2PI = float(np.log(2.0 * np.pi))

DIVERGENCE_MODES = ("hollow", "brute", "fd")


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
    if mode not in DIVERGENCE_MODES:
        raise ValueError(f"unknown divergence mode {mode!r}")
    if mode == "hollow" and cfg.baseline:
        raise ValueError("hollow divergence requires the hollow field, "
                         "not a baseline")


def field_and_divergence(params, cfg: net.ArchConfig, x, Z=None,
                         t: float = 0.0, mode: str = "hollow",
                         graph_override=None):
    """Velocity and exact divergence of the field for a (B, n, d) batch.

    Returns (velocity (B, n, d), divergence (B,), stats); ``stats`` holds
    the reverse-pass count and the seconds spent on the forward pass
    (graph plan included) and on the divergence.  Hollow and brute mode
    evaluate the batch as one program and read its diagonal with d or n*d
    probe passes; fd evaluates one program per sample, with that sample's
    labels, time and graph override, and differentiates it numerically.
    Every tape is recorded on ``autodiff.POOL``; the arrays returned are
    not pool memory.
    """
    _check_mode(cfg, mode)
    x = np.asarray(x, dtype=np.float64)
    B, n, d = x.shape
    if mode == "fd":
        Zs, ts, go = net.batch_inputs(B, n, Z, t, graph_override)
        chunks = [(x[s:s + 1], Zs[s], ts[s], None if go is None else go[s])
                  for s in range(B)]
    else:
        chunks = [(x, Z, t, graph_override)]
        probes = (ad.probe_vectors(B * n, d) if mode == "hollow"
                  else ad.probe_vectors(B, n * d))
    stats = {"reverse_passes": 0, "seconds_forward": 0.0,
             "seconds_divergence": 0.0}
    vel, diag = [], []
    for xc, Zc, tc, goc in chunks:
        t0 = time.perf_counter()
        prog = net.make_field_program(params, cfg, n, d, Z=Zc, t=tc,
                                      batch=len(xc), graph_override=goc,
                                      detach_conditioner=(mode == "hollow"))
        prog.arena = ad.POOL
        vel.append(ad.forward_eval(prog, xc.reshape(-1)))
        t1 = time.perf_counter()
        if mode == "fd":
            J = ad.full_jacobian_fd(lambda v: ad.forward_eval(prog, v),
                                    xc.reshape(-1))
            diag.append(np.diag(J))
        else:
            diag.append(ad.jacobian_diagonal(prog, probes))
        stats["reverse_passes"] += prog.tape.n_reverse_passes
        stats["seconds_forward"] += t1 - t0
        stats["seconds_divergence"] += time.perf_counter() - t1
    div = np.concatenate(diag).reshape(B, n * d).sum(axis=1)
    return np.concatenate(vel).reshape(B, n, d), div, stats


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
    """Joint velocity/divergence evaluator that adds up timings and passes."""

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

    def rate(self, x, t):
        """(velocity, divergence) at one time point for a (B,n,d) batch."""
        vel, div, stats = field_and_divergence(
            self.params, self.cfg, x, self.Z, t, self.mode,
            self.graph_override)
        self.seconds_forward += stats["seconds_forward"]
        self.seconds_divergence += stats["seconds_divergence"]
        self.reverse_passes += stats["reverse_passes"]
        return vel, div


# ---------------------------------------------------------------------------
# RK4 with augmented log-density state
# ---------------------------------------------------------------------------

@dataclass
class FlowState:
    """Result of one integration: endpoint, log-density change, monitors."""

    x: np.ndarray
    delta_logrho: np.ndarray
    steps: int
    direction: str
    div_first_stage: np.ndarray = field(default=None)  # (steps, B) monitor
    trajectory: np.ndarray | None = None

    @property
    def max_divergence_jump(self) -> float:
        if self.div_first_stage is None or len(self.div_first_stage) < 2:
            return 0.0
        return float(np.max(np.abs(np.diff(self.div_first_stage, axis=0))))


def rk4_integrate(rate, x0, steps: int, direction: str = "forward",
                  keep_trajectory: bool = False) -> FlowState:
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
    traj = [x.copy()] if keep_trajectory else None
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
        if keep_trajectory:
            traj.append(x.copy())
    return FlowState(
        x=x[0] if single else x,
        delta_logrho=ell[0] if single else ell,
        steps=steps,
        direction=direction,
        div_first_stage=div_monitor,
        trajectory=np.stack(traj) if keep_trajectory else None,
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
        max_divergence_jump=max(jumps) if jumps else 0.0,
    )
