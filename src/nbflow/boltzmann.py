"""Target energies, MCMC data generation, reweighting and ESS metrics.

Targets are unnormalized: mu(x) is proportional to exp(-beta * u(x)) and
the partition function is never computed.  Generated samples are
reweighted with log w = -beta*u(x) - log rho1(x); all weight statistics
are shift-invariant so the missing constant is irrelevant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist
from scipy.special import logsumexp

from .config import check
from .flow import LOG_2PI


@dataclass
class SystemSpec:
    """An analytic target density over n particles in d dimensions.

    kinds:
    - ``lennard_jones``: pairwise 12-6 potential with minimum at r_min,
      depth eps_lj, and overall temperature-like divisor tau_lj.
    - ``gaussian``: u(x) = ||x||^2 / 2.
    - ``gaussian_mixture``: independent per-particle mixture of isotropic
      Gaussians; u(x) = -sum_i log p_mix(x_i).
    """

    kind: str
    n: int
    d: int
    beta: float = 1.0
    r_min: float = 1.0
    eps_lj: float = 1.0
    tau_lj: float = 1.0
    mixture_means: np.ndarray | None = None     # (m, d)
    mixture_sigmas: np.ndarray | None = None    # (m,)
    mixture_weights: np.ndarray | None = None   # (m,)

    def validate(self):
        """Check every field; an error message starts with the field's name.
        Idempotent: the energy, not this, normalizes the mixture weights."""
        check("system", vars(self))
        if self.kind == "gaussian_mixture":
            means = np.atleast_2d(np.asarray(self.mixture_means, dtype=np.float64))
            if means.ndim != 2 or means.shape[1] != self.d:
                raise ValueError("mixture_means must be an (m, d) array")
            m = means.shape[0]
            sig = np.asarray(self.mixture_sigmas, dtype=np.float64)
            if sig.shape != (m,) or np.any(sig <= 0):
                raise ValueError("mixture_sigmas must be one positive sigma per "
                                 "mixture component")
            w = np.ones(m) if self.mixture_weights is None else \
                np.asarray(self.mixture_weights, dtype=np.float64)
            if w.shape != (m,) or np.any(w <= 0):
                raise ValueError("mixture_weights must be positive, one "
                                 "per mixture component")
            self.mixture_means = means
            self.mixture_sigmas = sig
            self.mixture_weights = w
        return self


def lj_energy(x: np.ndarray, spec: SystemSpec) -> np.ndarray | float:
    """eps/tau * sum over unordered pairs of ((r_min/r)^12 - 2 (r_min/r)^6).

    Coincident particles make the potential singular; those configurations
    raise so callers can flag and exclude them.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 2
    xs = x[None] if single else x
    n = xs.shape[1]
    r2 = np.empty((len(xs), n * (n - 1) // 2))
    for row, conf in zip(r2, xs):  # one pdist per configuration
        row[:] = pdist(conf, "sqeuclidean")
    if np.any(r2 == 0.0):
        raise FloatingPointError("singular configuration: coincident particles")
    s6 = (spec.r_min**2 / r2) ** 3
    e = spec.eps_lj / spec.tau_lj * np.sum(s6 * s6 - 2.0 * s6, axis=1)
    return float(e[0]) if single else e


def _mixture_logpdf_points(pts: np.ndarray, spec: SystemSpec) -> np.ndarray:
    """log p_mix for an (..., d) array of single-particle positions."""
    mu = spec.mixture_means
    sig = spec.mixture_sigmas
    w = spec.mixture_weights
    d = pts.shape[-1]
    dev = pts[..., None, :] - mu  # (..., m, d)
    comp = (np.log(w / w.sum()) - 0.5 * np.sum(dev * dev, axis=-1) / sig**2
            - d * np.log(sig) - 0.5 * d * LOG_2PI)
    return logsumexp(comp, axis=-1)


def energy(x: np.ndarray, spec: SystemSpec) -> np.ndarray | float:
    """Potential energy u(x) for one configuration or a batch."""
    spec.validate()
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 2
    xs = x[None] if single else x
    if spec.kind == "lennard_jones":
        return lj_energy(x, spec)
    if spec.kind == "gaussian":
        e = 0.5 * np.sum(xs * xs, axis=(1, 2))
    else:
        e = -np.sum(_mixture_logpdf_points(xs, spec), axis=1)
    return float(e[0]) if single else e


# ---------------------------------------------------------------------------
# Metropolis sampling
# ---------------------------------------------------------------------------

@dataclass
class McmcResult:
    samples: np.ndarray   # (N, n, d)
    acceptance_rate: float


def mcmc_sample(spec: SystemSpec, n_samples: int, step_size: float,
                seed: int = 0, burn_in: int = 1000, thin: int = 10,
                x0: np.ndarray | None = None) -> McmcResult:
    """Metropolis random walk with isotropic Gaussian proposals.

    Records every ``thin``-th state after ``burn_in`` steps.  Raises if an
    entire recording window passes with zero accepted moves, which signals
    a hopeless step size.
    """
    spec.validate()
    check("mcmc", {"n_samples": n_samples, "step_size": step_size,
                   "burn_in": burn_in, "thin": thin})
    rng = np.random.default_rng(seed)
    if x0 is None:
        x = rng.standard_normal((spec.n, spec.d))
        if spec.kind == "lennard_jones":
            # spread particles to avoid a singular start
            x = x * (1.5 * spec.r_min)
    else:
        x = np.asarray(x0, dtype=np.float64).copy()

    def _energy_safe(y):
        try:
            return float(energy(y, spec))
        except FloatingPointError:
            return np.inf

    e = _energy_safe(x)
    total = burn_in + thin * n_samples
    samples = np.empty((n_samples, spec.n, spec.d))
    accepted = 0
    window_accepted = 0
    window = max(1000, 10 * thin)
    recorded = 0
    for step in range(total):
        prop = x + step_size * rng.standard_normal(x.shape)
        e_prop = _energy_safe(prop)
        if np.log(rng.uniform()) < -spec.beta * (e_prop - e):
            x, e = prop, e_prop
            accepted += 1
            window_accepted += 1
        if step >= burn_in and (step - burn_in) % thin == thin - 1:
            samples[recorded] = x
            recorded += 1
        if (step + 1) % window == 0:
            if window_accepted == 0:
                raise RuntimeError(
                    f"no accepted moves in {window} steps; reduce step_size")
            window_accepted = 0
    return McmcResult(samples=samples[:recorded],
                      acceptance_rate=accepted / total)


# ---------------------------------------------------------------------------
# weights and effective sample sizes
# ---------------------------------------------------------------------------

@dataclass
class WeightedSamples:
    """Configurations with model log-densities and log importance weights."""

    x: np.ndarray
    logrho1: np.ndarray
    logw: np.ndarray
    n_rejected: int = 0


def importance_weights(x: np.ndarray, logrho1: np.ndarray,
                       spec: SystemSpec) -> WeightedSamples:
    """log w = -beta*u(x) - log rho1(x), unnormalized.

    Samples with non-finite energies (e.g. touching the Lennard-Jones
    singularity) are excluded and counted.
    """
    x = np.asarray(x, dtype=np.float64)
    logrho1 = np.asarray(logrho1, dtype=np.float64)
    if len(x) != len(logrho1):
        raise ValueError("need one log-density per sample")
    e = np.empty(len(x))
    for i in range(len(x)):
        try:
            e[i] = energy(x[i], spec)
        except FloatingPointError:
            e[i] = np.inf
    logw = -spec.beta * e - logrho1
    ok = np.isfinite(logw)
    return WeightedSamples(x=x[ok], logrho1=logrho1[ok], logw=logw[ok],
                           n_rejected=int(np.count_nonzero(~ok)))


def ess_kish(logw: np.ndarray) -> float:
    """(sum w)^2 / (N sum w^2) as a fraction of N, via log-sum-exp."""
    logw = np.asarray(logw, dtype=np.float64)
    logw = logw[~np.isnan(logw)]
    if logw.size == 0 or np.all(np.isneginf(logw)):
        raise ValueError("no finite weights")
    return float(np.exp(2.0 * logsumexp(logw) - logsumexp(2.0 * logw)
                        - np.log(logw.size)))


def ess_clipped(logw: np.ndarray, pct: float = 1.0) -> float:
    """Kish ESS after dropping the lowest and highest pct% of log-weights.

    Clipping is rank based with ties broken by sample index; pct=0 is an
    exact no-op.
    """
    if not (0.0 <= pct < 50.0):
        raise ValueError("pct must be in [0, 50)")
    logw = np.asarray(logw, dtype=np.float64)
    n = logw.size
    m = int(n * pct / 100.0)
    if n - 2 * m < 1:
        raise ValueError("clipping would remove every weight")
    if m == 0:
        return ess_kish(logw)
    order = np.argsort(logw, kind="stable")
    return ess_kish(logw[order[m:n - m]])


def relative_ess(ess: float, n_samples: int, rt: float,
                 usage: float = 1.0) -> float:
    """Effective samples per second of compute (usage factor defaults to 1)."""
    if rt <= 0:
        raise ValueError("runtime must be positive")
    return ess * n_samples / (rt * usage)


def effective_speedup(run: dict, baseline: dict, key: str = "ess") -> float:
    """Ratio of effective samples per compute second, run over baseline.

    Each dict carries ``ess`` (or the metric named by ``key``),
    ``n_samples``, ``rt``, and optionally ``usage``.
    """
    num = relative_ess(run[key], run["n_samples"], run["rt"],
                       run.get("usage", 1.0))
    den = relative_ess(baseline[key], baseline["n_samples"], baseline["rt"],
                       baseline.get("usage", 1.0))
    return num / den
