"""Workloads, their operations, and the checks on the library's outputs.

Every workload runs rounds of operations on one model configuration:

- one sampling operation: ``flow.sample_with_likelihood`` (hollow
  divergence, RK4) from the mean-free prior, then
  ``boltzmann.importance_weights`` and ``ess_kish`` against a
  Lennard-Jones target;
- then ``train_steps`` training operations: ``make_cfm_batch`` (exact OT
  coupling) -> ``cfm_loss_and_grad`` -> ``Adam.step``.

Each workload gives one kind its weight and keeps the other small, so
that both throughputs are defined on every workload (see README.md).

The checks are computed apart from the library (a numpy Gaussian density,
a pdist Lennard-Jones energy, sorted-row permutation tests) or test a
property the method must have (exact pass counts, finite differences).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from nbflow import autodiff as ad
from nbflow import boltzmann as bz
from nbflow import flow, training
from nbflow import network as net

D = 3
ARCH = dict(n_hidden=32, steps=2, knn_k=4, pairwise_diff=True)
PARAM_SEED = 0
LJ = dict(beta=3.0, r_min=1.0, eps_lj=1.0, tau_lj=1.0)
MCMC = dict(n_samples=1024, step_size=0.02, burn_in=2000, thin=10)
LEARNING_RATE = 5e-4
SIGMA = 0.01
CHECK_TIME = 0.5          # flow time of the Jacobian-diagonal check
FD_EPS_X = 1e-6           # central-difference step in positions
FD_EPS_W = 1e-5           # central-difference step along a weight direction
FULL_JACOBIAN_MAX_N = 64  # above this, check a few separated entries only
SEPARATED_ENTRIES = 5
MIN_HOPS = 6              # b_j depends on particles within 4 kNN hops of j


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                # particles per configuration
    sample_count: int     # configurations per sampling operation
    rk4_steps: int
    train_batch: int      # configurations per training step
    train_steps: int      # training steps per round
    mcmc_data: bool       # train on MCMC data, else on the round's samples


WORKLOADS = {w.name: w for w in (
    Workload("sample_batch", n=13, sample_count=64, rk4_steps=2,
             train_batch=16, train_steps=4, mcmc_data=False),
    Workload("sample_large", n=1024, sample_count=1, rk4_steps=1,
             train_batch=1, train_steps=1, mcmc_data=False),
    Workload("cfm_train", n=13, sample_count=16, rk4_steps=1,
             train_batch=128, train_steps=1, mcmc_data=True),
)}

WARM_UP_ROUND = 2**31  # round index of the warm-up inputs


def describe(wl: Workload) -> dict:
    return {"workload": asdict(wl), "arch": ARCH, "param_seed": PARAM_SEED,
            "d": D, "lennard_jones": LJ, "mcmc": MCMC,
            "learning_rate": LEARNING_RATE, "sigma": SIGMA}


def derive_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def plain_call(kind, fn):
    return fn()


class Bench:
    """One workload's model, inputs and optimizer state.

    Sampling always uses the initial weights; training updates its own
    copy, so every sampling operation does the same kind of work.
    """

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.cfg = net.ArchConfig(**ARCH).validate()
        self.params = net.init_params(self.cfg, seed=PARAM_SEED)
        self.train_params = {k: v.copy() for k, v in self.params.items()}
        self.opt = training.Adam(self.train_params, lr=LEARNING_RATE)
        self.spec = bz.SystemSpec(kind="lennard_jones", n=wl.n, d=D,
                                  **LJ).validate()
        self.prior = flow.GaussianPrior(n=wl.n, d=D, mean_free=True)
        self.data = None
        self.mcmc_s = 0.0
        if wl.mcmc_data:
            t0 = time.perf_counter()
            chain = bz.mcmc_sample(self.spec, seed=derive_seed(seed, 1),
                                   **MCMC)
            self.mcmc_s = time.perf_counter() - t0
            x = chain.samples
            self.data = x - x.mean(axis=1, keepdims=True)
        self.last_samples = None
        self.last_batch = None

    def sample_op(self, r: int, call=plain_call):
        """One sampling operation; returns (seconds, failed checks)."""
        wl = self.wl
        op_seed = derive_seed(self.seed, 2, r)

        def op():
            run = flow.sample_with_likelihood(
                self.params, self.cfg, self.prior, count=wl.sample_count,
                mode="hollow", steps=wl.rk4_steps, seed=op_seed,
                batch_size=wl.sample_count)
            ws = bz.importance_weights(run.x, run.logrho1, self.spec)
            return run, ws, bz.ess_kish(ws.logw)

        t0 = time.perf_counter()
        run, ws, ess = call("sample", op)
        seconds = time.perf_counter() - t0
        self.last_samples = run.x
        return seconds, check_sample(wl, run, ws, ess, op_seed)

    def train_op(self, r: int, step: int, call=plain_call):
        """Training step ``step`` of round r; returns (seconds, failed checks).

        Without MCMC data, step j trains on the j-th ``train_batch`` of the
        round's samples.
        """
        wl = self.wl
        rng = np.random.default_rng(derive_seed(self.seed, 3, r, step))
        if self.data is not None:
            x1 = self.data[rng.choice(len(self.data), wl.train_batch,
                                      replace=False)]
        else:
            x1 = self.last_samples[step * wl.train_batch:
                                   (step + 1) * wl.train_batch]
        x0 = self.prior.sample(rng, wl.train_batch)
        t = rng.uniform(0.0, 1.0, size=wl.train_batch)

        def op():
            batch = training.make_cfm_batch(x0, x1, t, SIGMA, rng)
            loss, grads = training.cfm_loss_and_grad(
                self.train_params, self.cfg, batch)
            self.opt.step(grads)
            return batch, loss, grads

        t0 = time.perf_counter()
        batch, loss, grads = call("train", op)
        seconds = time.perf_counter() - t0
        self.last_batch = batch
        return seconds, check_train(x0, x1, batch, loss, grads,
                                    self.train_params)

    def round_ops(self, r: int):
        """(kind, op) of round r in order; op(call) runs and checks it."""
        return ([("sample", lambda call: self.sample_op(r, call))]
                + [("train", lambda call, j=j: self.train_op(r, j, call))
                   for j in range(self.wl.train_steps)])

    def warm_up(self) -> list[str]:
        """One full round before timing, so that allocator and library
        state settle; its inputs come from a key no timed round uses."""
        return [b for _, op in self.round_ops(WARM_UP_ROUND)
                for b in op(plain_call)[1]]

    def final_checks(self) -> list[str]:
        """Finite-difference checks, run outside the timed window."""
        rng = np.random.default_rng(derive_seed(self.seed, 4))
        wl = self.wl
        if wl.n <= FULL_JACOBIAN_MAX_N:
            x = self.prior.sample(rng, 3)
            groups = [[m] for m in range(wl.n * D)]
        else:
            x = self.prior.sample(rng, 1)
            picks = separated_particles(x[0], self.cfg.knn_k, MIN_HOPS,
                                        SEPARATED_ENTRIES, rng)
            groups = [[p * D + i % D for i, p in enumerate(picks)]]
        diag = hollow_diagonal(self.params, self.cfg, x)
        problems = check_fd_diagonal(self.params, self.cfg, x, diag, groups)
        if wl.n > FULL_JACOBIAN_MAX_N and len(picks) < SEPARATED_ENTRIES:
            problems.append(f"only {len(picks)} of {SEPARATED_ENTRIES} "
                            f"particles are {MIN_HOPS} kNN hops apart")
        _, div = flow.ModelField(self.params, self.cfg).rate(x, CHECK_TIME)
        if not _close(div, diag.sum(axis=1), 1e-9, 1e-9):
            problems.append("ModelField.rate divergence != trace of the "
                            "hollow diagonal")
        if self.last_batch is not None:
            problems += check_gradient(self.train_params, self.cfg,
                                       self.last_batch, rng)
        return problems


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _close(a, b, rtol, atol=0.0) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b)
                                              <= atol + rtol * np.abs(b)))


def mean_free_log_density(x0: np.ndarray) -> np.ndarray:
    """Standard normal on the zero-centre-of-mass subspace, (B, n, d)."""
    _, n, d = x0.shape
    c = x0 - x0.mean(axis=1, keepdims=True)
    return -0.5 * np.sum(c * c, axis=(1, 2)) - 0.5 * (n - 1) * d * np.log(2 * np.pi)


def lennard_jones(x: np.ndarray) -> np.ndarray:
    """eps/tau * sum over unordered pairs of (r_min/r)^12 - 2 (r_min/r)^6."""
    out = np.empty(len(x))
    for i, conf in enumerate(x):
        s6 = (LJ["r_min"] ** 2 / pdist(conf, "sqeuclidean")) ** 3
        out[i] = LJ["eps_lj"] / LJ["tau_lj"] * np.sum(s6 * s6 - 2.0 * s6)
    return out


def check_sample(wl: Workload, run, ws, ess, op_seed: int) -> list[str]:
    problems = []
    # sample_with_likelihood draws the whole batch in one call of the prior
    x0 = np.random.default_rng(op_seed).standard_normal((wl.sample_count, wl.n, D))
    if run.x.shape != x0.shape or not np.all(np.isfinite(run.x)):
        problems.append("samples: wrong shape or non-finite")
    if not _close(run.logrho0, mean_free_log_density(x0), 1e-12, 1e-9):
        problems.append("logrho0 != mean-free Gaussian log-density")
    if not _close(run.logrho1, run.logrho0 + run.delta_logrho, 1e-12, 1e-12):
        problems.append("logrho1 != logrho0 + delta_logrho")
    ref = -LJ["beta"] * lennard_jones(run.x) - run.logrho1
    if ws.n_rejected or not _close(ws.logw, ref, 1e-9, 1e-9):
        problems.append("logw != -beta*u(x) - logrho1")
    if not 0.0 < ess <= 1.0 + 1e-12:
        problems.append(f"ess {ess} outside (0, 1]")
    if run.reverse_passes != 4 * wl.rk4_steps * D:
        problems.append(f"reverse_passes {run.reverse_passes} != "
                        f"4*steps*d = {4 * wl.rk4_steps * D}")
    return problems


def _sorted_rows(a: np.ndarray) -> np.ndarray:
    flat = a.reshape(len(a), -1)
    return flat[np.lexsort(flat.T[::-1])]


def check_train(x0, x1, batch, loss, grads, params) -> list[str]:
    problems = []
    if not np.array_equal(_sorted_rows(batch.x1), _sorted_rows(x1)):
        problems.append("OT coupling is not a permutation of the data batch")
    cost = np.sum((x0 - batch.x1) ** 2)
    if cost > np.sum((x0 - x1) ** 2) * (1 + 1e-12):
        problems.append("OT coupling costs more than the identity pairing")
    if not _close(batch.u_t, batch.x1 - batch.x0, 1e-12, 1e-12):
        problems.append("u_t != x1 - x0")
    if not np.isfinite(loss):
        problems.append("non-finite loss")
    if set(grads) != set(params) or any(
            grads[k].shape != params[k].shape or not np.all(np.isfinite(grads[k]))
            for k in params):
        problems.append("gradients do not match the parameters")
    return problems


def separated_particles(x: np.ndarray, k: int, min_hops: int, count: int,
                        rng) -> list[int]:
    """Up to ``count`` particles pairwise >= min_hops apart in the kNN graph.

    The benchmark builds its own symmetrized kNN graph, so perturbing all
    picked particles at once moves each picked field row only through its
    own particle.
    """
    n = len(x)
    _, nb = cKDTree(x).query(x, k + 1)
    rows = np.repeat(np.arange(n), k)
    adj = csr_matrix((np.ones(n * k), (rows, nb[:, 1:].reshape(-1))),
                     shape=(n, n))
    adj = adj + adj.T
    picks, hops = [], []
    for p in rng.permutation(n):
        if all(h[p] >= min_hops for h in hops):
            picks.append(int(p))
            hops.append(shortest_path(adj, unweighted=True, indices=p))
            if len(picks) == count:
                break
    return picks


def hollow_diagonal(params, cfg, x: np.ndarray) -> np.ndarray:
    """(B, n*d) Jacobian diagonal from d probe passes on the detached program."""
    B, n, d = x.shape
    prog = net.make_field_program(params, cfg, n, d, t=CHECK_TIME, batch=B,
                                  detach_conditioner=True)
    ad.forward_eval(prog, x.reshape(-1))
    return ad.jacobian_diagonal(prog, ad.probe_vectors(B * n, d)).reshape(B, -1)


def check_fd_diagonal(params, cfg, x: np.ndarray, diag, groups) -> list[str]:
    """Diagonal entries against central differences of evaluate_field.

    Each group of flat per-configuration coordinates is perturbed together;
    the configurations of the batch are perturbed together too.
    """
    B, n, d = x.shape
    worst = 0.0
    for group in groups:
        xp, xm = x.reshape(B, -1).copy(), x.reshape(B, -1).copy()
        xp[:, group] += FD_EPS_X
        xm[:, group] -= FD_EPS_X
        fp = net.evaluate_field(params, cfg, xp.reshape(B, n, d), t=CHECK_TIME)
        fm = net.evaluate_field(params, cfg, xm.reshape(B, n, d), t=CHECK_TIME)
        fd = (fp.reshape(B, -1) - fm.reshape(B, -1))[:, group] / (2 * FD_EPS_X)
        err = np.abs(fd - diag[:, group]) / (1e-6 + 1e-5 * np.abs(fd))
        worst = max(worst, float(err.max()))
    if worst > 1.0:
        return [f"hollow Jacobian diagonal differs from central differences "
                f"({worst:.3g}x tolerance)"]
    return []


def check_gradient(params, cfg, batch, rng) -> list[str]:
    """Directional central difference of cfm_loss against <grad, v>."""
    loss, grads = training.cfm_loss_and_grad(params, cfg, batch)
    v = {k: rng.standard_normal(p.shape) for k, p in params.items()}
    scale = 1.0 / np.sqrt(sum(np.sum(a * a) for a in v.values()))
    v = {k: a * scale for k, a in v.items()}
    plus = {k: p + FD_EPS_W * v[k] for k, p in params.items()}
    minus = {k: p - FD_EPS_W * v[k] for k, p in params.items()}
    fd = (training.cfm_loss(plus, cfg, batch)
          - training.cfm_loss(minus, cfg, batch)) / (2 * FD_EPS_W)
    exact = sum(float(np.sum(grads[k] * v[k])) for k in params)
    if abs(fd - exact) > 1e-6 * (abs(exact) + abs(loss)):
        return [f"cfm gradient {exact!r} differs from directional "
                f"difference {fd!r}"]
    return []
