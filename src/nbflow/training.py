"""Conditional flow matching: interpolants, OT coupling, loss, optimizer.

Training regresses the field onto the conditional target velocity
u_t = x1 - x0 of a linear interpolant between prior draws and data, after
pairing each prior batch with the data batch by the exact minimum-cost
assignment (minibatch optimal transport).  No ODE integration or
divergence is needed during training.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import autodiff as ad
from . import network as net
from .flow import GaussianPrior

MAX_OT_BATCH = 512


@dataclass
class TrainConfig:
    batch_size: int = 128
    lr_initial: float = 5e-4
    lr_final: float = 5e-5
    ramp_epochs: int = 20      # linear lr descent over this first segment
    epochs: int = 40
    seed: int = 0
    checkpoint_every: int = 10
    validation_fraction: float = 0.1
    sigma: float = 0.01        # interpolant noise scale

    def validate(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        if self.lr_initial <= 0 or self.lr_final <= 0:
            raise ValueError("learning rates must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if not (0.0 <= self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must be in [0, 1)")
        return self

    def n_validation(self, M: int) -> int:
        """How many of M configurations are held out; one must be left."""
        n_val = int(round(M * self.validation_fraction))
        if n_val >= M:
            raise ValueError(
                f"validation_fraction={self.validation_fraction} holds out "
                f"{n_val} of M={M} configurations, leaving none to train on")
        return n_val

    def lr_at(self, epoch: int) -> float:
        if self.ramp_epochs <= 0 or epoch >= self.ramp_epochs:
            return self.lr_final
        frac = epoch / self.ramp_epochs
        return self.lr_initial + frac * (self.lr_final - self.lr_initial)


@dataclass
class CfmBatch:
    x0: np.ndarray      # (B, n, d) coupled prior points
    x1: np.ndarray      # (B, n, d) coupled data points
    t: np.ndarray       # (B,)
    x_t: np.ndarray
    u_t: np.ndarray
    Z: np.ndarray | None = None


def interpolant_sample(x0, x1, t, sigma: float,
                       rng: np.random.Generator | None = None):
    """x_t = t*x1 + (1-t)*x0 + sigma*eps and the target u_t = x1 - x0."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError("endpoint shape mismatch")
    t = np.asarray(t, dtype=np.float64)
    tb = t.reshape((-1,) + (1,) * (x0.ndim - 1)) if t.ndim == 1 else t
    x_t = tb * x1 + (1.0 - tb) * x0
    if sigma > 0:
        if rng is None:
            rng = np.random.default_rng()
        x_t = x_t + sigma * rng.standard_normal(x0.shape)
    return x_t, x1 - x0


def minibatch_ot_coupling(batch0, batch1) -> np.ndarray:
    """Permutation pi minimizing sum_i ||x0_i - x1_pi(i)||^2 (exact).

    Solved by the Hungarian method; batches above 512 are rejected since
    the exact assignment is cubic.
    """
    a = np.asarray(batch0, dtype=np.float64)
    b = np.asarray(batch1, dtype=np.float64)
    if a.shape[0] != b.shape[0]:
        raise ValueError("coupling needs equal batch sizes")
    if a.shape[0] > MAX_OT_BATCH:
        raise ValueError(f"batch too large for exact assignment (> {MAX_OT_BATCH})")
    af = a.reshape(a.shape[0], -1)
    bf = b.reshape(b.shape[0], -1)
    cost = np.sum((af[:, None, :] - bf[None, :, :]) ** 2, axis=-1)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(a.shape[0], dtype=np.intp)
    perm[rows] = cols
    return perm


def make_cfm_batch(x0, x1, t, sigma, rng=None, Z=None,
                   couple: bool = True) -> CfmBatch:
    if couple:
        perm = minibatch_ot_coupling(x0, x1)
        x1 = np.asarray(x1)[perm]
    x_t, u_t = interpolant_sample(x0, x1, t, sigma, rng)
    return CfmBatch(x0=np.asarray(x0, dtype=np.float64),
                    x1=np.asarray(x1, dtype=np.float64),
                    t=np.asarray(t, dtype=np.float64), x_t=x_t, u_t=u_t, Z=Z)


def _loss_tape(params, cfg, batch: CfmBatch):
    B, n, d = batch.x_t.shape
    plan = net.make_plan(batch.x_t, cfg)
    tape = ad.Tape(ad.POOL)
    pv = net.param_vars(tape, params)
    xv = tape.const(batch.x_t.reshape(B * n, d))
    Zs, t_samples, _ = net.batch_inputs(B, n, batch.Z, batch.t)
    fb = net.build_field(tape, pv, cfg, xv, Zs.reshape(-1), t_samples, plan)
    diff = fb.b - tape.const(batch.u_t.reshape(B * n, d))
    loss = ad.sum_all(diff * diff) * (1.0 / B)
    return tape, pv, loss


def cfm_loss(params, cfg: net.ArchConfig, batch: CfmBatch) -> float:
    """Mean over the batch of || b(x_t, t) - u_t ||^2."""
    _, _, loss = _loss_tape(params, cfg, batch)
    val = float(loss.value)
    if not np.isfinite(val):
        raise FloatingPointError("non-finite loss")
    return val


def cfm_loss_and_grad(params, cfg, batch) -> tuple[float, dict[str, np.ndarray]]:
    tape, pv, loss = _loss_tape(params, cfg, batch)
    val = float(loss.value)
    if not np.isfinite(val):
        raise FloatingPointError("non-finite loss")
    names = list(params)
    grads = tape.vjp(loss, np.asarray(1.0), [pv[n] for n in names],
                     consume=True)
    return val, dict(zip(names, grads))


class Adam:
    """Standard Adam (beta1=0.9, beta2=0.999, eps=1e-8) over a param dict."""

    def __init__(self, params: dict, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict, lr: float | None = None):
        self.t += 1
        lr = self.lr if lr is None else lr
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for k, g in grads.items():
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            self.params[k] -= lr * (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + self.eps)


@dataclass
class TrainResult:
    params: dict
    best_checkpoint: Path
    last_checkpoint: Path
    loss_log: Path
    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int


def train(train_cfg: TrainConfig, arch_cfg: net.ArchConfig,
          data: np.ndarray, out_dir, Z=None, params: dict | None = None,
          quiet: bool = True) -> TrainResult:
    """CFM training loop over an (M, n, d) dataset.

    Per batch: draw prior points, pair them with the data batch by exact
    OT, build the noisy interpolant at uniform random times, and take one
    Adam step on the regression loss.  Validation uses a held-out slice
    with a fixed noise realization per epoch so the best-checkpoint
    selection is comparable across epochs.  Writes ``loss_log.csv`` plus
    best/last checkpoints (labels ``Z`` in their ``extra``) into ``out_dir``.
    """
    train_cfg.validate()
    arch_cfg.validate()
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3:
        raise ValueError("data must have shape (M, n, d)")
    M, n, d = data.shape
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(train_cfg.seed)
    if params is None:
        params = net.init_params(arch_cfg, seed=train_cfg.seed)

    n_val = train_cfg.n_validation(M)
    perm = rng.permutation(M)
    val_x = data[perm[:n_val]]
    trn_x = data[perm[n_val:]]
    prior = GaussianPrior(n=n, d=d, mean_free=arch_cfg.pairwise_diff)
    if arch_cfg.pairwise_diff:
        trn_x = trn_x - trn_x.mean(axis=1, keepdims=True)
        val_x = val_x - val_x.mean(axis=1, keepdims=True)
    opt = Adam(params, lr=train_cfg.lr_initial)

    log_path = out_dir / "loss_log.csv"
    best_path = out_dir / "checkpoint_best"
    last_path = out_dir / "checkpoint_last"
    train_losses, val_losses = [], []
    best_val = np.inf
    best_epoch = -1
    t_start = time.perf_counter()
    B = min(train_cfg.batch_size, len(trn_x))
    labels = None if Z is None else np.asarray(Z, dtype=int).tolist()
    with open(log_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "train_loss", "val_loss", "lr", "wallclock_s"])
        for epoch in range(train_cfg.epochs):
            lr = train_cfg.lr_at(epoch)
            order = rng.permutation(len(trn_x))
            losses = []
            for lo in range(0, len(trn_x) - B + 1, B):
                x1 = trn_x[order[lo:lo + B]]
                x0 = prior.sample(rng, B)
                t = rng.uniform(0.0, 1.0, size=B)
                batch = make_cfm_batch(x0, x1, t, train_cfg.sigma, rng, Z=Z)
                loss, grads = cfm_loss_and_grad(params, arch_cfg, batch)
                opt.step(grads, lr=lr)
                losses.append(loss)
            train_loss = float(np.mean(losses)) if losses else np.nan

            if n_val:
                vrng = np.random.default_rng(train_cfg.seed + 900_001)
                vx0 = prior.sample(vrng, len(val_x))
                vt = vrng.uniform(0.0, 1.0, size=len(val_x))
                vloss = []
                for lo in range(0, len(val_x), B):
                    sl = slice(lo, lo + B)
                    vb = make_cfm_batch(vx0[sl], val_x[sl], vt[sl],
                                        train_cfg.sigma, vrng, Z=Z)
                    vloss.append(cfm_loss(params, arch_cfg, vb) * len(vb.t))
                val_loss = float(np.sum(vloss) / len(val_x))
            else:
                val_loss = train_loss

            train_losses.append(train_loss)
            val_losses.append(val_loss)
            wall = time.perf_counter() - t_start
            writer.writerow([epoch, f"{train_loss:.17g}", f"{val_loss:.17g}",
                             f"{lr:.17g}", f"{wall:.3f}"])
            fh.flush()
            if not quiet:
                print(f"epoch {epoch:4d}  train {train_loss:.5f}  "
                      f"val {val_loss:.5f}  lr {lr:.2e}")
            extra = {"epoch": epoch, "val_loss": val_loss, "labels": labels}
            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                net.save_checkpoint(best_path, params, arch_cfg,
                                    seed=train_cfg.seed, extra=extra)
            if (epoch + 1) % train_cfg.checkpoint_every == 0 \
                    or epoch == train_cfg.epochs - 1:
                net.save_checkpoint(last_path, params, arch_cfg,
                                    seed=train_cfg.seed, extra=extra)
    return TrainResult(params=params, best_checkpoint=best_path,
                       last_checkpoint=last_path, loss_log=log_path,
                       train_losses=train_losses, val_losses=val_losses,
                       best_epoch=best_epoch)


def load_data_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read the training CSV: first line n,d, then one line per sample: its
    n*d finite coordinates, then n integer labels, the same on every line."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        try:
            n, d = (int(v) for v in header.split(","))
        except ValueError as exc:
            raise ValueError(f"malformed data header {header!r}") from exc
        rows, Z = [], None
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            if len(cells) != n * d + n:
                raise ValueError(f"data line {lineno}: row length does not "
                                 f"match header")
            try:
                row = np.array(cells, dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"data line {lineno}: {exc}") from exc
            x, z, labels = row[:n * d], row[n * d:], ",".join(cells[n * d:])
            if not np.all(np.isfinite(x)):
                raise ValueError(f"data line {lineno}: coordinates must be finite")
            if not np.all(np.isfinite(z) & (z == np.round(z))):
                raise ValueError(f"data line {lineno}: labels must be integers, "
                                 f"not {labels}")
            if Z is None:
                Z, z_line = z, lineno
            elif not np.array_equal(z, Z):
                raise ValueError(f"data line {lineno}: labels {labels} differ "
                                 f"from line {z_line}'s")
            rows.append(x)
    if not rows:
        raise ValueError("data file has no samples")
    return np.array(rows).reshape(-1, n, d), Z.astype(int)


def save_data_csv(path, x: np.ndarray, Z=None):
    x = np.asarray(x, dtype=np.float64)
    M, n, d = x.shape
    Z = np.zeros(n, dtype=int) if Z is None else np.asarray(Z, dtype=int)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"{n},{d}\n")
        for row in x.reshape(M, -1):
            cells = [f"{v:.17g}" for v in row] + [str(int(z)) for z in Z]
            fh.write(",".join(cells) + "\n")
