"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tape`` records array operations eagerly (define-by-run).  Values are
float64 throughout.  The operation set is deliberately small: affine maps,
SiLU, elementwise arithmetic with broadcasting, gather/segment-sum over
index lists, smoothed vector norms, per-segment softmax, and a
stop-gradient ``detach`` whose value is the identity but whose gradient is
zero.  That closure is everything the message-passing vector fields in
this package need.

The reverse pass propagates cotangents from a single output node back to
the ``wrt`` vars and computes nothing else.  A node is *marked* if it is a
``wrt`` var or an operation (not a leaf, const or detach) with a marked
parent; marks are computed once per (output, ``wrt`` set), so the d probe
passes of a divergence share them, and only marked nodes get cotangents.
A backward rule is ``fn(g, vals, parents, aux, want)``: ``want`` holds one
bool per parent (is it marked?) and the rule returns ``None`` for unwanted
parents (only multi-parent rules need to look).  Marked nodes get the same
contributions in the same order as in an unpruned pass, so gradients are
bitwise those of an unpruned pass.  A cotangent is dropped once its rule
has run, unless its node is a ``wrt`` target; rules never write into
``g``, into tape values or into a view another rule returned.  So
detached subgraphs and weight gradients cost nothing in a pass that asks
only for the input's, which is what makes the d-probe divergence
extraction cheap.

Equivariant features are (R, d, C): rows, coordinates, channels.  So
scalar gates broadcast as ``s[:, None, :]`` over contiguous channels, and a
sum over d adds d contiguous (R, C) slabs.  Sums take the order that
``np.sum`` takes on the same data laid out (R, C, d), bit for bit (the
tests check it): over d, slabs add onto +0.0 in index order (its order on
a short trailing axis); over C, channels add one by one in index order
(its order on a strided axis), not pairwise.

Pass and visit counters live on the tape so callers can assert exact
backward-pass counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix

NORM_EPS = 1e-12  # smoothing inside sqrt so unit vectors are defined at 0
_TERMINAL = ("leaf", "const", "detach")  # kinds that pass no cotangent on


def _as_f64(x):
    return np.asarray(x, dtype=np.float64)


class Tape:
    """Eager record of array operations supporting vector-Jacobian products."""

    __slots__ = ("kinds", "parents", "aux", "vals", "n_forward_visits",
                 "n_reverse_visits", "n_reverse_passes", "_marks")

    def __init__(self):
        self.kinds: list[str] = []
        self.parents: list[tuple[int, ...]] = []
        self.aux: list = []
        self.vals: list[np.ndarray] = []
        self.n_forward_visits = 0
        self.n_reverse_visits = 0
        self.n_reverse_passes = 0
        self._marks = None  # ((out, wrt ids), marks, wants) of the last vjp

    def __len__(self):
        return len(self.kinds)

    def _push(self, kind, parents, aux, value) -> "Var":
        self.kinds.append(kind)
        self.parents.append(parents)
        self.aux.append(aux)
        self.vals.append(value)
        self.n_forward_visits += 1
        return Var(self, len(self.kinds) - 1)

    def leaf(self, value) -> "Var":
        """Differentiable input or parameter node."""
        return self._push("leaf", (), None, _as_f64(value))

    def const(self, value) -> "Var":
        """Node that never receives a gradient (labels, time features)."""
        return self._push("const", (), None, _as_f64(value))

    def vjp(self, out: "Var", cotangent, wrt: list["Var"]) -> list[np.ndarray]:
        """Propagate ``cotangent`` from ``out`` back to the ``wrt`` leaves.

        Returns one gradient array per entry of ``wrt`` (zeros when the
        output does not depend on that leaf).  Counts one reverse pass.
        """
        if out.tape is not self:
            raise ValueError("output var belongs to a different tape")
        g = _as_f64(cotangent)
        if g.shape != self.vals[out.i].shape:
            raise ValueError(
                f"cotangent shape {g.shape} != output shape {self.vals[out.i].shape}")
        self.n_reverse_passes += 1
        targets = frozenset(v.i for v in wrt)
        marked, wants = self._mark(out.i, targets)
        grads: list = [None] * len(self.kinds)
        if marked[out.i]:
            grads[out.i] = g
        for i in range(out.i, -1, -1):
            gi = grads[i]
            if gi is None:
                continue
            self.n_reverse_visits += 1
            kind = self.kinds[i]
            if kind in _TERMINAL:
                continue
            if i not in targets:
                grads[i] = None
            ps = self.parents[i]
            contribs = _BACKWARD[kind](gi, self.vals, ps, self.aux[i], wants[i])
            for p, gp in zip(ps, contribs):
                if gp is None:
                    continue
                if grads[p] is None:
                    grads[p] = gp
                else:
                    grads[p] = grads[p] + gp
        result = []
        for v in wrt:
            if grads[v.i] is None:
                result.append(np.zeros_like(self.vals[v.i]))
            else:
                result.append(grads[v.i])
        return result

    def _mark(self, out: int, targets: frozenset):
        """Which nodes up to ``out`` reach a target, and per-node ``want``."""
        key = (out, targets)
        if self._marks is None or self._marks[0] != key:
            marked = [False] * (out + 1)
            wants = [()] * (out + 1)
            for i in range(out + 1):
                wants[i] = tuple(marked[p] for p in self.parents[i])
                marked[i] = i in targets or (
                    self.kinds[i] not in _TERMINAL and any(wants[i]))
            self._marks = (key, marked, wants)
        return self._marks[1], self._marks[2]


@dataclass(frozen=True)
class Var:
    """Handle to one tape node; supports numpy-flavoured arithmetic."""

    tape: Tape
    i: int

    @property
    def value(self) -> np.ndarray:
        return self.tape.vals[self.i]

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return _binary("add", self, other)

    def __sub__(self, other):
        return _binary("sub", self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.tape._push("smul", (self.i,), float(other),
                                   self.value * float(other))
        return _binary("mul", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary("div", self, other)

    def __neg__(self):
        return self * -1.0


def _binary(kind, a: Var, b: Var) -> Var:
    if a.tape is not b.tape:
        raise ValueError("operands live on different tapes")
    fa, fb = a.value, b.value
    if kind == "add":
        v = fa + fb
    elif kind == "sub":
        v = fa - fb
    elif kind == "mul":
        v = fa * fb
    else:
        v = fa / fb
    return a.tape._push(kind, (a.i, b.i), None, v)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape of the broadcast operand."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class _Scatter:
    """Sums the rows ``cols[k]`` (default k) of ``a`` into segment ``idx[k]``.

    It multiplies by a (segments x rows) CSR matrix of ones, built on first
    use and kept for every later pass.  Each matrix row lists its columns in
    k order, so each segment adds its rows onto zero in ``np.add.at``'s
    order: bitwise the ``np.zeros`` + ``np.add.at`` sums of ``a[cols]``.
    """

    __slots__ = ("idx", "n", "cols", "_m")

    def __init__(self, idx: np.ndarray, n: int, cols: np.ndarray | None = None):
        self.idx, self.n, self.cols, self._m = idx, n, cols, None

    def __call__(self, a: np.ndarray) -> np.ndarray:
        if self._m is None:
            order = np.argsort(self.idx, kind="stable")
            indptr = np.r_[0, np.bincount(self.idx, minlength=self.n).cumsum()]
            cols = order if self.cols is None else self.cols[order]
            self._m = csr_matrix((np.ones(len(order)), cols, indptr),
                                 shape=(self.n, len(a)))
        rows = a.reshape(len(a), math.prod(a.shape[1:]))
        return (self._m @ rows).reshape((self.n,) + a.shape[1:])


def affine(x: Var, W: Var, b: Var) -> Var:
    """x @ W + b as one node; the product alone is never stored."""
    v = x.value @ W.value
    v += b.value
    return x.tape._push("affine", (x.i, W.i, b.i), None, v)


def gather(a: Var, idx: np.ndarray) -> Var:
    idx = np.asarray(idx, dtype=np.intp)
    return a.tape._push("gather", (a.i,), _Scatter(idx, len(a.value)),
                        a.value[idx])


def segment_sum(a: Var, seg: np.ndarray, num_segments: int) -> Var:
    """Sum rows of ``a`` into ``num_segments`` buckets; empty buckets are 0."""
    sc = _Scatter(np.asarray(seg, dtype=np.intp), num_segments)
    return a.tape._push("segsum", (a.i,), sc, sc(a.value))


def gather_sum(vs: list[Var], frm: np.ndarray, seg: np.ndarray,
               num_segments: int) -> list[Var]:
    """``segment_sum(gather(a, frm), seg, num_segments)``, bitwise, for each
    a in ``vs``: M @ a and M^T @ g with M and M^T shared, no gathered rows."""
    frm, seg = np.asarray(frm, dtype=np.intp), np.asarray(seg, dtype=np.intp)
    m = _Scatter(seg, num_segments, frm)
    mt = _Scatter(frm, len(vs[0].value), seg)
    return [a.tape._push("gsum", (a.i,), mt, m(a.value)) for a in vs]


def concat(vs: list[Var], axis: int = 1) -> Var:
    tape = vs[0].tape
    sizes = [v.value.shape[axis] for v in vs]
    val = np.concatenate([v.value for v in vs], axis=axis)
    return tape._push("concat", tuple(v.i for v in vs), (axis, sizes), val)


def slice_cols(a: Var, j0: int, j1: int) -> Var:
    return a.tape._push("slice", (a.i,), (j0, j1), a.value[:, j0:j1])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below: exp only ever sees
    # -|x|, so it never overflows
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def silu(a: Var) -> Var:
    s = _sigmoid(a.value)
    return a.tape._push("silu", (a.i,), s, a.value * s)


def _dsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[:, k] * b[:, k]: (R, d, C) -> (R, C), one slab at a time."""
    tmp = a[:, 0] * b[:, 0]
    out = tmp + 0.0
    for k in range(1, a.shape[1]):
        out += np.multiply(a[:, k], b[:, k], out=tmp)
    return out


def _csum(a: np.ndarray) -> np.ndarray:
    """Sum over the trailing channel axis, one channel at a time."""
    out = a[..., 0] + 0.0
    for c in range(1, a.shape[-1]):
        out += a[..., c]
    return out


def channel_norm(a: Var) -> Var:
    """sqrt(sum over d of a^2 + eps), smooth at 0: (R, d, C) -> (R, C); an
    (R, d) array is one channel and gives (R, 1)."""
    x = a.value if a.value.ndim == 3 else a.value[:, :, None]
    v = _dsum(x, x)
    v += NORM_EPS
    np.sqrt(v, out=v)
    return a.tape._push("cnorm", (a.i,), v, v)


def dot_last(a: Var, b: Var) -> Var:
    """Channel-wise inner product over d: (R, d, C) x (R, d, C) -> (R, C)."""
    return a.tape._push("dotl", (a.i, b.i), None, _dsum(a.value, b.value))


def scale_channels(v: Var, s: Var) -> Var:
    """v[r, :, c] * s[r, c] (or s[r, 0] broadcast across channels)."""
    return v.tape._push("scalec", (v.i, s.i), None,
                        v.value * s.value[:, None, :])


def outer_rows(s: Var, u: Var) -> Var:
    """(R, C) x (R, d) -> (R, d, C) per-row outer product."""
    return s.tape._push("outer", (s.i, u.i), None,
                        u.value[:, :, None] * s.value[:, None, :])


def sum_channels(v: Var) -> Var:
    """(R, d, C) -> (R, d): sum over the channel axis."""
    return v.tape._push("sumc", (v.i,), v.value.shape, _csum(v.value))


def sum_all(a: Var) -> Var:
    return a.tape._push("suma", (a.i,), a.value.shape,
                        np.asarray(np.sum(a.value)))


def gauss_rbf(r: Var, centers: np.ndarray, gamma: float) -> Var:
    """Gaussian radial basis expansion of a (R,1) distance column."""
    centers = _as_f64(centers)
    val = np.exp(-gamma * (r.value - centers) ** 2)
    return r.tape._push("rbf", (r.i,), (centers, gamma), val)


def segment_softmax(y: Var, seg: np.ndarray, num_segments: int) -> Var:
    """Softmax of a (R,1) score column within each segment.

    Segments with a single member get exactly 1.0; empty segments simply
    have no rows.
    """
    seg = np.asarray(seg, dtype=np.intp)
    col = y.value[:, 0]
    m = np.full(num_segments, -np.inf)
    np.maximum.at(m, seg, col)
    e = np.exp(col - m[seg])
    tot = np.zeros(num_segments)
    np.add.at(tot, seg, e)
    a = (e / tot[seg])[:, None]
    return y.tape._push("segsoft", (y.i,), (seg, num_segments), a)


def detach(a: Var) -> Var:
    """Identity in value; gradients stop here."""
    return a.tape._push("detach", (a.i,), None, a.value)


def reshape(a: Var, shape) -> Var:
    return a.tape._push("reshape", (a.i,), a.value.shape,
                        a.value.reshape(shape))


# backward rules: fn(g, vals, parents, aux, want) -> per-parent gradients,
# None for a parent whose ``want`` is False (see the module docstring)

def _bw_add(g, vals, ps, aux, want):
    return (_unbroadcast(g, vals[ps[0]].shape) if want[0] else None,
            _unbroadcast(g, vals[ps[1]].shape) if want[1] else None)


def _bw_sub(g, vals, ps, aux, want):
    return (_unbroadcast(g, vals[ps[0]].shape) if want[0] else None,
            _unbroadcast(-g, vals[ps[1]].shape) if want[1] else None)


def _bw_mul(g, vals, ps, aux, want):
    a, b = vals[ps[0]], vals[ps[1]]
    return (_unbroadcast(g * b, a.shape) if want[0] else None,
            _unbroadcast(g * a, b.shape) if want[1] else None)


def _bw_div(g, vals, ps, aux, want):
    a, b = vals[ps[0]], vals[ps[1]]
    return (_unbroadcast(g / b, a.shape) if want[0] else None,
            _unbroadcast(-g * a / (b * b), b.shape) if want[1] else None)


def _bw_smul(g, vals, ps, aux, want):
    return (g * aux,)


def _bw_affine(g, vals, ps, aux, want):
    x, W, b = (vals[p] for p in ps)
    return (g @ W.T if want[0] else None, x.T @ g if want[1] else None,
            _unbroadcast(g, b.shape) if want[2] else None)


def _bw_gather(g, vals, ps, sc, want):  # also gsum's, with sc = M^T
    return (sc(g),)


def _bw_segsum(g, vals, ps, sc, want):
    return (g[sc.idx],)


def _bw_concat(g, vals, ps, aux, want):
    axis, sizes = aux
    parts = np.split(g, np.cumsum(sizes)[:-1], axis=axis)  # views of g
    return tuple(gp if w else None for gp, w in zip(parts, want))


def _bw_slice(g, vals, ps, aux, want):
    j0, j1 = aux
    out = np.zeros_like(vals[ps[0]])
    out[:, j0:j1] = g
    return (out,)


def _bw_silu(g, vals, ps, s, want):
    # g * (s * (1 + x * (1 - s))) on one temporary
    t = 1.0 - s
    t *= vals[ps[0]]
    t += 1.0
    t *= s
    t *= g
    return (t,)


def _bw_cnorm(g, vals, ps, n, want):
    a = vals[ps[0]]
    t = g[:, None, :] * (a if a.ndim == 3 else a[:, :, None])
    t /= n[:, None, :]
    return (t.reshape(a.shape),)


def _bw_dotl(g, vals, ps, aux, want):
    a, b = vals[ps[0]], vals[ps[1]]
    return (g[:, None, :] * b if want[0] else None,
            g[:, None, :] * a if want[1] else None)


def _bw_scalec(g, vals, ps, aux, want):
    v, s = vals[ps[0]], vals[ps[1]]
    return (g * s[:, None, :] if want[0] else None,
            _unbroadcast(_dsum(g, v), s.shape) if want[1] else None)


def _bw_outer(g, vals, ps, aux, want):
    s, u = vals[ps[0]], vals[ps[1]]
    return (_dsum(g, u[:, :, None]) if want[0] else None,
            _csum(g * s[:, None, :]) if want[1] else None)


def _bw_sumc(g, vals, ps, shape, want):
    return (np.broadcast_to(g[:, :, None], shape).copy(),)


def _bw_suma(g, vals, ps, shape, want):
    return (np.full(shape, float(g)),)


def _bw_rbf(g, vals, ps, aux, want):
    centers, gamma = aux
    r = vals[ps[0]]
    val = np.exp(-gamma * (r - centers) ** 2)
    return (np.sum(g * val * (-2.0 * gamma) * (r - centers),
                   axis=1, keepdims=True),)


def _bw_segsoft(g, vals, ps, aux, want):
    seg, nseg = aux
    # alpha is this node's own value; recompute from parent for locality
    col = vals[ps[0]][:, 0]
    m = np.full(nseg, -np.inf)
    np.maximum.at(m, seg, col)
    e = np.exp(col - m[seg])
    tot = np.zeros(nseg)
    np.add.at(tot, seg, e)
    a = e / tot[seg]
    ga = g[:, 0] * a
    dots = np.zeros(nseg)
    np.add.at(dots, seg, ga)
    return ((ga - a * dots[seg])[:, None],)


def _bw_reshape(g, vals, ps, orig_shape, want):
    return (g.reshape(orig_shape),)


_BACKWARD: dict[str, Callable] = {
    "add": _bw_add, "sub": _bw_sub, "mul": _bw_mul, "div": _bw_div,
    "smul": _bw_smul, "affine": _bw_affine, "gather": _bw_gather,
    "segsum": _bw_segsum, "gsum": _bw_gather, "concat": _bw_concat,
    "slice": _bw_slice, "silu": _bw_silu, "cnorm": _bw_cnorm,
    "dotl": _bw_dotl, "scalec": _bw_scalec, "outer": _bw_outer,
    "sumc": _bw_sumc, "suma": _bw_suma, "rbf": _bw_rbf,
    "segsoft": _bw_segsoft, "reshape": _bw_reshape,
}


# ---------------------------------------------------------------------------
# flat-vector program interface
# ---------------------------------------------------------------------------

def probe_vectors(n: int, d: int) -> np.ndarray:
    """The (d, n*d) binary probe vectors that read a block-diagonal Jacobian.

    Probe i has ones exactly at flat coordinates congruent to i modulo d
    (row-major (n, d) flattening), so each probe has n ones, probes are
    pairwise orthogonal, and they sum to the all-ones vector.
    """
    return np.tile(np.eye(d), n)


class Program:
    """A differentiable map from a flat input vector to a flat output.

    ``build(tape, x)`` receives the numeric input so it may configure
    data-dependent structure (e.g. neighbor graphs) before recording the
    tape; it returns the input leaf and the output var.  Forward values
    are cached for the subsequent reverse passes.
    """

    def __init__(self, build: Callable, n_in: int):
        self.build = build
        self.n_in = n_in
        self.tape: Tape | None = None
        self.in_var: Var | None = None
        self.out_var: Var | None = None

    @property
    def n_out(self) -> int | None:
        if self.out_var is None:
            return None
        return int(np.prod(self.out_var.shape))


def forward_eval(program: Program, x) -> np.ndarray:
    """Run the program forward, caching intermediates for reverse passes."""
    x = _as_f64(x)
    if x.size != program.n_in:
        raise ValueError(f"expected {program.n_in} inputs, got {x.size}")
    tape = Tape()
    program.tape = tape
    program.in_var, program.out_var = program.build(tape, x)
    out = program.out_var.value
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite program output")
    return out


def vjp(program: Program, cotangent) -> np.ndarray:
    """u^T J of the last forward evaluation, honoring detach markers."""
    if program.tape is None:
        raise RuntimeError("vjp called before forward_eval")
    u = _as_f64(cotangent).reshape(program.out_var.shape)
    (g,) = program.tape.vjp(program.out_var, u, [program.in_var])
    return g.reshape(-1)


def jacobian_diagonal(program: Program, probes: np.ndarray) -> np.ndarray:
    """All diagonal Jacobian entries with one reverse pass per probe.

    With p = len(probes), entry m is read from probe (m mod p)'s
    vector-Jacobian product at position m.  That is exact when the
    program's effective Jacobian (arrange it with detach markers) is
    block-diagonal in aligned p x p blocks: ``probe_vectors(n, d)`` reads
    the d x d particle blocks of the detached hollow field in d passes,
    ``probe_vectors(B, n*d)`` any field of B independent samples in n*d.
    """
    p, size = probes.shape
    if program.n_in != size:
        raise ValueError(f"probes for {size} coords, program takes {program.n_in}")
    if program.n_out != size:
        raise ValueError(f"probes for {size} coords, program returns {program.n_out}")
    diag = np.empty(size)
    for i, v in enumerate(probes):
        row = vjp(program, v)
        diag[i::p] = row[i::p]
    return diag


def full_jacobian_fd(f: Callable, x, eps: float = 1e-5) -> np.ndarray:
    """Central finite-difference Jacobian; the independent test oracle."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = _as_f64(x).reshape(-1)
    cols = []
    for b in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[b] += eps
        xm[b] -= eps
        fp = _as_f64(f(xp)).reshape(-1)
        fm = _as_f64(f(xm)).reshape(-1)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise FloatingPointError("non-finite function value in FD stencil")
        cols.append((fp - fm) / (2.0 * eps))
    return np.stack(cols, axis=1)
