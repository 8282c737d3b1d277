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
A backward rule is ``fn(g, tape, parents, aux, want)``: ``want`` holds one
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
scalar gates broadcast as ``s[:, None, :]`` over contiguous channels.  A
sum over d or over C is one ``np.einsum`` pass into an ``out=`` buffer;
its order is einsum's, not that of ``np.sum`` on another layout, so each
sum is within the usual rounding bound of the exact one (the tests check
it against ``math.fsum``).  Outputs are deterministic from run to run and
bitwise the same with and without a pool.

Ops, rules and ``Tape.vjp``'s cotangent sums write into ``tape.empty``
buffers: ``np.empty`` on a tape without an arena, else buffers of the
process-wide pool ``POOL`` (an ``Arena``), on which sampling
(``flow.field_and_divergence``) and CFM training (``training``) record
their tapes.  Every new tape on the pool rewinds it, which takes back all
its buffers and invalidates the tapes recorded on it before (``vjp`` on
one raises).  A reverse pass counts the cotangents on each array (a view
holds its base): it adds in place into an array that one cotangent alone
holds, and gives a pool buffer (a cotangent or an unreturned rule
temporary) back once nothing holds it.  A tape's last pass
(``vjp(..., consume=True)``, training's only one) also gives back each
forward value once the pass is below its node, since only nodes >= i
read ``vals[i]``; the tape is spent after it.  Pool memory never
escapes: ``forward_eval`` and ``Tape.vjp`` return copies.  The pool keeps
the largest set of buffers one operation needed until the process exits,
and it assumes one thread.  Arrays under 128 KiB and scatter-adds stay
fresh arrays.

Pass and visit counters live on the tape so callers can assert exact
backward-pass counts.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import expit

NORM_EPS = 1e-12  # smoothing inside sqrt so unit vectors are defined at 0
_TERMINAL = ("leaf", "const", "detach")  # kinds that pass no cotangent on


def _as_f64(x):
    return np.asarray(x, dtype=np.float64)


class Arena:
    """A pool of flat float64 buffers.  ``empty`` hands out the smallest
    free buffer that fits, as a view of the asked shape; with none, it makes
    one an eighth larger than asked, which replaces the largest free buffer
    (too small) if there is one.  ``give`` takes a buffer back, ``rewind``
    takes back all of them.  ``log`` lists the buffers handed out since a
    tape last read it."""

    __slots__ = ("bufs", "free", "log", "epoch")
    small = 16384  # float64s in 128 KiB, glibc's default mmap threshold

    def __init__(self):
        self.bufs: dict[int, np.ndarray] = {}  # id -> every buffer it owns
        self.free: list[np.ndarray] = []  # sorted by size
        self.log: list[np.ndarray] = []
        self.epoch = 0

    def empty(self, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        if size < self.small:  # malloc reuses its heap with no page faults
            return np.empty(shape)
        k = bisect.bisect_left(self.free, size, key=len)
        if k < len(self.free):
            buf = self.free.pop(k)
        else:
            if self.free:
                del self.bufs[id(self.free.pop())]
            buf = np.empty(size + size // 8)
            self.bufs[id(buf)] = buf
        self.log.append(buf)
        return buf[:size].reshape(shape)

    def give(self, buf: np.ndarray):
        bisect.insort(self.free, buf, key=len)

    def rewind(self):
        self.free = sorted(self.bufs.values(), key=len)
        self.log.clear()
        self.epoch += 1


POOL = Arena()  # the one pool of the process (see the module docstring)


def _base(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory (numpy collapses chains of views)."""
    return a if a.base is None else a.base


class Tape:
    """Eager record of array operations supporting vector-Jacobian products."""

    __slots__ = ("kinds", "parents", "aux", "vals", "owned", "n_reverse_visits",
                 "n_reverse_passes", "_marks", "arena", "epoch", "log",
                 "spent", "empty")

    def __init__(self, arena: Arena | None = None):
        if arena is not None:
            arena.rewind()
        self.arena, self.epoch = arena, arena and arena.epoch
        self.log = [] if arena is None else arena.log
        self.empty = np.empty if arena is None else arena.empty
        self.kinds: list[str] = []
        self.parents: list[tuple[int, ...]] = []
        self.aux: list = []
        self.vals: list[np.ndarray] = []
        self.owned: list[tuple] = []  # per node: the arena buffers it made
        self.n_reverse_visits = 0
        self.n_reverse_passes = 0
        self.spent = False
        self._marks = None  # ((out, wrt ids), marks, wants) of the last vjp

    def ufunc(self, f, *args) -> np.ndarray:
        """f(*args) written into a buffer from ``empty``."""
        return f(*args, out=self.empty(np.broadcast(*args).shape))

    def __len__(self):
        return len(self.kinds)

    def _push(self, kind, parents, aux, value) -> "Var":
        self.kinds.append(kind)
        self.parents.append(parents)
        self.aux.append(aux)
        self.vals.append(value)
        self.owned.append(tuple(self.log))
        self.log.clear()
        return Var(self, len(self.kinds) - 1)

    def leaf(self, value) -> "Var":
        """Differentiable input or parameter node."""
        return self._push("leaf", (), None, _as_f64(value))

    def const(self, value) -> "Var":
        """Node that never receives a gradient (labels, time features)."""
        return self._push("const", (), None, _as_f64(value))

    def vjp(self, out: "Var", cotangent, wrt: list["Var"],
            consume: bool = False) -> list[np.ndarray]:
        """Propagate ``cotangent`` from ``out`` back to the ``wrt`` leaves.

        Returns one gradient array per entry of ``wrt`` (zeros when the
        output does not depend on that leaf).  Counts one reverse pass.
        With ``consume`` it is the tape's last pass: forward values are
        freed as the pass goes, and a later ``vjp`` raises.
        """
        if out.tape is not self:
            raise ValueError("output var belongs to a different tape")
        self.check_live()
        arena = self.arena
        g = np.array(cotangent, dtype=np.float64)  # a copy: never pool memory
        if g.shape != self.vals[out.i].shape:
            raise ValueError(
                f"cotangent shape {g.shape} != output shape {self.vals[out.i].shape}")
        self.n_reverse_passes += 1
        targets = frozenset(v.i for v in wrt)
        shapes = [self.vals[v.i].shape for v in wrt]
        marked, wants = self._mark(out.i, targets)
        if consume:
            self.spent = True
            for i in range(out.i + 1, len(self.kinds)):
                self._release(i)
        grads: list = [None] * len(self.kinds)
        if marked[out.i]:
            grads[out.i] = g
        log, bufs = self.log, arena.bufs if arena else {}
        log.clear()
        # every cotangent is this pass's own array or a view of one; they
        # are counted per base array (id -> count, id -> the array)
        count: dict[int, int] = {id(g): 1}
        base: dict[int, np.ndarray] = {id(g): g}
        kinds, parents, auxs, visits, dead = self.kinds, self.parents, self.aux, 0, []
        for i in range(out.i, -1, -1):
            gi = grads[i]
            if gi is not None:
                visits += 1
                kind = kinds[i]
                if kind not in _TERMINAL:
                    dead.clear()
                    if i not in targets:
                        grads[i] = None
                        dead.append(gi)
                    ps = parents[i]
                    contribs = _BACKWARD[kind](gi, self, ps, auxs[i], wants[i])
                    for p, gp in zip(ps, contribs):
                        if gp is None:
                            continue
                        gq = grads[p]
                        if gq is not None:
                            k = id(_base(gq))
                            if count[k] == 1 and base[k] is not _base(gp) \
                                    and isinstance(gq, np.ndarray):
                                np.add(gq, gp, out=gq)  # gq's buffer is its alone
                                continue
                            gp = self.ufunc(np.add, gq, gp)
                            dead.append(gq)
                        grads[p] = gp
                        b = _base(gp)
                        if id(b) in count:
                            count[id(b)] += 1
                        else:
                            count[id(b)], base[id(b)] = 1, b
                    for b in log:  # pool buffers the rule took for temporaries
                        if id(b) not in count:
                            arena.give(b)
                    log.clear()
                    for a in dead:  # cotangents that are gone
                        k = id(_base(a))
                        count[k] -= 1
                        if not count[k]:
                            del count[k]
                            b = base.pop(k)
                            if k in bufs:
                                arena.give(b)
            if consume:
                self._release(i)
        self.n_reverse_visits += visits
        result = [np.zeros(shape) if grads[v.i] is None else grads[v.i].copy()
                  for v, shape in zip(wrt, shapes)]
        for k, b in base.items():
            if k in bufs:
                arena.give(b)
        return result

    def check_live(self):
        """Raise unless the tape still has its values."""
        if self.spent:
            raise RuntimeError("the tape was consumed by its last reverse pass")
        if self.arena and self.arena.epoch != self.epoch:
            raise RuntimeError("the tape's arena was rewound; its values are gone")

    def _release(self, i: int):
        """Free node i's value and aux: no node below i reads them."""
        for b in self.owned[i]:
            self.arena.give(b)
        self.vals[i] = self.aux[i] = self.owned[i] = None

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
            other = self.tape.const(float(other))
        return _binary("mul", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary("div", self, other)

    def __neg__(self):
        return self * -1.0


def _binary(kind, a: Var, b: Var) -> Var:
    if a.tape is not b.tape:
        raise ValueError("operands live on different tapes")
    return a.tape._push(kind, (a.i, b.i), None,
                        a.tape.ufunc(_UFUNCS[kind], a.value, b.value))


_UFUNCS = dict(add=np.add, sub=np.subtract, mul=np.multiply, div=np.divide)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape of the broadcast operand."""
    if g.shape == shape:
        return g
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
    k order, so each segment adds its rows onto zero in k order: bitwise the
    sums that ``numpy.add.at`` makes of ``a[cols]`` on a zero array.
    """

    __slots__ = ("idx", "n", "cols", "_m")

    def __init__(self, idx: np.ndarray, n: int, cols: np.ndarray | None = None):
        self.idx, self.n, self.cols, self._m = idx, n, cols, None

    def _matrix(self, n_rows: int):
        if self._m is None:
            order = np.argsort(self.idx, kind="stable")
            indptr = np.r_[0, np.bincount(self.idx, minlength=self.n).cumsum()]
            cols = order if self.cols is None else self.cols[order]
            self._m = csr_matrix((np.ones(len(order)), cols, indptr),
                                 shape=(self.n, n_rows))
        return self._m

    def __call__(self, a: np.ndarray) -> np.ndarray:
        rows = a.reshape(len(a), math.prod(a.shape[1:]))
        return (self._matrix(len(a)) @ rows).reshape((self.n,) + a.shape[1:])

    def max(self, col: np.ndarray) -> np.ndarray:
        """Each segment's maximum of ``col`` (-inf when empty): the values
        of ``numpy.maximum.at`` on a -inf array, though a zero's sign may
        differ (numpy reduces in blocks), which ``exp(col - max)`` hides."""
        m = self._matrix(len(col))
        out = np.full(self.n, -np.inf)
        full = np.diff(m.indptr) > 0
        if full.any():
            out[full] = np.maximum.reduceat(col[m.indices], m.indptr[:-1][full])
        return out


def affine(x: Var, W: Var, b: Var) -> Var:
    """x @ W + b as one node; the product alone is never stored."""
    v = np.matmul(x.value, W.value, out=x.tape.empty(x.shape[:-1] + W.shape[1:]))
    v += b.value
    return x.tape._push("affine", (x.i, W.i, b.i), None, v)


def _take(tape: Tape, a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """a[idx] for in-range idx (under mode="raise", np.take buffers out)."""
    return np.take(a, idx, axis=0, mode="clip",
                   out=tape.empty(idx.shape + a.shape[1:]))


def gather(a: Var, idx: np.ndarray) -> Var:
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and not 0 <= idx.min() <= idx.max() < len(a.value):
        raise IndexError(f"gather index out of range for {len(a.value)} rows")
    return a.tape._push("gather", (a.i,), _Scatter(idx, len(a.value)),
                        _take(a.tape, a.value, idx))


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
    shape = vs[0].shape[:axis] + (sum(sizes),) + vs[0].shape[axis + 1:]
    val = np.concatenate([v.value for v in vs], axis=axis, out=tape.empty(shape))
    return tape._push("concat", tuple(v.i for v in vs), (axis, sizes), val)


def slice_cols(a: Var, j0: int, j1: int) -> Var:
    return a.tape._push("slice", (a.i,), (j0, j1), a.value[:, j0:j1])


def silu(a: Var) -> Var:
    x, s = a.value, a.tape.empty(a.shape)
    expit(x, out=s)  # the sigmoid, kept for the rule
    return a.tape._push("silu", (a.i,), s, a.tape.ufunc(np.multiply, x, s))


def _dsum(tape: Tape, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[:, k] * b[:, k]: (R, d, C) x (R, d, C) -> (R, C), one pass."""
    return np.einsum("rkc,rkc->rc", a, b,
                     out=tape.empty((a.shape[0], a.shape[2])))


def channel_norm(a: Var) -> Var:
    """sqrt(sum over d of a^2 + eps), smooth at 0: (R, d, C) -> (R, C); an
    (R, d) array is one channel and gives (R, 1)."""
    x = a.value if a.value.ndim == 3 else a.value[:, :, None]
    v = _dsum(a.tape, x, x)
    v += NORM_EPS
    np.sqrt(v, out=v)
    return a.tape._push("cnorm", (a.i,), v, v)


def dot_last(a: Var, b: Var) -> Var:
    """Channel-wise inner product over d: (R, d, C) x (R, d, C) -> (R, C)."""
    return a.tape._push("dotl", (a.i, b.i), None, _dsum(a.tape, a.value, b.value))


def scale_channels(v: Var, s: Var) -> Var:
    """v[r, :, c] * s[r, c] (or s[r, 0] broadcast across channels)."""
    return v.tape._push("scalec", (v.i, s.i), None, v.tape.ufunc(
        np.multiply, v.value, s.value[:, None, :]))


def outer_rows(s: Var, u: Var) -> Var:
    """(R, C) x (R, d) -> (R, d, C) per-row outer product."""
    return s.tape._push("outer", (s.i, u.i), None, s.tape.ufunc(
        np.multiply, u.value[:, :, None], s.value[:, None, :]))


def gated_sum(v: Var, s: Var) -> Var:
    """sum_c v[r, k, c] * s[r, c]: (R, d, C) x (R, C) -> (R, d), one pass,
    with no (R, d, C) product stored."""
    return v.tape._push("gated", (v.i, s.i), None, np.einsum(
        "rkc,rc->rk", v.value, s.value, out=v.tape.empty(v.shape[:2])))


def sum_all(a: Var) -> Var:
    return a.tape._push("suma", (a.i,), a.value.shape,
                        np.asarray(np.sum(a.value)))


def gauss_rbf(r: Var, centers: np.ndarray, gamma: float) -> Var:
    """Gaussian radial basis expansion of a (R,1) distance column."""
    centers = _as_f64(centers)
    val = r.tape.ufunc(np.subtract, r.value, centers)
    np.exp(np.multiply(-gamma, np.square(val, out=val), out=val), out=val)
    return r.tape._push("rbf", (r.i,), (centers, gamma, val), val)


def segment_softmax(y: Var, seg: np.ndarray, num_segments: int) -> Var:
    """Softmax of a (R,1) score column within each segment.

    Segments with a single member get exactly 1.0; empty segments simply
    have no rows.
    """
    seg = np.asarray(seg, dtype=np.intp)
    col = y.value[:, 0]
    sc = _Scatter(seg, num_segments)
    e = np.exp(col - sc.max(col)[seg])
    alpha = e / sc(e)[seg]
    return y.tape._push("segsoft", (y.i,), (sc, alpha), alpha[:, None])


def detach(a: Var) -> Var:
    """Identity in value; gradients stop here."""
    return a.tape._push("detach", (a.i,), None, a.value)


def reshape(a: Var, shape) -> Var:
    return a.tape._push("reshape", (a.i,), a.value.shape,
                        a.value.reshape(shape))


# backward rules: fn(g, tape, parents, aux, want) -> per-parent gradients
# (values in tape.vals, buffers from tape.empty), None for a parent whose
# ``want`` is False (see the module docstring)

def _bw_add(g, tape, ps, aux, want):
    return (_unbroadcast(g, tape.vals[ps[0]].shape) if want[0] else None,
            _unbroadcast(g, tape.vals[ps[1]].shape) if want[1] else None)


def _bw_sub(g, tape, ps, aux, want):
    return (_unbroadcast(g, tape.vals[ps[0]].shape) if want[0] else None,
            _unbroadcast(tape.ufunc(np.negative, g), tape.vals[ps[1]].shape)
            if want[1] else None)


def _bw_mul(g, tape, ps, aux, want):
    a, b = tape.vals[ps[0]], tape.vals[ps[1]]
    return (_unbroadcast(tape.ufunc(np.multiply, g, b), a.shape) if want[0] else None,
            _unbroadcast(tape.ufunc(np.multiply, g, a), b.shape) if want[1] else None)


def _bw_div(g, tape, ps, aux, want):
    a, b = tape.vals[ps[0]], tape.vals[ps[1]]
    if want[1]:
        t = tape.ufunc(np.negative, g)
        t *= a
        t /= b * b
    return (_unbroadcast(tape.ufunc(np.divide, g, b), a.shape) if want[0] else None,
            _unbroadcast(t, b.shape) if want[1] else None)


def _bw_affine(g, tape, ps, aux, want):
    vals = tape.vals
    x, W, b = vals[ps[0]], vals[ps[1]], vals[ps[2]]
    return (np.matmul(g, W.T, out=tape.empty(g.shape[:-1] + W.shape[:1]))
            if want[0] else None,
            np.matmul(x.T, g, out=tape.empty(W.shape)) if want[1] else None,
            _unbroadcast(g, b.shape) if want[2] else None)


def _bw_gather(g, tape, ps, sc, want):  # also gsum's, with sc = M^T
    return (sc(g),)


def _bw_segsum(g, tape, ps, sc, want):  # sc.idx was checked by its forward
    return (_take(tape, g, sc.idx),)


def _bw_concat(g, tape, ps, aux, want):
    axis, sizes = aux
    lead, parts, j = (slice(None),) * axis, [], 0
    for size, w in zip(sizes, want):  # views of g
        parts.append(g[lead + (slice(j, j + size),)] if w else None)
        j += size
    return parts


def _bw_slice(g, tape, ps, aux, want):
    j0, j1 = aux
    out = tape.empty(tape.vals[ps[0]].shape)
    out[:, :j0] = out[:, j1:] = 0.0
    out[:, j0:j1] = g
    return (out,)


def _bw_silu(g, tape, ps, s, want):
    # g * (s * (1 + x * (1 - s))) on one buffer
    t = tape.ufunc(np.subtract, 1.0, s)
    t *= tape.vals[ps[0]]
    t += 1.0
    t *= s
    t *= g
    return (t,)


def _bw_cnorm(g, tape, ps, n, want):
    a = tape.vals[ps[0]]
    t = tape.ufunc(np.multiply, g[:, None, :], a if a.ndim == 3 else a[:, :, None])
    t /= n[:, None, :]
    return (t.reshape(a.shape),)


def _bw_dotl(g, tape, ps, aux, want):
    a, b = tape.vals[ps[0]], tape.vals[ps[1]]
    return (tape.ufunc(np.multiply, g[:, None, :], b) if want[0] else None,
            tape.ufunc(np.multiply, g[:, None, :], a) if want[1] else None)


def _bw_scalec(g, tape, ps, aux, want):
    v, s = tape.vals[ps[0]], tape.vals[ps[1]]
    return (tape.ufunc(np.multiply, g, s[:, None, :]) if want[0] else None,
            _unbroadcast(_dsum(tape, g, v), s.shape) if want[1] else None)


def _bw_outer(g, tape, ps, aux, want):
    s, u = tape.vals[ps[0]], tape.vals[ps[1]]
    return (_dsum(tape, g, u[:, :, None]) if want[0] else None,
            np.einsum("rkc,rc->rk", g, s, out=tape.empty(u.shape))
            if want[1] else None)


def _bw_gated(g, tape, ps, aux, want):
    v, s = tape.vals[ps[0]], tape.vals[ps[1]]
    return (tape.ufunc(np.multiply, g[:, :, None], s[:, None, :])
            if want[0] else None,
            np.einsum("rk,rkc->rc", g, v, out=tape.empty(s.shape))
            if want[1] else None)


def _bw_suma(g, tape, ps, shape, want):
    return (np.positive(float(g), out=tape.empty(shape)),)


def _bw_rbf(g, tape, ps, aux, want):
    centers, gamma, val = aux
    r = tape.vals[ps[0]]
    t = tape.ufunc(np.multiply, g, val)
    t *= -2.0 * gamma
    t *= tape.ufunc(np.subtract, r, centers)
    return (np.sum(t, axis=1, keepdims=True, out=tape.empty(r.shape)),)


def _bw_segsoft(g, tape, ps, aux, want):
    sc, a = aux
    ga = g[:, 0] * a
    return ((ga - a * sc(ga)[sc.idx])[:, None],)


def _bw_reshape(g, tape, ps, orig_shape, want):
    return (g.reshape(orig_shape),)


_BACKWARD: dict[str, Callable] = {
    "add": _bw_add, "sub": _bw_sub, "mul": _bw_mul, "div": _bw_div,
    "affine": _bw_affine, "gather": _bw_gather,
    "segsum": _bw_segsum, "gsum": _bw_gather, "concat": _bw_concat,
    "slice": _bw_slice, "silu": _bw_silu, "cnorm": _bw_cnorm,
    "dotl": _bw_dotl, "scalec": _bw_scalec, "outer": _bw_outer,
    "gated": _bw_gated, "suma": _bw_suma, "rbf": _bw_rbf,
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
        self.arena: Arena | None = None  # its tapes' arena (POOL), if any
        self.tape: Tape | None = None
        self.in_var: Var | None = None
        self.out_var: Var | None = None

    @property
    def n_out(self) -> int | None:
        if self.out_var is None:
            return None
        return int(np.prod(self.out_var.shape))


def forward_eval(program: Program, x) -> np.ndarray:
    """Run the program forward, caching intermediates for reverse passes.

    With an arena, every earlier tape on it is invalid from here on."""
    x = _as_f64(x)
    if x.size != program.n_in:
        raise ValueError(f"expected {program.n_in} inputs, got {x.size}")
    tape = Tape(program.arena)
    program.tape = tape
    program.in_var, program.out_var = program.build(tape, x)
    out = program.out_var.value
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite program output")
    return out.copy()


def vjp(program: Program, cotangent) -> np.ndarray:
    """u^T J of the last forward evaluation, honoring detach markers."""
    if program.tape is None:
        raise RuntimeError("vjp called before forward_eval")
    program.tape.check_live()
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
