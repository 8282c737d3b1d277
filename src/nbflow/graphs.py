"""Directed kNN graphs, non-backtracking line graphs, and dependence pruning.

The line graph L(G) has one node per directed edge of G and one edge per
composable pair (i,j) -> (j,k) with i != k, i.e. walks may never
immediately reverse.  Because longer cycles can still route information
back to its origin, sparse sets track which source nodes each line-graph
feature depends on; line-graph edges that would close a cycle are
deactivated before each message-passing step.  This is what keeps the
feature h_ij independent of x_j for any number of steps.  With a KD-tree
kNN and sets bounded by the receptive field, a plan costs O(n k^steps).

Graphs and line graphs are immutable after construction except for the
line graph's active-edge mask and the dependence sets, which only
``prune_and_update`` mutates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree


@dataclass
class DirectedGraph:
    """Directed edges (src[e], dst[e]) over n nodes; no self loops."""

    n: int
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self):
        self.src = np.asarray(self.src, dtype=np.intp)
        self.dst = np.asarray(self.dst, dtype=np.intp)
        if self.src.shape != self.dst.shape:
            raise ValueError("src/dst length mismatch")
        if np.any(self.src == self.dst):
            raise ValueError("self loops are prohibited")

    @property
    def n_edges(self) -> int:
        return int(self.src.size)

    def edge_set(self) -> set[tuple[int, int]]:
        return set(zip(self.src.tolist(), self.dst.tolist()))


def complete_graph(n: int) -> DirectedGraph:
    """All n(n-1) directed edges."""
    src, dst = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    keep = src != dst
    return DirectedGraph(n=n, src=src[keep], dst=dst[keep])


def _symmetrized(n, src, dst) -> tuple[np.ndarray, np.ndarray]:
    """Union of the edges and their reverses, sorted by (src, dst)."""
    code = np.unique(np.concatenate([src * n + dst, dst * n + src]))
    return code // n, code % n


def _nearest(x, rows, cand, k):
    """k nearest of each row's index-sorted candidates; k-th d2; all d2."""
    d2 = np.sum((x[rows, None, :] - x[cand]) ** 2, axis=-1)
    d2[cand == rows[:, None]] = np.inf
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    r = np.arange(rows.size)
    return cand[r[:, None], order], d2[r, order[:, -1]], d2


def build_knn_graph(positions: np.ndarray, k: int) -> DirectedGraph:
    """Symmetrized k-nearest-neighbor graph with index tie-breaking.

    Node j receives a directed edge from each of its k nearest neighbors
    (Euclidean distance); ties are broken by the smaller node index so the
    construction is deterministic.  Afterwards every edge gains its
    reverse, so degrees may exceed k but never 2k.

    For n > max(k+5, 32) a KD-tree proposes k+5 candidates per node (self
    included), else all points do.  A row whose k-th distance is not
    strictly below its farthest finite candidate (less a rounding margin)
    may tie with a non-candidate and is sorted against all n points.
    """
    x = np.asarray(positions, dtype=np.float64)
    n = x.shape[0]
    if not (1 <= k <= n - 1):
        raise ValueError(f"k={k} out of range for n={n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("positions must be finite")
    rows = np.arange(n)
    if n <= max(k + 5, 32):  # a tree rules out too few points to pay off
        nn = _nearest(x, rows, np.broadcast_to(rows, (n, n)), k)[0]
    else:
        cand = np.sort(cKDTree(x).query(x, k=k + 5)[1], axis=1)
        nn, kth, d2 = _nearest(x, rows, cand, k)
        far = np.max(d2, axis=1, where=np.isfinite(d2), initial=-np.inf)
        bad = rows[~(kth < far * (1.0 - 1e-12))]
        if bad.size:
            nn[bad] = _nearest(x, bad, np.tile(rows, (bad.size, 1)), k)[0]
    src, dst = _symmetrized(n, nn.reshape(-1), np.repeat(rows, k))
    return DirectedGraph(n=n, src=src, dst=dst)


@dataclass
class LineGraph:
    """Non-backtracking line graph of a directed graph.

    Line node e is edge e of the base graph.  Triples are stored as
    parallel arrays over line-graph edges (a,b) -> (b,c):

    - ``t_from``: line-node id of the sending edge (a,b)
    - ``t_to``:   line-node id of the receiving edge (b,c)
    - ``t_tail``: node a (origin of the sender)
    - ``t_head``: node c (target of the receiver)

    ``active`` is the mutable pruning mask over triples.
    """

    graph: DirectedGraph
    t_from: np.ndarray
    t_to: np.ndarray
    t_tail: np.ndarray
    t_head: np.ndarray
    active: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.active is None:
            self.active = np.ones(self.t_from.shape[0], dtype=bool)

    @property
    def n_nodes(self) -> int:
        return self.graph.n_edges

    @property
    def n_triples(self) -> int:
        return int(self.t_from.size)

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.active))

    def active_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        m = self.active
        return self.t_from[m], self.t_to[m]


def build_line_graph(g: DirectedGraph) -> LineGraph:
    """Enumerate all composable non-reversing edge pairs of ``g``.

    Vectorized: edges are grouped by source node, every in-edge (a,b) is
    paired with the whole out-edge block of b, and reversing pairs (c == a)
    are filtered out afterwards.
    """
    n_e = g.n_edges
    if n_e == 0:
        z = np.zeros(0, dtype=np.intp)
        return LineGraph(graph=g, t_from=z, t_to=z.copy(),
                         t_tail=z.copy(), t_head=z.copy())
    order = np.argsort(g.src, kind="stable")
    out_deg = np.bincount(g.src, minlength=g.n)
    block_start = np.concatenate([[0], np.cumsum(out_deg)])
    reps = out_deg[g.dst]
    t_from = np.repeat(np.arange(n_e, dtype=np.intp), reps)
    total = int(reps.sum())
    # position of each pair within its out-edge block
    row_start = np.concatenate([[0], np.cumsum(reps)])[:-1]
    within = np.arange(total) - np.repeat(row_start, reps)
    t_to = order[np.repeat(block_start[g.dst], reps) + within]
    keep = g.dst[t_to] != g.src[t_from]
    t_from, t_to = t_from[keep], t_to[keep]
    return LineGraph(graph=g, t_from=t_from, t_to=t_to,
                     t_tail=g.src[t_from].copy(), t_head=g.dst[t_to].copy())


class BacktrackArray:
    """Which base-graph nodes each line-graph feature depends on.

    Sparse boolean matrix ``deps`` of shape (number of line nodes, n),
    read densely through ``table``.  Entries only ever flip from 0 to 1,
    and the column of an edge's own target stays 0 at every step: that is
    the invariant pruning enforces.  A pruning round's propagation is
    made when ``deps`` is next read, so a plan's last round, whose sets
    nothing reads, costs none.
    """

    def __init__(self, deps: sp.csr_array):
        self._deps = deps
        self._senders = None  # active (t_from, t_to) of a round to propagate

    @property
    def deps(self) -> sp.csr_array:
        if self._senders is not None:  # see prune_and_update
            tf, tt = self._senders
            m = self._deps.shape[0]
            A = sp.csr_array((np.ones(tf.size, dtype=bool), (tt, tf)),
                             shape=(m, m))
            self._deps = self._deps + A @ self._deps
            self._senders = None
        return self._deps

    @property
    def table(self) -> np.ndarray:
        return self.deps.toarray()


def init_backtracking(lg: LineGraph, pd: bool) -> BacktrackArray:
    """Initial dependence sets.

    Plain mode: feature of edge (i,j) starts as an embedding of x_i, so
    only column i is set.  Pairwise-difference mode: the initial feature
    aggregates embeddings of x_k - x_i over in-neighbors k, so columns for
    all in-neighbors *and* i are set (the difference depends on both ends).
    """
    g = lg.graph
    E = g.n_edges
    if pd:  # entries as sorted keys row * n + column, duplicates dropped
        key = np.sort(np.r_[np.arange(E) * g.n + g.src,
                            lg.t_to * g.n + lg.t_tail])
        key = key[np.diff(key, prepend=-1) != 0]
        indptr, cols = np.searchsorted(key, np.arange(E + 1) * g.n), key % g.n
    else:
        indptr, cols = np.arange(E + 1), g.src
    return BacktrackArray(sp.csr_array(
        (np.ones(cols.size, dtype=bool), cols, indptr), shape=(E, g.n)))


def prune_and_update(lg: LineGraph, bt: BacktrackArray) -> tuple[int, BacktrackArray]:
    """One pruning round: deactivate closing triples, then propagate.

    A triple (a,b) -> (b,c) is deactivated when the sender's feature
    already depends on x_c, because passing that message would make the
    receiver (b,c) depend on its own target.  Each receiver then gains the
    sets of its remaining senders: deps + A deps, with A the active
    (receiver, sender) incidence, made when ``bt.deps`` is next read.
    Returns the number of triples removed.
    """
    deps = bt.deps  # the sets after the previous round
    removed = 0
    if lg.n_triples:
        close = lg.active & deps[lg.t_from, lg.t_head]
        removed = int(np.count_nonzero(close))
        lg.active &= ~close
    bt._senders = lg.active_pairs()
    return removed, bt


def connectivity_profile(g: DirectedGraph, pd: bool, steps: int) -> np.ndarray:
    """Active line-graph edge count available to each message-passing step."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    lg = build_line_graph(g)
    bt = init_backtracking(lg, pd)
    counts = np.empty(steps, dtype=np.intp)
    for t in range(steps):
        prune_and_update(lg, bt)
        counts[t] = lg.n_active
    return counts


@dataclass
class HeadPartition:
    """Length-sorted chunks of the complete edge set, one graph per head.

    ``chunk_edges`` keeps each head's slice of the sorted edge list before
    symmetrization; in non-overlapping mode these chunks partition the
    complete edge set exactly.
    """

    heads: list[DirectedGraph]
    length_ranges: list[tuple[float, float]]
    chunk_edges: list[np.ndarray] = None


def partition_multihead(positions: np.ndarray, n_heads: int,
                        overlap: int = 0) -> HeadPartition:
    """Split the complete directed edge set into heads by edge length.

    Edges are sorted by Euclidean length (ties by edge index).  With no
    overlap the sorted list is divided into ``n_heads`` consecutive chunks
    whose sizes differ by at most one, the longer chunks coming first.
    With overlap I, every chunk has ~#E/(n_heads - I) edges and the chunk
    centers are spaced evenly over the sorted list, so consecutive heads
    share edges.  Each head is symmetrized after chunking.  With more heads
    than edges the surplus heads are empty, with a NaN length range.
    """
    x = np.asarray(positions, dtype=np.float64)
    n = x.shape[0]
    if n_heads < 1:
        raise ValueError("need at least one head")
    if not (0 <= overlap < n_heads):
        raise ValueError("overlap must satisfy 0 <= I < H")
    fc = complete_graph(n)
    lengths = np.linalg.norm(x[fc.src] - x[fc.dst], axis=1)
    order = np.argsort(lengths, kind="stable")
    src_s, dst_s = fc.src[order], fc.dst[order]
    len_s = lengths[order]
    n_e = fc.n_edges

    windows: list[tuple[int, int]] = []
    if overlap == 0:
        base, rem = divmod(n_e, n_heads)
        lo = 0
        for q in range(n_heads):
            size = base + (1 if q < rem else 0)
            windows.append((lo, lo + size))
            lo += size
    else:
        base, rem = divmod(n_e, n_heads - overlap)
        sizes = [base + (1 if q < rem else 0) for q in range(n_heads)]
        sizes = [min(s, n_e) for s in sizes]
        for q in range(n_heads):
            if n_heads == 1:
                start = 0
            else:
                start = int(round(q * (n_e - sizes[q]) / (n_heads - 1)))
            windows.append((start, start + sizes[q]))

    heads, ranges, chunks = [], [], []
    for lo, hi in windows:
        s, d = src_s[lo:hi], dst_s[lo:hi]
        chunks.append(np.stack([s, d], axis=1))
        hs, hd = _symmetrized(n, s, d)
        heads.append(DirectedGraph(n=n, src=hs, dst=hd))
        ranges.append((float(len_s[lo]), float(len_s[hi - 1])) if hi > lo
                      else (np.nan, np.nan))
    return HeadPartition(heads=heads, length_ranges=ranges, chunk_edges=chunks)
