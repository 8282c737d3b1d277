"""Equivariant message-passing vector fields with a block-hollow Jacobian.

The field b(x, t) maps n points in R^d (plus integer type labels and a flow
time) to n velocity vectors.  Features on every edge (i,j) are computed by
message passing on the non-backtracking line graph with dependence-driven
pruning, so the edge feature never depends on the position of its own
target j.  The readout combines that "conditioner" feature with a
"transformer" input: x_j's embedding, or with ``pairwise_diff`` the
embedding of x_i - x_j, whose x_i gradient the detached program drops.
Consequently the Jacobian of b splits into a block-hollow part (vanishing
d x d diagonal blocks) and a block-diagonal part (the transformer's x_j
gradient), and the full Jacobian diagonal is recoverable with d backward
passes after detaching the conditioner.

Feature scheme: each entity carries an invariant channel s in R^{n_h} and
an equivariant channel v of n_h vectors in R^d.  Scalars see norms, inner
products and type embeddings; vectors are only ever gated by scalars and
added, which keeps rotation equivariance exact by construction.  The tape
stores v as (R, d, C) (see ``autodiff`` for how it sums them);
``embed_features`` and ``message_step`` take and return (R, C, d).

A conventional GNN on the base graph (``baseline=True``) with the same
feature families is included for comparisons; its divergence genuinely
needs n*d backward passes.

Batches are handled as disjoint unions: per-sample graphs are built
independently and concatenated with index offsets, so one tape evaluates
the whole batch.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import (Segments, Tape, Var, affine, channel_norm, detach,
                       dot_last, gated_sum, gather, gather_sum, gauss_rbf,
                       outer_rows, scale_channels, segment_softmax,
                       segment_sum, silu, slice_cols)
from . import graphs as gt
from .config import check

N_TIME_FEATURES = 2  # sin/cos of 2*pi*t appended to message/update/readout inputs


@dataclass
class ArchConfig:
    """Architecture and graph-construction configuration.

    Exactly one of ``knn_k`` and ``heads`` must be set for the hollow
    model; a baseline may leave both unset to run fully connected.
    ``unique_nodes`` > 0 appends a one-hot of the node identity to the
    embedding input (breaking permutation equivariance); its value must
    equal the number of particles.  ``prune=False`` disables line-graph
    edge removal and exists only for control experiments: with it the
    non-backtracking guarantee fails beyond girth-limited depth.
    """

    n_hidden: int = 16
    n_rbf: int = 8
    rbf_cutoff: float = 5.0
    n_types: int = 1
    steps: int = 2
    pairwise_diff: bool = False
    attention: str | None = None  # None | "product" | "softmax"
    unique_nodes: int = 0
    knn_k: int | None = None
    heads: int | None = None
    overlap: int = 0
    baseline: bool = False
    prune: bool = True
    seed: int = 0

    def validate(self):
        """Check every field; an error message starts with the field's name."""
        check("model", vars(self))
        if self.baseline and self.heads is not None:
            raise ValueError("heads must be unset on a baseline")
        if self.baseline and self.attention is not None:
            raise ValueError("attention must be unset on a baseline")
        if not self.baseline and (self.knn_k is None) == (self.heads is None):
            raise ValueError("knn_k: set exactly one of knn_k and heads")
        if self.heads is not None and self.overlap >= self.heads:
            raise ValueError(f"overlap must be below heads={self.heads}, "
                             f"got {self.overlap}")
        return self

    @property
    def n_heads(self) -> int:
        """Base graphs per sample."""
        return self.heads if (self.heads and not self.baseline) else 1

    @property
    def rbf_gamma(self) -> float:
        width = self.rbf_cutoff / max(self.n_rbf - 1, 1)
        return 0.5 / width**2

    @property
    def rbf_centers(self) -> np.ndarray:
        return np.linspace(0.0, self.rbf_cutoff, self.n_rbf)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ArchConfig":
        check("model", d)
        return cls(**d).validate()


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def _mlp_shapes(n_in, n_hidden, n_out, name):
    return [(f"{name}.W1", (n_in, n_hidden)), (f"{name}.b1", (n_hidden,)),
            (f"{name}.Wo", (n_hidden, n_out)), (f"{name}.bo", (n_out,))]


def _fmap_shapes(nh, name):
    return [(f"{name}.W1", (2 * nh, nh)), (f"{name}.b1", (nh,)),
            (f"{name}.Ws", (nh, nh)), (f"{name}.bs", (nh,)),
            (f"{name}.Wg", (nh, nh)), (f"{name}.bg", (nh,))]


def param_shapes(cfg: ArchConfig) -> list[tuple[str, tuple]]:
    """Ordered (name, shape) pairs; this order defines the checkpoint blob."""
    nh = cfg.n_hidden
    nt = N_TIME_FEATURES
    f_in = cfg.n_rbf + cfg.n_types + (cfg.unique_nodes if cfg.unique_nodes else 0)
    shapes = [("embed.W1", (f_in, nh)), ("embed.b1", (nh,)),
              ("embed.W2", (nh, nh)), ("embed.b2", (nh,)),
              ("embed.Wg", (nh, nh)), ("embed.bg", (nh,))]
    if cfg.pairwise_diff:
        shapes += _fmap_shapes(nh, "init_phi") + _fmap_shapes(nh, "init_psi")
    if cfg.attention is None:
        shapes += _mlp_shapes(3 * nh + nt, nh, 3 * nh, "msg")
    elif cfg.attention == "product":
        shapes += _mlp_shapes(3 * nh + nt, nh, 1, "att")
        shapes += _fmap_shapes(nh, "vfeat")
    else:
        shapes += _mlp_shapes(3 * nh + nt, nh, 1, "att")
        shapes += _mlp_shapes(nh + nt, nh, 2 * nh, "attval")
    shapes += _mlp_shapes(3 * nh + nt, nh, 2 * nh, "upd")
    shapes += _mlp_shapes(3 * nh + nt, nh, 2 * nh, "read")
    return shapes


def init_params(cfg: ArchConfig, seed: int | None = None) -> dict[str, np.ndarray]:
    cfg.validate()
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    params = {}
    for name, shape in param_shapes(cfg):
        if name.endswith((".b1", ".bo", ".bs", ".bg", ".b2")):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
    return params


def zero_params(cfg: ArchConfig) -> dict[str, np.ndarray]:
    """All-zero weights; the resulting field is identically zero."""
    return {name: np.zeros(shape) for name, shape in param_shapes(cfg)}


def param_vars(tape: Tape, params: dict[str, np.ndarray]) -> dict[str, Var]:
    return {name: tape.leaf(a) for name, a in params.items()}


def save_checkpoint(prefix, params: dict, cfg: ArchConfig, seed: int = 0,
                    extra: dict | None = None) -> Path:
    """JSON manifest + little-endian float64 blob of weights in manifest order."""
    prefix = Path(prefix)
    names = [n for n, _ in param_shapes(cfg)]
    manifest = {
        "config": cfg.to_dict(),
        "seed": seed,
        "arrays": [{"name": n, "shape": list(params[n].shape)} for n in names],
        "dtype": "<f8",
    }
    if extra:
        manifest["extra"] = extra
    prefix.parent.mkdir(parents=True, exist_ok=True)
    with open(prefix.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    blob = np.concatenate([params[n].astype("<f8").reshape(-1) for n in names]) \
        if names else np.zeros(0, dtype="<f8")
    blob.astype("<f8").tofile(prefix.with_suffix(".bin"))
    return prefix.with_suffix(".json")


def load_checkpoint(prefix) -> tuple[dict[str, np.ndarray], ArchConfig, dict]:
    prefix = Path(prefix)
    with open(prefix.with_suffix(".json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for key, kind in (("config", dict), ("arrays", list), ("dtype", str)):
        if not isinstance(manifest, dict) \
                or not isinstance(manifest.get(key), kind):
            raise ValueError(f"checkpoint manifest needs {key!r}, a JSON "
                             f"{kind.__name__}")
    if manifest["dtype"] != "<f8":
        raise ValueError(f"checkpoint dtype is {manifest['dtype']!r}, not '<f8'")
    cfg = ArchConfig.from_dict(manifest["config"])
    expected = dict(param_shapes(cfg))
    found = {rec.get("name"): tuple(rec.get("shape", ()))
             for rec in manifest["arrays"]}
    for name in [*expected, *found]:  # shape None: the array is absent
        if found.get(name) != expected.get(name):
            raise ValueError(f"checkpoint array {name!r} has shape "
                             f"{found.get(name)}, expected {expected.get(name)}")
    blob = np.fromfile(prefix.with_suffix(".bin"), dtype="<f8")
    params = {}
    off = 0
    for name, shape in found.items():
        size = int(np.prod(shape))
        if off + size > blob.size:
            raise ValueError(f"checkpoint array {name!r} runs past the end of "
                             f"the blob ({blob.size} floats)")
        params[name] = blob[off:off + size].reshape(shape).astype(np.float64)
        if not np.all(np.isfinite(params[name])):
            raise ValueError(f"checkpoint array {name!r} has non-finite entries")
        off += size
    if off != blob.size:
        raise ValueError("checkpoint blob size does not match manifest")
    return params, cfg, manifest


# ---------------------------------------------------------------------------
# graph plans: pure index bookkeeping done before any tape is recorded
# ---------------------------------------------------------------------------

@dataclass
class HeadPlan:
    src: Segments  # over the B*n nodes, as dst; the rest are over the edges
    dst: Segments
    edge_sample: np.ndarray
    step_pairs: list[tuple[Segments, Segments]]  # active (t_from, t_to) per round
    init_from: Segments  # unpruned triples, for the pairwise-diff init
    init_to: Segments


@dataclass
class ForwardPlan:
    n_total: int
    n_per_sample: int
    node_sample: np.ndarray
    heads: list[HeadPlan]


def sample_graphs(x: np.ndarray, cfg: ArchConfig) -> list[gt.DirectedGraph]:
    """Per-head base graphs for one configuration of n points."""
    n = x.shape[0]
    if n == 1:
        empty = gt.DirectedGraph(n=1, src=np.zeros(0, dtype=np.intp),
                                 dst=np.zeros(0, dtype=np.intp))
        return [empty] * cfg.n_heads
    if cfg.knn_k is not None:
        return [gt.build_knn_graph(x, cfg.knn_k)]
    if cfg.baseline:
        return [gt.complete_graph(n)]
    return gt.partition_multihead(x, cfg.heads, cfg.overlap).heads


def make_plan(xs: np.ndarray, cfg: ArchConfig,
              graph_override: list[list[gt.DirectedGraph]] | None = None
              ) -> ForwardPlan:
    """Union-of-samples message plan, including the pruning schedule.

    ``xs`` has shape (B, n, d).  Each head's per-sample graphs are joined
    into one graph over the B*n nodes (sample s owns nodes s*n..s*n+n-1),
    so a head needs one line graph and one pruning schedule, whose triples
    come out in per-sample order.  ``graph_override`` (one list of head
    graphs per sample) bypasses geometric construction; tests use it to
    inject hand-built topologies; each of its graphs must be over the
    sample's n nodes, with every edge end in 0..n-1, or nodes of the next
    sample would join it.
    """
    xs = np.asarray(xs, dtype=np.float64)
    B, n, _ = xs.shape
    if graph_override is None:
        per_sample = [sample_graphs(xs[s], cfg) for s in range(B)]
    else:
        per_sample = graph_override
        if len(per_sample) != B:
            raise ValueError(f"graph_override has {len(per_sample)} samples, "
                             f"the batch has {B}")
        for s, head_graphs in enumerate(per_sample):
            if len(head_graphs) != cfg.n_heads:
                raise ValueError(f"graph_override sample {s} has "
                                 f"{len(head_graphs)} head graphs, expected "
                                 f"{cfg.n_heads}")
            for h, g in enumerate(head_graphs):
                if g.n != n:
                    raise ValueError(f"graph_override sample {s} head {h} is "
                                     f"a graph over {g.n} nodes, the sample "
                                     f"has {n}")
                ends = np.concatenate([g.src, g.dst])
                if ends.size and not 0 <= ends.min() <= ends.max() < n:
                    raise ValueError(f"graph_override sample {s} head {h} "
                                     f"has an edge end outside 0..{n - 1}")
    heads = []
    for head_graphs in zip(*per_sample):
        counts = [g.n_edges for g in head_graphs]
        off = np.repeat(np.arange(B) * n, counts)
        union = gt.DirectedGraph(
            n=B * n, src=np.concatenate([g.src for g in head_graphs]) + off,
            dst=np.concatenate([g.dst for g in head_graphs]) + off)
        E = union.n_edges
        step_pairs = []
        init_from = init_to = Segments(np.zeros(0), E)
        if not cfg.baseline:
            lg = gt.build_line_graph(union)
            bt = gt.init_backtracking(lg, cfg.pairwise_diff)
            init_from, init_to = Segments(lg.t_from, E), Segments(lg.t_to, E)
            for _ in range(cfg.steps):
                if cfg.prune:
                    gt.prune_and_update(lg, bt)
                step_pairs.append(tuple(Segments(p, E)
                                        for p in lg.active_pairs()))
        heads.append(HeadPlan(
            src=Segments(union.src, B * n), dst=Segments(union.dst, B * n),
            edge_sample=np.repeat(np.arange(B), counts),
            step_pairs=step_pairs, init_from=init_from, init_to=init_to))
    return ForwardPlan(n_total=B * n, n_per_sample=n,
                       node_sample=np.repeat(np.arange(B), n), heads=heads)


# ---------------------------------------------------------------------------
# tape builders
# ---------------------------------------------------------------------------

def _mlp(pv, name, parts: list[Var]) -> Var:
    """silu(x @ W1 + b1) @ Wo + bo of x, the parts side by side."""
    h = silu(affine(parts, pv[f"{name}.W1"], pv[f"{name}.b1"]))
    return affine([h], pv[f"{name}.Wo"], pv[f"{name}.bo"])


def _feature_map(pv, name, s: Var, v: Var) -> tuple[Var, Var]:
    h = silu(affine([s, channel_norm(v)], pv[f"{name}.W1"], pv[f"{name}.b1"]))
    s2 = affine([h], pv[f"{name}.Ws"], pv[f"{name}.bs"])
    g = affine([h], pv[f"{name}.Wg"], pv[f"{name}.bg"])
    return s2, scale_channels(v, g)


def _embed(tape, pv, cfg: ArchConfig, delta: Var, z_rows: np.ndarray,
           local_ids: np.ndarray | None) -> tuple[Var, Var]:
    """Invariant/equivariant embedding of a displacement (or position).

    s comes from radial basis features of the length plus label one-hots
    through a two-layer net; v is a per-channel gate of the smoothed unit
    vector, so a zero input yields exactly zero vector channels.
    """
    r = channel_norm(delta)
    unit = delta / r
    feats = [gauss_rbf(r, cfg.rbf_centers, cfg.rbf_gamma),
             tape.const(np.eye(cfg.n_types)[np.asarray(z_rows, dtype=int)])]
    if cfg.unique_nodes:
        feats.append(tape.const(np.eye(cfg.unique_nodes)[local_ids]))
    h = silu(affine(feats, pv["embed.W1"], pv["embed.b1"]))
    s = affine([h], pv["embed.W2"], pv["embed.b2"])
    g = affine([s], pv["embed.Wg"], pv["embed.bg"])
    return s, outer_rows(g, unit)


def _blocks(z: Var, nh: int) -> list[Var]:
    """z's columns in consecutive blocks of nh."""
    return [slice_cols(z, j, j + nh) for j in range(0, z.shape[1], nh)]


def _message_rows(tape, pv, cfg, hs, hv, t_from, t_to, tf_rows):
    """Messages along the (t_from -> t_to) pairs of one step.

    The pairs are the active line-graph triples of the hollow field, or
    the base-graph edges (src -> dst) of a baseline.  Returns (m_s, m_v)
    rows aligned with the pairs; the caller aggregates them into receivers
    by segment sum.
    """
    nh = cfg.n_hidden
    s_ij, v_ij = gather(hs, t_to), gather(hv, t_to)
    s_ki, v_ki = gather(hs, t_from), gather(hv, t_from)
    tfe = tape.const(tf_rows)
    pair = [s_ij, s_ki, dot_last(v_ij, v_ki), tfe]
    if cfg.attention is None:
        z = _mlp(pv, "msg", pair)
        m_s, g1, g2 = _blocks(z, nh)
        m_v = scale_channels(v_ki, g1) + scale_channels(v_ij, g2)
    elif cfg.attention == "product":
        a = _mlp(pv, "att", pair)
        fs, fv = _feature_map(pv, "vfeat", s_ij, v_ij)
        m_s = fs * a
        m_v = scale_channels(fv, a)
    else:  # softmax over each receiver's in-neighborhood
        y = _mlp(pv, "att", pair)
        alpha = segment_softmax(y, t_to)
        z = _mlp(pv, "attval", [s_ki, tfe])
        val, gv = _blocks(z, nh)
        m_s = val * alpha
        m_v = scale_channels(v_ki, gv * alpha)
    return m_s, m_v


def _update(tape, pv, cfg, hs, hv, M_s, M_v, tf_rows):
    z = _mlp(pv, "upd", [hs, M_s, channel_norm(M_v), tape.const(tf_rows)])
    ds, gv = _blocks(z, cfg.n_hidden)
    return hs + ds, hv + scale_channels(M_v, gv)


def _round(tape, pv, cfg, hs, hv, t_from, t_to, tf_rows):
    """One message-passing round: messages along the (t_from -> t_to)
    pairs, summed into the receivers, then the update.  ``tf_rows`` holds
    one time-feature row per receiver."""
    m_s, m_v = _message_rows(tape, pv, cfg, hs, hv, t_from, t_to,
                             tf_rows[t_to.idx])
    M_s, M_v = segment_sum(m_s, t_to), segment_sum(m_v, t_to)
    return _update(tape, pv, cfg, hs, hv, M_s, M_v, tf_rows)


def message_step(params: dict, cfg: ArchConfig, h_s: np.ndarray,
                 h_v: np.ndarray, lg: gt.LineGraph, t: float = 0.0
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Numerically apply one message-passing round to given line features.

    Respects the line graph's active mask; receivers with no active
    in-edges are updated with a zero message.  ``h_v`` and the returned
    vectors are (R, C, d); the tape works on (R, d, C).
    """
    cfg.validate()
    tape = Tape()
    pv = param_vars(tape, params)
    hs, hv = tape.leaf(h_s), tape.leaf(np.swapaxes(h_v, 1, 2).copy())
    tf = _time_features(np.full(h_s.shape[0], float(t)))
    t_from, t_to = (Segments(p, len(h_s)) for p in lg.active_pairs())
    hs2, hv2 = _round(tape, pv, cfg, hs, hv, t_from, t_to, tf)
    return hs2.value, np.swapaxes(hv2.value, 1, 2)


def _time_features(t_rows: np.ndarray) -> np.ndarray:
    ang = 2.0 * np.pi * np.asarray(t_rows, dtype=np.float64)
    return np.stack([np.sin(ang), np.cos(ang)], axis=1)


@dataclass
class FieldBuild:
    """Handles into one recorded evaluation of the field."""

    tape: Tape
    b: Var
    h_steps: list[list[tuple[Var, Var]]]  # [head][round] -> (s, v), round 0 = init


def build_field(tape: Tape, pv: dict[str, Var], cfg: ArchConfig, x: Var,
                Z: np.ndarray, t_samples: np.ndarray, plan: ForwardPlan,
                detach_conditioner: bool = False) -> FieldBuild:
    """Record the field evaluation on an existing tape.

    ``x`` is a (N, d) var over the union of all samples' nodes; ``Z`` the
    per-node labels; ``t_samples`` one flow time per sample.  When
    ``detach_conditioner`` is set the readout sees detached line features,
    which leaves values unchanged but makes the surviving Jacobian
    block-diagonal.  With ``pairwise_diff`` each head records one pair
    embedding, read by the conditioner's init and by the transformer; in
    a detached build its source end is detached, so the ``h_steps`` then
    carry no meaningful x-gradient.

    No probe pass reads the conditioner of a detached build, so the build
    releases each of its stages (``Tape.release_since``) once the next
    stage's features exist: it keeps the embeddings, the readout and
    every round's ``h_steps`` pair, but no value computed between them,
    and a pass that would read one raises.
    """
    n_loc = plan.n_per_sample
    t_samples = np.asarray(t_samples, dtype=np.float64)
    tf_node = _time_features(t_samples[plan.node_sample])
    if cfg.unique_nodes and cfg.unique_nodes != n_loc:
        raise ValueError(f"unique_nodes is {cfg.unique_nodes}, but the field "
                         f"has {n_loc} particles")
    local_id = np.arange(plan.n_total) % n_loc

    if cfg.baseline:
        return _build_baseline(tape, pv, cfg, x, Z, plan, tf_node, local_id)

    if cfg.pairwise_diff:
        # one pair embedding per head feeds the conditioner's init and the
        # transformer; a detached build keeps only its x_dst gradient
        x_src = detach(x) if detach_conditioner else x
    else:
        ns, nv = _embed(tape, pv, cfg, x, Z, local_id)

    b = None
    h_steps_all = []
    for hp in plan.heads:
        tf_edge = _time_features(t_samples[hp.edge_sample])
        if cfg.pairwise_diff:
            rs, rv = _embed_pairs(tape, pv, cfg, x_src, x, Z, local_id, hp)
            mark = len(tape)  # the conditioner's init starts here
            ps, pvv = _feature_map(pv, "init_phi", rs, rv)
            M_s, M_v = gather_sum([ps, pvv], hp.init_from, hp.init_to)
            hs, hv = _feature_map(pv, "init_psi", M_s, M_v)
        else:
            mark = len(tape)
            hs, hv = gather(ns, hp.src), gather(nv, hp.src)
        h_steps = [(hs, hv)]
        for t_from, t_to in hp.step_pairs:
            if detach_conditioner:  # no probe pass reads the stage before
                tape.release_since(mark, (hs, hv))
            mark = len(tape)
            hs, hv = _round(tape, pv, cfg, hs, hv, t_from, t_to, tf_edge)
            h_steps.append((hs, hv))
        h_steps_all.append(h_steps)

        if detach_conditioner:
            tape.release_since(mark, (hs, hv))
            hs, hv = detach(hs), detach(hv)
        if not cfg.pairwise_diff:  # transformer input: x_dst's embedding
            rs, rv = gather(ns, hp.dst), gather(nv, hp.dst)
        b_head = _readout(tape, pv, cfg, hs, hv, rs, rv, tf_edge, hp.dst)
        b = b_head if b is None else b + b_head

    return FieldBuild(tape=tape, b=b, h_steps=h_steps_all)


def _embed_pairs(tape, pv, cfg, xs, x, Z, local_id, hp):
    """Embedding of the displacements xs_src - x_dst along the head's edges."""
    return _embed(tape, pv, cfg, gather(xs, hp.src) - gather(x, hp.dst),
                  Z[hp.src.idx], local_id[hp.src.idx])


def _build_baseline(tape, pv, cfg, x, Z, plan, tf_node, local_id):
    """Standard message passing on the base graph; no hollow structure."""
    hp = plan.heads[0]
    if cfg.pairwise_diff:
        es, ev = _embed_pairs(tape, pv, cfg, x, x, Z, local_id, hp)
        ps, pvv = _feature_map(pv, "init_phi", es, ev)
        hs, hv = _feature_map(pv, "init_psi", segment_sum(ps, hp.dst),
                              segment_sum(pvv, hp.dst))
    else:
        hs, hv = _embed(tape, pv, cfg, x, Z, local_id)
    n_s, n_v = hs, hv
    h_steps = [(hs, hv)]
    for _ in range(cfg.steps):
        hs, hv = _round(tape, pv, cfg, hs, hv, hp.src, hp.dst, tf_node)
        h_steps.append((hs, hv))
    # readout sums per-edge contributions, so isolated nodes get zero
    b = _readout(tape, pv, cfg, gather(hs, hp.dst), gather(hv, hp.dst),
                 gather(n_s, hp.src), gather(n_v, hp.src), tf_node[hp.dst.idx],
                 hp.dst)
    return FieldBuild(tape=tape, b=b, h_steps=[h_steps])


def _readout(tape, pv, cfg, hs, hv, rs, rv, tf_rows, dst):
    """Per-edge readout summed into the receivers ``dst``.

    (hs, hv) are the edge's message features, (rs, rv) the receiver-side
    input; the velocity is a scalar-gated sum of both vector channels.
    """
    z = _mlp(pv, "read", [hs, rs, dot_last(hv, rv), tape.const(tf_rows)])
    gh, gn = _blocks(z, cfg.n_hidden)
    contrib = gated_sum(hv, gh) + gated_sum(rv, gn)
    return segment_sum(contrib, dst)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def batch_inputs(B: int, n: int, Z=None, t=0.0, graph_override=None):
    """Per-sample inputs of a B-sample batch of n particles.

    Returns labels as a (B, n) int array (from None, one (n,) row shared by
    all samples, or one row per sample), one flow time per sample, and
    ``graph_override`` as one list of head graphs per sample (or None).
    """
    Z = np.zeros(n, dtype=int) if Z is None else np.asarray(Z, dtype=int)
    if Z.shape not in ((n,), (B, n)):
        raise ValueError(f"labels Z have shape {Z.shape}, expected ({n},) "
                         f"or ({B}, {n})")
    t_samples = np.broadcast_to(np.asarray(t, dtype=np.float64), (B,))
    if graph_override is not None and not isinstance(graph_override[0], list):
        graph_override = [list(graph_override)] * B
    return np.broadcast_to(Z, (B, n)), t_samples, graph_override


def evaluate_field(params, cfg: ArchConfig, x, Z=None, t=0.0,
                   graph_override=None) -> np.ndarray:
    """Numeric field evaluation of an (n, d) array or a (B, n, d) batch."""
    x = np.asarray(x, dtype=np.float64)
    B, n, d = x.shape if x.ndim == 3 else (1, *x.shape)
    prog = make_field_program(params, cfg, n, d, Z, t, B, graph_override)
    return ad.forward_eval(prog, x.reshape(-1)).reshape(x.shape)


def hollow_forward(params, cfg, x, Z=None, t=0.0, graph_override=None):
    """The block-hollow field b(x, t); rejects baseline configurations."""
    if cfg.baseline:
        raise ValueError("configuration is a baseline; use evaluate_field")
    return evaluate_field(params, cfg, x, Z, t, graph_override)


def embed_features(params, cfg: ArchConfig, delta, Z=None,
                   local_ids=None) -> tuple[np.ndarray, np.ndarray]:
    """Numeric embedding of displacement rows: (s (R, C), v (R, C, d))."""
    delta = np.atleast_2d(np.asarray(delta, dtype=np.float64))
    R = delta.shape[0]
    Z = np.zeros(R, dtype=int) if Z is None else np.asarray(Z, dtype=int)
    if cfg.unique_nodes and local_ids is None:
        raise ValueError("unique_nodes is set, so embed_features needs local_ids")
    tape = Tape()
    pv = param_vars(tape, params)
    s, v = _embed(tape, pv, cfg, tape.leaf(delta), Z, local_ids)
    return s.value, np.swapaxes(v.value, 1, 2)


def make_field_program(params, cfg: ArchConfig, n: int, d: int, Z=None,
                       t=0.0, batch: int = 1, graph_override=None,
                       detach_conditioner=False) -> ad.Program:
    """Flat-vector Program for Jacobian work on the field.

    The program input is the flattened (batch, n, d) position array; the
    graph plan is rebuilt from the numeric input on every forward pass, so
    the program follows kNN decision boundaries exactly like sampling does.
    """
    cfg.validate()
    Zs, t_samples, go = batch_inputs(batch, n, Z, t, graph_override)
    Zf = Zs.reshape(-1)

    def build(tape, x_flat):
        xs = x_flat.reshape(batch, n, d)
        plan = make_plan(xs, cfg, go)
        pv = param_vars(tape, params)
        x_leaf = tape.leaf(x_flat)
        xv = ad.reshape(x_leaf, (batch * n, d))
        fb = build_field(tape, pv, cfg, xv, Zf, t_samples, plan,
                         detach_conditioner)
        out = ad.reshape(fb.b, (batch * n * d,))
        return x_leaf, out

    return ad.Program(build, n_in=batch * n * d)
