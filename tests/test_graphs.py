"""Graph construction, line graphs, dependence tracking, and partitions.

Expected values come from independent enumeration: brute-force nearest
neighbors, exhaustive triple listing, and a set-based dependence oracle
that propagates "which inputs can reach this feature" without any arrays.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nbflow import graphs as gt
from nbflow import network as net


def brute_force_knn_edges(x, k):
    """Directed edges (neighbor -> node) by exhaustive distance sort."""
    n = len(x)
    edges = set()
    for j in range(n):
        dists = sorted((np.sum((x[i] - x[j]) ** 2), i)
                       for i in range(n) if i != j)
        for _, i in dists[:k]:
            edges.add((i, j))
    return edges | {(b, a) for (a, b) in edges}


def enumerate_triples(edge_set):
    return {(a, b, c) for (a, b) in edge_set for (b2, c) in edge_set
            if b2 == b and c != a}


class TestKnnGraph:
    def test_collinear_points(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        g = gt.build_knn_graph(x, k=1)
        assert g.edge_set() == {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert g.edge_set() == brute_force_knn_edges(x, 1)

    def test_two_nodes(self):
        g = gt.build_knn_graph(np.array([[0.0, 0.0], [1.0, 1.0]]), k=1)
        assert g.edge_set() == {(0, 1), (1, 0)}

    def test_complete_when_k_is_n_minus_1(self):
        x = np.random.default_rng(0).standard_normal((5, 3))
        g = gt.build_knn_graph(x, k=4)
        assert g.n_edges == 5 * 4
        assert g.edge_set() == gt.complete_graph(5).edge_set()

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            gt.build_knn_graph(np.zeros((5, 2)), k=k)

    def test_matches_brute_force_on_random_clouds(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            n = rng.integers(3, 12)
            k = int(rng.integers(1, n))
            x = rng.standard_normal((n, 2))
            g = gt.build_knn_graph(x, k)
            assert g.edge_set() == brute_force_knn_edges(x, k)

    def test_coincident_points_tie_break_by_index(self):
        x = np.zeros((4, 2))  # all distances equal
        g = gt.build_knn_graph(x, k=1)
        # node 0's nearest is node 1; every other node's nearest is node 0
        assert g.edge_set() == {(1, 0), (0, 1), (0, 2), (2, 0), (0, 3), (3, 0)}

    def test_nonfinite_rejected(self):
        x = np.zeros((3, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValueError):
            gt.build_knn_graph(x, k=1)


def graph_from_edges(n, edges):
    arr = np.array(sorted(edges), dtype=np.intp)
    return gt.DirectedGraph(n=n, src=arr[:, 0], dst=arr[:, 1])


class TestLineGraph:
    def test_two_cycle_has_no_triples(self):
        g = graph_from_edges(2, [(0, 1), (1, 0)])
        lg = gt.build_line_graph(g)
        assert lg.graph.n_edges == 2
        assert lg.n_triples == 0

    def test_chain(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        lg = gt.build_line_graph(g)
        triples = {(lg.t_tail[i], lg.graph.dst[lg.t_from[i]], lg.t_head[i])
                   for i in range(lg.n_triples)}
        assert triples == {(0, 1, 2)}

    def test_complete_n4_counts(self):
        g = gt.complete_graph(4)
        lg = gt.build_line_graph(g)
        assert g.n_edges == 12
        assert lg.n_triples == 24

    @pytest.mark.parametrize("n", range(3, 9))
    def test_complete_count_law(self, n):
        lg = gt.build_line_graph(gt.complete_graph(n))
        assert lg.n_triples == n * (n - 1) * (n - 2)

    def test_triples_match_enumeration(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, n))
            g = gt.build_knn_graph(rng.standard_normal((n, 2)), k)
            lg = gt.build_line_graph(g)
            got = {(lg.t_tail[i], g.dst[lg.t_from[i]], lg.t_head[i])
                   for i in range(lg.n_triples)}
            assert got == enumerate_triples(g.edge_set())
            assert lg.graph.n_edges == g.n_edges

    def test_knn_line_graph_edge_bound(self):
        rng = np.random.default_rng(9)
        for n, k in [(12, 2), (20, 3), (30, 4)]:
            g = gt.build_knn_graph(rng.standard_normal((n, 2)), k)
            lg = gt.build_line_graph(g)
            assert lg.n_triples <= g.n_edges * 2 * k


def edge_index(g):
    return {(int(a), int(b)): e for e, (a, b) in enumerate(zip(g.src, g.dst))}


class TestBacktrackInit:
    def test_plain_marks_source_only(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        lg = gt.build_line_graph(g)
        bt = gt.init_backtracking(lg, pd=False)
        ei = edge_index(g)
        expect = np.zeros((2, 3), dtype=bool)
        expect[ei[(0, 1)], 0] = True
        expect[ei[(1, 2)], 1] = True
        np.testing.assert_array_equal(bt.table, expect)

    def test_pairwise_mode_two_cycle(self):
        g = graph_from_edges(2, [(0, 1), (1, 0)])
        lg = gt.build_line_graph(g)
        bt = gt.init_backtracking(lg, pd=True)
        ei = edge_index(g)
        # no in-neighbors, so only the difference's own source is marked
        assert bt.table[ei[(0, 1)]].tolist() == [True, False]
        assert bt.table[ei[(1, 0)]].tolist() == [False, True]

    def test_pairwise_mode_marks_in_neighbors_and_source(self):
        g = gt.complete_graph(3)
        lg = gt.build_line_graph(g)
        bt = gt.init_backtracking(lg, pd=True)
        ei = edge_index(g)
        # edge (0,1): in-neighbors k with (k,0) in E and k != 1 -> {2}
        assert bt.table[ei[(0, 1)]].tolist() == [True, False, True]

    @pytest.mark.parametrize("pd", [False, True])
    def test_hollow_column_invariant(self, pd):
        rng = np.random.default_rng(1)
        for trial in range(6):
            n = int(rng.integers(3, 9))
            g = gt.build_knn_graph(rng.standard_normal((n, 2)),
                                   int(rng.integers(1, n)))
            lg = gt.build_line_graph(g)
            bt = gt.init_backtracking(lg, pd)
            for t in range(4):
                assert not np.any(bt.table[np.arange(g.n_edges), g.dst])
                gt.prune_and_update(lg, bt)


class TestPruneAndUpdate:
    def test_complete_n4_removal_schedule(self):
        lg = gt.build_line_graph(gt.complete_graph(4))
        bt = gt.init_backtracking(lg, pd=False)
        removed0, bt = gt.prune_and_update(lg, bt)
        assert removed0 == 0 and lg.n_active == 24
        removed1, bt = gt.prune_and_update(lg, bt)
        assert removed1 == 24 and lg.n_active == 0

    def test_monotone_in_t(self):
        rng = np.random.default_rng(4)
        for trial in range(6):
            n = int(rng.integers(4, 10))
            g = gt.build_knn_graph(rng.standard_normal((n, 2)),
                                   int(rng.integers(1, n)))
            lg = gt.build_line_graph(g)
            bt = gt.init_backtracking(lg, pd=False)
            prev = bt.table.copy()
            for t in range(5):
                _, bt = gt.prune_and_update(lg, bt)
                assert np.all(bt.table >= prev)
                prev = bt.table.copy()


class TestConnectivityProfile:
    def test_complete_n4(self):
        np.testing.assert_array_equal(
            gt.connectivity_profile(gt.complete_graph(4), pd=False, steps=2),
            [24, 0])

    def test_chain_never_prunes(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        np.testing.assert_array_equal(
            gt.connectivity_profile(g, pd=False, steps=4), [1, 1, 1, 1])

    def test_two_cycle(self):
        g = graph_from_edges(2, [(0, 1), (1, 0)])
        np.testing.assert_array_equal(
            gt.connectivity_profile(g, pd=False, steps=3), [0, 0, 0])

    def test_steps_validation(self):
        with pytest.raises(ValueError):
            gt.connectivity_profile(gt.complete_graph(3), False, steps=0)


def dependence_sets_no_pruning(g, steps):
    """Set-based oracle: which nodes each edge feature depends on.

    Evolves the plain-mode dependence relation without any edge removal;
    used to verify the girth rule.
    """
    lg = gt.build_line_graph(g)
    dep = [{int(g.src[e])} for e in range(g.n_edges)]
    history = [[set(s) for s in dep]]
    for _ in range(steps):
        new = [set(s) for s in dep]
        for i in range(lg.n_triples):
            new[lg.t_to[i]] |= dep[lg.t_from[i]]
        dep = new
        history.append([set(s) for s in dep])
    return history


def directed_cycle(g_len):
    edges = [(i, (i + 1) % g_len) for i in range(g_len)]
    return graph_from_edges(g_len, edges)


class TestGirthRule:
    @pytest.mark.parametrize("girth", [3, 4, 5, 6])
    def test_backtracking_appears_exactly_at_girth_minus_1(self, girth):
        g = directed_cycle(girth)
        hist = dependence_sets_no_pruning(g, girth)
        for t in range(girth - 1):
            assert all(int(g.dst[e]) not in hist[t][e]
                       for e in range(g.n_edges)), f"early backtrack at t={t}"
        assert any(int(g.dst[e]) in hist[girth - 1][e]
                   for e in range(g.n_edges))

    def test_acyclic_graph_never_backtracks(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        hist = dependence_sets_no_pruning(g, 8)
        for row in hist:
            assert all(int(g.dst[e]) not in row[e] for e in range(g.n_edges))


class TestMultiheadPartition:
    def test_nonoverlapping_n4(self):
        x = np.random.default_rng(0).standard_normal((4, 2))
        part = gt.partition_multihead(x, n_heads=3, overlap=0)
        assert [len(c) for c in part.chunk_edges] == [4, 4, 4]
        union = list(itertools.chain.from_iterable(
            [tuple(e) for e in c] for c in part.chunk_edges))
        assert len(union) == 12
        assert set(union) == gt.complete_graph(4).edge_set()

    def test_overlapping_n4_window_sizes(self):
        x = np.random.default_rng(1).standard_normal((4, 2))
        part = gt.partition_multihead(x, n_heads=3, overlap=1)
        assert [len(c) for c in part.chunk_edges] == [6, 6, 6]
        starts = []
        lengths = np.linalg.norm(
            x[gt.complete_graph(4).src] - x[gt.complete_graph(4).dst], axis=1)
        order = np.argsort(lengths, kind="stable")
        sorted_edges = [tuple(e) for e in np.stack(
            [gt.complete_graph(4).src[order], gt.complete_graph(4).dst[order]],
            axis=1)]
        for c in part.chunk_edges:
            starts.append(sorted_edges.index(tuple(c[0])))
        assert starts == [0, 3, 6]

    def test_single_head_is_complete_graph(self):
        x = np.random.default_rng(2).standard_normal((5, 2))
        part = gt.partition_multihead(x, n_heads=1, overlap=0)
        assert part.heads[0].edge_set() == gt.complete_graph(5).edge_set()

    def test_remainder_distribution(self):
        x = np.random.default_rng(3).standard_normal((4, 2))
        part = gt.partition_multihead(x, n_heads=5, overlap=0)
        sizes = [len(c) for c in part.chunk_edges]
        assert sizes == [3, 3, 2, 2, 2]  # 12 edges over 5 heads
        assert sum(sizes) == 12

    def test_more_heads_than_edges(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        part = gt.partition_multihead(x, n_heads=3, overlap=0)
        assert [h.n_edges for h in part.heads] == [2, 2, 0]
        assert part.length_ranges[:2] == [(1.0, 1.0), (1.0, 1.0)]
        assert np.isnan(part.length_ranges[2]).all()

    def test_heads_are_symmetrized(self):
        x = np.random.default_rng(4).standard_normal((6, 2))
        part = gt.partition_multihead(x, n_heads=3, overlap=0)
        for h in part.heads:
            es = h.edge_set()
            assert all((b, a) in es for (a, b) in es)

    def test_invalid_overlap(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            gt.partition_multihead(x, n_heads=2, overlap=2)


# ---------------------------------------------------------------------------
# property tests: the fast plan against the oracles above
# ---------------------------------------------------------------------------

def make_cloud(kind, n, d, seed):
    """Gaussian cloud, integer lattice (exact ties) or one with duplicates."""
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        return rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    x = rng.standard_normal((n, d))
    if kind == "coincident":
        x[rng.integers(0, n, size=n // 2)] = x[rng.integers(0, n, size=n // 2)]
    return x


def random_graph(n, seed):
    """Random directed graph over n nodes, possibly without any triple."""
    rng = np.random.default_rng(seed)
    edges = [(a, b) for a in range(n) for b in range(n)
             if a != b and rng.random() < 0.4]
    if not edges:
        edges = [(0, 1), (1, 0)]  # the 2-cycle: line nodes but no triples
    return graph_from_edges(n, edges)


def pruned_dependence_oracle(g, pd, rounds):
    """Set-based pruning schedule: (active list, dependence sets) per round."""
    lg = gt.build_line_graph(g)
    triples = list(zip(lg.t_from.tolist(), lg.t_to.tolist(),
                       lg.t_tail.tolist(), lg.t_head.tolist()))
    dep = [{int(g.src[e])} for e in range(g.n_edges)]
    if pd:
        for _, rcv, tail, _ in triples:
            dep[rcv].add(tail)
    active = [True] * len(triples)
    history = []
    for _ in range(rounds):
        for i, (snd, _, _, head) in enumerate(triples):
            if active[i] and head in dep[snd]:
                active[i] = False
        new = [set(s) for s in dep]
        for i, (snd, rcv, _, _) in enumerate(triples):
            if active[i]:
                new[rcv] |= dep[snd]
        dep = new
        history.append((list(active), [set(s) for s in dep]))
    return history


def head_arrays(hp):
    """A head plan's index arrays by name, one pair per round."""
    out = {name: getattr(hp, name).idx for name in
           ("src", "dst", "init_from", "init_to")}
    out["edge_sample"] = hp.edge_sample
    for t, (tf, tt) in enumerate(hp.step_pairs):
        out[f"from{t}"], out[f"to{t}"] = tf.idx, tt.idx
    return out


def concatenated_heads(parts, n):
    """Single-sample head plans joined with node and edge offsets."""
    nodes = [s * n for s in range(len(parts))]
    edges = np.cumsum([0] + [p.src.idx.size for p in parts])
    shift = {"src": nodes, "dst": nodes, "edge_sample": range(len(parts))}
    arrays = [head_arrays(p) for p in parts]
    return {name: np.concatenate([a[name] + off for a, off in
                                  zip(arrays, shift.get(name, edges))]
                                 ).astype(np.intp)
            for name in arrays[0]}


clouds = st.sampled_from(["gaussian", "lattice", "coincident"])
seeds = st.integers(0, 2**32 - 1)


class TestPlanProperties:
    @given(kind=clouds, n=st.integers(2, 300), d=st.integers(1, 4),
           k=st.integers(1, 6), seed=seeds)
    def test_knn_equals_brute_force(self, kind, n, d, k, seed):
        x = make_cloud(kind, n, d, seed)
        k = min(k, n - 1)
        g = gt.build_knn_graph(x, k)
        assert g.edge_set() == brute_force_knn_edges(x, k)
        assert [tuple(e) for e in zip(g.src.tolist(), g.dst.tolist())] \
            == sorted(g.edge_set())

    @given(source=st.sampled_from(["knn", "complete", "random"]),
           n=st.integers(2, 12), pd=st.booleans(), rounds=st.integers(1, 3),
           seed=seeds)
    def test_sparse_pruning_equals_set_oracle(self, source, n, pd, rounds,
                                              seed):
        if source == "knn":
            k = int(np.random.default_rng(seed).integers(1, n))
            g = gt.build_knn_graph(make_cloud("gaussian", n, 2, seed), k)
        elif source == "complete":
            g = gt.complete_graph(n)
        else:
            g = random_graph(n, seed)
        lg = gt.build_line_graph(g)
        bt = gt.init_backtracking(lg, pd)
        for active, dep in pruned_dependence_oracle(g, pd, rounds):
            _, bt = gt.prune_and_update(lg, bt)
            assert lg.active.tolist() == active
            assert [set(np.flatnonzero(row).tolist())
                    for row in bt.table] == dep

    @given(mode=st.sampled_from(["knn", "knn_pd", "heads", "override"]),
           B=st.integers(1, 5), n=st.integers(2, 10), seed=seeds)
    def test_batched_plan_equals_concatenated_samples(self, mode, B, n, seed):
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((B, n, 2))
        override = None
        if mode == "heads":
            H = int(rng.integers(1, 4))
            cfg = net.ArchConfig(steps=3, heads=H,
                                 overlap=int(rng.integers(0, H)))
        else:
            cfg = net.ArchConfig(steps=3, knn_k=int(rng.integers(1, n)),
                                 pairwise_diff=mode == "knn_pd")
            if mode == "override":
                override = [[random_graph(n, seed + s)] for s in range(B)]
        plan = net.make_plan(xs, cfg.validate(), override)
        singles = [net.make_plan(xs[s:s + 1], cfg, override and override[s:s + 1])
                   for s in range(B)]
        for q, hp in enumerate(plan.heads):
            got = head_arrays(hp)
            expect = concatenated_heads([p.heads[q] for p in singles], n)
            assert len(hp.step_pairs) == cfg.steps
            assert got.keys() == expect.keys()
            for name, arr in expect.items():
                assert got[name].dtype == arr.dtype, name
                assert got[name].tobytes() == arr.tobytes(), name
