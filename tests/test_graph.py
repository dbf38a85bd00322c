from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parth import (
    AsymmetricPattern,
    DimMismatch,
    IndexOutOfBounds,
    InvalidMap,
    NodeMap,
    SparsityPattern,
    SymGraph,
    build_dual,
    compress_by_dim,
)
from parth.graph import (
    _LIST_BFS_MAX,
    _unique,
    bfs_distances,
    component_labels,
    edge_set_diff,
    induced_subgraph,
)
from conftest import (
    NINE_EDGES_FIRST,
    edge_pairs,
    has_edge,
    n_edges,
    nine_node_graphs,
    pattern_from_edges,
    random_pattern,
    reference_edge_diff,
)


class TestBuildDual:
    def test_diagonal_only(self):
        p = SparsityPattern.from_coo(3, [0, 1, 2], [0, 1, 2])
        g = build_dual(p)
        assert g.n_nodes == 3 and n_edges(g) == 0

    def test_tridiagonal(self):
        p = pattern_from_edges(3, [(0, 1), (1, 2)])
        g = build_dual(p)
        assert edge_pairs(g) == {(0, 1), (1, 2)}

    def test_nine_node_has_cross_edge(self):
        p = pattern_from_edges(9, NINE_EDGES_FIRST)
        g = build_dual(p)
        assert has_edge(g, 2, 8) and has_edge(g, 8, 2)

    def test_asymmetric_rejected(self):
        p = SparsityPattern.from_coo(3, [0], [1])
        with pytest.raises(AsymmetricPattern):
            build_dual(p)

    def test_malformed_indices_rejected(self):
        with pytest.raises(IndexOutOfBounds):
            SparsityPattern.from_coo(3, [0], [5])

    def test_round_trip_off_diagonal(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_pattern(rng, int(rng.integers(2, 60)))
            g = build_dual(p)
            rows, cols = p.to_coo()
            off = {(int(r), int(c)) for r, c in zip(rows, cols) if r != c}
            back = set()
            for u, v in edge_pairs(g):
                back.add((u, v))
                back.add((v, u))
            assert back == off


class TestCompressByDim:
    def test_block_diagonal(self):
        edges = [(i, j) for i in range(3) for j in range(i + 1, 3)]
        edges += [(i + 3, j + 3) for i in range(3) for j in range(i + 1, 3)]
        p = pattern_from_edges(6, edges)
        g = compress_by_dim(p, 3)
        assert g.n_nodes == 2 and n_edges(g) == 0

    def test_single_coupling_entry(self):
        p = pattern_from_edges(6, [(0, 5)])
        g = compress_by_dim(p, 3)
        assert g.n_nodes == 2 and edge_pairs(g) == {(0, 1)}

    def test_dim_mismatch(self):
        p = pattern_from_edges(5, [(0, 1)])
        with pytest.raises(DimMismatch):
            compress_by_dim(p, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_dim_one_equals_dual(self, seed):
        rng = np.random.default_rng(seed)
        p = random_pattern(rng, int(rng.integers(2, 50)))
        a, b = compress_by_dim(p, 1), build_dual(p)
        assert np.array_equal(a.adj_starts, b.adj_starts)
        assert np.array_equal(a.adj, b.adj)


class TestEdgeSetDiff:
    def test_simple_delta(self):
        g_old = SymGraph.from_edges(3, [0, 1], [1, 2])
        g_new = SymGraph.from_edges(3, [0, 0], [1, 2])
        added, removed = edge_set_diff(g_old, g_new, NodeMap.identity(3))
        assert added.tolist() == [[0, 2]]
        assert removed.tolist() == [[1, 2]]

    def test_nine_node_sequence_delta(self):
        g1, g2 = nine_node_graphs()
        added, removed = edge_set_diff(g1, g2, NodeMap.identity(9))
        assert added.tolist() == [[0, 6], [3, 8]]
        assert removed.tolist() == [[2, 8]]

    def test_no_change(self):
        g, _ = nine_node_graphs()
        added, removed = edge_set_diff(g, g, NodeMap.identity(9))
        assert added.size == 0 and removed.size == 0

    def test_removed_node_edges_excluded(self):
        # old: path 0-1-2; node 1 removed; new graph = two isolated nodes
        g_old = SymGraph.from_edges(3, [0, 1], [1, 2])
        g_new = SymGraph.empty(2)
        node_map = NodeMap(np.array([0, 2]), 3)
        added, removed = edge_set_diff(g_old, g_new, node_map)
        assert added.size == 0 and removed.size == 0

    def test_added_node_edges_all_added(self):
        g_old = SymGraph.from_edges(2, [0], [1])
        g_new = SymGraph.from_edges(3, [0, 0, 1], [1, 2, 2])
        node_map = NodeMap(np.array([0, 1, -1]), 2)
        added, removed = edge_set_diff(g_old, g_new, node_map)
        assert {tuple(e) for e in added.tolist()} == {(0, 2), (1, 2)}
        assert removed.size == 0

    def test_invalid_map(self):
        g, _ = nine_node_graphs()
        for node_map in (NodeMap.identity(8), NodeMap(np.arange(9), 10)):
            with pytest.raises(InvalidMap):  # sized for other graphs
                edge_set_diff(g, g, node_map)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_exact_delta_property(self, seed):
        # exact sets and exact order, against a brute-force reference, under
        # identity, permuted, shrinking, growing and mixed node maps (n may be 0)
        rng = np.random.default_rng(seed)
        n_old = int(rng.integers(0, 60))
        g_old = random_graph(rng, n_old)
        entries = random_node_map(rng, n_old)
        g_new = perturbed_graph(rng, g_old, entries)
        added, removed = edge_set_diff(g_old, g_new, NodeMap(entries, n_old))
        ref_added, ref_removed = reference_edge_diff(g_old, g_new, entries)
        assert added.shape == (len(ref_added), 2) and removed.shape == (len(ref_removed), 2)
        assert added.tolist() == ref_added
        assert removed.tolist() == ref_removed


def random_graph(rng: np.random.Generator, n: int) -> SymGraph:
    m = int(rng.integers(0, 3 * n + 1)) if n else 0
    return SymGraph.from_edges(n, rng.integers(0, max(n, 1), m), rng.integers(0, max(n, 1), m))


def random_node_map(rng: np.random.Generator, n_old: int) -> np.ndarray:
    """entries[new] = old or ABSENT, in one of four shapes."""
    kind = int(rng.integers(4))
    if kind == 0:  # identity
        return np.arange(n_old)
    if kind == 1:  # pure relabel
        return rng.permutation(n_old)
    kept = rng.permutation(n_old)[: int(rng.integers(0, n_old + 1))]
    absent = np.full(int(rng.integers(0, 6)), -1)
    if kind == 2:  # order-preserving removals, additions appended
        return np.concatenate([np.sort(kept), absent])
    return rng.permutation(np.concatenate([kept, absent]))  # anything goes


def perturbed_graph(rng: np.random.Generator, g_old: SymGraph, entries: np.ndarray) -> SymGraph:
    """The old graph carried through the map, with some edges dropped and some added."""
    n_new = entries.size
    o2n = {int(old): new for new, old in enumerate(entries) if old >= 0}
    u, v = [], []
    for a, b in edge_pairs(g_old):
        if a in o2n and b in o2n and rng.random() < 0.8:
            u.append(o2n[a])
            v.append(o2n[b])
    if n_new:
        extra = int(rng.integers(0, n_new + 1))
        u += rng.integers(0, n_new, extra).tolist()
        v += rng.integers(0, n_new, extra).tolist()
    return SymGraph.from_edges(n_new, u, v)


class TestInducedSubgraph:
    def test_path_endpoints(self):
        g = SymGraph.from_edges(3, [0, 1], [1, 2])
        sub, back = induced_subgraph(g, [0, 2])
        assert sub.n_nodes == 2 and n_edges(sub) == 0
        assert back.tolist() == [0, 2]

    def test_full_set_is_copy(self):
        g, _ = nine_node_graphs()
        sub, back = induced_subgraph(g, np.arange(9))
        assert np.array_equal(sub.adj, g.adj)
        assert back.tolist() == list(range(9))

    def test_triangle_pair(self):
        g = SymGraph.from_edges(3, [0, 0, 1], [1, 2, 2])
        sub, back = induced_subgraph(g, [0, 1])
        assert n_edges(sub) == 1 and back.tolist() == [0, 1]

    def test_out_of_bounds(self):
        g = SymGraph.empty(3)
        with pytest.raises(IndexOutOfBounds):
            induced_subgraph(g, [5])


class TestUnique:
    """The sort-based dedupe returns exactly what np.unique returns."""

    @given(st.lists(st.integers(-50, 50), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_np_unique(self, values):
        a = np.array(values, dtype=np.int64)
        want, want_inverse = np.unique(a, return_inverse=True)
        got = _unique(a)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
        got, inverse = _unique(a, return_inverse=True)
        assert got.tolist() == want.tolist()
        assert inverse.tolist() == want_inverse.tolist()

    def test_strictly_increasing_input_is_returned_as_is(self):
        a = np.array([-3, 0, 7, 9], dtype=np.int64)
        assert _unique(a) is a
        got, inverse = _unique(a, return_inverse=True)
        assert got is a and inverse.tolist() == [0, 1, 2, 3]

    def test_induced_subgraph_keeps_no_reference_to_sorted_nodes(self):
        g = SymGraph.from_edges(4, [0, 1, 2], [1, 2, 3])
        nodes = np.array([1, 2, 3], dtype=np.int64)
        sub, sel = induced_subgraph(g, nodes)
        nodes[:] = 0
        assert sel.tolist() == [1, 2, 3]

    def test_large_random(self):
        a = np.random.default_rng(3).integers(0, 5000, size=65536)
        assert np.array_equal(_unique(a), np.unique(a))


class TestConstructorChecks:
    def test_decreasing_offsets_rejected(self):
        with pytest.raises(IndexOutOfBounds, match="nondecreasing"):
            SymGraph(3, [0, 2, 1, 2], [1, 0])
        with pytest.raises(IndexOutOfBounds, match="nondecreasing"):
            SparsityPattern(3, [0, 2, 1, 2], [1, 0])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(IndexOutOfBounds, match="symmetric"):
            SymGraph(3, [0, 1, 2, 2], [1, 2])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SparsityPattern(3, [0, 1, 2], [0, 1]), "not a valid offset array"),
            (lambda: SparsityPattern(2, [0, 1, 2], [0, 2]), r"column index outside \[0, 2\)"),
            (lambda: SparsityPattern(2, [0, 2, 2], [1, 0]), "strictly increasing"),
            (lambda: SparsityPattern.from_coo(3, [3], [0]), "row index outside"),
            (lambda: SymGraph(2, [0, 1, 1], [0]), "self-loops"),
            (lambda: SymGraph.from_edges(3, [0], [3]), "edge endpoint outside"),
        ],
        ids=["offsets_length", "column_range", "unsorted_row", "coo_row_range", "self_loop", "edge_endpoint"],
    )
    def test_malformed_input_rejected(self, build, message):
        with pytest.raises(IndexOutOfBounds, match=message):
            build()


class TestCallerArrays:
    """Constructors keep read-only arrays of their own; the caller's stay writable and unshared."""

    def test_node_map(self):
        a = np.arange(3)
        m = NodeMap(a, 3)
        assert a.flags.writeable and not m.entries.flags.writeable
        a[0] = 2
        assert m.entries.tolist() == [0, 1, 2]

    def test_sparsity_pattern(self):
        starts, cols = np.array([0, 1, 2, 3]), np.array([0, 1, 2])
        p = SparsityPattern(3, starts, cols)
        assert starts.flags.writeable and cols.flags.writeable
        assert not (p.row_starts.flags.writeable or p.col_indices.flags.writeable)
        cols[0] = 2
        assert p.col_indices.tolist() == [0, 1, 2]

    def test_sym_graph(self):
        starts, adj = np.array([0, 1, 2]), np.array([1, 0])
        g = SymGraph(2, starts, adj)
        assert starts.flags.writeable and adj.flags.writeable
        assert not (g.adj_starts.flags.writeable or g.adj.flags.writeable)
        adj[0] = 0
        assert g.adj.tolist() == [1, 0]


class TestNodeMap:
    def test_identity(self):
        m = NodeMap.identity(4)
        assert m.is_identity and m.n_old == m.n_new == 4
        assert m.o2n.tolist() == [0, 1, 2, 3]
        assert NodeMap.identity(3).is_identity and NodeMap(np.arange(3), 3).is_identity
        empty = NodeMap.identity(0)
        assert empty.is_identity and empty.o2n.size == 0
        assert not NodeMap(np.arange(3), 4).is_identity  # node 3 removed
        assert not NodeMap(np.array([1, 0]), 2).is_identity

    def test_checked_carries_inverse(self):
        m = NodeMap(np.array([2, -1, 0, 4]), 5)
        assert m.o2n.tolist() == [2, -1, 0, -1, 3]
        assert NodeMap(np.arange(3), 4).o2n.tolist() == [0, 1, 2, -1]
        assert NodeMap(np.full(2, -1), 0).o2n.size == 0  # every node new
        assert not (m.entries.flags.writeable or m.o2n.flags.writeable)

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidMap, match="duplicate"):
            NodeMap(np.array([0, 0]), 3)
        with pytest.raises(InvalidMap, match="duplicate"):
            NodeMap(np.array([2, -1, 1, 2]), 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidMap, match="outside previous graph"):
            NodeMap(np.array([0, 7]), 3)
        with pytest.raises(InvalidMap, match="outside previous graph"):
            NodeMap(np.array([0, 1]), 1)
        with pytest.raises(InvalidMap, match="below -1"):
            NodeMap(np.array([0, -2]), 3)


class TestTrustedGraphs:
    """Graphs the library builds unchecked must pass the public validation."""

    @staticmethod
    def assert_valid(g: SymGraph) -> None:
        again = SymGraph(g.n_nodes, g.adj_starts.copy(), g.adj.copy())
        assert np.array_equal(again.adj_starts, g.adj_starts) and np.array_equal(again.adj, g.adj)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_library_built_graphs_validate(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 40))
        m = int(rng.integers(0, 4 * n + 1)) if n else 0
        u, v = rng.integers(0, max(n, 1), m), rng.integers(0, max(n, 1), m)
        g = SymGraph.from_edges(n, u, v)
        self.assert_valid(g)
        assert edge_pairs(g) == {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist()) if a != b}

        diagonal = np.flatnonzero(rng.random(n) < 0.5)
        rows = np.concatenate([u, v, diagonal])
        cols = np.concatenate([v, u, diagonal])
        pattern = SparsityPattern.from_coo(n, rows, cols)
        dual = build_dual(pattern)
        self.assert_valid(dual)
        assert edge_pairs(dual) == edge_pairs(g)

        dim = int(rng.integers(1, 4))
        blocks = SparsityPattern.from_coo(n * dim, rows * dim + rng.integers(0, dim, rows.size),
                                          cols * dim + rng.integers(0, dim, cols.size))
        sym = SparsityPattern.from_coo(n * dim, *np.concatenate([blocks.to_coo(), blocks.to_coo()[::-1]], axis=1))
        compressed = compress_by_dim(sym, dim)
        self.assert_valid(compressed)
        assert edge_pairs(compressed) == edge_pairs(g)

        sub, nodes = induced_subgraph(g, rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
        self.assert_valid(sub)
        inside = {int(x): i for i, x in enumerate(nodes)}
        assert edge_pairs(sub) == {(inside[a], inside[b]) for a, b in edge_pairs(g) if a in inside and b in inside}


def reference_bfs(g: SymGraph, root: int) -> list[int]:
    """Queue-based BFS hop distances, -1 for unreachable nodes."""
    dist = [-1] * g.n_nodes
    dist[root] = 0
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x).tolist():
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def reference_components(g: SymGraph, mask) -> list[list[int]]:
    """Union-find over the edges inside the mask; sorted lists by smallest node."""
    allowed = [True] * g.n_nodes if mask is None else [bool(x) for x in mask]
    parent = list(range(g.n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edge_pairs(g):
        if allowed[a] and allowed[b]:
            parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for x in range(g.n_nodes):
        if allowed[x]:
            groups.setdefault(find(x), []).append(x)
    return sorted(groups.values(), key=lambda c: c[0])


def reference_labels(g: SymGraph, mask) -> list[int]:
    """`reference_components` as `component_labels` names them: each node's smallest component node, -1 outside the mask."""
    label = [-1] * g.n_nodes
    for comp in reference_components(g, mask):
        for x in comp:
            label[x] = comp[0]
    return label


def reference_multi_bfs(g: SymGraph, roots, blocked) -> list[int]:
    """Per node the least `reference_bfs` distance over the roots, with the blocked nodes' edges removed."""
    shut = np.zeros(g.n_nodes, dtype=bool) if blocked is None else np.asarray(blocked)
    u, v = g.edges()
    open_edges = ~(shut[u] | shut[v])
    cut = SymGraph.from_edges(g.n_nodes, u[open_edges], v[open_edges])
    out = [-1] * g.n_nodes
    for root in np.asarray(roots).tolist():
        for x, d in enumerate(reference_bfs(cut, root)):
            if d >= 0 and not shut[x] and (out[x] < 0 or d < out[x]):
                out[x] = d
    return out


def shuffled_path(rng: np.random.Generator, n: int) -> SymGraph:
    """A path visiting the nodes in random order: n-1 hops, labels far apart."""
    order = rng.permutation(n)
    return SymGraph.from_edges(n, order[:-1], order[1:])


def traversal_graph(rng: np.random.Generator, n: int) -> SymGraph:
    """Sparse random graph, often with isolated nodes, or a shuffled path plus chords."""
    if n and rng.random() < 0.3:
        path = shuffled_path(rng, n)
        u, v = path.edges()
        extra = int(rng.integers(0, 3))
        u = np.concatenate([u, rng.integers(0, n, extra)])
        v = np.concatenate([v, rng.integers(0, n, extra)])
        return SymGraph.from_edges(n, u, v)
    m = int(rng.integers(0, 2 * n + 1)) if n else 0
    return SymGraph.from_edges(n, rng.integers(0, max(n, 1), m), rng.integers(0, max(n, 1), m))


def random_mask(rng: np.random.Generator, n: int):
    return None if rng.random() < 0.4 else rng.random(n) < rng.uniform(0.2, 1.0)


class TestTraversal:
    """bfs_distances and component_labels against plain-Python references."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bfs_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 70))
        g = traversal_graph(rng, n)
        for root in rng.choice(n, size=min(n, 3), replace=False).tolist():
            assert bfs_distances(g, root).tolist() == reference_bfs(g, root)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000))
    def test_components_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 70))
        g = traversal_graph(rng, n)
        mask = random_mask(rng, n)
        label = component_labels(g, mask)
        assert label.tolist() == reference_labels(g, mask)
        assert label.dtype == np.int64

    def test_isolated_nodes(self):
        g = SymGraph.from_edges(6, [1], [4])
        assert bfs_distances(g, 0).tolist() == [0, -1, -1, -1, -1, -1]
        assert component_labels(g).tolist() == [0, 1, 2, 3, 1, 5]
        mask = np.array([True, False, True, False, True, True])
        assert component_labels(g, mask).tolist() == [0, -1, 2, -1, 4, 5]

    def test_tiny_graphs(self):
        assert component_labels(SymGraph.empty(0)).tolist() == []
        assert component_labels(SymGraph.empty(0), np.zeros(0, dtype=bool)).tolist() == []
        one = SymGraph.empty(1)
        assert bfs_distances(one, 0).tolist() == [0]
        assert component_labels(one).tolist() == [0]
        assert component_labels(one, np.array([False])).tolist() == [-1]

    def test_shuffled_long_path(self):
        # label propagation along a path needs as many rounds as the path is
        # long unless labels jump; shuffled labels defeat any index locality
        rng = np.random.default_rng(11)
        n = 3000
        g = shuffled_path(rng, n)
        assert component_labels(g).tolist() == [0] * n
        end = int(np.flatnonzero(np.diff(g.adj_starts) == 1)[0])
        assert bfs_distances(g, end).tolist() == reference_bfs(g, end)
        mask = rng.random(n) < 0.9
        assert component_labels(g, mask).tolist() == reference_labels(g, mask)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_multi_source_blocked_bfs(self, seed):
        # from several roots the distance is the nearest root's; a blocked
        # node is never entered, as if its edges were gone, and reads -1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 70))
        g = traversal_graph(rng, n)
        roots = rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False)
        blocked = None
        if rng.random() < 0.7:
            blocked = rng.random(n) < 0.2
            blocked[roots] = False
        assert bfs_distances(g, roots, blocked).tolist() == reference_multi_bfs(g, roots, blocked)

    @pytest.mark.parametrize("n", [_LIST_BFS_MAX, _LIST_BFS_MAX + 1])
    def test_multi_source_blocked_both_branches(self, n):
        rng = np.random.default_rng(n)
        g = shuffled_path(rng, n)
        roots = rng.choice(n, size=3, replace=False)
        blocked = rng.random(n) < 0.001
        blocked[roots] = False
        assert bfs_distances(g, roots, blocked).tolist() == reference_multi_bfs(g, roots, blocked)

    def test_component_labels_name_the_smallest_node(self):
        g = SymGraph.from_edges(6, [1, 4, 2], [4, 5, 3])
        assert component_labels(g).tolist() == [0, 1, 2, 2, 1, 1]
        mask = np.array([True, True, False, True, False, True])
        assert component_labels(g, mask).tolist() == [0, 1, -1, 3, -1, 5]

    @pytest.mark.parametrize("n", [_LIST_BFS_MAX, _LIST_BFS_MAX + 1])
    def test_both_bfs_branches(self, n):
        # the largest graph searched over Python lists and the smallest
        # searched with numpy; both run to the far end of a long path
        rng = np.random.default_rng(n)
        g = shuffled_path(rng, n)
        end = int(np.flatnonzero(np.diff(g.adj_starts) == 1)[0])
        dist = bfs_distances(g, end)
        assert dist.tolist() == reference_bfs(g, end) and dist.max() == n - 1
