import operator
from collections import deque
from contextlib import contextmanager
from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parth import (
    AsymmetricPattern,
    BallTooSmall,
    DimMismatch,
    IndexOutOfBounds,
    InvalidArgument,
    InvalidMap,
    NodeMap,
    SparsityPattern,
    SymGraph,
    build_dual,
    compress_by_dim,
    grid_laplacian,
    inject_contacts,
    patch_remesh,
)
from parth import graph
from parth.graph import (
    MAX_ROWS,
    _LIST_BFS_MAX,
    _unique,
    bfs_distances,
    component_labels,
    edge_set_diff,
    induced_subgraph,
    is_structurally_symmetric,
)
from parth.hgd import hgd_build, hgd_redecompose
from parth.separator import LevelSetEngine
from conftest import (
    NINE_EDGES_FIRST,
    edge_pairs,
    graph_from_edges,
    has_edge,
    n_edges,
    nine_node_graphs,
    pattern_from_edges,
    random_pattern,
    reference_edge_diff,
)

# the message of an index array that is not 1-D and integer
ARRAY = "1-D integer array"


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
        with pytest.raises(InvalidArgument, match="dim must be an integer"):
            compress_by_dim(pattern_from_edges(4, [(0, 1)]), 2.0)  # 2.0 would divide the 4 rows

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
        g_old = graph_from_edges(3, [0, 1], [1, 2])
        g_new = graph_from_edges(3, [0, 0], [1, 2])
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
        g_old = graph_from_edges(3, [0, 1], [1, 2])
        g_new = graph_from_edges(2, [], [])
        node_map = NodeMap(np.array([0, 2]), 3)
        added, removed = edge_set_diff(g_old, g_new, node_map)
        assert added.size == 0 and removed.size == 0

    def test_added_node_edges_all_added(self):
        g_old = graph_from_edges(2, [0], [1])
        g_new = graph_from_edges(3, [0, 0, 1], [1, 2, 2])
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
    return graph_from_edges(n, rng.integers(0, max(n, 1), m), rng.integers(0, max(n, 1), m))


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
    return graph_from_edges(n_new, u, v)


class TestEdgeDiffRows:
    """`edge_set_diff` reads only the changed rows under the identity map and every row otherwise.

    Both give the same sets, so only the rows handed to `SymGraph.edges` show the restriction.
    """

    @pytest.fixture
    def spied(self, monkeypatch):
        """(rows passed to `SymGraph.edges`, number of `changed_rows` calls) of the diffs run under it."""
        rows, calls = [], []
        real_edges, real_changed = SymGraph.edges, graph.changed_rows
        monkeypatch.setattr(SymGraph, "edges", lambda g, r=None: rows.append(r) or real_edges(g, r))
        monkeypatch.setattr(graph, "changed_rows", lambda *a: calls.append(a) or real_changed(*a))
        return rows, calls

    @staticmethod
    def diff(spied, old: SparsityPattern, new: SparsityPattern, node_map: NodeMap | None = None):
        """The spy's record of one diff between the patterns' graphs, checked against the reference."""
        g_old, g_new = build_dual(old), build_dual(new)
        node_map = NodeMap.identity(g_old.n_nodes) if node_map is None else node_map
        added, removed = edge_set_diff(g_old, g_new, node_map)
        rows, calls = list(spied[0]), len(spied[1])
        assert (added.tolist(), removed.tolist()) == reference_edge_diff(g_old, g_new, node_map.entries)
        return rows, calls

    def test_a_contact_step_reads_only_the_changed_rows(self, spied):
        pattern, _ = grid_laplacian(12, 12)
        rows, calls = self.diff(spied, pattern, inject_contacts(pattern, 70, 3, 12, seed=1))
        assert calls == 1 and len(rows) == 2
        assert all(r is not None and 0 < r.size < 144 for r in rows)
        assert np.array_equal(rows[0], rows[1])

    def test_a_map_step_reads_every_row(self, spied):
        pattern, _ = grid_laplacian(12, 12)
        assert self.diff(spied, pattern, *patch_remesh(pattern, 70, 1, 1.5, seed=1)) == ([None, None], 0)

    def test_a_step_past_the_limit_reads_every_row(self, spied):
        # (r, r + 2) in every row changes all 144 rows, past changed_rows' limit of 64
        pattern, _ = grid_laplacian(12, 12)
        rows, cols = pattern.to_coo()
        extra = np.arange(142)
        denser = SparsityPattern.from_coo(144, np.r_[rows, extra, extra + 2], np.r_[cols, extra + 2, extra])
        assert self.diff(spied, pattern, denser) == ([None, None], 1)


class TestInducedSubgraph:
    def test_path_endpoints(self):
        g = graph_from_edges(3, [0, 1], [1, 2])
        sub, back = induced_subgraph(g, [0, 2])
        assert sub.n_nodes == 2 and n_edges(sub) == 0
        assert back.tolist() == [0, 2]

    def test_full_set_is_copy(self):
        g, _ = nine_node_graphs()
        sub, back = induced_subgraph(g, np.arange(9))
        assert np.array_equal(sub.adj, g.adj)
        assert back.tolist() == list(range(9))

    def test_triangle_pair(self):
        g = graph_from_edges(3, [0, 0, 1], [1, 2, 2])
        sub, back = induced_subgraph(g, [0, 1])
        assert n_edges(sub) == 1 and back.tolist() == [0, 1]

    def test_out_of_bounds(self):
        g = graph_from_edges(3, [], [])
        with pytest.raises(IndexOutOfBounds):
            induced_subgraph(g, [5])


class TestUnique:
    """The sort-based dedupe returns exactly what np.unique returns."""

    @given(st.lists(st.integers(-50, 50), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_np_unique(self, values):
        a = np.array(values, dtype=np.int64)
        want = np.unique(a)
        got = _unique(a)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()

    def test_strictly_increasing_input_is_returned_as_is(self):
        a = np.array([-3, 0, 7, 9], dtype=np.int64)
        assert _unique(a) is a

    def test_input_may_come_back_sorted_in_place(self):
        a = np.array([7, -3, 7, 0, -3], dtype=np.int64)
        assert _unique(a).tolist() == [-3, 0, 7]
        assert a.tolist() == [-3, -3, 0, 7, 7]

    def test_induced_subgraph_keeps_no_reference_to_sorted_nodes(self):
        g = graph_from_edges(4, [0, 1, 2], [1, 2, 3])
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
        ],
        ids=["offsets_length", "column_range", "unsorted_row", "coo_row_range", "self_loop"],
    )
    def test_malformed_input_rejected(self, build, message):
        with pytest.raises(IndexOutOfBounds, match=message):
            build()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SparsityPattern(2, [0, 1, 2], [0.9, 1.7]), ARRAY),
            (lambda: SparsityPattern(2, [0.0, 1.0, 2.0], [0, 1]), ARRAY),
            (lambda: SparsityPattern(2, [0, 1, 2], [[0], [1]]), ARRAY),
            (lambda: SparsityPattern(2, [0, 1, 2], ["0", "1"]), ARRAY),
            (lambda: SparsityPattern(2, [0, 1, 2], [False, True]), ARRAY),
            (lambda: SparsityPattern.from_coo(3, [0, 1, 2], [0]), "row indices but"),
            (lambda: SparsityPattern.from_coo(3, [0, 1], [0, 1, 2]), "row indices but"),
            (lambda: SparsityPattern.from_coo(3, [0.5], [1]), ARRAY),
            (lambda: SparsityPattern.from_coo(3, [[0, 1]], [[1, 0]]), ARRAY),
            (lambda: SymGraph(2, [0, 1, 2], [1.0, 0.0]), ARRAY),
            (lambda: NodeMap([0.5, 1.0], 2), ARRAY),
            (lambda: NodeMap(np.zeros((2, 1), np.int64), 2), ARRAY),
            (lambda: SparsityPattern.from_coo(-1, [], []), "n_rows must be >= 0"),
            (lambda: SparsityPattern.from_coo(2.5, [0], [0]), "n_rows must be an integer"),
            (lambda: SparsityPattern.from_coo("3", [0], [0]), "n_rows must be an integer"),
            (lambda: SparsityPattern.from_coo(None, [], []), "n_rows must be an integer"),
            (lambda: SparsityPattern(-1, [0], []), "n_rows must be >= 0"),
            (lambda: SparsityPattern(2.0, [0, 0, 0], []), "n_rows must be an integer"),
            (lambda: SparsityPattern(True, [0, 0], []), "n_rows must be an integer"),
            (lambda: SparsityPattern.from_coo(np.True_, [], []), "n_rows must be an integer"),
            (lambda: SymGraph(3.0, [0, 0, 0, 0], []), "n_nodes must be an integer"),
            (lambda: SymGraph("3", [0, 0, 0, 0], []), "n_nodes must be an integer"),
            (lambda: SymGraph(True, [0, 0], []), "n_nodes must be an integer"),
            (lambda: SymGraph(-1, [0], []), "n_nodes must be >= 0"),
            (lambda: compress_by_dim(SparsityPattern(2, [0, 1, 2], [0, 1]), True), "dim must be an integer"),
            # an int64 cast would wrap these to negative indices
            (lambda: NodeMap(np.array([0, 1, 2**64 - 1], np.uint64), 2), "entries holds values above int64"),
            (lambda: NodeMap(np.array([0, 2**63], np.uint64), 3), "entries holds values above int64"),
            (lambda: SparsityPattern(2, [0, 1, 2], np.array([0, 2**64 - 1], np.uint64)), "col_indices holds values above"),
            (lambda: SparsityPattern.from_coo(2, np.array([2**64 - 1], np.uint64), [0]), "rows holds values above"),
            (lambda: SymGraph(2, np.array([0, 1, 2], np.uint64), np.array([1, 2**63], np.uint64)), "adj holds values above"),
        ],
        ids=[
            "float_columns", "float_offsets", "2d_columns", "string_columns", "bool_columns",
            "coo_one_column", "coo_one_row_short", "coo_float_rows", "coo_2d",
            "float_neighbors", "float_map", "2d_map",
            "coo_negative_n", "coo_float_n", "coo_string_n", "coo_none_n", "negative_n", "float_n",
            "bool_n", "coo_bool_n", "graph_float_n", "graph_string_n", "graph_bool_n", "graph_negative_n",
            "bool_dim",
            "uint64_map_wraps", "uint64_map_high", "uint64_columns", "uint64_coo_rows", "uint64_neighbors",
        ],
    )
    def test_non_index_arrays_rejected(self, build, message):
        with pytest.raises(InvalidArgument, match=message):
            build()

    @pytest.mark.parametrize("n_rows", [3, np.int64(3), np.uint8(3)])
    def test_row_count_is_stored_as_an_int(self, n_rows):
        n = operator.index(n_rows)
        pattern = SparsityPattern(n_rows, [0] * (n + 1), [])
        assert type(pattern.n_rows) is int and pattern.n_rows == n
        assert type(SparsityPattern.from_coo(n_rows, [], []).n_rows) is int

    def test_small_unsigned_arrays_accepted(self):
        assert NodeMap(np.array([0, 1, 2], np.uint8), 3).is_identity
        assert NodeMap(np.array([2, 0], np.uint64), 3).o2n.tolist() == [1, -1, 0]
        assert SymGraph(2, np.array([0, 1, 2], np.uint64), np.array([1, 0], np.uint64)).n_nodes == 2

    def test_empty_arrays_of_any_dtype_accepted(self):
        assert SparsityPattern(0, [0], []).nnz == 0
        assert SymGraph(2, [0, 0, 0], np.empty(0)).n_nodes == 2
        assert SparsityPattern.from_coo(2, [], []).nnz == 0
        assert NodeMap([], 0).n_new == 0


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
        with pytest.raises(InvalidMap, match="previous graph of -1 nodes"):
            NodeMap(np.array([], dtype=np.int64), -1)
        # refused before anything of that size is allocated
        with pytest.raises(InvalidMap, match=rf"previous graph of {10**30} nodes, outside \[0, {MAX_ROWS}\]"):
            NodeMap(np.array([0]), 10**30)
        with pytest.raises(InvalidMap, match=f"n must be <= {MAX_ROWS}"):
            NodeMap.identity(10**30)

    @pytest.mark.parametrize("n_old", [3.7, "3", None, 3.0, True])
    def test_non_integer_previous_size_rejected(self, n_old):
        # int() would read 3.7 and "3" as 3, and build a 3-node identity map
        with pytest.raises(InvalidMap, match="n_old must be an integer"):
            NodeMap(np.arange(3), n_old)

    def test_previous_size_takes_numpy_integers(self):
        m = NodeMap(np.arange(3), np.int32(3))
        assert type(m.n_old) is int and m.is_identity


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
        g = graph_from_edges(n, u, v)
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


class TestGeneratedPatterns:
    """The generators build their patterns unchecked; every one must pass the public validation."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9), st.integers(2, 9), st.data())
    def test_contacts_and_remesh_validate(self, nx, ny, data):
        pattern, _ = grid_laplacian(nx, ny)
        for kind in data.draw(st.lists(st.sampled_from(["contacts", "remesh"]), min_size=1, max_size=4)):
            center, radius = data.draw(st.integers(0, pattern.n_rows - 1)), data.draw(st.integers(0, 4))
            seed = data.draw(st.integers(0, 2**31 - 1))
            try:
                if kind == "contacts":
                    pattern = inject_contacts(pattern, center, radius, data.draw(st.integers(0, 20)), seed)
                else:
                    pattern, _ = patch_remesh(pattern, center, radius, data.draw(st.floats(0.1, 3.0)), seed)
            except BallTooSmall:
                continue
            again = SparsityPattern(pattern.n_rows, pattern.row_starts.copy(), pattern.col_indices.copy())
            assert np.array_equal(again.row_starts, pattern.row_starts)
            assert np.array_equal(again.col_indices, pattern.col_indices)
            assert is_structurally_symmetric(pattern)


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
    cut = graph_from_edges(g.n_nodes, u[open_edges], v[open_edges])
    out = [-1] * g.n_nodes
    for root in np.asarray(roots).tolist():
        for x, d in enumerate(reference_bfs(cut, root)):
            if d >= 0 and not shut[x] and (out[x] < 0 or d < out[x]):
                out[x] = d
    return out


def shuffled_path(rng: np.random.Generator, n: int) -> SymGraph:
    """A path visiting the nodes in random order: n-1 hops, labels far apart."""
    order = rng.permutation(n)
    return graph_from_edges(n, order[:-1], order[1:])


def traversal_graph(rng: np.random.Generator, n: int) -> SymGraph:
    """Sparse random graph, often with isolated nodes, or a shuffled path plus chords."""
    if n and rng.random() < 0.3:
        path = shuffled_path(rng, n)
        u, v = path.edges()
        extra = int(rng.integers(0, 3))
        u = np.concatenate([u, rng.integers(0, n, extra)])
        v = np.concatenate([v, rng.integers(0, n, extra)])
        return graph_from_edges(n, u, v)
    m = int(rng.integers(0, 2 * n + 1)) if n else 0
    return graph_from_edges(n, rng.integers(0, max(n, 1), m), rng.integers(0, max(n, 1), m))


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
        g = graph_from_edges(6, [1], [4])
        assert bfs_distances(g, 0).tolist() == [0, -1, -1, -1, -1, -1]
        assert component_labels(g).tolist() == [0, 1, 2, 3, 1, 5]
        mask = np.array([True, False, True, False, True, True])
        assert component_labels(g, mask).tolist() == [0, -1, 2, -1, 4, 5]

    def test_tiny_graphs(self):
        assert component_labels(graph_from_edges(0, [], [])).tolist() == []
        assert component_labels(graph_from_edges(0, [], []), np.zeros(0, dtype=bool)).tolist() == []
        one = graph_from_edges(1, [], [])
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
        g = graph_from_edges(6, [1, 4, 2], [4, 5, 3])
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


class TestNeighborLists:
    """`SymGraph._neighbor_lists`, the list view `bfs_distances` reads up to `_LIST_BFS_MAX` nodes."""

    @staticmethod
    def assert_rows(g: SymGraph) -> None:
        assert g._neighbor_lists == [g.neighbors(i).tolist() for i in range(g.n_nodes)]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_view_is_the_rows_of_every_kind_of_graph(self, seed):
        # the public constructor, `_trusted` (build_dual), induced_subgraph, and _splice (a row-diff ingest)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        old = random_pattern(rng, n)
        g = build_dual(old)
        public = SymGraph(n, g.adj_starts.copy(), g.adj.copy())
        sub, _ = induced_subgraph(g, rng.choice(n, size=int(rng.integers(0, n)), replace=False))
        rows, cols = old.to_coo()
        k = rng.choice(np.flatnonzero(rows != cols))
        a, b = rows[k], cols[k]
        drop = ((rows == a) & (cols == b)) | ((rows == b) & (cols == a))  # an edge gone: two rows change
        new = SparsityPattern.from_coo(n, rows[~drop], cols[~drop])
        with mock.patch.object(graph, "_splice", wraps=graph._splice) as splice:
            spliced = build_dual(new, (old, g))
        assert splice.called
        for h in (g, public, sub, spliced):
            self.assert_rows(h)

    def test_built_once_per_graph_in_a_build(self):
        g = build_dual(grid_laplacian(64, 64)[0])
        with counted_views() as built:
            tree = hgd_build(g, 4, LevelSetEngine())
        assert len(built) == 1 and built[0] is g
        region = tree.subtree_union(1)
        with counted_views() as built:
            hgd_redecompose(tree, 1, g, region, LevelSetEngine())
        assert len(built) == 1 and built[0].n_nodes == region.size

    def test_never_built_above_the_list_search(self):
        g = build_dual(grid_laplacian(91, 91)[0])
        assert g.n_nodes > _LIST_BFS_MAX
        with counted_views() as built:
            hgd_build(g, 3, LevelSetEngine())
        assert built == [] and "_neighbor_lists" not in vars(g)


@contextmanager
def counted_views():
    """Within the block, every build of a graph's neighbour-list view appends that graph to the yielded list."""
    built, build = [], vars(SymGraph)["_neighbor_lists"].func

    def counting(g: SymGraph) -> list[list[int]]:
        built.append(g)
        return build(g)

    view = cached_property(counting)
    view.__set_name__(SymGraph, "_neighbor_lists")
    with mock.patch.object(SymGraph, "_neighbor_lists", view):
        yield built
