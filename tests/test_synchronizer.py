import numpy as np
import pytest

from parth import (
    BallTooSmall,
    InvalidMap,
    NodeMap,
    Parth,
    ParthConfig,
    build_dual,
    grid_laplacian,
    inject_contacts,
    patch_remesh,
)
from parth.graph import edge_set_diff
from parth.hgd import hgd_build, lca_of
from parth.separator import LevelSetEngine
from parth.synchronizer import (
    ADDED,
    REMOVED,
    TreeEdgeChange,
    aggressive_reuse,
    dirty_subgraph_detection,
    filter_redundant_subgraphs,
    map_edges_to_tree,
    mark_and_decompose,
    node_change_synchronizer,
    synchronize,
)
from conftest import (
    NINE_TREE_SETS,
    apply_edge_delta,
    graph_from_edges,
    has_edge,
    nine_node_graphs,
    random_pattern,
    total_nodes,
    tree_from_node_sets,
    unchanged_slots,
)


@pytest.fixture(scope="module")
def engine():
    return LevelSetEngine()


def nine_tree(g=None):
    return tree_from_node_sets(2, NINE_TREE_SETS, g=g)


class TestNodeChangeSynchronizer:
    def test_identity_touches_nothing(self):
        g1, _ = nine_node_graphs()
        tree = nine_tree(g1)
        before = [tree.slot_nodes(i).copy() for i in range(tree.size)]
        touched = node_change_synchronizer(tree, NodeMap.identity(9), g1)
        assert touched == set()
        for i, arr in enumerate(before):
            assert np.array_equal(tree.slot_nodes(i), arr)

    def test_relabel_maps_arrays_in_order(self):
        # a pure renumbering keeps each array's order and its ordered flag
        g1, _ = nine_node_graphs()
        tree = nine_tree(g1)
        tree.perm = np.concatenate([tree.slot_nodes(i)[::-1] for i in tree.post_order])
        tree.ordered[:] = True
        before = [tree.slot_nodes(i).copy() for i in range(tree.size)]
        new_of_old = np.array([4, 7, 0, 8, 2, 6, 1, 3, 5])
        entries = np.empty(9, dtype=np.int64)
        entries[new_of_old] = np.arange(9)
        rows, cols = g1.edges()
        g_new = graph_from_edges(9, new_of_old[rows], new_of_old[cols])
        assert node_change_synchronizer(tree, NodeMap(entries, 9), g_new) == set()
        for i, arr in enumerate(before):
            assert np.array_equal(tree.slot_nodes(i), new_of_old[arr])
        assert tree.ordered.all()

    def test_removed_node_reported(self):
        g1, _ = nine_node_graphs()
        tree = nine_tree(g1)
        # drop graph node 5 (lives in tree leaf 3); survivors keep their order
        entries = [0, 1, 2, 3, 4, 6, 7, 8]
        g_new = graph_from_edges(8, [0, 1], [1, 4])  # edges irrelevant here
        touched = node_change_synchronizer(tree, NodeMap(np.array(entries), 9), g_new)
        assert touched == {3}
        assert tree.slot_nodes(3).size == 0
        assert total_nodes(tree) == 8

    def test_added_node_joins_neighbor_leaf(self):
        g1, _ = nine_node_graphs()
        tree = nine_tree(g1)
        # new node 9 adjacent only to node 5 (leaf index 3)
        u = [e[0] for e in g1.edges()[0:1]]  # placeholder, rebuilt below
        eu, ev = g1.edges()
        eu, ev = list(eu) + [5], list(ev) + [9]
        g_new = graph_from_edges(10, eu, ev)
        entries = list(range(9)) + [-1]
        touched = node_change_synchronizer(tree, NodeMap(np.array(entries), 9), g_new)
        assert touched == {3}
        assert tree.slot_nodes(3).tolist() == [5, 9]
        assert tree.separator_violations(g_new) == []

    def test_isolated_added_node_joins_root(self):
        g1, _ = nine_node_graphs()
        tree = nine_tree(g1)
        eu, ev = g1.edges()
        g_new = graph_from_edges(10, eu, ev)
        touched = node_change_synchronizer(tree, NodeMap(np.array(list(range(9)) + [-1]), 9), g_new)
        assert touched == {0}
        assert 9 in tree.slot_nodes(0).tolist()

    def test_bad_map_rejected(self):
        g1, _ = nine_node_graphs()
        tree = nine_tree(g1)
        with pytest.raises(InvalidMap):
            NodeMap(np.array([0] * 9), 9)  # a duplicate never becomes a map
        before = [tree.slot_nodes(i).copy() for i in range(tree.size)]
        for node_map in (NodeMap.identity(8), NodeMap(np.arange(9), 10)):
            with pytest.raises(InvalidMap):  # sized for another tree or graph
                node_change_synchronizer(tree, node_map, g1)
        assert all(np.array_equal(tree.slot_nodes(i), arr) for i, arr in enumerate(before))


class TestMapEdgesToTree:
    def test_nine_node_pairs(self):
        g1, g2 = nine_node_graphs()
        tree = nine_tree(g1)
        added, removed = edge_set_diff(g1, g2, NodeMap.identity(9))
        changes, fine = map_edges_to_tree(tree, added, removed)
        pairs = {(c.a, c.b, c.kind) for c in changes}
        assert pairs == {(0, 1, ADDED), (5, 6, ADDED), (2, 6, REMOVED)}
        assert fine == set()

    def test_edge_inside_one_leaf_is_fine_grain(self):
        g1, _ = nine_node_graphs()
        tree = tree_from_node_sets(1, [[0, 1, 4], [5, 6, 7], [2, 3, 8]], g=g1)
        changes, fine = map_edges_to_tree(tree, np.array([[5, 7]]), np.empty((0, 2), np.int64))
        assert changes == [] and fine == {1}

    def test_empty_delta(self):
        g1, _ = nine_node_graphs()
        tree = nine_tree(g1)
        changes, fine = map_edges_to_tree(
            tree, np.empty((0, 2), np.int64), np.empty((0, 2), np.int64)
        )
        assert changes == [] and fine == set()


class TestDirtyDetection:
    def test_nine_node_changes(self):
        tree = nine_tree()
        changes = [
            TreeEdgeChange(0, 1, ADDED, 0, 6),
            TreeEdgeChange(2, 6, ADDED, 2, 8),
            TreeEdgeChange(5, 6, ADDED, 3, 8),
        ]
        # ancestor-related changes produce no dirt at all
        assert dirty_subgraph_detection(tree, changes) == {2}

    def test_removed_cross_edge_marks_endpoints(self):
        # no step produces one (a removed edge never crosses disjoint subtrees); were one
        # to arrive, it would be dismissed like every change but an added crossing one
        tree = nine_tree()
        assert dirty_subgraph_detection(tree, [TreeEdgeChange(3, 4, REMOVED, 5, 7)]) == set()

    def test_no_changes(self):
        tree = nine_tree()
        assert dirty_subgraph_detection(tree, []) == set()

    def test_change_requires_endpoints(self):
        # aggressive_reuse looks the endpoints up; there is no placeholder for them
        with pytest.raises(TypeError):
            TreeEdgeChange(3, 4, ADDED)


class TestFilter:
    def test_nested_coarse_dropped(self):
        fine, coarse = filter_redundant_subgraphs(set(), {2, 5})
        assert coarse == {2}

    def test_fine_inside_coarse_dropped(self):
        fine, coarse = filter_redundant_subgraphs({5}, {2})
        assert fine == set() and coarse == {2}

    def test_disjoint_untouched(self):
        fine, coarse = filter_redundant_subgraphs({3}, {2})
        assert fine == {3} and coarse == {2}

    def test_only_removes_entries(self):
        rng = np.random.default_rng(44)
        size = 31  # 4-level tree
        for _ in range(50):
            fine = set(map(int, rng.choice(size, size=rng.integers(0, 8), replace=False)))
            coarse = set(map(int, rng.choice(size, size=rng.integers(0, 6), replace=False)))
            f2, c2 = filter_redundant_subgraphs(fine, coarse)
            assert f2 <= fine and c2 <= coarse


class TestMarkAndDecompose:
    def test_nine_node_coarse_region(self, engine):
        g1, g2 = nine_node_graphs()
        tree = nine_tree(g1)
        dirty = mark_and_decompose(tree, g2, set(), {2}, engine)
        assert sorted(np.flatnonzero(~dirty.reuse_mask).tolist()) == [2, 5, 6]
        assert dirty.dirty_node_total == 3

    def test_no_dirt(self, engine):
        g1, _ = nine_node_graphs()
        tree = nine_tree(g1)
        dirty = mark_and_decompose(tree, g1, set(), set(), engine)
        assert bool(dirty.reuse_mask.all())

    def test_root_region_recomputes_everything(self, engine):
        g1, _ = nine_node_graphs()
        tree = nine_tree(g1)
        dirty = mark_and_decompose(tree, g1, set(), {0}, engine)
        assert not dirty.reuse_mask.any()
        assert dirty.dirty_node_total == 9


class TestAggressiveReuse:
    def test_cross_root_edge_moved(self, engine):
        # two-level tree over a 12-node path; add an edge between opposite halves
        g = graph_from_edges(12, list(range(11)), list(range(1, 12)))
        tree = hgd_build(g, 2, engine)
        u = int(tree.subtree_union(1)[0])
        v = int(tree.subtree_union(2)[0])
        eu, ev = g.edges()
        g_new = graph_from_edges(12, list(eu) + [u], list(ev) + [v])
        changes, _ = map_edges_to_tree(
            tree, np.array([[min(u, v), max(u, v)]]), np.empty((0, 2), np.int64)
        )
        out, extra = aggressive_reuse(tree, g_new, changes, theta=0.5)
        assert out == []  # the change was defused
        assert 0 in extra
        assert tree.separator_violations(g_new) == []

    def test_ancestor_related_untouched(self, engine):
        g1, g2 = nine_node_graphs()
        tree = nine_tree(g1)
        changes = [TreeEdgeChange(0, 1, ADDED, 0, 6)]
        out, extra = aggressive_reuse(tree, g2, changes, theta=0.5)
        assert [(c.a, c.b) for c in out] == [(0, 1)]
        assert extra == set()

    def test_threshold_not_met(self, engine):
        g1, g2 = nine_node_graphs()
        tree = nine_tree(g1)
        changes = [TreeEdgeChange(5, 6, ADDED, 3, 8)]
        out, extra = aggressive_reuse(tree, g2, changes, theta=1.0)
        assert [(c.a, c.b) for c in out] == [(5, 6)]
        assert extra == set()


    def test_move_refused_while_the_mover_would_still_cross(self, engine):
        # u (tree node 3) gains an edge to v (node 4), which crosses at their
        # LCA, node 1, and a second edge to w in node 2, outside subtree 1.
        # Moving u into node 1 would leave (u, w) crossing the root, so the
        # (u, v) change stays coarse. (u, w) is defused by moving w, the
        # endpoint in the smaller tree node, into the root.
        pattern, _ = grid_laplacian(8, 8)
        g_old = build_dual(pattern)
        tree = hgd_build(g_old, 2, engine)
        u, v, w = (int(tree.slot_nodes(i).min()) for i in (3, 4, 2))
        # u is the mover of (u, v): nodes 3 and 4 tie in size and u is the lower
        # index; (u, v) comes first in edge order, so it is tried first
        assert tree.slot_nodes(3).size == tree.slot_nodes(4).size > tree.slot_nodes(2).size
        assert u < v < w and not has_edge(g_old, u, v) and not has_edge(g_old, u, w)
        g_new = build_dual(apply_edge_delta(pattern, [(u, v), (u, w)], []))
        dirty = synchronize(tree, g_old, g_new, NodeMap.identity(64), engine, theta=0.0)
        assert dirty.coarse == {1}
        assert tree.owner[w] == 0
        assert tree.separator_violations(g_new) == []
        tree.validate_partition(64)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1, 'Refresh the tree pairs of refused changes': a refused change keeps "
        "the tree pair it was tried with, so a later move of its endpoint goes unseen",
    )
    def test_refused_change_sees_a_later_move_of_its_endpoint(self):
        # node 1 (tree node 3) gains edges to 48 (node 4) and 55 (node 5). The
        # move for (1, 48) is refused while (1, 55) crosses the root; the move
        # for (1, 55) then puts node 1 in the root, where (1, 48) breaks no
        # separator. Its stale pair (3, 4) still rebuilds subtree 1.
        pattern, _ = grid_laplacian(8, 8)
        parth = Parth(ParthConfig(target_leaf=16, aggressive=True, theta=0.0))  # depth 2
        parth.start(pattern)
        assert parth.tree.owner[[1, 48, 55]].tolist() == [3, 4, 5]
        dirty, _ = parth.step(apply_edge_delta(pattern, [(1, 48), (1, 55)], []))
        assert parth.tree.owner[1] == 0
        assert dirty.coarse == frozenset()


class TestSynchronize:
    def test_nine_node_sequence(self, engine):
        g1, g2 = nine_node_graphs()
        tree = nine_tree(g1)
        dirty = synchronize(tree, g1, g2, NodeMap.identity(9), engine)
        assert sorted(np.flatnonzero(~dirty.reuse_mask).tolist()) == [2, 5, 6]
        assert tree.separator_violations(g2) == []

    def test_idempotent_on_unchanged_graph(self, engine):
        g1, _ = nine_node_graphs()
        tree = nine_tree(g1)
        before = [tree.slot_nodes(i).copy() for i in range(tree.size)]
        dirty = synchronize(tree, g1, g1, NodeMap.identity(9), engine)
        assert bool(dirty.reuse_mask.all())
        for i, arr in enumerate(before):
            assert np.array_equal(tree.slot_nodes(i), arr)

    def test_cross_root_edge_with_heuristic_stays_local(self, engine):
        # one added edge across the root split touches at most 3 tree nodes
        rng = np.random.default_rng(200)
        pattern = random_pattern(rng, 200)
        g_old = build_dual(pattern)
        tree = hgd_build(g_old, 3, engine)
        left, right = tree.subtree_union(1), tree.subtree_union(2)
        u, v = int(left[0]), int(right[0])
        assert not has_edge(g_old, u, v)
        p_new = apply_edge_delta(pattern, [(u, v)], [])
        g_new = build_dual(p_new)
        dirty = synchronize(tree, g_old, g_new, NodeMap.identity(200), engine, theta=0.5)
        assert int(np.count_nonzero(~dirty.reuse_mask)) <= 3
        assert tree.separator_violations(g_new) == []

    def test_soundness_random(self, engine):
        # after synchronize, every separator must hold on the new graph
        rng = np.random.default_rng(123)
        for _ in range(30):
            n = int(rng.integers(10, 160))
            p_old = random_pattern(rng, n)
            g_old = build_dual(p_old)
            tree = hgd_build(g_old, 3, engine)
            k = int(rng.integers(1, 6))
            add = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(k)]
            eu, ev = g_old.edges()
            picks = rng.integers(0, eu.size, size=min(3, eu.size))
            rem = [(int(eu[i]), int(ev[i])) for i in picks]
            p_new = apply_edge_delta(p_old, add, rem)
            g_new = build_dual(p_new)
            theta = 0.5 if rng.integers(0, 2) else None
            synchronize(tree, g_old, g_new, NodeMap.identity(n), engine, theta=theta)
            assert tree.separator_violations(g_new) == []
            tree.validate_partition(n)


def random_streams(config: ParthConfig, seeds, steps: int = 8):
    """Streams of contacts, edge removals, remeshes and no-ops on small grids.

    Yields after every step the engine, the step's DirtyState, each slot's
    nodes and the graph from before the step, and the step's node map (the
    identity on a step that passes none).
    """
    for seed in seeds:
        rng = np.random.default_rng(seed)
        base, _ = grid_laplacian(int(rng.integers(4, 10)), int(rng.integers(4, 10)))
        engine = Parth(config)
        engine.start(base)
        for kind in rng.choice(list("crmn"), size=steps):
            node_map = None
            center = int(rng.integers(base.n_rows))
            try:
                if kind == "c":
                    base = inject_contacts(base, center, 2, int(rng.integers(1, 6)), seed=int(rng.integers(2**31)))
                elif kind == "r":
                    eu, ev = build_dual(base).edges()
                    picks = rng.choice(eu.size, size=min(int(rng.integers(1, 7)), eu.size), replace=False)
                    base = apply_edge_delta(base, [], [(int(eu[i]), int(ev[i])) for i in picks])
                elif kind == "m":
                    base, node_map = patch_remesh(base, center, int(rng.integers(0, 2)),
                                                  densify=float(rng.choice([0.5, 1.0, 1.5])),
                                                  seed=int(rng.integers(2**31)))
            except BallTooSmall:  # the step then repeats the pattern
                pass
            tree, g_old = engine.tree, engine.graph
            before = [tree.slot_nodes(i).copy() for i in range(tree.size)]
            dirty, _ = engine.step(base, node_map)
            yield engine, dirty, before, g_old, NodeMap.identity(base.n_rows) if node_map is None else node_map


STREAM_CONFIGS = pytest.mark.parametrize(
    "config",
    [ParthConfig(target_leaf=4), ParthConfig(target_leaf=4, aggressive=True, theta=0.0),
     ParthConfig(target_leaf=4, aggressive=True, theta=0.3)],
    ids=["off", "theta0", "theta0.3"],
)


class TestRemovedEdgesStayInside:
    """A removed edge never crosses disjoint subtrees, so it marks only the slot it lies in."""

    @STREAM_CONFIGS
    def test_removed_changes_classified_are_ancestor_related(self, monkeypatch, config):
        removed = []
        real = dirty_subgraph_detection

        def spy(tree, changes):
            removed.extend((ch.a, ch.b) for ch in changes if ch.kind == REMOVED)
            return real(tree, changes)

        monkeypatch.setattr("parth.synchronizer.dirty_subgraph_detection", spy)
        for _ in random_streams(config, range(12)):
            pass
        assert removed, "no removed edge between two slots reached classification"
        assert [(a, b) for a, b in removed if lca_of(a, b) not in (a, b)] == []

    @STREAM_CONFIGS
    def test_every_fine_slot_changed_members_or_edges(self, monkeypatch, config):
        # an added node that node sync places and an aggressive move lifts out again
        # leaves its first slot as it was, yet marked: that slot changed mid-step
        synced = []
        real = node_change_synchronizer

        def spy(tree, node_map, g_new):
            touched = real(tree, node_map, g_new)
            synced[:] = [np.sort(tree.slot_nodes(i)) for i in range(tree.size)]
            return touched

        monkeypatch.setattr("parth.synchronizer.node_change_synchronizer", spy)
        checked = 0
        for engine, dirty, before, g_old, node_map in random_streams(config, range(12)):
            unchanged = unchanged_slots(engine.tree, dirty.fine, before, g_old, engine.graph, node_map.o2n)
            synced_unchanged = [i for i in unchanged if np.array_equal(synced[i], np.sort(node_map.o2n[before[i]]))]
            assert synced_unchanged == [] and (unchanged == [] or config.aggressive)
            checked += len(dirty.fine)
        assert checked
