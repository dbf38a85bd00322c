import numpy as np
import pytest

from parth import RegionMismatch, StaleTree, SymGraph, build_dual
from parth.hgd import (
    HgdTree,
    default_max_level,
    hgd_build,
    hgd_redecompose,
    is_in_subtree,
    lca_of,
    level_of,
)
from parth.separator import LevelSetEngine
from conftest import NINE_TREE_SETS, nine_node_graphs, random_pattern, tree_from_node_sets


@pytest.fixture(scope="module")
def engine():
    return LevelSetEngine()


def assert_invariants(tree: HgdTree, g: SymGraph):
    tree.validate_partition(g.n_nodes)
    assert tree.separator_violations(g) == []


class TestIndexArithmetic:
    def test_levels(self):
        assert [level_of(i) for i in range(7)] == [0, 1, 1, 2, 2, 2, 2]

    def test_subtree_membership(self):
        assert is_in_subtree(5, 2) and is_in_subtree(2, 0)
        assert not is_in_subtree(2, 1) and not is_in_subtree(1, 5)

    def test_lca(self):
        assert lca_of(5, 6) == 2
        assert lca_of(3, 5) == 0
        assert lca_of(4, 1) == 1


class TestBuild:
    def test_level_zero_holds_everything(self, engine):
        g, _ = nine_node_graphs()
        tree = hgd_build(g, 0, engine)
        assert tree.size == 1
        assert tree.nodes[0].nodes.tolist() == list(range(9))

    def test_nine_node_two_levels(self, engine):
        g, _ = nine_node_graphs()
        tree = hgd_build(g, 2, engine)
        assert tree.size == 7
        assert 0 < tree.nodes[0].nodes.size <= 3  # no bigger than the hand-built layout
        assert_invariants(tree, g)

    def test_path_of_three(self, engine):
        g = SymGraph.from_edges(3, [0, 1], [1, 2])
        tree = hgd_build(g, 1, engine)
        assert tree.nodes[0].nodes.tolist() == [1]
        children = {tuple(tree.nodes[1].nodes.tolist()), tuple(tree.nodes[2].nodes.tolist())}
        assert children == {(0,), (2,)}

    def test_determinism(self, engine):
        rng = np.random.default_rng(11)
        g = build_dual(random_pattern(rng, 120))
        t1 = hgd_build(g, 3, engine)
        t2 = hgd_build(g, 3, engine)
        for a, b in zip(t1.nodes, t2.nodes):
            assert np.array_equal(a.nodes, b.nodes)

    def test_partition_and_separators_random(self, engine):
        rng = np.random.default_rng(3)
        for _ in range(15):
            g = build_dual(random_pattern(rng, int(rng.integers(5, 150))))
            tree = hgd_build(g, int(rng.integers(0, 5)), engine)
            assert_invariants(tree, g)

    def test_coarsening_consistency(self, engine):
        # separator + both child subtree unions = the set the split was run on
        g, _ = nine_node_graphs()
        tree = hgd_build(g, 2, engine)
        for i in range(3):  # internal nodes
            merged = np.sort(
                np.concatenate(
                    [
                        tree.nodes[i].nodes,
                        tree.subtree_union(2 * i + 1),
                        tree.subtree_union(2 * i + 2),
                    ]
                )
            )
            assert np.array_equal(merged, tree.subtree_union(i))


class TestRedecompose:
    def test_full_region_equals_fresh_build(self, engine):
        g, _ = nine_node_graphs()
        tree = hgd_build(g, 2, engine)
        fresh = hgd_build(g, 2, engine)
        hgd_redecompose(tree, 0, g, np.arange(9), engine)
        for a, b in zip(tree.nodes, fresh.nodes):
            assert np.array_equal(a.nodes, b.nodes)

    def test_single_leaf_unchanged(self, engine):
        g, _ = nine_node_graphs()
        tree = tree_from_node_sets(2, NINE_TREE_SETS, g=g)
        before = tree.nodes[5].nodes.copy()
        hgd_redecompose(tree, 5, g, before, engine)
        assert np.array_equal(tree.nodes[5].nodes, before)

    def test_three_node_region_split(self, engine):
        # after the second call's delta the region {2,3,8} is a path 2-3-8
        g1, g2 = nine_node_graphs()
        tree = tree_from_node_sets(2, NINE_TREE_SETS, g=g1)
        hgd_redecompose(tree, 2, g2, np.array([2, 3, 8]), engine)
        assert tree.nodes[2].nodes.tolist() == [3]
        assert tree.nodes[5].nodes.tolist() == [2]
        assert tree.nodes[6].nodes.tolist() == [8]
        assert tree.separator_violations(g2) == []

    def test_region_mismatch(self, engine):
        g, _ = nine_node_graphs()
        tree = tree_from_node_sets(2, NINE_TREE_SETS, g=g)
        with pytest.raises(RegionMismatch):
            hgd_redecompose(tree, 2, g, np.array([2, 3]), engine)

    def test_untouched_outside_subtree(self, engine):
        g, _ = nine_node_graphs()
        tree = tree_from_node_sets(2, NINE_TREE_SETS, g=g)
        outside = {i: tree.nodes[i].nodes.copy() for i in (0, 1, 3, 4)}
        hgd_redecompose(tree, 2, g, np.array([2, 3, 8]), engine)
        for i, arr in outside.items():
            assert np.array_equal(tree.nodes[i].nodes, arr)

    def test_small_region_below_internal_slot_empties_deeper_slots(self, engine):
        # subtree 2 holds {2} at slot 2 and {3} at slot 5; two nodes are under
        # MIN_SPLIT, so the rebuild stores both at slot 2 and slot 5 must not keep 3
        g = SymGraph.from_edges(4, [0, 0, 2], [1, 2, 3])
        tree = tree_from_node_sets(2, [[0], [1], [2], [], [], [3], []], g=g)
        hgd_redecompose(tree, 2, g, np.array([2, 3]), engine)
        assert tree.nodes[2].nodes.tolist() == [2, 3]
        assert [tree.nodes[i].nodes.size for i in (5, 6)] == [0, 0]
        assert_invariants(tree, g)


class TestDefaultMaxLevel:
    def test_exact_power(self):
        assert default_max_level(8, 1) == 3

    def test_clamped_to_zero(self):
        assert default_max_level(100, 200) == 0

    def test_large_ratio(self):
        # floor(log2(53000 / 414)) evaluates to 7
        assert default_max_level(53_000, 414) == 7

    def test_upper_clamp(self):
        assert default_max_level(10**9, 1) == 16


class TestOwner:
    def test_edited_owner_entry_detected(self, engine):
        g, _ = nine_node_graphs()
        tree = hgd_build(g, 2, engine)
        tree.validate_partition(g.n_nodes)
        tree.owner[4] = (tree.owner[4] + 1) % tree.size
        with pytest.raises(StaleTree):
            tree.validate_partition(g.n_nodes)

    @pytest.mark.parametrize("n_nodes, message", [(10, "do not cover"), (8, "outside")])
    def test_wrong_graph_size_detected(self, engine, n_nodes, message):
        # a tree over 9 nodes misses node 9 of 10, and holds node 8 of 8 out of range
        g, _ = nine_node_graphs()
        tree = hgd_build(g, 2, engine)
        with pytest.raises(StaleTree, match=message):
            tree.validate_partition(n_nodes)


class TestFromNodeSets:
    def test_validates_partition(self):
        with pytest.raises(StaleTree):
            tree_from_node_sets(1, [[0, 1], [1], [2]])

    def test_validates_separators(self):
        g = SymGraph.from_edges(3, [0], [2])  # edge between the two leaves
        with pytest.raises(StaleTree):
            tree_from_node_sets(1, [[1], [0], [2]], g=g)

    def test_keeps_no_reference_to_the_callers_arrays(self):
        sets = [np.array([1], dtype=np.int64), np.array([0], dtype=np.int64), np.array([2], dtype=np.int64)]
        tree = tree_from_node_sets(1, sets)
        sets[1][:] = 2
        assert tree.nodes[1].nodes.tolist() == [0]
