import numpy as np
import pytest

from parth import NodeMap, StaleTree, build_dual, is_permutation, reuse_ratio
from parth.assembler import assemble
from parth.hgd import hgd_build, post_order_indices
from parth.ordering import MinDegreeEngine
from parth.separator import LevelSetEngine
from parth.synchronizer import synchronize
from conftest import NINE_TREE_SETS, nine_node_graphs, random_pattern, tree_from_node_sets


@pytest.fixture(scope="module")
def engines():
    return LevelSetEngine(), MinDegreeEngine()


class TestPostOrder:
    def test_depths(self):
        assert post_order_indices(0).tolist() == [0]
        assert post_order_indices(1).tolist() == [1, 2, 0]
        assert post_order_indices(2).tolist() == [3, 4, 1, 5, 6, 2, 0]


class TestAssemble:
    def test_nine_node_two_calls(self, engines):
        sep_eng, ord_eng = engines
        g1, g2 = nine_node_graphs()
        tree = tree_from_node_sets(2, NINE_TREE_SETS, g=g1)
        first = assemble(tree, g1, ord_eng, 1)
        assert first.reused_nodes == 0
        assert is_permutation(first.graph_perm, 9)

        dirty = synchronize(tree, g1, g2, NodeMap.identity(9), sep_eng)
        second = assemble(tree, g2, ord_eng, 1)
        # four of the seven tree nodes are reused, covering six graph nodes
        assert int(np.count_nonzero(dirty.reuse_mask)) == 4
        assert second.reused_nodes == 6
        assert reuse_ratio(second, 9) == pytest.approx(6 / 9)
        # the reused tree nodes keep their positions: 3, 4 and 1 come first in
        # post-order, the root comes last
        assert is_permutation(second.graph_perm, 9)
        pos1, pos2 = np.argsort(first.graph_perm), np.argsort(second.graph_perm)
        for i in (0, 1, 3, 4):
            nodes = tree.nodes[i].nodes
            assert np.array_equal(pos1[nodes], pos2[nodes])

    def test_dim_one_matrix_equals_graph(self, engines):
        _, ord_eng = engines
        g1, _ = nine_node_graphs()
        tree = tree_from_node_sets(2, NINE_TREE_SETS, g=g1)
        state = assemble(tree, g1, ord_eng, dim=1)
        assert np.array_equal(state.graph_perm, state.matrix_perm)

    def test_block_expansion(self, engines):
        _, ord_eng = engines
        from parth import SymGraph

        tree = tree_from_node_sets(0, [[0]])
        state = assemble(tree, SymGraph.empty(1), ord_eng, dim=3)
        assert state.graph_perm.tolist() == [0]
        assert state.matrix_perm.tolist() == [0, 1, 2]

    def test_block_expansion_formula(self, engines):
        sep_eng, ord_eng = engines
        rng = np.random.default_rng(4)
        g = build_dual(random_pattern(rng, 40))
        tree = hgd_build(g, 2, sep_eng)
        state = assemble(tree, g, ord_eng, dim=2)
        expect = np.empty(80, np.int64)
        expect[0::2] = state.graph_perm * 2
        expect[1::2] = state.graph_perm * 2 + 1
        assert np.array_equal(state.matrix_perm, expect)
        assert is_permutation(state.matrix_perm, 80)

    def test_zero_change_fixed_point(self, engines):
        sep_eng, ord_eng = engines
        rng = np.random.default_rng(17)
        pattern = random_pattern(rng, 64)
        g = build_dual(pattern)
        tree = hgd_build(g, 3, sep_eng)
        first = assemble(tree, g, ord_eng, 1)
        again = assemble(tree, g, ord_eng, 1)
        assert np.array_equal(first.matrix_perm, again.matrix_perm)
        assert again.reused_nodes == g.n_nodes

    def test_nested_dissection_placement(self, engines):
        # each tree node owns a contiguous run of positions, in its array's
        # order, and every separator comes after its two subtrees
        sep_eng, ord_eng = engines
        rng = np.random.default_rng(23)
        g = build_dual(random_pattern(rng, 120))
        tree = hgd_build(g, 3, sep_eng)
        state = assemble(tree, g, ord_eng, 1)
        assert is_permutation(state.graph_perm, g.n_nodes)
        pos = np.argsort(state.graph_perm)
        for tn in tree.nodes:
            if tn.nodes.size:
                assert np.array_equal(pos[tn.nodes], pos[tn.nodes[0]] + np.arange(tn.nodes.size))
        for i in range(tree.size // 2):  # internal indices
            tn = tree.nodes[i]
            if tn.nodes.size == 0:
                continue
            below = [tree.nodes[j].nodes for c in (2 * i + 1, 2 * i + 2) for j in tree.subtree_indices(c)]
            below = np.concatenate(below)
            if below.size:
                assert pos[below].max() < pos[tn.nodes].min()

    def test_stale_tree_detected(self):
        # assemble trusts the tree it is given; the partition audit catches a stale one
        tree = tree_from_node_sets(2, NINE_TREE_SETS)
        tree.nodes[3].nodes = np.array([40])  # points outside the graph
        with pytest.raises(StaleTree):
            tree.validate_partition(9)

    def test_bijections_after_every_call(self, engines):
        sep_eng, ord_eng = engines
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(5, 120))
            g = build_dual(random_pattern(rng, n))
            tree = hgd_build(g, int(rng.integers(0, 4)), sep_eng)
            state = assemble(tree, g, ord_eng, 1)
            assert is_permutation(state.graph_perm, n)
            inv = np.argsort(state.graph_perm)
            assert np.array_equal(state.graph_perm[inv], np.arange(n))
