from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

import parth.hgd
import parth.synchronizer
import reference_tree as walk
from parth import (
    Parth,
    ParthConfig,
    StaleTree,
    SymGraph,
    build_dual,
    grid_laplacian,
    inject_contacts,
    patch_remesh,
)
from parth.hgd import (
    HgdTree,
    default_max_level,
    hgd_build,
    hgd_redecompose,
    is_in_subtree,
    lca_of,
    level_of,
    post_order_indices,
)
from parth.separator import LevelSetEngine
from parth.synthetic import radius_for_fraction
from conftest import NINE_TREE_SETS, graph_from_edges, nine_node_graphs, random_pattern, tree_from_node_sets


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


class TestClosedFormsEqualTheWalks:
    """The heap-index closed forms against the tree walks of `reference_tree`."""

    def test_every_slot_pair_of_a_depth_7_tree(self):
        tree = HgdTree(7)
        slots = range(tree.size)
        for a in slots:
            assert [is_in_subtree(a, b) for b in slots] == [walk.is_in_subtree(a, b) for b in slots]
            assert [lca_of(a, b) for b in slots] == [walk.lca_of(a, b) for b in slots]
            assert tree.subtree_run(a) == walk.subtree_run(tree, a)

    @pytest.mark.parametrize("max_level", range(12))
    def test_post_order(self, max_level):
        assert np.array_equal(post_order_indices(max_level), walk.post_order_indices(max_level))

    def test_audit_on_planted_crossing_edges(self, engine):
        # a built tree's graph gains random edges plus, under random internal
        # slots, edges from the left subtree to the right one
        rng = np.random.default_rng(20)
        trials, with_violations = 200, 0
        for _ in range(trials):
            n = int(rng.integers(5, 150))
            g = build_dual(random_pattern(rng, n))
            tree = hgd_build(g, int(rng.integers(1, 8)), engine)
            eu, ev = g.edges()
            eu, ev = [eu, rng.integers(n, size=3)], [ev, rng.integers(n, size=3)]
            for c in rng.integers(tree.size // 2, size=3).tolist():
                left, right = tree.subtree_union(2 * c + 1), tree.subtree_union(2 * c + 2)
                if left.size and right.size:
                    eu.append(rng.choice(left, 1))
                    ev.append(rng.choice(right, 1))
            g2 = graph_from_edges(n, np.concatenate(eu), np.concatenate(ev))
            bad = tree.separator_violations(g2)
            assert bad == walk.separator_violations(tree, g2)
            with_violations += bool(bad)
        assert with_violations > trials * 3 // 4


WALKS = [
    (parth.hgd, "is_in_subtree", walk.is_in_subtree),
    (parth.hgd, "lca_of", walk.lca_of),
    (parth.synchronizer, "is_in_subtree", walk.is_in_subtree),
    (parth.synchronizer, "lca_of", walk.lca_of),
    (HgdTree, "subtree_run", walk.subtree_run),
]


def stream_outcomes(kind: str, theta: float) -> list[tuple]:
    """Every step's dirty state and permutation over six steps of a 24x24 contact or remesh stream."""
    rng = np.random.default_rng([kind == "remesh", 7])
    pattern, _ = grid_laplacian(24, 24)
    engine = Parth(ParthConfig(target_leaf=16, aggressive=True, theta=theta))  # depth 5
    engine.start(pattern)
    out = []
    for k in range(6):
        center = int(rng.integers(pattern.n_rows))
        if kind == "contacts":
            pattern, node_map = inject_contacts(pattern, center, 4, 12, seed=k), None
        else:
            pattern, node_map = patch_remesh(pattern, center, radius_for_fraction(pattern, center, 0.02), seed=k)
        dirty, state = engine.step(pattern, node_map)
        out.append((dirty.reuse_mask.tolist(), dirty.fine, dirty.coarse, dirty.dirty_node_total,
                    state.matrix_perm.tolist()))
    return out


@pytest.mark.parametrize("theta", [0.0, 0.02, 0.4])
@pytest.mark.parametrize("kind", ["contacts", "remesh"])
def test_streams_take_the_same_steps_with_the_walks(kind, theta):
    closed = stream_outcomes(kind, theta)
    with ExitStack() as stack:
        for owner, name, fn in WALKS:
            stack.enter_context(mock.patch.object(owner, name, fn))
        walked = stream_outcomes(kind, theta)
    assert closed == walked
    assert any(coarse or fine for _, fine, coarse, _, _ in closed)


class TestBuild:
    def test_level_zero_holds_everything(self, engine):
        g, _ = nine_node_graphs()
        tree = hgd_build(g, 0, engine)
        assert tree.size == 1
        assert tree.slot_nodes(0).tolist() == list(range(9))

    def test_nine_node_two_levels(self, engine):
        g, _ = nine_node_graphs()
        tree = hgd_build(g, 2, engine)
        assert tree.size == 7
        assert 0 < tree.slot_nodes(0).size <= 3  # no bigger than the hand-built layout
        assert_invariants(tree, g)

    def test_path_of_three(self, engine):
        g = graph_from_edges(3, [0, 1], [1, 2])
        tree = hgd_build(g, 1, engine)
        assert tree.slot_nodes(0).tolist() == [1]
        children = {tuple(tree.slot_nodes(1).tolist()), tuple(tree.slot_nodes(2).tolist())}
        assert children == {(0,), (2,)}

    def test_determinism(self, engine):
        rng = np.random.default_rng(11)
        g = build_dual(random_pattern(rng, 120))
        t1 = hgd_build(g, 3, engine)
        t2 = hgd_build(g, 3, engine)
        for name in ("perm", "offsets", "owner"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))

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
                        tree.slot_nodes(i),
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
        for name in ("perm", "offsets", "owner", "ordered"):
            assert np.array_equal(getattr(tree, name), getattr(fresh, name))

    def test_single_leaf_unchanged(self, engine):
        g, _ = nine_node_graphs()
        tree = tree_from_node_sets(2, NINE_TREE_SETS, g=g)
        before = tree.slot_nodes(5).copy()
        hgd_redecompose(tree, 5, g, before, engine)
        assert np.array_equal(tree.slot_nodes(5), before)

    def test_three_node_region_split(self, engine):
        # after the second call's delta the region {2,3,8} is a path 2-3-8
        g1, g2 = nine_node_graphs()
        tree = tree_from_node_sets(2, NINE_TREE_SETS, g=g1)
        hgd_redecompose(tree, 2, g2, np.array([2, 3, 8]), engine)
        assert tree.slot_nodes(2).tolist() == [3]
        assert tree.slot_nodes(5).tolist() == [2]
        assert tree.slot_nodes(6).tolist() == [8]
        assert tree.separator_violations(g2) == []

    def test_untouched_outside_subtree(self, engine):
        g, _ = nine_node_graphs()
        tree = tree_from_node_sets(2, NINE_TREE_SETS, g=g)
        outside = {i: tree.slot_nodes(i).copy() for i in (0, 1, 3, 4)}
        hgd_redecompose(tree, 2, g, np.array([2, 3, 8]), engine)
        for i, arr in outside.items():
            assert np.array_equal(tree.slot_nodes(i), arr)

    def test_small_region_below_internal_slot_empties_deeper_slots(self, engine):
        # subtree 2 holds {2} at slot 2 and {3} at slot 5; two nodes are under
        # MIN_SPLIT, so the rebuild stores both at slot 2 and slot 5 must not keep 3
        g = graph_from_edges(4, [0, 0, 2], [1, 2, 3])
        tree = tree_from_node_sets(2, [[0], [1], [2], [], [], [3], []], g=g)
        hgd_redecompose(tree, 2, g, np.array([2, 3]), engine)
        assert tree.slot_nodes(2).tolist() == [2, 3]
        assert [tree.slot_nodes(i).size for i in (5, 6)] == [0, 0]
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
        g = graph_from_edges(3, [0], [2])  # edge between the two leaves
        with pytest.raises(StaleTree):
            tree_from_node_sets(1, [[1], [0], [2]], g=g)

    def test_keeps_no_reference_to_the_callers_arrays(self):
        sets = [np.array([1], dtype=np.int64), np.array([0], dtype=np.int64), np.array([2], dtype=np.int64)]
        tree = tree_from_node_sets(1, sets)
        sets[1][:] = 2
        assert tree.slot_nodes(1).tolist() == [0]
