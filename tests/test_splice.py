"""`assemble` writes the slots it re-orders into the tree's permutation and keeps the rest.

After every step of a stream the paper's reuse invariant is checked: each
slot the step reports as reused holds the stretch it held in the previous
permutation, relabelled through the node map, and `reused_nodes` counts
exactly the nodes of those slots. The returned permutation is the tree's
`perm`, and no step writes into one it returned before.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parth.synchronizer
from parth import (
    ABSENT,
    BallTooSmall,
    NodeMap,
    Parth,
    ParthConfig,
    SparsityPattern,
    StaleTree,
    build_dual,
    grid_laplacian,
    inject_contacts,
    patch_remesh,
)
from parth.assembler import assemble
from parth.hgd import hgd_build
from parth.ordering import MinDegreeEngine
from parth.separator import LevelSetEngine
from parth.synchronizer import ADDED, TreeEdgeChange, aggressive_reuse, node_change_synchronizer, synchronize
from conftest import apply_edge_delta, blocks, has_edge


class Checked:
    """One engine on a stream, its reuse invariant checked after every step."""

    def __init__(self, config: ParthConfig):
        self.dim = config.dim
        self.engine = Parth(config)

    def start(self, base: SparsityPattern):
        return self.check(self.engine.start(blocks(base, self.dim)))

    def step(self, base: SparsityPattern, node_map: NodeMap | None = None):
        tree = self.engine.tree
        before, at = tree.perm, tree.offsets.copy()
        kept = before.copy()
        o2n = np.arange(before.size) if node_map is None else node_map.o2n
        dirty, state = self.engine.step(blocks(base, self.dim), node_map)
        assert np.array_equal(before, kept)
        reused = np.flatnonzero(dirty.reuse_mask)
        for i, k in zip(reused.tolist(), tree.rank[reused].tolist()):
            assert np.array_equal(tree.slot_nodes(i), o2n[before[at[k] : at[k + 1]]]), f"slot {i}"
        assert state.reused_nodes == int(np.diff(tree.offsets)[tree.rank[reused]].sum())
        return dirty, self.check(state)

    def check(self, state):
        tree = self.engine.tree
        assert state.graph_perm is tree.perm and tree.ordered.all()
        expanded = (state.graph_perm[:, None] * self.dim + np.arange(self.dim)).ravel()
        assert np.array_equal(state.matrix_perm, expanded)
        tree.validate_partition(self.engine.graph.n_nodes)
        return state


def edge_removal(rng, base: SparsityPattern) -> SparsityPattern:
    eu, ev = build_dual(base).edges()
    picks = rng.choice(eu.size, size=min(int(rng.integers(1, 4)), eu.size), replace=False)
    return apply_edge_delta(base, [], [(int(eu[i]), int(ev[i])) for i in picks])


class TestSpliceEqualsScratch:
    """The reused slots of every step hold what the previous assembly gave them."""

    # theta 0 tries a move for every crossing added edge
    @pytest.mark.parametrize(
        "aggressive, theta", [(False, 0.4), (True, 0.4), (True, 0.0)], ids=["False", "True", "theta0"]
    )
    @pytest.mark.parametrize("dim", [1, 3])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), kinds=st.lists(st.sampled_from("ncrm"), min_size=1, max_size=6))
    def test_random_stream(self, dim, aggressive, theta, seed, kinds):
        # n: no-op, c: contacts, r: edge removal, m: remesh with a node map
        rng = np.random.default_rng(seed)
        base, _ = grid_laplacian(int(rng.integers(4, 9)), int(rng.integers(4, 9)))
        stream = Checked(ParthConfig(dim=dim, target_leaf=4, aggressive=aggressive, theta=theta))
        prev = stream.start(base)
        for kind in kinds:
            node_map = None
            center = int(rng.integers(base.n_rows))
            try:
                if kind == "c":
                    base = inject_contacts(base, center, 2, int(rng.integers(1, 6)), seed=int(rng.integers(2**31)))
                elif kind == "r":
                    base = edge_removal(rng, base)
                elif kind == "m":
                    base, node_map = patch_remesh(base, center, int(rng.integers(0, 2)),
                                                  densify=float(rng.choice([0.5, 1.0, 1.5])),
                                                  seed=int(rng.integers(2**31)))
            except BallTooSmall:  # a remesh can cut a node off; the step then repeats the pattern
                kind = "n"
            _, state = stream.step(base, node_map)
            if kind == "n":
                assert state.graph_perm is prev.graph_perm and state.matrix_perm is prev.matrix_perm
            prev = state

    @pytest.mark.parametrize("dim", [1, 3])
    def test_relabel_then_no_map_step(self, dim):
        # the relabel maps every stretch, and the next, map-free step
        # re-orders a copy of the permutation the relabelled assembly returned
        base, _ = grid_laplacian(8, 8)
        stream = Checked(ParthConfig(dim=dim, target_leaf=64 >> 3))  # depth 3
        first = stream.start(base)
        new_of_old = np.random.default_rng(5).permutation(64)
        entries = np.empty(64, dtype=np.int64)
        entries[new_of_old] = np.arange(64)  # entries[new] = old
        rows, cols = base.to_coo()
        relabelled = SparsityPattern.from_coo(64, new_of_old[rows], new_of_old[cols])
        _, state = stream.step(relabelled, NodeMap(entries, 64))
        assert state.reused_nodes == 64
        assert np.array_equal(state.graph_perm, new_of_old[first.graph_perm])
        dirty, state = stream.step(inject_contacts(relabelled, int(new_of_old[27]), 2, 3, seed=4))
        assert state.reused_nodes < 64

    def test_aggressive_move_resizes_two_slots(self):
        # an added edge across the root, with theta 0, moves one endpoint into
        # the root separator: its leaf shrinks by one and the root grows by
        # one, and every slot between them in post-order shifts left
        base, _ = grid_laplacian(8, 8)
        stream = Checked(ParthConfig(target_leaf=64 >> 2, aggressive=True, theta=0.0))  # depth 2
        stream.start(base)
        tree = stream.engine.tree
        before = np.diff(tree.offsets)
        u, v = (int(tree.slot_nodes(i).min()) for i in (3, 6))
        assert not has_edge(stream.engine.graph, u, v)
        size_u, size_v = tree.slot_nodes(3).size, tree.slot_nodes(6).size
        src = 3 if size_u < size_v or (size_u == size_v and u < v) else 6
        dirty, state = stream.step(apply_edge_delta(base, [(u, v)], []))
        assert dirty.coarse == frozenset() and dirty.fine == {src, 0}
        slot = {i: k for k, i in enumerate(tree.post_order.tolist())}
        resized = np.flatnonzero(np.diff(tree.offsets) != before)
        assert sorted(resized.tolist()) == sorted([slot[src], slot[0]])
        assert state.reused_nodes == 64 - tree.slot_nodes(src).size - tree.slot_nodes(0).size


class TestLayout:
    """The arrays an assembly returns are the flat tree's own (the class keeps the name of the layout they replaced)."""

    def test_no_op_step_returns_the_previous_arrays(self):
        pattern, _ = grid_laplacian(10, 10)
        engine = Parth(ParthConfig(dim=1, target_leaf=8))
        first = engine.start(pattern)
        _, again = engine.step(pattern)
        assert again.reused_nodes == 100
        assert again.graph_perm is first.graph_perm and again.matrix_perm is first.matrix_perm

    @pytest.mark.parametrize("dim", [1, 3])
    def test_permutations_are_read_only(self, dim):
        pattern, _ = grid_laplacian(6, 6)
        state = Parth(ParthConfig(dim=dim, target_leaf=8)).start(blocks(pattern, dim))
        for perm in (state.graph_perm, state.matrix_perm):
            with pytest.raises(ValueError):
                perm[0] = perm[1]

    def test_a_new_dim_expands_again(self):
        # nothing to re-order, but the kept matrix permutation is for another dim
        g = build_dual(grid_laplacian(6, 6)[0])
        tree = hgd_build(g, 2, LevelSetEngine())
        first = assemble(tree, g, MinDegreeEngine(), 1)
        state = assemble(tree, g, MinDegreeEngine(), 2)
        assert state.reused_nodes == 36
        assert np.array_equal(state.graph_perm, first.graph_perm)
        assert np.array_equal(state.matrix_perm, (first.graph_perm[:, None] * 2 + np.arange(2)).ravel())

    def test_relabel_is_one_gather(self):
        # a renumbering maps the returned permutation entry by entry into a
        # new array and keeps every stretch and flag; the identity keeps it all
        g = build_dual(grid_laplacian(6, 6)[0])
        tree = hgd_build(g, 2, LevelSetEngine())
        first = assemble(tree, g, MinDegreeEngine(), 1).graph_perm
        kept, offsets = first.copy(), tree.offsets.copy()
        node_change_synchronizer(tree, NodeMap.identity(36), g)
        assert tree.perm is first
        reverse = np.arange(36)[::-1].copy()
        assert node_change_synchronizer(tree, NodeMap(reverse, 36), g) == set()
        assert np.array_equal(tree.perm, reverse[first]) and np.array_equal(first, kept)
        assert np.array_equal(tree.offsets, offsets) and tree.ordered.all()
        tree.validate_partition(36)

    def test_empty_slots_are_marked_ordered(self):
        # a 6-node grid at depth 3 leaves slots empty; a second call re-orders nothing
        g = build_dual(grid_laplacian(3, 2)[0])
        tree = hgd_build(g, 3, LevelSetEngine())
        assert (np.diff(tree.offsets) == 0).any()
        first = assemble(tree, g, MinDegreeEngine(), 1)
        assert tree.ordered.all()
        assert assemble(tree, g, MinDegreeEngine(), 1).graph_perm is first.graph_perm


class TestLayoutAudit:
    """`validate_partition` audits the flat tree, and every writer leaves it valid."""

    @pytest.fixture
    def tree_and_graph(self):
        pattern, _ = grid_laplacian(8, 8)
        g = build_dual(pattern)
        tree = hgd_build(g, 2, LevelSetEngine())
        assemble(tree, g, MinDegreeEngine(), 1)
        return tree, g, pattern

    @pytest.mark.parametrize("k", [3, -1])
    def test_tampered_offset_raises(self, tree_and_graph, k):
        # an inner offset moves two stretches; the last no longer ends the permutation
        tree = tree_and_graph[0]
        tree.validate_partition(64)
        tree.offsets[k] += 1
        with pytest.raises(StaleTree):
            tree.validate_partition(64)

    def test_tampered_permutation_raises(self, tree_and_graph):
        tree = tree_and_graph[0]
        tree.perm = tree.perm[[-1, *range(1, 63), 0]]  # the first and last entries swapped
        with pytest.raises(StaleTree):
            tree.validate_partition(64)

    def test_stale_slots_pass_between_sync_and_assembly(self, tree_and_graph):
        # slots the synchronizer cleared hold their nodes in no particular order until the next assembly
        tree, g, pattern = tree_and_graph
        g_new = build_dual(inject_contacts(pattern, 27, 3, 12, seed=1))
        synchronize(tree, g, g_new, NodeMap.identity(64), LevelSetEngine())
        assert not tree.ordered.all()
        tree.validate_partition(64)
        assemble(tree, g_new, MinDegreeEngine(), 1)
        tree.validate_partition(64)

    def test_every_stage_leaves_the_invariant(self):
        # each stage of a step that writes the tree is audited as it returns, on
        # a remesh stream at theta 0: node sync, the moves, rebuilds, the marks
        stages = ("node_change_synchronizer", "aggressive_reuse", "hgd_redecompose", "mark_and_decompose")
        base, _ = grid_laplacian(16, 16)
        engine = Parth(ParthConfig(target_leaf=4, aggressive=True, theta=0.0))
        engine.start(base)
        n_nodes, audited = [base.n_rows], []

        def audit(name, stage):
            def run(tree, *args):
                out = stage(tree, *args)
                tree.validate_partition(n_nodes[0])
                audited.append(name)
                return out
            return run

        rng = np.random.default_rng(2)
        with ExitStack() as stack:
            for name in stages:
                stage = audit(name, getattr(parth.synchronizer, name))
                stack.enter_context(mock.patch.object(parth.synchronizer, name, stage))
            for seed in range(6):
                base, node_map = patch_remesh(base, int(rng.integers(base.n_rows)), 1, densify=1.5, seed=seed)
                n_nodes[0] = base.n_rows
                engine.step(base, node_map)
        assert set(audited) == set(stages)

    @staticmethod
    def edgeless_tree():
        # no edges, so every separator is empty: the leaves hold {0, 4}, {2, 6}, {1, 5}, {3, 7}
        g = build_dual(SparsityPattern.from_coo(8, np.arange(8), np.arange(8)))
        tree = hgd_build(g, 2, LevelSetEngine())
        assert [tree.slot_nodes(i).tolist() for i in range(7)] == [[], [], [], [0, 4], [2, 6], [1, 5], [3, 7]]
        return tree

    def test_moves_into_slots_that_end_together(self):
        # node 0 moves to the root, then node 1 to slot 2: both stretches end
        # where slot 6's does, and each node must land in its own slot's
        tree = self.edgeless_tree()
        rows, cols = np.r_[np.arange(8), 0, 1, 1, 3], np.r_[np.arange(8), 1, 0, 3, 1]
        g_new = build_dual(SparsityPattern.from_coo(8, rows, cols))
        changes = [TreeEdgeChange(3, 5, ADDED, 0, 1), TreeEdgeChange(5, 6, ADDED, 1, 3)]
        assert aggressive_reuse(tree, g_new, changes, 0.0) == ([], {0, 2, 3, 5})
        tree.validate_partition(8)
        assert [tree.slot_nodes(i).tolist() for i in (0, 2, 3, 5)] == [[0], [1], [4], [5]]

    def test_added_nodes_into_slots_that_end_together(self):
        # new node 0 is isolated and goes to the root, new node 9 joins old
        # node 3 in slot 6; slot 2 and the root are empty, so all three end at 8
        tree = self.edgeless_tree()
        entries = np.array([ABSENT, *range(8), ABSENT])
        g_new = build_dual(SparsityPattern.from_coo(10, np.r_[np.arange(10), 4, 9], np.r_[np.arange(10), 9, 4]))
        assert node_change_synchronizer(tree, NodeMap(entries, 8), g_new) == {0, 6}
        tree.validate_partition(10)
        assert tree.slot_nodes(0).tolist() == [0] and tree.slot_nodes(6).tolist() == [4, 8, 9]

    def test_edgeless_stream_keeps_the_invariant(self):
        # the same moves through the engine, then a remesh onto the moved nodes
        stream = Checked(ParthConfig(target_leaf=2, aggressive=True, theta=0.0))
        base = SparsityPattern.from_coo(8, np.arange(8), np.arange(8))
        stream.start(base)
        contacts = apply_edge_delta(base, [(0, 1), (1, 3)], [])
        dirty, _ = stream.step(contacts)
        assert dirty.coarse == frozenset() and stream.engine.tree.owner[[0, 1]].tolist() == [0, 2]
        entries = np.array([ABSENT, *range(8), ABSENT])
        rows, cols = contacts.to_coo()
        grown = SparsityPattern.from_coo(10, np.r_[rows + 1, 0, 9, 4, 9], np.r_[cols + 1, 0, 9, 9, 4])
        stream.step(grown, NodeMap(entries, 8))
