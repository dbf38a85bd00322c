"""`assemble` splices the slots it re-orders into the previous permutation.

Every spliced result is compared with an assembly from scratch: the
post-order concatenation of the tree's node arrays, and a second engine
whose tree layout is dropped before each `assemble`.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parth.driver
from parth import (
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
from parth.synchronizer import node_change_synchronizer, synchronize
from conftest import apply_edge_delta, blocks, has_edge


def assemble_from_scratch(tree, g, engine, dim):
    tree.layout = None
    return assemble(tree, g, engine, dim)


class Pair:
    """Two engines on one stream: one splices, the other assembles from scratch."""

    def __init__(self, config: ParthConfig):
        self.dim = config.dim
        self.splice, self.scratch = Parth(config), Parth(config)

    def start(self, base: SparsityPattern):
        with mock.patch.object(parth.driver, "assemble", assemble_from_scratch):
            self.scratch.start(blocks(base, self.dim))
        return self.check(self.splice.start(blocks(base, self.dim)))

    def step(self, base: SparsityPattern, node_map: NodeMap | None = None):
        pattern = blocks(base, self.dim)
        with mock.patch.object(parth.driver, "assemble", assemble_from_scratch):
            _, ref = self.scratch.step(pattern, node_map)
        dirty, state = self.splice.step(pattern, node_map)
        assert np.array_equal(state.graph_perm, ref.graph_perm)
        assert np.array_equal(state.matrix_perm, ref.matrix_perm)
        assert state.reused_nodes == ref.reused_nodes
        return dirty, self.check(state)

    def check(self, state):
        tree = self.splice.tree
        arrays = [tree.nodes[i].nodes for i in tree.post_order]
        assert np.array_equal(state.graph_perm, np.concatenate(arrays))
        expanded = (state.graph_perm[:, None] * self.dim + np.arange(self.dim)).ravel()
        assert np.array_equal(state.matrix_perm, expanded)
        assert tree.layout.offsets.tolist() == np.cumsum([0] + [a.size for a in arrays]).tolist()
        assert tree.layout.graph_perm is state.graph_perm
        tree.validate_partition(self.splice.graph.n_nodes)
        return state


def edge_removal(rng, base: SparsityPattern) -> SparsityPattern:
    eu, ev = build_dual(base).edges()
    picks = rng.choice(eu.size, size=min(int(rng.integers(1, 4)), eu.size), replace=False)
    return apply_edge_delta(base, [], [(int(eu[i]), int(ev[i])) for i in picks])


class TestSpliceEqualsScratch:
    @pytest.mark.parametrize("aggressive", [False, True])
    @pytest.mark.parametrize("dim", [1, 3])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), kinds=st.lists(st.sampled_from("ncrm"), min_size=1, max_size=6))
    def test_random_stream(self, dim, aggressive, seed, kinds):
        # n: no-op, c: contacts, r: edge removal, m: remesh with a node map
        rng = np.random.default_rng(seed)
        base, _ = grid_laplacian(int(rng.integers(4, 9)), int(rng.integers(4, 9)))
        pair = Pair(ParthConfig(dim=dim, target_leaf=4, aggressive=aggressive, theta=0.4))
        prev = pair.start(base)
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
            _, state = pair.step(base, node_map)
            if kind == "n":
                assert state.graph_perm is prev.graph_perm and state.matrix_perm is prev.matrix_perm
            prev = state

    @pytest.mark.parametrize("dim", [1, 3])
    def test_relabel_then_no_map_step(self, dim):
        # the relabel drops the layout; the next, map-free step splices into
        # the layout the relabelled assembly rebuilt
        base, _ = grid_laplacian(8, 8)
        pair = Pair(ParthConfig(dim=dim, target_leaf=64 >> 3))  # depth 3
        first = pair.start(base)
        new_of_old = np.random.default_rng(5).permutation(64)
        entries = np.empty(64, dtype=np.int64)
        entries[new_of_old] = np.arange(64)  # entries[new] = old
        rows, cols = base.to_coo()
        relabelled = SparsityPattern.from_coo(64, new_of_old[rows], new_of_old[cols])
        _, state = pair.step(relabelled, NodeMap(entries, 64))
        assert state.reused_nodes == 64
        assert np.array_equal(state.graph_perm, new_of_old[first.graph_perm])
        dirty, state = pair.step(inject_contacts(relabelled, int(new_of_old[27]), 2, 3, seed=4))
        assert state.reused_nodes < 64

    def test_aggressive_move_resizes_two_slots(self):
        # an added edge across the root, with theta 0, moves one endpoint into
        # the root separator: its leaf shrinks by one and the root grows by
        # one, and every slot between them in post-order shifts left
        base, _ = grid_laplacian(8, 8)
        pair = Pair(ParthConfig(target_leaf=64 >> 2, aggressive=True, theta=0.0))  # depth 2
        pair.start(base)
        tree = pair.splice.tree
        before = np.diff(tree.layout.offsets)
        u, v = (int(tree.nodes[i].nodes.min()) for i in (3, 6))
        assert not has_edge(pair.splice.graph, u, v)
        size_u, size_v = tree.nodes[3].nodes.size, tree.nodes[6].nodes.size
        src = 3 if size_u < size_v or (size_u == size_v and u < v) else 6
        dirty, state = pair.step(apply_edge_delta(base, [(u, v)], []))
        assert dirty.coarse == frozenset() and dirty.fine == {src, 0}
        slot = {i: k for k, i in enumerate(tree.post_order)}
        resized = np.flatnonzero(np.diff(tree.layout.offsets) != before)
        assert sorted(resized.tolist()) == sorted([slot[src], slot[0]])
        assert state.reused_nodes == 64 - tree.nodes[src].nodes.size - tree.nodes[0].nodes.size


class TestLayout:
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

    def test_relabel_drops_the_layout(self):
        g = build_dual(grid_laplacian(6, 6)[0])
        tree = hgd_build(g, 2, LevelSetEngine())
        assemble(tree, g, MinDegreeEngine(), 1)
        node_change_synchronizer(tree, NodeMap.identity(36), g)
        assert tree.layout is not None
        node_change_synchronizer(tree, NodeMap(np.arange(36)[::-1].copy(), 36), g)
        assert tree.layout is None

    def test_empty_slots_are_marked_ordered(self):
        # a 6-node grid at depth 3 leaves slots empty; a second call re-orders nothing
        g = build_dual(grid_laplacian(3, 2)[0])
        tree = hgd_build(g, 3, LevelSetEngine())
        assert any(tn.nodes.size == 0 for tn in tree.nodes)
        first = assemble(tree, g, MinDegreeEngine(), 1)
        assert all(tn.ordered for tn in tree.nodes)
        assert assemble(tree, g, MinDegreeEngine(), 1).graph_perm is first.graph_perm


class TestLayoutAudit:
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
        offsets = tree.layout.offsets.copy()
        offsets[k] += 1
        tree.layout = tree.layout._replace(offsets=offsets)
        with pytest.raises(StaleTree):
            tree.validate_partition(64)

    def test_tampered_permutation_raises(self, tree_and_graph):
        tree = tree_and_graph[0]
        perm = tree.layout.graph_perm.copy()
        perm[[0, -1]] = perm[[-1, 0]]
        tree.layout = tree.layout._replace(graph_perm=perm)
        with pytest.raises(StaleTree):
            tree.validate_partition(64)

    def test_an_ordered_slot_that_changed_raises(self, tree_and_graph):
        # the one precondition of the splice: an ordered slot keeps its array
        tree = tree_and_graph[0]
        tn = tree.nodes[3]
        tn.nodes = tn.nodes[::-1].copy()
        with pytest.raises(StaleTree):
            tree.validate_partition(64)

    def test_stale_slots_pass_between_sync_and_assembly(self, tree_and_graph):
        # slots the synchronizer cleared may differ from their stretch until the next assembly
        tree, g, pattern = tree_and_graph
        g_new = build_dual(inject_contacts(pattern, 27, 3, 12, seed=1))
        synchronize(tree, g, g_new, NodeMap.identity(64), LevelSetEngine())
        assert not all(tn.ordered for tn in tree.nodes)
        tree.validate_partition(64)
        assemble(tree, g_new, MinDegreeEngine(), 1)
        tree.validate_partition(64)
