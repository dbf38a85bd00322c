"""Soak: the step invariants hold after every step of long mixed streams.

A hypothesis state machine drives one engine through 100 steps of contacts,
edge removals (some undoing earlier contacts), remeshes with node maps and
no-ops. After every step it checks the partition, the separator property,
both permutations, work against dirty coverage, that every slot reported as
reused kept its nodes and its induced edges, and, on steps without a map and
without aggressive reuse, that every separator the change broke was marked.
An aggressive move can mend a broken separator by lifting a node out of a
subtree, which leaves the separator's own slot as it was and unmarked.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule, run_state_machine_as_test

from parth import BallTooSmall, NodeMap, Parth, ParthConfig, build_dual, grid_laplacian, inject_contacts, patch_remesh
from parth.ordering import is_permutation
from conftest import apply_edge_delta, blocks, pattern_edge_set, unchanged_slots

SEEDS = st.integers(0, 2**31 - 1)
PICKS = st.integers(0, 2**16)


class Soak(RuleBasedStateMachine):
    def __init__(self, config: ParthConfig):
        super().__init__()
        self.config = config
        self.contacts: list[set[tuple[int, int]]] = []  # edges each contact step added, newest last

    @initialize(nx=st.integers(4, 9), ny=st.integers(4, 9))
    def start(self, nx, ny):
        self.base, _ = grid_laplacian(nx, ny)
        self.engine = Parth(self.config)
        self.engine.start(blocks(self.base, self.config.dim))

    @rule(center=PICKS, count=st.integers(1, 5), seed=SEEDS)
    def contacts(self, center, count, seed):
        try:
            new = inject_contacts(self.base, center % self.base.n_rows, 2, count, seed=seed)
        except BallTooSmall:
            new = self.base
        self.contacts.append(pattern_edge_set(new) - pattern_edge_set(self.base))
        self.step(new)

    @rule(picks=st.lists(PICKS, min_size=1, max_size=3), undo=st.booleans())
    def remove_edges(self, picks, undo):
        edges = sorted(pattern_edge_set(self.base))
        if not edges:  # earlier removals took every edge: nothing left to remove
            return self.step(self.base)
        if undo and self.contacts:
            gone = self.contacts.pop() & set(edges)
        else:
            gone = {edges[p % len(edges)] for p in picks}
        self.step(apply_edge_delta(self.base, [], gone))

    @rule(center=PICKS, radius=st.integers(0, 1), densify=st.sampled_from([0.5, 1.0, 1.5]), seed=SEEDS)
    def remesh(self, center, radius, densify, seed):
        try:
            new, node_map = patch_remesh(self.base, center % self.base.n_rows, radius, densify, seed)
        except BallTooSmall:
            return self.step(self.base)
        o2n = node_map.o2n
        self.contacts = [{(int(o2n[u]), int(o2n[v])) for u, v in batch if o2n[u] >= 0 and o2n[v] >= 0}
                         for batch in self.contacts]
        self.step(new, node_map)

    @rule()
    def no_op(self):
        self.step(self.base)

    def step(self, new, node_map: NodeMap | None = None):
        dim, tree, g_old = self.config.dim, self.engine.tree, self.engine.graph
        g_new = build_dual(new)
        # criterion 8's oracle: the separators of the tree before the step that the new graph breaks
        exact = node_map is None and not self.config.aggressive
        broken = set(tree.separator_violations(g_new)) if exact else set()
        before = [tree.slot_nodes(i).copy() for i in range(tree.size)]
        dirty, state = self.engine.step(blocks(new, dim), node_map)
        n = g_new.n_nodes
        o2n = np.arange(n) if node_map is None else node_map.o2n
        reused = np.flatnonzero(dirty.reuse_mask).tolist()
        assert unchanged_slots(tree, reused, before, g_old, g_new, o2n) == reused
        tree.validate_partition(n)
        assert tree.separator_violations(g_new) == []
        assert is_permutation(state.graph_perm, n) and is_permutation(state.matrix_perm, n * dim)
        assert n - state.reused_nodes <= dirty.dirty_node_total
        assert broken <= set(np.flatnonzero(~dirty.reuse_mask).tolist())
        self.base = new


@pytest.mark.parametrize(
    "aggressive, theta", [(False, 0.4), (True, 0.4), (True, 0.0)], ids=["off", "theta0.4", "theta0"]
)
@pytest.mark.parametrize("dim", [1, 3])
def test_soak(dim, aggressive, theta):
    config = ParthConfig(dim=dim, target_leaf=4, aggressive=aggressive, theta=theta)
    run_state_machine_as_test(
        lambda: Soak(config),
        settings=settings(max_examples=2, stateful_step_count=100, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow]),
    )
