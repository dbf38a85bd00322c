"""Hierarchical graph decomposition.

A complete binary tree, stored as a flat array with children at 2i+1 and
2i+2, holds one sub-graph per tree node: internal nodes store vertex
separators, leaves store the remaining regions. Subtrees can be rebuilt in
place when sparsity changes invalidate a separator, leaving the rest of the
tree untouched.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RegionMismatch, StaleTree
from .graph import SymGraph, induced_subgraph
from .separator import LevelSetEngine

# Sub-graphs smaller than this stop recursing and are stored whole; splitting
# fewer than 3 nodes cannot produce a separator worth keeping.
MIN_SPLIT = 3

# Deepest tree accepted; the tree allocates 2**(MAX_LEVEL + 1) - 1 slots.
MAX_LEVEL = 16

_EMPTY = np.empty(0, dtype=np.int64)


def tree_size(max_level: int) -> int:
    return (1 << (max_level + 1)) - 1


def level_of(i: int) -> int:
    return (i + 1).bit_length() - 1


def parent_of(i: int) -> int:
    return (i - 1) // 2


def is_in_subtree(i: int, root: int) -> bool:
    """True when tree index i lies in the subtree rooted at root (inclusive)."""
    while i > root:
        i = parent_of(i)
    return i == root


def lca_of(a: int, b: int) -> int:
    while a != b:
        if a > b:
            a = parent_of(a)
        else:
            b = parent_of(b)
    return a


class HgdNode:
    """One tree slot: its global node set, in elimination order once ordered.

    `ordered` is True when `nodes` holds the node set in the local
    elimination order computed by the last assembly; any change of
    membership clears it. Relabelling maps the array entry by entry, so the
    order survives a renumbering of the unknowns.
    """

    __slots__ = ("nodes", "ordered")

    def __init__(self):
        self.nodes = _EMPTY
        self.ordered = False


class HgdTree:
    """Array-backed complete binary tree of sub-graphs.

    `owner[u]` is the index of the tree node whose array holds graph node u,
    the one record of it: every writer of a node array (`_build_into`, node
    sync, aggressive moves) updates it, the synchronizer reads it, and
    `validate_partition` audits it against the node arrays.
    """

    def __init__(self, max_level: int):
        self.max_level = int(max_level)
        self.nodes = [HgdNode() for _ in range(tree_size(max_level))]
        self.owner = _EMPTY

    @property
    def size(self) -> int:
        return len(self.nodes)

    def subtree_indices(self, root: int) -> list[int]:
        out = []
        stack = [root]
        while stack:
            i = stack.pop()
            out.append(i)
            if 2 * i + 2 < self.size:
                stack.extend((2 * i + 2, 2 * i + 1))
        return sorted(out)

    def subtree_union(self, root: int) -> np.ndarray:
        parts = [self.nodes[i].nodes for i in self.subtree_indices(root)]
        return np.sort(np.concatenate(parts)) if parts else _EMPTY

    def total_nodes(self) -> int:
        return int(sum(tn.nodes.size for tn in self.nodes))

    def _node_to_tree(self, n_nodes: int) -> np.ndarray:
        """Graph node -> tree index, rebuilt from the node arrays; raises StaleTree on bad coverage."""
        sets = [tn.nodes for tn in self.nodes]
        flat = np.concatenate(sets)
        owner = np.repeat(np.arange(self.size, dtype=np.int64), [s.size for s in sets])
        if flat.size and (flat.min() < 0 or flat.max() >= n_nodes):
            idx = int(owner[np.argmax((flat < 0) | (flat >= n_nodes))])
            raise StaleTree(f"tree node {idx} references a graph node outside [0, {n_nodes})")
        counts = np.bincount(flat, minlength=n_nodes)
        if flat.size and counts.max() > 1:
            raise StaleTree("tree node sets overlap")
        if flat.size != n_nodes:
            raise StaleTree("tree node sets do not cover the graph")
        lookup = np.empty(n_nodes, dtype=np.int64)
        lookup[flat] = owner
        return lookup

    def validate_partition(self, n_nodes: int) -> None:
        """Audit: the node arrays partition [0, n_nodes) and `owner` agrees with them."""
        if not np.array_equal(self.owner, self._node_to_tree(n_nodes)):
            raise StaleTree("owner array disagrees with the tree node sets")

    def separator_violations(self, g: SymGraph) -> list[int]:
        """Edge-scan audit: ancestors whose left/right subtrees are connected.

        Returns the sorted lowest common ancestors of all offending edges;
        empty when every separator is intact.
        """
        lookup = self._node_to_tree(g.n_nodes)
        bad = set()
        eu, ev = g.edges()
        for a, b in zip(lookup[eu], lookup[ev]):
            a, b = int(a), int(b)
            if a == b or is_in_subtree(a, b) or is_in_subtree(b, a):
                continue
            bad.add(lca_of(a, b))
        return sorted(bad)

    @classmethod
    def from_node_sets(cls, max_level: int, sets, g: SymGraph | None = None) -> "HgdTree":
        """Build a tree directly from per-index node sets.

        Meant for tests and replay tooling. Partition is always validated;
        when a graph is supplied the separator property is checked too.
        """
        tree = cls(max_level)
        if len(sets) != tree.size:
            raise StaleTree(f"expected {tree.size} node sets, got {len(sets)}")
        for idx, s in enumerate(sets):
            tree.nodes[idx].nodes = np.unique(np.asarray(s, dtype=np.int64))
        tree.owner = np.empty(tree.total_nodes(), dtype=np.int64)
        for idx, tn in enumerate(tree.nodes):
            np.put(tree.owner, tn.nodes, idx, mode="clip")  # the audit rejects a clipped entry
        tree.validate_partition(tree.owner.size)
        if g is not None:
            bad = tree.separator_violations(g)
            if bad:
                raise StaleTree(f"separator property violated at tree nodes {bad}")
        return tree


def _build_into(
    tree: HgdTree,
    sub: SymGraph,
    to_global: np.ndarray,
    level: int,
    idx: int,
    engine: LevelSetEngine,
) -> None:
    """Decompose `sub` (graph nodes `to_global`) into the empty subtree at idx."""
    node = tree.nodes[idx]
    if level == tree.max_level or sub.n_nodes < MIN_SPLIT:
        node.nodes = to_global
        tree.owner[to_global] = idx
        return
    res = engine.split(sub)
    node.nodes = to_global[res.sep]
    tree.owner[node.nodes] = idx
    left_sub, lsel = induced_subgraph(sub, res.left)
    _build_into(tree, left_sub, to_global[lsel], level + 1, 2 * idx + 1, engine)
    right_sub, rsel = induced_subgraph(sub, res.right)
    _build_into(tree, right_sub, to_global[rsel], level + 1, 2 * idx + 2, engine)


def hgd_build(g: SymGraph, max_level: int, engine: LevelSetEngine) -> HgdTree:
    """Recursive separator decomposition of g down to max_level."""
    tree = HgdTree(max_level)
    tree.owner = np.empty(g.n_nodes, dtype=np.int64)
    _build_into(tree, g, np.arange(g.n_nodes, dtype=np.int64), 0, 0, engine)
    return tree


def hgd_redecompose(
    tree: HgdTree,
    root_index: int,
    g: SymGraph,
    region,
    engine: LevelSetEngine,
) -> None:
    """Rebuild the subtree at root_index over `region`, in place.

    The region must equal the union of node sets currently stored in that
    subtree; every tree node outside the subtree is left untouched. The
    subtree is emptied and un-ordered first, so slots the new decomposition
    does not reach stay empty, then rebuilt directly into the tree.
    """
    region = np.unique(np.asarray(region, dtype=np.int64))
    current = tree.subtree_union(root_index)
    if not np.array_equal(region, current):
        raise RegionMismatch(
            f"region ({region.size} nodes) differs from subtree {root_index} contents ({current.size} nodes)"
        )
    for i in tree.subtree_indices(root_index):
        tree.nodes[i].nodes = _EMPTY
        tree.nodes[i].ordered = False
    sub, to_global = induced_subgraph(g, region)
    _build_into(tree, sub, to_global, level_of(root_index), root_index, engine)


def default_max_level(n_nodes: int, target_leaf: int = 256) -> int:
    """Depth that aims for roughly target_leaf nodes per leaf, clamped to [0, MAX_LEVEL]."""
    ratio = n_nodes / target_leaf
    level = 0 if ratio < 1.0 else int(math.floor(math.log2(ratio)))
    return max(0, min(level, MAX_LEVEL))
