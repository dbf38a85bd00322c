"""Hierarchical graph decomposition.

A complete binary tree, stored as a flat array with children at 2i+1 and
2i+2, holds one sub-graph per tree node: internal nodes store vertex
separators, leaves store the remaining regions. The tree is built one level
at a time, with one separator call per level. Subtrees can be rebuilt in
place when sparsity changes invalidate a separator, leaving the rest of the
tree untouched.

Topology is read from the heap index, not by walking the tree: the bits of
i + 1 after its leading 1 spell the path from the root to slot i, so an
ancestor's index is a binary prefix and a subtree level is a run of slots.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import RegionMismatch, StaleTree
from .graph import _EMPTY, SymGraph, _unique, induced_subgraph
from .separator import LevelSetEngine

# Sub-graphs smaller than this are not split but stored whole; splitting
# fewer than 3 nodes cannot produce a separator worth keeping.
MIN_SPLIT = 3

# Deepest tree accepted; the tree allocates 2**(MAX_LEVEL + 1) - 1 slots.
MAX_LEVEL = 16


def tree_size(max_level: int) -> int:
    return (1 << (max_level + 1)) - 1


def post_order_indices(max_level: int) -> np.ndarray:
    """Post-order of the complete binary tree with children 2i+1, 2i+2.

    Slots sort by the last leaf of their subtree, (i + 2) * 2**below - 1 for
    a slot `below` levels above the leaves, deeper slots first on a tie.
    """
    i = np.arange(tree_size(max_level), dtype=np.int64)
    below = max_level + 1 - np.frexp(i + 1)[1]  # np.frexp's exponent of i + 1 is its bit length
    return np.lexsort((below, (i + 2) << below))


def level_of(i: int) -> int:
    return (i + 1).bit_length() - 1


def is_in_subtree(i: int, root: int) -> bool:
    """True when tree index i lies in the subtree rooted at root (inclusive)."""
    below = level_of(i) - level_of(root)
    return below >= 0 and (i + 1) >> below == root + 1


def lca_of(a: int, b: int) -> int:
    """Lowest common ancestor: the common binary prefix of a + 1 and b + 1, less one."""
    a, b = a + 1, b + 1
    below = a.bit_length() - b.bit_length()
    a, b = (a >> below, b) if below > 0 else (a, b >> -below)
    return (a >> (a ^ b).bit_length()) - 1


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


class Layout(NamedTuple):
    """A tree's last assembly: its read-only permutations, and `offsets[k]`,
    where post-order slot k starts in `graph_perm` (the last is its size)."""

    graph_perm: np.ndarray
    matrix_perm: np.ndarray
    offsets: np.ndarray


class HgdTree:
    """Array-backed complete binary tree of sub-graphs.

    `owner[u]` is the index of the tree node whose array holds graph node u,
    the one record of it: every writer of a node array (`_store`, node
    sync, aggressive moves) updates it, the synchronizer reads it, and
    `validate_partition` audits it against the node arrays. The shape is
    fixed, so `size` and `post_order` (slot indices in post-order) are
    computed once.
    `layout` is the last assembly, which the next one splices into; a slot
    whose `ordered` flag is set still holds its stretch of it. None on a
    fresh tree and after a relabelling, which keeps flags but not arrays.
    """

    def __init__(self, max_level: int):
        self.max_level = int(max_level)
        self.size = tree_size(self.max_level)
        self.nodes = [HgdNode() for _ in range(self.size)]
        self.post_order = post_order_indices(self.max_level).tolist()
        self.owner = _EMPTY
        self.layout: Layout | None = None

    def subtree_indices(self, root: int) -> list[int]:
        """The slots of root's subtree, ascending: d levels below root, the 2**d slots from (root + 1) * 2**d - 1."""
        out: list[int] = []
        first, width = root, 1
        while first < self.size:
            out += range(first, first + width)
            first, width = 2 * first + 1, 2 * width
        return out

    def subtree_union(self, root: int) -> np.ndarray:
        parts = [self.nodes[i].nodes for i in self.subtree_indices(root)]
        return np.sort(np.concatenate(parts)) if parts else _EMPTY

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
        """Audit: the node arrays partition [0, n_nodes), and `owner` and `layout` agree with them.

        The layout's offsets must tile its permutation, one stretch per
        post-order slot, and every ordered slot must hold its stretch: right
        after an assembly, the post-order concatenation of the node arrays.
        """
        if not np.array_equal(self.owner, self._node_to_tree(n_nodes)):
            raise StaleTree("owner array disagrees with the tree node sets")
        if self.layout is None:
            return
        perm, _, at = self.layout
        if at.size != self.size + 1 or at[0] != 0 or at[-1] != perm.size or np.any(np.diff(at) < 0):
            raise StaleTree("layout offsets do not tile the last assembly")
        for k, i in enumerate(self.post_order):
            tn = self.nodes[i]
            if tn.ordered and not np.array_equal(perm[at[k] : at[k + 1]], tn.nodes):
                raise StaleTree(f"tree node {i} differs from its stretch of the last assembly")

    def separator_violations(self, g: SymGraph) -> list[int]:
        """Edge-scan audit: ancestors whose left/right subtrees are connected.

        Returns the sorted lowest common ancestors of all offending edges;
        empty when every separator is intact. It is `lca_of` on arrays, over
        every edge at once.
        """
        lookup = self._node_to_tree(g.n_nodes)
        a, b = g.edges()
        a = lookup[a]
        b = lookup[b]
        cross = a != b
        a, b = a[cross] + 1, b[cross] + 1
        below = np.frexp(a)[1] - np.frexp(b)[1]  # the bit lengths
        a >>= np.maximum(below, 0)
        b >>= np.maximum(-below, 0)
        apart = a != b  # else the shallower end is the other's ancestor
        a = a[apart] >> np.frexp(a[apart] ^ b[apart])[1]
        return (_unique(a) - 1).tolist()


def _store(tree: HgdTree, nodes: np.ndarray, slot: np.ndarray, to_global: np.ndarray) -> None:
    """Write the ascending `nodes` into their slots' node arrays, as graph nodes `to_global`, and into `owner`."""
    at = slot[nodes]
    order = np.argsort(at, kind="stable")
    nodes, at = to_global[nodes[order]], at[order]
    heads = np.flatnonzero(np.diff(at, prepend=-1))
    for i, piece in zip(at[heads].tolist(), np.split(nodes, heads[1:])):
        tree.nodes[i].nodes = piece
    tree.owner[nodes] = at


def _build_levels(tree: HgdTree, g: SymGraph, to_global: np.ndarray, root: int, engine: LevelSetEngine) -> None:
    """Decompose g (graph nodes `to_global`, ascending) into the empty subtree at root.

    One pass per tree level. `slot[u]` is the tree slot whose sub-graph
    holds node u, -1 once u is stored. A sub-graph is stored whole at the
    deepest level or when it has fewer than MIN_SPLIT nodes; one
    `engine.split` call, with the slots as groups, splits all the others,
    storing their separators and handing their sides to the two children.
    """
    slot = np.full(g.n_nodes, root, dtype=np.int64)
    for level in range(level_of(root), tree.max_level + 1):
        live = np.flatnonzero(slot >= 0)
        sizes = np.bincount(slot[live], minlength=tree.size)
        whole = sizes > 0 if level == tree.max_level else sizes < MIN_SPLIT
        done = live[whole[slot[live]]]
        _store(tree, done, slot, to_global)
        slot[done] = -1
        if done.size == live.size:
            return
        res = engine.split(g, slot)
        _store(tree, res.sep, slot, to_global)
        slot[res.sep] = -1
        slot[res.left] = 2 * slot[res.left] + 1
        slot[res.right] = 2 * slot[res.right] + 2


def hgd_build(g: SymGraph, max_level: int, engine: LevelSetEngine) -> HgdTree:
    """Separator decomposition of g down to max_level, one level at a time."""
    tree = HgdTree(max_level)
    tree.owner = np.empty(g.n_nodes, dtype=np.int64)
    _build_levels(tree, g, np.arange(g.n_nodes, dtype=np.int64), 0, engine)
    return tree


def hgd_redecompose(tree: HgdTree, root_index: int, g: SymGraph, region, engine: LevelSetEngine) -> None:
    """Rebuild the subtree at root_index over `region`, in place.

    The region must equal the union of node sets currently stored in that
    subtree; every tree node outside the subtree is left untouched. The
    subtree is emptied and un-ordered first, so slots the new decomposition
    does not reach stay empty, then rebuilt directly into the tree.
    """
    region = _unique(np.asarray(region, dtype=np.int64))
    current = tree.subtree_union(root_index)
    if not np.array_equal(region, current):
        raise RegionMismatch(
            f"region ({region.size} nodes) differs from subtree {root_index} contents ({current.size} nodes)"
        )
    for i in tree.subtree_indices(root_index):
        tree.nodes[i].nodes = _EMPTY
        tree.nodes[i].ordered = False
    sub, to_global = induced_subgraph(g, region)
    _build_levels(tree, sub, to_global, root_index, engine)


def default_max_level(n_nodes: int, target_leaf: int) -> int:
    """Depth that aims for roughly target_leaf nodes per leaf, clamped to [0, MAX_LEVEL]."""
    ratio = n_nodes / target_leaf
    level = 0 if ratio < 1.0 else int(math.floor(math.log2(ratio)))
    return max(0, min(level, MAX_LEVEL))
