"""Hierarchical graph decomposition.

A complete binary tree, with children at 2i+1 and 2i+2, holds one sub-graph
per slot: internal slots store vertex separators, leaves the remaining
regions. A nested-dissection ordering is a post-order of its separator
tree, so `HgdTree` is four flat arrays:
- `perm`, the graph nodes, post-order slot by slot;
- `offsets`, where each post-order slot's stretch of `perm` starts;
- `owner`, graph node -> slot;
- `ordered`, one flag per slot.
Between any two stages of a step, slot `post_order[k]` holds exactly
`perm[offsets[k] : offsets[k + 1]]`, in local elimination order when its
flag is set, so the slots of a subtree are one run of `perm`. The tree is
built one level at a time, one separator call per level, and a subtree is
rebuilt in place when a change breaks its separator.

Topology is read from the heap index, not by walking the tree: the bits of
i + 1 after its leading 1 spell the path from the root to slot i, so an
ancestor's index is a binary prefix and a subtree level is a run of slots.
"""

from __future__ import annotations

import math

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


class HgdTree:
    """The four arrays of the module docstring; `validate_partition` audits them.

    The shape is fixed, so `size`, `post_order` and its inverse `rank` are
    computed once. `perm` is read-only exactly when it is the permutation
    the last assembly returned, and `matrix_perm` is that assembly's `dim`
    expansion: a writer makes a new array rather than write into it.
    """

    def __init__(self, max_level: int):
        self.max_level = int(max_level)
        self.size = tree_size(self.max_level)
        self.post_order = post_order_indices(self.max_level)
        self.rank = np.argsort(self.post_order)
        self.perm = self.owner = self.matrix_perm = _EMPTY
        self.offsets = np.zeros(self.size + 1, dtype=np.int64)
        self.ordered = np.zeros(self.size, dtype=bool)

    def subtree_run(self, root: int) -> tuple[int, int]:
        """Post-order positions [lo, hi) of root's subtree: one run, root last."""
        hi = int(self.rank[root]) + 1
        return hi - tree_size(self.max_level - level_of(root)), hi

    def slot_nodes(self, i: int) -> np.ndarray:
        """Slot i's nodes: a read-only view of its stretch of `perm`."""
        k = self.rank[i]
        view = self.perm[self.offsets[k] : self.offsets[k + 1]]
        view.flags.writeable = False
        return view

    def subtree_union(self, root: int) -> np.ndarray:
        """The nodes of root's subtree, sorted."""
        lo, hi = self.subtree_run(root)
        return np.sort(self.perm[self.offsets[lo] : self.offsets[hi]])

    def splice(self, perm: np.ndarray, out: np.ndarray, joined: np.ndarray) -> set[int]:
        """Make `perm` the given one less its positions `out`, plus each of `joined` at the end of its slot's stretch.

        `offsets` describes the given array and follows; `owner` already names the slots of `joined`.
        They are inserted in post-order, as slots with only empty ones between them end at one index, and
        keep their given order within a slot. The slots whose membership changed are un-ordered and returned.
        """
        cut = np.searchsorted(self.offsets, out, side="right") - 1
        self.offsets[1:] -= np.cumsum(np.bincount(cut, minlength=self.size))
        joined = joined[np.argsort(self.rank[self.owner[joined]], kind="stable")]
        k = self.rank[self.owner[joined]]
        self.perm = np.insert(np.delete(perm, out), self.offsets[k + 1], joined)
        self.offsets[1:] += np.cumsum(np.bincount(k, minlength=self.size))
        changed = self.post_order[np.concatenate((cut, k))]
        self.ordered[changed] = False
        return set(changed.tolist())

    def validate_partition(self, n_nodes: int) -> None:
        """Audit: `perm` is a permutation of [0, n_nodes) that `offsets` tiles, and `owner` agrees with it."""
        perm, at = self.perm, self.offsets
        if at.shape != (self.size + 1,) or at[0] != 0 or at[-1] != perm.size or np.any(np.diff(at) < 0):
            raise StaleTree("offsets do not tile the permutation")
        slots = np.repeat(self.post_order, np.diff(at))
        if perm.size and (perm.min() < 0 or perm.max() >= n_nodes):
            idx = int(slots[np.argmax((perm < 0) | (perm >= n_nodes))])
            raise StaleTree(f"tree node {idx} references a graph node outside [0, {n_nodes})")
        if perm.size and np.bincount(perm).max() > 1:
            raise StaleTree("tree node sets overlap")
        if perm.size != n_nodes:
            raise StaleTree("tree node sets do not cover the graph")
        if self.owner.size != n_nodes or not np.array_equal(self.owner[perm], slots):
            raise StaleTree("owner array disagrees with the tree node sets")

    def separator_violations(self, g: SymGraph) -> list[int]:
        """Edge-scan audit: ancestors whose left/right subtrees are connected.

        Returns the sorted lowest common ancestors of all offending edges;
        empty when every separator is intact. It is `lca_of` on arrays, over
        every edge at once, after `validate_partition`.
        """
        self.validate_partition(g.n_nodes)
        a, b = (self.owner[ends] for ends in g.edges())
        cross = a != b
        a, b = a[cross] + 1, b[cross] + 1
        below = np.frexp(a)[1] - np.frexp(b)[1]  # the bit lengths
        a >>= np.maximum(below, 0)
        b >>= np.maximum(-below, 0)
        apart = a != b  # else the shallower end is the other's ancestor
        a = a[apart] >> np.frexp(a[apart] ^ b[apart])[1]
        return (_unique(a) - 1).tolist()


def _build_levels(tree: HgdTree, g: SymGraph, to_global: np.ndarray, root: int, engine: LevelSetEngine) -> None:
    """Decompose g (graph nodes `to_global`, ascending) into the subtree at root.

    One pass per tree level. `slot[u]` is the tree slot whose sub-graph
    holds node u, -1 once u is stored in `at[u]`. A sub-graph is stored
    whole at the deepest level or when it has fewer than MIN_SPLIT nodes;
    one `engine.split` call, with the slots as groups, splits all the
    others, storing their separators and handing their sides to the two
    children. Then the subtree's run of `perm` is written once, ascending
    within each slot, and its slots are un-ordered.
    """
    slot = np.full(g.n_nodes, root, dtype=np.int64)
    at = np.empty_like(slot)
    for level in range(level_of(root), tree.max_level + 1):
        live = np.flatnonzero(slot >= 0)
        sizes = np.bincount(slot[live], minlength=tree.size)
        whole = sizes > 0 if level == tree.max_level else sizes < MIN_SPLIT
        done = live[whole[slot[live]]]
        at[done] = slot[done]
        slot[done] = -1
        if done.size == live.size:
            break
        res = engine.split(g, slot)
        at[res.sep] = slot[res.sep]
        slot[res.sep] = -1
        slot[res.left] = 2 * slot[res.left] + 1
        slot[res.right] = 2 * slot[res.right] + 2
    lo, hi = tree.subtree_run(root)
    k = tree.rank[at]
    start = tree.offsets[lo]
    tree.perm[start : start + k.size] = to_global[np.argsort(k, kind="stable")]
    tree.offsets[lo + 1 : hi + 1] = start + np.cumsum(np.bincount(k - lo, minlength=hi - lo))
    tree.owner[to_global] = at
    tree.ordered[tree.post_order[lo:hi]] = False


def hgd_build(g: SymGraph, max_level: int, engine: LevelSetEngine) -> HgdTree:
    """Separator decomposition of g down to max_level, one level at a time."""
    tree = HgdTree(max_level)
    tree.perm = np.empty(g.n_nodes, dtype=np.int64)
    tree.owner = np.empty(g.n_nodes, dtype=np.int64)
    _build_levels(tree, g, np.arange(g.n_nodes, dtype=np.int64), 0, engine)
    return tree


def hgd_redecompose(tree: HgdTree, root_index: int, g: SymGraph, region, engine: LevelSetEngine) -> None:
    """Rebuild the subtree at root_index over `region`, in place.

    The region must equal the union of node sets currently stored in that
    subtree. Only the subtree's run of `perm` is rewritten (in a copy if
    the last assembly returned it), so every slot outside it is untouched.
    """
    region = _unique(np.asarray(region, dtype=np.int64))
    current = tree.subtree_union(root_index)
    if not np.array_equal(region, current):
        raise RegionMismatch(
            f"region ({region.size} nodes) differs from subtree {root_index} contents ({current.size} nodes)"
        )
    if not tree.perm.flags.writeable:
        tree.perm = tree.perm.copy()
    sub, to_global = induced_subgraph(g, region)
    _build_levels(tree, sub, to_global, root_index, engine)


def default_max_level(n_nodes: int, target_leaf: int) -> int:
    """Depth that aims for roughly target_leaf nodes per leaf, clamped to [0, MAX_LEVEL]."""
    ratio = n_nodes / target_leaf
    level = 0 if ratio < 1.0 else int(math.floor(math.log2(ratio)))
    return max(0, min(level, MAX_LEVEL))
