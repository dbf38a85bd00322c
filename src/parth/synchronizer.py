"""Change propagation between consecutive graphs and the decomposition tree.

One call runs the full pipeline: settle node additions/removals, diff the
edge sets, map each changed edge to a pair of tree nodes, classify the pairs
as fine dirt (local ordering stale) or coarse dirt (separator broken), drop
redundant entries, and rebuild the remaining coarse regions. Every tree node
whose local ordering went stale ends the call with its `ordered` flag
cleared; the returned reuse mask reports the same facts per tree node.

An edge whose endpoints share one tree node lies inside one sub-graph: its
local ordering must be recomputed, nothing structural changed. Such edges
become fine marks as soon as they are mapped to the tree (map_edges_to_tree,
aggressive_reuse), so classification only ever sees pairs with a != b:
  * a and b on one root-to-leaf path: no separator can be broken by an edge
    between a separator and its own subtree, so the change is dismissed.
  * disjoint subtrees, edge added: the lowest common ancestor's separator no
    longer separates; its whole subtree is rebuilt.
  * disjoint subtrees, edge removed: separators stay valid; both endpoint
    sub-graphs are merely marked for reordering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidMap
from .graph import ABSENT, NodeMap, SymGraph, edge_set_diff
from .hgd import HgdTree, hgd_redecompose, is_in_subtree, lca_of, level_of
from .separator import LevelSetEngine

ADDED = "added"
REMOVED = "removed"


@dataclass(frozen=True)
class TreeEdgeChange:
    """A changed graph edge (u, v) expressed as the tree-node pair (a, b)."""

    a: int
    b: int
    kind: str
    u: int
    v: int


@dataclass
class DirtyState:
    """Outcome of one synchronization.

    reuse_mask[i] is True when tree node i kept its local ordering. fine and
    coarse are the filtered dirty sets; dirty_node_total is the number of
    graph nodes covered by them (the upper bound on reordering work).
    """

    reuse_mask: np.ndarray
    fine: frozenset
    coarse: frozenset
    dirty_node_total: int = 0


def _related(a: int, b: int) -> bool:
    return a == b or is_in_subtree(a, b) or is_in_subtree(b, a)


def node_change_synchronizer(
    tree: HgdTree, node_map: NodeMap, n_new: int, g_new: SymGraph
) -> set[int]:
    """Relabel tree node sets to the new indexing and settle added/removed nodes.

    Surviving nodes are renumbered entry by entry, so a node array keeps its
    elimination order and a tree node whose membership is unchanged keeps
    its ordering; removed nodes are deleted from their arrays; each added
    node is appended to the deepest tree node holding one of its
    already-placed neighbors (surviving neighbors preferred), falling back
    to the root when isolated. Returns the tree indices whose membership
    changed; their orderings are cleared. `tree.owner` is renumbered and
    extended alongside.
    """
    if node_map.n_new != n_new:
        raise InvalidMap(f"map has {node_map.n_new} entries, expected {n_new}")
    node_map = node_map.checked(tree.total_nodes())
    if node_map.is_identity:
        return set()
    o2n = node_map.o2n
    owner = np.full(n_new, -1, dtype=np.int64)
    old_kept = o2n >= 0
    owner[o2n[old_kept]] = tree.owner[old_kept]
    tree.owner = owner

    touched: set[int] = set()
    for idx, tn in enumerate(tree.nodes):
        if tn.nodes.size == 0:
            continue
        mapped = o2n[tn.nodes]
        kept = mapped[mapped >= 0]
        if kept.size != tn.nodes.size:
            touched.add(idx)
            tn.ordered = False
        tn.nodes = kept

    added = np.flatnonzero(node_map.entries == ABSENT)
    if added.size:
        survivor = node_map.entries >= 0
        for u in map(int, added):
            nbrs = g_new.neighbors(u)
            placed = owner[nbrs] >= 0
            target = 0
            for pool in (nbrs[placed & survivor[nbrs]], nbrs[placed]):
                if pool.size:
                    cands = np.unique(owner[pool])
                    depths = np.array([level_of(int(c)) for c in cands])
                    target = int(cands[depths == depths.max()].min())
                    break
            tn = tree.nodes[target]
            tn.nodes = np.append(tn.nodes, u)
            tn.ordered = False
            owner[u] = target
            touched.add(target)
    return touched


def map_edges_to_tree(
    tree: HgdTree, added: np.ndarray, removed: np.ndarray
) -> tuple[list[TreeEdgeChange], set[int]]:
    """Express graph-edge deltas as tree-node pairs.

    Both edge arrays must use the current (new) graph indexing. Edges whose
    endpoints share a tree node are returned separately as fine-grain marks
    on that node.
    """
    owner = tree.owner
    changes: list[TreeEdgeChange] = []
    fine: set[int] = set()
    for pairs, kind in ((added, ADDED), (removed, REMOVED)):
        for u, v in np.asarray(pairs, dtype=np.int64).reshape(-1, 2):
            a, b = int(owner[u]), int(owner[v])
            if a == b:
                fine.add(a)
            else:
                changes.append(TreeEdgeChange(a, b, kind, int(u), int(v)))
    return changes, fine


def dirty_subgraph_detection(
    tree: HgdTree, changes: list[TreeEdgeChange]
) -> tuple[set[int], set[int]]:
    """Classify tree-edge changes into fine and coarse dirty sets."""
    fine: set[int] = set()
    coarse: set[int] = set()
    for ch in changes:
        if _related(ch.a, ch.b):
            continue
        if ch.kind == ADDED:
            coarse.add(lca_of(ch.a, ch.b))
        else:
            fine.update((ch.a, ch.b))
    return fine, coarse


def filter_redundant_subgraphs(fine: set[int], coarse: set[int]) -> tuple[set[int], set[int]]:
    """Drop nested coarse roots and fine marks covered by a coarse subtree."""
    coarse_kept = {
        c for c in coarse if not any(c2 != c and is_in_subtree(c, c2) for c2 in coarse)
    }
    fine_kept = {f for f in fine if not any(is_in_subtree(f, c) for c in coarse_kept)}
    return fine_kept, coarse_kept


def aggressive_reuse(
    tree: HgdTree, g_new: SymGraph, changes: list[TreeEdgeChange], theta: float = 0.5
) -> tuple[list[TreeEdgeChange], set[int]]:
    """Defuse added edges whose coarse region would cover more than theta * n.

    For each such edge the endpoint held by the smaller tree node (ties to
    the lower graph index) is moved into the lowest common ancestor's
    separator set, turning the change into an ancestor-related one that
    needs no re-decomposition. The move is made only when no edge incident
    to the moved node would still cross disjoint subtrees; otherwise the
    change is kept and falls back to coarse dirt. Returns the remaining
    changes (tree pairs refreshed) plus the extra fine-dirty tree nodes
    produced by the moves.
    """
    owner = tree.owner
    n = owner.size
    extra: set[int] = set()
    out: list[TreeEdgeChange] = []
    for ch in changes:
        a, b = int(owner[ch.u]), int(owner[ch.v])
        if a == b:
            extra.add(a)
            continue
        ch = replace(ch, a=a, b=b)
        if ch.kind != ADDED or _related(a, b):
            out.append(ch)
            continue
        anc = lca_of(a, b)
        region = sum(tree.nodes[i].nodes.size for i in tree.subtree_indices(anc))
        if region <= theta * n:
            out.append(ch)
            continue
        size_a, size_b = tree.nodes[a].nodes.size, tree.nodes[b].nodes.size
        if size_a < size_b or (size_a == size_b and ch.u < ch.v):
            mover, src = ch.u, a
        else:
            mover, src = ch.v, b
        if all(_related(anc, int(owner[w])) for w in g_new.neighbors(mover)):
            src_tn, anc_tn = tree.nodes[src], tree.nodes[anc]
            src_tn.nodes = src_tn.nodes[src_tn.nodes != mover]
            anc_tn.nodes = np.append(anc_tn.nodes, mover)
            src_tn.ordered = anc_tn.ordered = False
            owner[mover] = anc
            extra.update((src, anc))
        else:
            out.append(ch)
    return out, extra


def mark_and_decompose(
    tree: HgdTree,
    g_new: SymGraph,
    fine: set[int],
    coarse: set[int],
    engine: LevelSetEngine,
) -> DirtyState:
    """Rebuild coarse regions, clear the fine marks' orderings, and report the reuse mask."""
    reuse_mask = np.ones(tree.size, dtype=bool)
    total = 0
    for root in sorted(coarse):
        region = tree.subtree_union(root)
        total += int(region.size)
        hgd_redecompose(tree, root, g_new, region, engine)
        reuse_mask[tree.subtree_indices(root)] = False
    for f in sorted(fine):
        tree.nodes[f].ordered = False
        reuse_mask[f] = False
        total += int(tree.nodes[f].nodes.size)
    return DirtyState(reuse_mask, frozenset(fine), frozenset(coarse), total)


def synchronize(
    tree: HgdTree,
    g_old: SymGraph,
    g_new: SymGraph,
    node_map: NodeMap,
    engine: LevelSetEngine,
    aggressive: bool = False,
    theta: float = 0.5,
) -> DirtyState:
    """Bring a tree built over g_old up to date with g_new.

    After the call the tree's node sets partition the new graph and every
    separator holds on g_new; each tree node's `ordered` flag tells the
    assembler whether its local ordering survived, and the returned mask
    reports the same.
    """
    node_map = node_map.checked(g_old.n_nodes)
    touched = node_change_synchronizer(tree, node_map, g_new.n_nodes, g_new)
    added, removed = edge_set_diff(g_old, g_new, node_map)
    if removed.size:
        removed = node_map.o2n[removed]
    changes, fine_marks = map_edges_to_tree(tree, added, removed)
    extra: set[int] = set()
    if aggressive:
        changes, extra = aggressive_reuse(tree, g_new, changes, theta)
    fine, coarse = dirty_subgraph_detection(tree, changes)
    fine |= fine_marks | touched | extra
    fine, coarse = filter_redundant_subgraphs(fine, coarse)
    return mark_and_decompose(tree, g_new, fine, coarse, engine)
