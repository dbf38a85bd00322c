"""Change propagation between consecutive graphs and the decomposition tree.

One call runs the full pipeline: settle node additions/removals, diff the
edge sets, map each changed edge to a pair of tree nodes, classify the pairs
as fine dirt (local ordering stale) or coarse dirt (separator broken), drop
redundant entries, and rebuild the remaining coarse regions. Every tree node
whose local ordering went stale ends the call with its `ordered` flag
cleared; the returned reuse mask reports the same facts per tree node.
Each stage writes the tree's flat arrays in one pass, and every slot holds
exactly its stretch of `perm` between stages: node sync is one gather of
`perm` and one splice, `aggressive_reuse` splices all its moves at its end,
and a rebuild writes its subtree's run once.

A slot's local ordering depends only on its own induced sub-graph, so three
rules cover every changed edge (a, b), a and b the tree nodes of its ends:
  * a == b: only that sub-graph changed; the slot is a fine mark, set as
    the edge is mapped or by the move that put both ends in it.
  * a and b on one root-to-leaf path: no separator can be broken by an edge
    between a separator and its own subtree, so the change is dismissed.
  * disjoint subtrees, edge added: the lowest common ancestor's separator no
    longer separates; its whole subtree is rebuilt.
A removed edge never joins disjoint subtrees: the tree separated the old
graph, node sync keeps every survivor in its slot, and an aggressive move
only lifts a node into an ancestor of its slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    coarse are the filtered dirty sets; dirty_node_total counts the graph
    nodes of the slots the mask clears (the bound on reordering work). A
    fine slot changed its members or its induced edges; a coarse root is
    the LCA of an added edge, as a removed one never crosses subtrees.
    """

    reuse_mask: np.ndarray
    fine: frozenset
    coarse: frozenset
    dirty_node_total: int = 0


def _related(a: int, b: int) -> bool:
    return lca_of(a, b) in (a, b)


def node_change_synchronizer(tree: HgdTree, node_map: NodeMap, g_new: SymGraph) -> set[int]:
    """Relabel the tree to the new indexing and settle added/removed nodes.

    `perm` is renumbered entry by entry, so a stretch keeps its elimination
    order and a slot whose membership is unchanged keeps its ordering. One
    splice then cuts the removed nodes and appends each added one to the
    deepest slot holding one of its already-placed neighbors (surviving
    neighbors preferred), or to the root when isolated. Returns the slots
    whose membership changed; their orderings are cleared. `tree.owner` is
    renumbered and extended alongside. Raises InvalidMap, before any
    change, unless the map takes the tree's node count to g_new's.
    """
    node_map.require_sizes(tree.owner.size, g_new.n_nodes)
    if node_map.is_identity:
        return set()
    survivor = node_map.entries >= 0
    owner = np.full(node_map.n_new, -1, dtype=np.int64)
    owner[survivor] = tree.owner[node_map.entries[survivor]]
    tree.owner = owner
    added = np.flatnonzero(node_map.entries == ABSENT)
    for u in added.tolist():
        nbrs = g_new.neighbors(u)
        placed = owner[nbrs] >= 0
        pool = nbrs[placed & survivor[nbrs]]
        cands = owner[pool if pool.size else nbrs[placed]]
        # the lowest slot on the deepest level held (levels grow with the index), else the root
        owner[u] = cands[cands >= (1 << level_of(int(cands.max()))) - 1].min() if cands.size else 0
    mapped = node_map.o2n[tree.perm]
    return tree.splice(mapped, np.flatnonzero(mapped < 0), added)


def map_edges_to_tree(
    tree: HgdTree, added: np.ndarray, removed: np.ndarray
) -> tuple[list[TreeEdgeChange], set[int]]:
    """Express graph-edge deltas as tree-node pairs.

    Both edge arrays are (k, 2) int64 arrays in the current (new) graph
    indexing. Edges whose endpoints share a tree node are returned
    separately as fine-grain marks on that node.
    """
    changes: list[TreeEdgeChange] = []
    fine: set[int] = set()
    for uv, kind in ((added, ADDED), (removed, REMOVED)):
        ab = tree.owner[uv]
        same = ab[:, 0] == ab[:, 1]
        fine.update(ab[same, 0].tolist())
        cross = zip(ab[~same].tolist(), uv[~same].tolist())
        changes += [TreeEdgeChange(a, b, kind, u, v) for (a, b), (u, v) in cross]
    return changes, fine


def dirty_subgraph_detection(tree: HgdTree, changes: list[TreeEdgeChange]) -> set[int]:
    """Coarse roots: the lowest common ancestor of each added change between disjoint subtrees."""
    return {lca_of(ch.a, ch.b) for ch in changes if ch.kind == ADDED and not _related(ch.a, ch.b)}


def filter_redundant_subgraphs(fine: set[int], coarse: set[int]) -> tuple[set[int], set[int]]:
    """Drop nested coarse roots and fine marks covered by a coarse subtree."""
    coarse_kept = {
        c for c in coarse if not any(c2 != c and is_in_subtree(c, c2) for c2 in coarse)
    }
    fine_kept = {f for f in fine if not any(is_in_subtree(f, c) for c in coarse_kept)}
    return fine_kept, coarse_kept


def aggressive_reuse(
    tree: HgdTree, g_new: SymGraph, changes: list[TreeEdgeChange], theta: float
) -> tuple[list[TreeEdgeChange], set[int]]:
    """Defuse added edges whose coarse region would cover more than theta * n.

    For each such edge the endpoint held by the smaller tree node (ties to
    the lower graph index) is moved into the lowest common ancestor's
    separator set, turning the change into an ancestor-related one that
    needs no re-decomposition. The move is made only when no edge incident
    to the moved node would still cross disjoint subtrees; otherwise the
    change is kept and falls back to coarse dirt. Returns the remaining
    changes (tree pairs refreshed) plus the extra fine-dirty tree nodes
    produced by the moves. `owner` and `sizes`, the slot sizes in
    post-order, follow every move, so a region's size is the sum of one
    run of `sizes`; `perm` takes all the moves in one splice at the end.
    """
    owner, rank = tree.owner, tree.rank
    sizes = np.diff(tree.offsets)
    moved: list[int] = []  # a moved node keeps no crossing edge, so it never moves twice
    extra: set[int] = set()
    out: list[TreeEdgeChange] = []
    for ch in changes:
        a, b = int(owner[ch.u]), int(owner[ch.v])
        ch = TreeEdgeChange(a, b, ch.kind, ch.u, ch.v)
        anc = lca_of(a, b)
        if ch.kind != ADDED or anc in (a, b) or sizes[slice(*tree.subtree_run(anc))].sum() <= theta * owner.size:
            out.append(ch)
            continue
        if (sizes[rank[a]], ch.u) < (sizes[rank[b]], ch.v):
            mover, src = ch.u, a
        else:
            mover, src = ch.v, b
        if all(_related(anc, int(owner[w])) for w in g_new.neighbors(mover)):
            owner[mover] = anc
            sizes[rank[src]] -= 1
            sizes[rank[anc]] += 1
            moved.append(mover)
            extra.update((src, anc))
        else:
            out.append(ch)
    if moved:
        joined = np.array(moved, dtype=np.int64)
        tree.splice(tree.perm, np.flatnonzero(np.isin(tree.perm, joined, kind="table")), joined)
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
    for root in sorted(coarse):
        hgd_redecompose(tree, root, g_new, tree.subtree_union(root), engine)
        reuse_mask[tree.post_order[slice(*tree.subtree_run(root))]] = False
    for f in fine:
        tree.ordered[f] = reuse_mask[f] = False
    # with no mark nothing is cleared: a no-op step skips these numpy passes
    total = int(np.diff(tree.offsets)[~reuse_mask[tree.post_order]].sum()) if fine or coarse else 0
    return DirtyState(reuse_mask, frozenset(fine), frozenset(coarse), total)


def synchronize(
    tree: HgdTree,
    g_old: SymGraph,
    g_new: SymGraph,
    node_map: NodeMap,
    engine: LevelSetEngine,
    theta: float | None = None,
) -> DirtyState:
    """Bring a tree built over g_old up to date with g_new.

    After the call the tree's node sets partition the new graph and every
    separator holds on g_new; each tree node's `ordered` flag tells the
    assembler whether its local ordering survived, and the returned mask
    reports the same. A `theta` turns on `aggressive_reuse` with that
    threshold; None leaves it off. Raises InvalidMap, with the tree
    untouched, unless the map takes g_old's node count to g_new's.
    """
    node_map.require_sizes(g_old.n_nodes, g_new.n_nodes)
    touched = node_change_synchronizer(tree, node_map, g_new)
    added, removed = edge_set_diff(g_old, g_new, node_map)
    changes, fine = map_edges_to_tree(tree, added, node_map.o2n[removed])
    fine |= touched
    if theta is not None:
        changes, moved = aggressive_reuse(tree, g_new, changes, theta)
        fine |= moved
    fine, coarse = filter_redundant_subgraphs(fine, dirty_subgraph_detection(tree, changes))
    return mark_and_decompose(tree, g_new, fine, coarse, engine)
