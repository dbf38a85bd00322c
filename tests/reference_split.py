"""The separator and decomposition the level pass must reproduce, one sub-graph at a time.

`reference_split` splits one graph the way `LevelSetEngine.split` did
before it split a whole tree level per call, and `reference_build` /
`reference_redecompose` recurse depth-first, one `reference_split` and one
induced subgraph per tree slot. The batched code must match them slot by
slot.
"""

from __future__ import annotations

import numpy as np

from parth import SymGraph
from parth.graph import _EMPTY, bfs_distances, component_labels, gather_neighbors, induced_subgraph
from parth.hgd import MIN_SPLIT, HgdTree, level_of
from parth.separator import SeparatorResult

SEP, LEFT, RIGHT = 0, 1, 2


def connected_components(g: SymGraph, mask: np.ndarray | None = None) -> list[np.ndarray]:
    """Components as sorted node arrays, ordered by smallest node: one stable argsort of `component_labels`."""
    label = component_labels(g, mask)
    nodes = np.flatnonzero(label >= 0)
    order = nodes[np.argsort(label[nodes], kind="stable")]
    cuts = np.flatnonzero(np.diff(label[order])) + 1
    return np.split(order, cuts) if order.size else []


def _pseudo_peripheral(g: SymGraph, comp: np.ndarray) -> int:
    """Two rounds of farthest-node BFS; ties resolved to the lowest index."""
    start = int(comp.min())
    for _ in range(2):
        dist = bfs_distances(g, start)
        far = dist[comp].max()
        start = int(comp[dist[comp] == far].min())
    return start


def _level_separator(g: SymGraph, comp: np.ndarray) -> np.ndarray:
    """Nodes of the first most evenly splitting BFS level that touch the next level."""
    dist = bfs_distances(g, _pseudo_peripheral(g, comp))
    level = dist[comp]
    sizes = np.bincount(level)
    counts = g.adj_starts[comp + 1] - g.adj_starts[comp]
    local = np.repeat(np.arange(comp.size), counts)
    touches = np.zeros(comp.size, dtype=bool)
    touches[local[dist[gather_neighbors(g, comp)] == level[local] + 1]] = True
    sep_sizes = np.bincount(level[touches], minlength=sizes.size)
    before_cum = np.cumsum(sizes) - sizes
    before = before_cum + sizes - sep_sizes
    after = comp.size - before_cum - sizes
    best_t = int(np.argmin(np.abs(before - after)))
    return comp[touches & (level == best_t)]


def _shrink(g: SymGraph, side: np.ndarray, sep: np.ndarray) -> None:
    """Sweep the separator in order until no node touching only one side is left; each moves to that side."""
    pending = sep.tolist()
    changed = True
    while changed:
        changed = False
        still = []
        for s in pending:
            nb_side = side[g.neighbors(s)]
            has_l, has_r = bool((nb_side == LEFT).any()), bool((nb_side == RIGHT).any())
            if has_l and has_r:
                still.append(s)
                continue
            side[s] = LEFT if has_l else RIGHT
            changed = True
        pending = still


def reference_split(g: SymGraph) -> SeparatorResult:
    n = g.n_nodes
    ids = np.arange(n, dtype=np.int64)
    if n <= 1:
        return SeparatorResult(_EMPTY, ids, _EMPTY)
    comps = connected_components(g)
    big = max(comps, key=lambda c: (c.size, -int(c.min())))
    sep = _level_separator(g, big) if big.size >= 3 else _EMPTY
    side = np.zeros(n, dtype=np.int8)
    in_sep = np.zeros(n, dtype=bool)
    in_sep[sep] = True
    sizes = [0, 0, 0]
    for comp in sorted(connected_components(g, mask=~in_sep), key=lambda c: (-c.size, int(c.min()))):
        tgt = LEFT if sizes[LEFT] <= sizes[RIGHT] else RIGHT
        side[comp] = tgt
        sizes[tgt] += comp.size
    if sizes[LEFT] and sizes[RIGHT]:
        _shrink(g, side, sep)
    return SeparatorResult(
        np.flatnonzero(side == SEP) if sep.size else _EMPTY,
        np.flatnonzero(side == LEFT),
        np.flatnonzero(side == RIGHT),
    )


def _build_into(tree: HgdTree, sub: SymGraph, to_global: np.ndarray, level: int, idx: int) -> None:
    node = tree.nodes[idx]
    if level == tree.max_level or sub.n_nodes < MIN_SPLIT:
        node.nodes = to_global
        tree.owner[to_global] = idx
        return
    res = reference_split(sub)
    node.nodes = to_global[res.sep]
    tree.owner[node.nodes] = idx
    left_sub, lsel = induced_subgraph(sub, res.left)
    _build_into(tree, left_sub, to_global[lsel], level + 1, 2 * idx + 1)
    right_sub, rsel = induced_subgraph(sub, res.right)
    _build_into(tree, right_sub, to_global[rsel], level + 1, 2 * idx + 2)


def reference_build(g: SymGraph, max_level: int) -> HgdTree:
    tree = HgdTree(max_level)
    tree.owner = np.empty(g.n_nodes, dtype=np.int64)
    _build_into(tree, g, np.arange(g.n_nodes, dtype=np.int64), 0, 0)
    return tree


def reference_redecompose(tree: HgdTree, root: int, g: SymGraph, region: np.ndarray) -> None:
    """Empty the subtree at root, then recurse over the sorted `region` into it."""
    for i in tree.subtree_indices(root):
        tree.nodes[i].nodes = _EMPTY
        tree.nodes[i].ordered = False
    sub, to_global = induced_subgraph(g, region)
    _build_into(tree, sub, to_global, level_of(root), root)
