"""Small vertex separators that split a graph into two even halves.

`LevelSetEngine` is dependency-free: BFS level sets from a
pseudo-peripheral node, the most evenly splitting level as the boundary,
then a greedy shrink pass. A stronger partitioner replaces it in place,
behind the same `split` method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SymGraph, adjacency_lists, bfs_distances, connected_components, gather_neighbors

_EMPTY = np.empty(0, dtype=np.int64)

_SIDE_SEP = 0
_SIDE_LEFT = 1
_SIDE_RIGHT = 2


@dataclass(frozen=True, eq=False)
class SeparatorResult:
    """Disjoint (sep, left, right) partition with no left-right edge."""

    sep: np.ndarray
    left: np.ndarray
    right: np.ndarray


def _pseudo_peripheral(g: SymGraph, comp: np.ndarray, lists) -> int:
    """Two rounds of farthest-node BFS; ties resolved to the lowest index."""
    start = int(comp.min())
    for _ in range(2):
        dist = bfs_distances(g, start, lists)
        far = dist[comp].max()
        start = int(comp[dist[comp] == far].min())
    return start


class LevelSetEngine:
    """BFS level-set bisection with greedy separator shrinking."""

    def split(self, g: SymGraph) -> SeparatorResult:
        """Split g into (sep, left, right); deterministic total function, never raises."""
        n = g.n_nodes
        ids = np.arange(n, dtype=np.int64)
        if n <= 1:
            return SeparatorResult(_EMPTY, ids, _EMPTY)

        comps = connected_components(g)
        big = max(comps, key=lambda c: (c.size, -int(c.min())))
        # a connected component of 3 or more nodes always has an edge to cut
        sep = self._level_separator(g, big) if big.size >= 3 else _EMPTY

        side = np.zeros(n, dtype=np.int8)
        in_sep = np.zeros(n, dtype=bool)
        in_sep[sep] = True
        sizes = [0, 0, 0]
        for comp in sorted(connected_components(g, mask=~in_sep),
                           key=lambda c: (-c.size, int(c.min()))):
            tgt = _SIDE_LEFT if sizes[_SIDE_LEFT] <= sizes[_SIDE_RIGHT] else _SIDE_RIGHT
            side[comp] = tgt
            sizes[tgt] += comp.size

        # with a side empty nothing is separated; shrinking would only hide that
        if sizes[_SIDE_LEFT] and sizes[_SIDE_RIGHT]:
            self._shrink(g, side, sep)
        return SeparatorResult(
            np.flatnonzero(side == _SIDE_SEP) if sep.size else _EMPTY,
            np.flatnonzero(side == _SIDE_LEFT),
            np.flatnonzero(side == _SIDE_RIGHT),
        )

    def _level_separator(self, g: SymGraph, comp: np.ndarray) -> np.ndarray:
        """Nodes of the most evenly splitting BFS level that touch the next level.

        All levels are scored in one pass over the component: level t's
        separator is its nodes with a neighbor at level t+1, and its score
        is how far the nodes before it (the rest of level t included)
        differ in number from the nodes after it. The first level with the
        lowest score wins. `comp` is sorted, and so is the result.
        """
        lists = adjacency_lists(g)  # converted once for the three searches
        root = _pseudo_peripheral(g, comp, lists)
        dist = bfs_distances(g, root, lists)
        level = dist[comp]
        sizes = np.bincount(level)
        # one gathered neighbor list: which component nodes touch level t+1
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

    def _shrink(self, g: SymGraph, side: np.ndarray, sep: np.ndarray) -> None:
        """Move separator nodes touching only one side into that side.

        Every separator node touches a side: it has a neighbor on the next
        BFS level, which is not in the separator and so lies in a component
        given a side. Only separator nodes change side, and only the
        separator nodes' neighbor lists are read: the passes run over Python
        lists (one gathered neighbor list, a list copy of `side`), and the
        moved sides are written back once at the end.
        """
        sep_list = sep.tolist()
        ends = np.cumsum(g.adj_starts[sep + 1] - g.adj_starts[sep]).tolist()
        nbrs = gather_neighbors(g, sep).tolist()
        side_list = side.tolist()
        pending = [(s, nbrs[begin:end]) for s, begin, end in zip(sep_list, [0] + ends, ends)]
        changed = True
        while changed:
            changed = False
            still = []
            for s, nb in pending:
                nb_side = [side_list[y] for y in nb]
                has_l = _SIDE_LEFT in nb_side
                if has_l and _SIDE_RIGHT in nb_side:
                    still.append((s, nb))
                    continue
                side_list[s] = _SIDE_LEFT if has_l else _SIDE_RIGHT
                changed = True
            pending = still
        side[sep] = [side_list[s] for s in sep_list]
