"""Small vertex separators that split a graph into two even halves.

`LevelSetEngine` is dependency-free: BFS level sets from a
pseudo-peripheral node, the most evenly splitting level as the boundary,
then a greedy shrink pass. One `split` call splits many disjoint
sub-graphs at once, named by a group label per node: a tree level's worth.
A stronger partitioner replaces it in place, behind the same `split(g,
group)` method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _EMPTY, SymGraph, _index_array, bfs_distances, component_labels, gather_neighbors

_SIDE_SEP = 0
_SIDE_LEFT = 1
_SIDE_RIGHT = 2
_OUTSIDE = 3  # a node of no group


def _components(g: SymGraph, group: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`component_labels(g, mask)`, then the components' names (smallest nodes) and sizes in (group, -size, name) order."""
    label = component_labels(g, mask)
    sizes = np.bincount(label[mask], minlength=g.n_nodes)
    heads = np.flatnonzero(sizes)
    heads = heads[np.lexsort((heads, -sizes[heads], group[heads]))]
    return label, heads, sizes[heads]


@dataclass(frozen=True, eq=False)
class SeparatorResult:
    """Disjoint (sep, left, right) partition with no left-right edge."""

    sep: np.ndarray
    left: np.ndarray
    right: np.ndarray


class LevelSetEngine:
    """BFS level-set bisection with greedy separator shrinking, one group or many at once."""

    def split(self, g: SymGraph, group: np.ndarray | None = None) -> SeparatorResult:
        """Split every group of g into (sep, left, right), each sorted; deterministic, never raises.

        `group[u]` labels the sub-graph of node u, -1 for none; None puts
        every node in one group. No edge may join two groups, so each search
        runs over the whole graph with the nodes of no group blocked, and
        restricted to one group the result is the split of that group's
        induced subgraph. Per group, the components left by the separator go
        greedily, largest first, to the smaller side.
        """
        n = g.n_nodes
        group = np.zeros(n, dtype=np.int64) if group is None else _index_array(group)
        live = group >= 0
        sep = self._level_separators(g, group, live)
        keep = live.copy()
        keep[sep] = False
        label, heads, sizes = _components(g, group, keep)
        target = []
        both = set()  # a group's first component goes left: one with a right side has both
        cur = None
        for s, gr in zip(sizes.tolist(), group[heads].tolist()):
            if gr != cur:
                cur, halves = gr, [0, 0, 0]
            tgt = _SIDE_LEFT if halves[_SIDE_LEFT] <= halves[_SIDE_RIGHT] else _SIDE_RIGHT
            if tgt == _SIDE_RIGHT:
                both.add(gr)
            halves[tgt] += s
            target.append(tgt)
        side = np.zeros(n + 1, dtype=np.int8)  # label -1 reads the last entry: a separator
        side[heads] = target
        side = side[label]
        side[~live] = _OUTSIDE

        # with a side empty nothing is separated; shrinking would only hide that
        if sep.size and both:
            self._shrink(g, side, sep[np.isin(group[sep], list(both))])
        return SeparatorResult(
            np.flatnonzero(side == _SIDE_SEP),
            np.flatnonzero(side == _SIDE_LEFT),
            np.flatnonzero(side == _SIDE_RIGHT),
        )

    def _level_separators(self, g: SymGraph, group: np.ndarray, live: np.ndarray) -> np.ndarray:
        """Per group, the nodes of a BFS level of its largest component that touch the next level.

        Ties for the largest go to the smallest node, and only a component
        of 3 or more nodes, and so an edge to cut, is searched: two rounds
        of farthest-node BFS from its smallest node (ties to the lowest
        index) find a root, and a third gives the levels. Level t's score
        is how far the nodes before its separator (the rest of level t
        included) differ in number from those after level t; the first
        level with the lowest score wins. Each component's levels are
        scored in its own stretch of one array.
        """
        label, heads, sizes = _components(g, group, live)
        pick = (np.diff(group[heads], prepend=-1) != 0) & (sizes >= 3)
        big, big_sizes = heads[pick], sizes[pick]
        if not big.size:
            return _EMPTY
        k = big.size
        member = np.full(g.n_nodes + 1, -1, dtype=np.int64)
        member[big] = np.arange(k, dtype=np.int64)
        member = member[label]  # the index in `big` of each node's component, or -1
        del label
        roots = big
        for _ in range(3):
            dist = bfs_distances(g, roots, ~live)
            reached = np.flatnonzero(dist >= 0)
            level, comp = dist[reached], member[reached]
            ecc = np.zeros(k, dtype=np.int64)
            np.maximum.at(ecc, comp, level)
            far = reached[level == ecc[comp]]
            roots = np.full(k, g.n_nodes, dtype=np.int64)
            np.minimum.at(roots, member[far], far)
        # one pass over the adjacency: the nodes with a neighbour one level on
        nb = dist[g.adj]
        nb -= np.repeat(dist, np.diff(g.adj_starts))
        touches = np.zeros(g.n_nodes, dtype=bool)
        touches[np.searchsorted(g.adj_starts, np.flatnonzero(nb == 1), side="right") - 1] = True
        del nb
        touches = touches[reached]
        width = ecc + 1
        first = np.cumsum(width) - width  # where each component's levels start
        key = first[comp] + level
        counts = np.bincount(key, minlength=int(width.sum()))
        sep_counts = np.bincount(key[touches], minlength=counts.size)
        stretch = np.repeat(np.arange(k, dtype=np.int64), width)
        before_cum = np.cumsum(counts) - counts
        before_cum -= before_cum[first][stretch]
        # (before - after), with after = size - before_cum - counts
        score = np.abs(2 * (before_cum + counts) - sep_counts - big_sizes[stretch])
        best = np.lexsort((score, stretch))[first] - first
        return reached[touches & (level == best[comp])]

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
