"""Tree topology by walking the tree, one parent step at a time.

`parth.hgd` answers every topology question from the heap index in closed
form. These are the walks it replaced: subtree membership and lowest common
ancestors step up through parents, subtree slots come from a stack (and
their post-order run from those slots' ranks), the post-order from a
recursion and the separator audit from a loop over every edge. The closed
forms must agree with them everywhere.
"""

from __future__ import annotations

import numpy as np

from parth import SymGraph
from parth.hgd import HgdTree


def parent_of(i: int) -> int:
    return (i - 1) // 2


def is_in_subtree(i: int, root: int) -> bool:
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


def subtree_indices(tree: HgdTree, root: int) -> list[int]:
    out = []
    stack = [root]
    while stack:
        i = stack.pop()
        out.append(i)
        if 2 * i + 2 < tree.size:
            stack.extend((2 * i + 2, 2 * i + 1))
    return sorted(out)


def subtree_run(tree: HgdTree, root: int) -> tuple[int, int]:
    """Post-order positions [lo, hi) of the walked subtree slots, which must be contiguous."""
    ranks = sorted(tree.rank[subtree_indices(tree, root)].tolist())
    assert ranks == list(range(ranks[0], ranks[-1] + 1)), f"subtree {root} is not one post-order run"
    return ranks[0], ranks[-1] + 1


def post_order_indices(max_level: int) -> np.ndarray:
    out: list[int] = []

    def visit(i: int, level: int) -> None:
        if level < max_level:
            visit(2 * i + 1, level + 1)
            visit(2 * i + 2, level + 1)
        out.append(i)

    visit(0, 0)
    return np.array(out, dtype=np.int64)


def separator_violations(tree: HgdTree, g: SymGraph) -> list[int]:
    """The lowest common ancestors of the edges between disjoint subtrees, one edge at a time."""
    tree.validate_partition(g.n_nodes)
    lookup = tree.owner
    bad = set()
    eu, ev = g.edges()
    for a, b in zip(lookup[eu].tolist(), lookup[ev].tolist()):
        if a == b or is_in_subtree(a, b) or is_in_subtree(b, a):
            continue
        bad.add(lca_of(a, b))
    return sorted(bad)
