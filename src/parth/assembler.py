"""Permutation assembly over the decomposition tree.

Every tree node keeps its node array in local elimination order. A
post-order traversal concatenates those arrays, which places every
separator after the two regions it splits (nested dissection). Local
orderings are recomputed only where the reuse mask says so; block expansion
then yields the matrix-level permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StaleTree
from .graph import SymGraph, induced_subgraph
from .hgd import HgdTree
from .ordering import MinDegreeEngine, order_subgraph


@dataclass
class AssemblyState:
    """Result of one assembly call.

    graph_perm and matrix_perm follow perm[new_position] = old_index;
    reused_nodes counts the graph nodes whose local ordering was reused.
    """

    graph_perm: np.ndarray
    matrix_perm: np.ndarray
    reused_nodes: int


def post_order_indices(max_level: int) -> np.ndarray:
    """Post-order of the complete binary tree with children 2i+1, 2i+2."""
    out: list[int] = []

    def visit(i: int, level: int) -> None:
        if level < max_level:
            visit(2 * i + 1, level + 1)
            visit(2 * i + 2, level + 1)
        out.append(i)

    visit(0, 0)
    return np.array(out, dtype=np.int64)


def assemble(
    tree: HgdTree, g: SymGraph, reuse_mask: np.ndarray, engine: MinDegreeEngine, dim: int = 1
) -> AssemblyState:
    """Produce graph- and matrix-level permutations from the tree.

    Tree nodes with reuse_mask False get a fresh local ordering of their
    induced sub-graph, stored by rewriting their node array in elimination
    order; the rest keep their array as it is. The graph permutation is the
    node arrays concatenated in post-order. The first call must pass an
    all-False mask.
    """
    if len(reuse_mask) != tree.size:
        raise StaleTree(f"mask length {len(reuse_mask)} != tree size {tree.size}")
    tree.validate_partition(g.n_nodes)

    parts = []
    reused = 0
    for i in post_order_indices(tree.max_level):
        tn = tree.nodes[i]
        if tn.nodes.size == 0:
            continue
        if reuse_mask[i]:
            if not tn.ordered:
                raise StaleTree(f"tree node {i} marked reusable without a stored ordering")
            reused += int(tn.nodes.size)
        else:
            sub, sel = induced_subgraph(g, tn.nodes)
            tn.nodes = sel[order_subgraph(sub, engine)]
            tn.ordered = True
        parts.append(tn.nodes)
    graph_perm = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    if dim == 1:
        matrix_perm = graph_perm
    else:
        matrix_perm = (graph_perm[:, None] * dim + np.arange(dim, dtype=np.int64)).ravel()
    return AssemblyState(graph_perm, matrix_perm, reused)


def reuse_ratio(state: AssemblyState, n_nodes: int) -> float:
    """Fraction of graph nodes whose local ordering was reused this call.

    An empty graph needs no reordering, so its ratio is 1.0.
    """
    return state.reused_nodes / n_nodes if n_nodes else 1.0
