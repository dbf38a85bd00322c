"""Permutation assembly over the decomposition tree.

Every tree node keeps its node array in local elimination order. A
post-order traversal concatenates those arrays, which places every
separator after the two regions it splits (nested dissection). Local
orderings are recomputed only for tree nodes whose `ordered` flag is
clear; block expansion then yields the matrix-level permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def assemble(tree: HgdTree, g: SymGraph, engine: MinDegreeEngine, dim: int) -> AssemblyState:
    """Produce graph- and matrix-level permutations from the tree.

    Tree nodes whose `ordered` flag is clear get a fresh local ordering of
    their induced sub-graph, stored by rewriting their node array in
    elimination order, and the flag is set; the rest keep their array as it
    is. The graph permutation is the node arrays concatenated in post-order.
    The tree must partition g's nodes: `hgd_build` and `synchronize` leave
    it so, and `HgdTree.validate_partition` audits it.
    """
    parts = []
    reused = 0
    for i in tree.post_order:
        tn = tree.nodes[i]
        if tn.nodes.size == 0:
            continue
        if tn.ordered:
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
