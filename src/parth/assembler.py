"""Permutation assembly over the decomposition tree.

Offsets come from a post-order traversal, which places every separator
after the two regions it splits (nested dissection). Local orderings are
recomputed only where the reuse mask says so and spliced into the
graph-level permutation; block expansion then yields the matrix-level one.
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

    post_order: np.ndarray
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


def compute_offsets(tree: HgdTree, post_order: np.ndarray) -> None:
    """Prefix-sum splice positions in traversal order, written onto the tree."""
    offset = 0
    for i in post_order:
        tree.nodes[i].offset = offset
        offset += int(tree.nodes[i].nodes.size)


def assemble(
    tree: HgdTree, g: SymGraph, reuse_mask: np.ndarray, engine: MinDegreeEngine, dim: int = 1
) -> AssemblyState:
    """Produce graph- and matrix-level permutations from the tree.

    Tree nodes with reuse_mask False get a fresh local ordering of their
    induced sub-graph; the rest reuse the stored one verbatim. The first
    call must pass an all-False mask.
    """
    if len(reuse_mask) != tree.size:
        raise StaleTree(f"mask length {len(reuse_mask)} != tree size {tree.size}")
    tree.validate_partition(g.n_nodes)

    post = post_order_indices(tree.max_level)
    compute_offsets(tree, post)

    graph_perm = np.empty(g.n_nodes, dtype=np.int64)
    reused = 0
    for i in post:
        tn = tree.nodes[i]
        k = int(tn.nodes.size)
        if k == 0:
            continue
        if reuse_mask[i]:
            if tn.local_perm is None or tn.local_perm.size != k:
                raise StaleTree(f"tree node {i} marked reusable without a matching stored ordering")
            reused += k
        else:
            sub, _ = induced_subgraph(g, tn.nodes)
            tn.local_perm = order_subgraph(sub, engine)
        graph_perm[tn.offset : tn.offset + k] = tn.nodes[tn.local_perm]

    if dim == 1:
        matrix_perm = graph_perm
    else:
        matrix_perm = (graph_perm[:, None] * dim + np.arange(dim, dtype=np.int64)).ravel()
    return AssemblyState(post, graph_perm, matrix_perm, reused)


def reuse_ratio(state: AssemblyState, n_nodes: int) -> float:
    """Fraction of graph nodes whose local ordering was reused this call.

    An empty graph needs no reordering, so its ratio is 1.0.
    """
    return state.reused_nodes / n_nodes if n_nodes else 1.0
