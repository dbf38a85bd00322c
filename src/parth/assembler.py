"""Permutation assembly over the decomposition tree.

The tree's `perm` lists the slots' nodes in post-order, which places every
separator after the two regions it splits (nested dissection), so once
each slot's stretch is in local elimination order, `perm` is the graph
permutation. Only slots whose `ordered` flag is clear are re-ordered, all
at once: one induced subgraph of their nodes, one `order(sub, group)` call
with a group per slot, and one scatter back into their own stretches.
Block expansion then yields the matrix-level permutation.
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

    graph_perm and matrix_perm follow perm[new_position] = old_index. Both
    are read-only: graph_perm is the tree's `perm`, which later writers
    copy, and a call that re-orders nothing returns them again.
    reused_nodes counts the graph nodes whose local ordering was reused.
    """

    graph_perm: np.ndarray
    matrix_perm: np.ndarray
    reused_nodes: int


def assemble(tree: HgdTree, g: SymGraph, engine: MinDegreeEngine, dim: int) -> AssemblyState:
    """Produce graph- and matrix-level permutations from the tree.

    The new local orderings are written over their slots' stretches of
    `perm` (a copy, if the last assembly returned it), and every flag is
    set. A call that re-orders nothing and finds `perm` as the last one
    left it returns the previous arrays. The tree must partition g's nodes:
    `hgd_build` and `synchronize` leave it so, and `validate_partition` audits it.
    """
    perm = tree.perm
    if tree.ordered.all() and not perm.flags.writeable and tree.matrix_perm.size == dim * perm.size:
        return AssemblyState(perm, tree.matrix_perm, int(perm.size))
    sizes, redo = np.diff(tree.offsets), ~tree.ordered[tree.post_order]  # redo: per post-order slot
    if redo.any():  # one ordering call for all the slots to re-order, one group per slot
        perm = perm if perm.flags.writeable else perm.copy()
        at = np.repeat(redo, sizes)
        union = perm[at]
        group = np.empty(g.n_nodes, dtype=np.int64)
        group[union] = np.repeat(np.arange(np.count_nonzero(redo)), sizes[redo])
        sub, sel = induced_subgraph(g, union)
        perm[at] = sel[order_subgraph(sub, engine, group[sel])]
        tree.perm = perm
        tree.ordered[:] = True
    matrix_perm = perm
    if dim > 1:
        matrix_perm = (perm[:, None] * dim + np.arange(dim, dtype=np.int64)).ravel()
    perm.flags.writeable = matrix_perm.flags.writeable = False
    tree.matrix_perm = matrix_perm
    return AssemblyState(perm, matrix_perm, int(perm.size - sizes[redo].sum()))


def reuse_ratio(state: AssemblyState, n_nodes: int) -> float:
    """Fraction of graph nodes whose local ordering was reused this call.

    An empty graph needs no reordering, so its ratio is 1.0.
    """
    return state.reused_nodes / n_nodes if n_nodes else 1.0
