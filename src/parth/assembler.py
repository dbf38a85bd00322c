"""Permutation assembly over the decomposition tree.

Every tree node keeps its node array in local elimination order. A
post-order traversal concatenates those arrays, which places every
separator after the two regions it splits (nested dissection). Local
orderings are recomputed only for tree nodes whose `ordered` flag is
clear, all at once: one induced subgraph of their nodes and one
`order(sub, group)` call with a group per tree node. Only their arrays are
spliced into the previous permutation; block expansion then yields the
matrix-level permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _EMPTY, SymGraph, induced_subgraph
from .hgd import HgdTree, Layout
from .ordering import MinDegreeEngine, order_subgraph


@dataclass
class AssemblyState:
    """Result of one assembly call.

    graph_perm and matrix_perm follow perm[new_position] = old_index. Both
    are read-only: the tree keeps them to splice the next assembly into, and
    a call that re-orders nothing returns them again. reused_nodes counts
    the graph nodes whose local ordering was reused.
    """

    graph_perm: np.ndarray
    matrix_perm: np.ndarray
    reused_nodes: int


def assemble(tree: HgdTree, g: SymGraph, engine: MinDegreeEngine, dim: int) -> AssemblyState:
    """Produce graph- and matrix-level permutations from the tree.

    Tree nodes whose `ordered` flag is clear get a fresh local ordering of
    their induced sub-graph (one `engine.order` call, a group each), stored
    by rewriting their node array in elimination order, and the flag is set;
    the rest keep their array as it is. The graph permutation is the node
    arrays concatenated in post-order: the tree's last layout with the
    re-ordered slots spliced in, or, on a tree with no layout, every array.
    A call that re-orders nothing returns the previous arrays. The tree must
    partition g's nodes: `hgd_build` and `synchronize` leave it so, and
    `HgdTree.validate_partition` audits it.
    """
    post, nodes = tree.post_order, tree.nodes
    if tree.layout is None:  # every slot is a new piece
        old, at, redo = _EMPTY, np.zeros(len(post) + 1, dtype=np.int64), range(len(post))
    else:
        old, at = tree.layout.graph_perm, tree.layout.offsets
        redo = [k for k, i in enumerate(post) if not nodes[i].ordered]
        if not redo and tree.layout.matrix_perm.size == dim * old.size:
            return AssemblyState(old, tree.layout.matrix_perm, int(old.size))
    fresh = [nodes[post[k]] for k in redo if not nodes[post[k]].ordered]
    if fresh:  # one ordering call for all the slots to re-order, one group per slot
        counts = [tn.nodes.size for tn in fresh]
        union = np.concatenate([tn.nodes for tn in fresh])
        group = np.empty(g.n_nodes, dtype=np.int64)
        group[union] = np.repeat(np.arange(len(fresh)), counts)
        sub, sel = induced_subgraph(g, union)
        for tn, piece in zip(fresh, np.split(sel[order_subgraph(sub, engine, group[sel])], np.cumsum(counts)[:-1])):
            tn.nodes, tn.ordered = piece, True
    # the old stretches between the slots in redo, with those slots' arrays between them
    parts, sizes, lo = [], np.diff(at), 0
    for k in redo:
        tn = nodes[post[k]]
        parts += (old[lo : at[k]], tn.nodes)
        sizes[k], lo = tn.nodes.size, at[k + 1]
    parts.append(old[lo:])
    graph_perm = np.concatenate(parts)
    matrix_perm = graph_perm
    if dim > 1:
        matrix_perm = (graph_perm[:, None] * dim + np.arange(dim, dtype=np.int64)).ravel()
    graph_perm.flags.writeable = matrix_perm.flags.writeable = False
    tree.layout = Layout(graph_perm, matrix_perm, np.concatenate(([0], np.cumsum(sizes))))
    return AssemblyState(graph_perm, matrix_perm, int(graph_perm.size) - sum(tn.nodes.size for tn in fresh))


def reuse_ratio(state: AssemblyState, n_nodes: int) -> float:
    """Fraction of graph nodes whose local ordering was reused this call.

    An empty graph needs no reordering, so its ratio is 1.0.
    """
    return state.reused_nodes / n_nodes if n_nodes else 1.0
