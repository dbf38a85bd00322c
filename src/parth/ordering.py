"""Per-sub-graph fill-reducing ordering.

`MinDegreeEngine` is exact minimum-degree elimination with ties broken by
lowest node index. A faster ordering (AMD) replaces it in place, behind the
same `order` method. Permutations follow the convention
perm[new_position] = old_index.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidPermutation
from .graph import SymGraph


def is_permutation(perm: np.ndarray, n: int) -> bool:
    """True when perm is an integer array holding each of 0..n-1 once.

    A float or string array is never a permutation, even when its values
    would cast to one; an empty array of any dtype is the permutation of 0.
    """
    perm = np.asarray(perm)
    if perm.shape != (n,) or (n and perm.dtype.kind not in "iu"):
        return False
    seen = np.zeros(n, dtype=bool)
    ok = (perm >= 0) & (perm < n)
    if not np.all(ok):
        return False
    seen[perm] = True
    return bool(np.all(seen))


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    perm = np.asarray(perm)
    n = perm.size
    if not is_permutation(perm, n):
        raise InvalidPermutation("array is not a bijection")
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n, dtype=np.int64)
    return inv


class MinDegreeEngine:
    """Exact minimum-degree elimination; deterministic for a fixed graph.

    The elimination graph lives in Python sets built from one `tolist` of
    the adjacency, and the permutation grows as a list; only the degrees
    stay in numpy, so that each pivot is one `argmin`, whose first minimum
    is the lowest index.
    """

    def order(self, g: SymGraph) -> np.ndarray:
        n = g.n_nodes
        starts = g.adj_starts.tolist()
        flat = g.adj.tolist()
        adj = [set(flat[starts[i] : starts[i + 1]]) for i in range(n)]
        deg = np.diff(g.adj_starts)
        argmin = deg.argmin
        gone = n + 1  # sentinel larger than any live degree
        perm = []
        for _ in range(n):
            pivot = int(argmin())
            perm.append(pivot)
            nbrs = adj[pivot]
            for w in nbrs:
                s = adj[w]
                s.discard(pivot)
                s.update(nbrs)
                s.discard(w)
                deg[w] = len(s)
            adj[pivot] = set()
            deg[pivot] = gone
        return np.array(perm, dtype=np.int64)


def order_subgraph(g: SymGraph, engine: MinDegreeEngine) -> np.ndarray:
    perm = engine.order(g)
    if not is_permutation(perm, g.n_nodes):
        raise InvalidPermutation("ordering engine returned a non-bijective ordering")
    return perm
