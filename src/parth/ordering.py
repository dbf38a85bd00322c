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
    perm = np.asarray(perm)
    if perm.shape != (n,):
        return False
    seen = np.zeros(n, dtype=bool)
    ok = (perm >= 0) & (perm < n)
    if not np.all(ok):
        return False
    seen[perm] = True
    return bool(np.all(seen))


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64)
    n = perm.size
    if not is_permutation(perm, n):
        raise InvalidPermutation("array is not a bijection")
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n, dtype=np.int64)
    return inv


class MinDegreeEngine:
    """Exact minimum-degree elimination; deterministic for a fixed graph."""

    def order(self, g: SymGraph) -> np.ndarray:
        n = g.n_nodes
        adj = [set(map(int, g.neighbors(i))) for i in range(n)]
        deg = np.array([len(s) for s in adj], dtype=np.int64)
        gone = n + 1  # sentinel larger than any live degree
        perm = np.empty(n, dtype=np.int64)
        for k in range(n):
            pivot = int(np.argmin(deg))  # first minimum = lowest index
            perm[k] = pivot
            nbrs = adj[pivot]
            for w in nbrs:
                s = adj[w]
                s.discard(pivot)
                s.update(nbrs)
                s.discard(w)
                deg[w] = len(s)
            adj[pivot] = set()
            deg[pivot] = gone
        return perm


def order_subgraph(g: SymGraph, engine: MinDegreeEngine) -> np.ndarray:
    perm = engine.order(g)
    if not is_permutation(perm, g.n_nodes):
        raise InvalidPermutation("ordering engine returned a non-bijective ordering")
    return perm
