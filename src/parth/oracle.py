"""Exact symbolic analysis for judging ordering quality.

`symbolic_analyze` counts the Cholesky factor of P A P^T without forming
it, by the column counts of Gilbert, Ng & Peyton ("An efficient algorithm
to compute row and column counts for sparse Cholesky factorization", SIMAX
15(4), 1994). Row i of L is the row subtree of i, the union of the etree
paths from the columns of row i of A up to i, so column j's count is the
number of row subtrees holding j: the sum over j's subtree of +1 at each
etree leaf and each row-subtree leaf, and -1 at each node's parent and at
the lowest common ancestor (LCA) of each two leaves adjacent in postorder
within one row subtree.

`_etree` builds the etree and its subtree sizes in one path-compressed
Python loop over the lower entries of A. `_column_counts` does the rest in
whole-array numpy: postorder intervals by pointer doubling, whose tables
also answer the LCAs by binary lifting, then prefix sums in postorder.
Nothing grows with nnz(L); the lifting tables take O(n log h) memory for
an etree of height h. On a 2-core x86 host with Python 3.11 and numpy
2.4, one analysis of a 5-point grid under a `Parth().start` ordering
takes about 4 ms at 64x64, 20 ms at 128x128 and 0.1 s at 256x256
(nnz(L) = 1.84M), most of it the etree loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPermutation
from .graph import SparsityPattern
from .ordering import is_permutation

ROOT = -1


@dataclass(frozen=True)
class FactorStats:
    """nnz of the Cholesky factor (diagonal included) and a flop proxy."""

    nnz_l: int
    flop_estimate: int


def _permuted_strict_lower(pattern: SparsityPattern, inv: np.ndarray):
    """The (row, col) pairs of the permuted strict lower triangle, row-major; `inv` maps rows to positions."""
    n = pattern.n_rows
    rows, cols = pattern.to_coo()
    pr, pc = inv[rows], inv[cols]
    keep = pr > pc
    return np.divmod(np.sort(pr[keep] * n + pc[keep]), n)  # n <= graph.MAX_ROWS: no overflow


def _etree(n: int, rows: np.ndarray, cols: np.ndarray):
    """Elimination tree and subtree sizes of a symmetric pattern, from its strict lower pairs in row order.

    The loop reads scalars from lists, several times faster than from numpy arrays.
    """
    parent = [ROOT] * n
    ancestor = [n] * n  # n: none yet
    size = [1] * n
    for k, j in zip(rows.tolist(), cols.tolist()):
        nxt = ancestor[j]
        while nxt < k:  # path compression: every node on the way now points at k
            ancestor[j] = k
            j = nxt
            nxt = ancestor[j]
        if nxt == n:
            parent[j] = k
            size[k] += size[j]  # j's subtree is complete: its children were set in row j
        ancestor[j] = k
    return np.array(parent, dtype=np.int64), np.array(size, dtype=np.int64)


def _column_counts(rows: np.ndarray, cols: np.ndarray, parent: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Exact per-column factor counts, diagonal included (see the module docstring)."""
    n = parent.size
    up = np.append(np.where(parent == ROOT, n, parent), n)  # node n sits above every root
    # low: where each subtree's postorder interval starts, the sum over its root
    # path of each node's offset among its siblings, by pointer doubling
    by_parent = np.argsort(up[:n])
    parents, before = up[by_parent], np.cumsum(size[by_parent]) - size[by_parent]
    low = np.zeros(n + 1, dtype=np.int64)
    low[by_parent] = before - before[np.searchsorted(parents, parents)]
    tables = []  # tables[k][u]: the 2^k-th ancestor of u, or n
    while up.min() < n:
        tables.append(up)
        low += low[up]
        up = up[up]
    post = low[:n] + size - 1

    # each row's columns by post (rows stay in order); a column is a leaf of
    # its row subtree when the column before it is not its descendant
    col_post = np.sort(rows * n + post[cols]) % n
    node = np.empty(n, dtype=np.int64)
    node[post] = np.arange(n)
    col = node[col_post]
    first = np.diff(rows, prepend=-1) != 0
    leaf = first | (np.roll(col_post, 1) < low[col])
    # the LCA of each later leaf and the column before it, which is the leaf
    # before it or an ancestor of that leaf: lift the leaf to its highest
    # ancestor whose subtree misses that column (low[n] stays 0, so none
    # passes a root), then take the parent
    later = np.flatnonzero(leaf & ~first)
    below, x = col_post[later - 1], col[later]
    for jump in reversed(tables):
        y = jump[x]
        x = np.where(low[y] > below, y, x)
    del tables, up
    lca = parent[x]

    # +1 at etree leaves and row-subtree leaves, -1 at each parent and at
    # each LCA; a column count is the sum over its subtree's interval
    plus = np.concatenate((post[size == 1], col_post[leaf]))
    minus = post[np.concatenate((parent[parent != ROOT], lca))]
    delta = np.bincount(plus, minlength=n) - np.bincount(minus, minlength=n)
    prefix = np.concatenate(([0], np.cumsum(delta)))
    return prefix[post + 1] - prefix[low[:n]]


def _setup(pattern: SparsityPattern, perm):
    """The checked set-up of `symbolic_analyze`.

    Raises InvalidPermutation, before any cast, unless perm is an integer
    permutation of the pattern's rows. Returns the permutation as int64, its
    inverse, the rows and columns of the permuted strict lower triangle
    (`_permuted_strict_lower`), and that triangle's elimination tree and
    subtree sizes (`_etree`).
    """
    n = pattern.n_rows
    if not is_permutation(perm, n):
        raise InvalidPermutation("permutation does not match the pattern size")
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n, dtype=np.int64)
    rows, cols = _permuted_strict_lower(pattern, inv)
    return (perm, inv, rows, cols, *_etree(n, rows, cols))


def symbolic_analyze(pattern: SparsityPattern, perm: np.ndarray) -> FactorStats:
    """Exact factor statistics of the permuted pattern.

    Computes the elimination tree and per-column counts of P A P^T; returns
    nnz(L) including the diagonal and sum(count^2) as a flop proxy.
    """
    counts = _column_counts(*_setup(pattern, perm)[2:])
    return FactorStats(int(counts.sum()), int(np.sum(counts * counts)))


def fill_deviation(
    perm_candidate: np.ndarray, perm_baseline: np.ndarray, pattern: SparsityPattern
) -> float:
    """Signed relative nnz(L) difference of a candidate vs a baseline ordering.

    Equal permutations have equal factors, so their deviation is 0.0 with
    no analysis; so is an empty pattern's, which has no factor to compare.
    """
    if np.array_equal(perm_candidate, perm_baseline):
        n = pattern.n_rows
        if not (is_permutation(perm_candidate, n) and is_permutation(perm_baseline, n)):
            raise InvalidPermutation("permutation does not match the pattern size")
        return 0.0
    a = symbolic_analyze(pattern, perm_candidate).nnz_l
    b = symbolic_analyze(pattern, perm_baseline).nnz_l
    return (a - b) / b  # two different permutations need n >= 2, and nnz(L) >= n
