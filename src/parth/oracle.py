"""Ground-truth symbolic and numeric checks for ordering quality.

Everything here is deliberately simple and exact at desk scale: the
elimination tree by path compression, per-column counts by row-subtree
traversal, and a scalar left-looking sparse Cholesky for end-to-end
verification. The numeric path exists to verify orderings, not to compete
with production factorization kernels.

The symbolic loops run over Python lists (`tolist()`), one scalar at a time;
their cost is O(nnz(L)) list operations. On a 2-core x86 host with Python
3.11, `symbolic_analyze` of a 5-point grid under a `Parth().start` ordering
takes about 14 ms at 64x64, 55 ms at 128x128 and 0.28 s at 256x256
(nnz(L) = 1.84M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidPermutation, NotPositiveDefinite
from .graph import SparsityPattern, _counts_to_starts
from .ordering import is_permutation

ROOT = -1


@dataclass(frozen=True)
class FactorStats:
    """nnz of the Cholesky factor (diagonal included) and a flop proxy."""

    nnz_l: int
    flop_estimate: int


def _permuted_strict_lower(pattern: SparsityPattern, inv: np.ndarray):
    """CSR of the strict lower triangle of the permuted pattern, as Python lists.

    The loops below read one scalar at a time, which is several times faster
    from a list than from a numpy array. `inv` maps each row to its position.
    """
    rows, cols = pattern.to_coo()
    pr, pc = inv[rows], inv[cols]
    keep = pr > pc
    pr, pc = pr[keep], pc[keep]
    order = np.lexsort((pc, pr))
    pr, pc = pr[order], pc[order]
    counts = np.bincount(pr, minlength=pattern.n_rows)
    return _counts_to_starts(counts).tolist(), pc.tolist()


def _etree(n: int, starts: list[int], cols: list[int]) -> np.ndarray:
    """Elimination tree of a symmetric pattern given its strict lower rows."""
    parent = [ROOT] * n
    ancestor = [ROOT] * n
    for k in range(n):
        for j in cols[starts[k] : starts[k + 1]]:
            while j != ROOT and j < k:
                nxt = ancestor[j]
                ancestor[j] = k
                if nxt == ROOT:
                    parent[j] = k
                j = nxt
    return np.array(parent, dtype=np.int64)


def _row_subtree_counts(
    n: int,
    starts: list[int],
    cols: list[int],
    parent: np.ndarray,
    collect_rows: bool = False,
):
    """Exact per-column factor counts; optionally the factor's row patterns."""
    up = parent.tolist()
    counts = [1] * n  # diagonal entries
    mark = [-1] * n
    rows = [] if collect_rows else None
    for i in range(n):
        mark[i] = i
        row = [] if collect_rows else None
        for k in cols[starts[i] : starts[i + 1]]:
            while mark[k] != i:
                mark[k] = i
                counts[k] += 1
                if collect_rows:
                    row.append(k)
                k = up[k]
        if collect_rows:
            row.sort()
            rows.append(row)
    return np.array(counts, dtype=np.int64), rows


def _setup(pattern: SparsityPattern, perm):
    """The checked set-up every entry point shares.

    Raises InvalidPermutation, before any cast, unless perm is an integer
    permutation of the pattern's rows. Returns the permutation as int64, its
    inverse, the permuted strict lower triangle (`_permuted_strict_lower`)
    and that triangle's elimination tree.
    """
    n = pattern.n_rows
    if not is_permutation(perm, n):
        raise InvalidPermutation("permutation does not match the pattern size")
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n, dtype=np.int64)
    starts, cols = _permuted_strict_lower(pattern, inv)
    return perm, inv, starts, cols, _etree(n, starts, cols)


def elimination_tree(pattern: SparsityPattern, perm: np.ndarray) -> np.ndarray:
    """Per-column parent array of the permuted pattern's factor; ROOT marks roots."""
    return _setup(pattern, perm)[4]


def symbolic_analyze(pattern: SparsityPattern, perm: np.ndarray) -> FactorStats:
    """Exact factor statistics of the permuted pattern.

    Computes the elimination tree and per-column counts of P A P^T; returns
    nnz(L) including the diagonal and sum(count^2) as a flop proxy.
    """
    _, _, starts, cols, parent = _setup(pattern, perm)
    counts, _ = _row_subtree_counts(pattern.n_rows, starts, cols, parent)
    return FactorStats(int(counts.sum()), int(np.sum(counts * counts)))


def numeric_cholesky_solve(
    pattern: SparsityPattern,
    values: np.ndarray,
    perm: np.ndarray,
    b: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Factor P A P^T = L L^T, solve A x = b, and report the relative residual.

    `values` must align entry-for-entry with the pattern (full symmetric
    storage). Raises NotPositiveDefinite on a nonpositive pivot.
    """
    n = pattern.n_rows
    perm, inv, lower_starts, lower_cols, parent = _setup(pattern, perm)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (pattern.nnz,):
        raise InvalidArgument(f"expected {pattern.nnz} values, got {values.shape}")
    b = np.asarray(b, dtype=np.float64)
    _, row_patterns = _row_subtree_counts(n, lower_starts, lower_cols, parent, collect_rows=True)

    rows, cols = pattern.to_coo()
    pr, pc = inv[rows], inv[cols]
    keep = pr >= pc
    lr, lc, lv = pr[keep], pc[keep], values[keep]
    order = np.lexsort((lr, lc))  # column-major lower triangle
    lr, lc, lv = lr[order], lc[order], lv[order]
    col_counts = np.bincount(lc, minlength=n)
    acol_starts = _counts_to_starts(col_counts)

    col_rows: list[list[int]] = [[j] for j in range(n)]
    for i in range(n):
        for k in row_patterns[i]:
            col_rows[k].append(i)
    col_rows_arr = [np.array(r, dtype=np.int64) for r in col_rows]
    col_vals: list[np.ndarray] = [None] * n  # type: ignore[list-item]

    scratch = np.zeros(n, dtype=np.float64)
    for j in range(n):
        a_slice = slice(acol_starts[j], acol_starts[j + 1])
        scratch[lr[a_slice]] = lv[a_slice]
        for k in row_patterns[j]:
            rk, vk = col_rows_arr[k], col_vals[k]
            pos = int(np.searchsorted(rk, j))
            scratch[rk[pos:]] -= vk[pos] * vk[pos:]
        pivot = scratch[j]
        if not np.isfinite(pivot) or pivot <= 0.0:
            raise NotPositiveDefinite(f"nonpositive pivot at column {j}: {pivot!r}")
        rj = col_rows_arr[j]
        out = np.empty(rj.size, dtype=np.float64)
        root = np.sqrt(pivot)
        out[0] = root
        out[1:] = scratch[rj[1:]] / root
        col_vals[j] = out
        scratch[rj] = 0.0

    # forward then backward substitution, column-oriented
    y = b[perm].astype(np.float64)
    for j in range(n):
        rj, vj = col_rows_arr[j], col_vals[j]
        y[j] /= vj[0]
        if rj.size > 1:
            y[rj[1:]] -= y[j] * vj[1:]
    z = y
    for j in range(n - 1, -1, -1):
        rj, vj = col_rows_arr[j], col_vals[j]
        acc = z[j]
        if rj.size > 1:
            acc -= float(np.dot(vj[1:], z[rj[1:]]))
        z[j] = acc / vj[0]

    x = np.empty(n, dtype=np.float64)
    x[perm] = z
    ax = np.zeros(n, dtype=np.float64)
    np.add.at(ax, rows, values * x[cols])
    bnorm = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(ax - b)) / (bnorm if bnorm > 0 else 1.0)
    return x, residual


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
