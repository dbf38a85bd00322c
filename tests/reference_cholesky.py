"""A scalar left-looking sparse Cholesky that checks orderings end to end.

`numeric_cholesky_solve` factors P A P^T = L L^T under a permutation from
the package and solves A x = b with it. It shares the package's checked
set-up (`parth.oracle._setup`: the permutation check, the permuted lower
triangle and its elimination tree), but collects the factor's row patterns
with its own row-subtree walk, where `symbolic_analyze` counts them from
the tree by lowest common ancestors, so its factor size is an independent
check of `symbolic_analyze`. It verifies orderings; it is not meant to be fast.
"""

from __future__ import annotations

import numpy as np

from parth import InvalidArgument, SparsityPattern
from parth.graph import _counts_to_starts
from parth.oracle import _setup


class NotPositiveDefinite(ArithmeticError):
    """The numeric factorization hit a nonpositive pivot."""


def factor_row_patterns(n: int, rows: np.ndarray, cols: np.ndarray, parent: np.ndarray) -> list[list[int]]:
    """Column indices of each row of the strict lower factor, ascending, by row-subtree traversal.

    `rows` and `cols` are the strict lower triangle's entries in row order.
    """
    up = parent.tolist()
    mark = list(range(n))  # mark[k] == i: k is already in row i
    patterns: list[list[int]] = [[] for _ in range(n)]
    for i, k in zip(rows.tolist(), cols.tolist()):
        while mark[k] != i:
            mark[k] = i
            patterns[i].append(k)
            k = up[k]
    for row in patterns:
        row.sort()
    return patterns


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
    perm, inv, lower_rows, lower_cols, parent, _ = _setup(pattern, perm)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (pattern.nnz,):
        raise InvalidArgument(f"expected {pattern.nnz} values, got {values.shape}")
    b = np.asarray(b, dtype=np.float64)
    row_patterns = factor_row_patterns(n, lower_rows, lower_cols, parent)

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
