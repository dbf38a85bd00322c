"""Per-sub-graph fill-reducing ordering.

`MinDegreeEngine` is exact minimum-degree elimination, ties to the lowest
node index. One `order(g, group)` call orders a sub-graph per group label,
as `assemble` does for all the tree slots it re-orders: enough groups of
one width in 64-bit words in lockstep over bit-packed adjacency rows, the
rest one at a time over Python sets, with the same result. AMD would
replace it in place. Permutations follow perm[new_position] = old_index.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidPermutation
from .graph import SymGraph, _counts_to_starts, _gather_slices, _index_array, _rows_within, _run_heads

# a batch of groups w words wide runs in lockstep from this many groups and
# rows (64w a group), else over sets: lockstep won from about 72 groups of one
# word, 16 of two, 12 of four, 8 of eight and 4 of 16 or 32; the README says
# why the rows cut at 4 096, where no width's side was over 15 % slower
_LOCKSTEP_MIN_GROUPS, _LOCKSTEP_MIN_ROWS = 4, 4096
# a batch's bit rows take at most 2 MB; its neighbour lists are read this
# many rows at a time, so that their int64 copies stay small too
_BATCH_WORDS, _FILL_ROWS = 1 << 18, 1 << 12
_GONE = np.iinfo(np.int32).max  # the degree of an eliminated or padding node
_M1, _M2, _M4, _BYTES = map(np.uint64, (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101))
_U1, _U2, _U4, _U56 = map(np.uint64, (1, 2, 4, 56))


def is_permutation(perm: np.ndarray, n: int) -> bool:
    """True when perm is an integer array holding each of 0..n-1 once.

    A float or string array is never a permutation, even when its values
    would cast to one; an empty array of any dtype is the permutation of 0.
    """
    perm = np.asarray(perm)
    if perm.shape != (n,) or n == 0:  # an empty array of any dtype passes
        return perm.shape == (n,)
    if perm.dtype.kind not in "iu" or perm.min() < 0 or perm.max() >= n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[perm] = True
    return bool(np.all(seen))


class MinDegreeEngine:
    """Exact minimum-degree elimination; deterministic for a fixed graph."""

    def order(self, g: SymGraph, group: np.ndarray | None = None) -> np.ndarray:
        """The grouped nodes of g, group by group in label order, each group in elimination order.

        `group[u]` labels the sub-graph of node u, -1 for none; None puts
        every node in one group. Edges between groups are ignored, so a
        group's stretch orders its induced subgraph, labelled in node order.
        """
        label = np.zeros(g.n_nodes, dtype=np.int64) if group is None else _index_array(group)
        members = np.argsort(label, kind="stable")[np.count_nonzero(label < 0) :]
        sizes = np.bincount(label[members])
        at = _counts_to_starts(sizes)
        local = np.empty(g.n_nodes, dtype=np.int64)
        local[members] = np.arange(members.size) - np.repeat(at[:-1], sizes)
        out, width, loose = np.empty_like(members), (sizes + 63) // 64, []
        for w in np.unique(width[width > 0]).tolist():  # batches of one width, largest groups first
            same = np.flatnonzero(width == w)
            same, per = same[np.argsort(-sizes[same], kind="stable")], max(_BATCH_WORDS // (64 * w * w), 1)
            for batch in (same[lo : lo + per] for lo in range(0, same.size, per)):
                if batch.size < _LOCKSTEP_MIN_GROUPS or batch.size * 64 * w < _LOCKSTEP_MIN_ROWS:
                    loose += batch.tolist()
                else:
                    _lockstep(g, label, local, members, at[batch], sizes[batch], w, out)
        nodes = _gather_slices(members, at[loose], sizes[loose])
        starts, cols = (a.tolist() for a in _rows_within(g, nodes, label, local))
        for a, n, lo in zip(at[loose].tolist(), sizes[loose].tolist(), _counts_to_starts(sizes[loose]).tolist()):
            out[a : a + n] = members[a + np.array(_sets(starts[lo : lo + n + 1], cols), dtype=np.int64)]
        return out


def _sets(starts: list[int], cols: list[int]) -> list[int]:
    """Elimination order of one group whose node i has the neighbours cols[starts[i] : starts[i + 1]].

    Each set also holds its own node, so merging the pivot's set into a neighbour's adds only new ones."""
    adj = [{i, *cols[starts[i] : starts[i + 1]]} for i in range(len(starts) - 1)]
    deg, perm = np.diff(starts), []
    for _ in adj:
        pivot = int(deg.argmin())
        perm.append(pivot)
        nbrs = adj[pivot]
        nbrs.discard(pivot)
        for w in nbrs:
            s = adj[w]
            s |= nbrs
            s.discard(pivot)
            deg[w] = len(s) - 1
        deg[pivot] = _GONE
    return perm


def _lockstep(g: SymGraph, label, local, members, first, sizes, w: int, out) -> None:
    """Write into `out` the orders of the groups at `first` in `members`, all one width and sizes descending.

    Row j*S + i holds the neighbours of node i of group j as bits, S = 64w
    rows a group. Each round takes a pivot in every group still running by
    a row-wise argmin, ORs its row into its neighbours' rows less their own
    bits and its own, and sets their degrees to their popcounts.
    """
    batch, span = sizes.size, 64 * w
    bits = np.zeros((batch * span, w), dtype="<u8")
    deg = np.full((batch, span), _GONE, dtype=np.int32)  # padding rows never go live
    flat_deg = deg.reshape(-1)
    nodes = _gather_slices(members, first, sizes)
    row = np.repeat(np.arange(batch) * span, sizes) + local[nodes]
    for lo in range(0, nodes.size, _FILL_ROWS):
        starts, cols = _rows_within(g, nodes[lo : lo + _FILL_ROWS], label, local)
        flat_deg[row[lo : lo + _FILL_ROWS]] = np.diff(starts)
        key = np.repeat(row[lo : lo + _FILL_ROWS] * w, np.diff(starts)) + (cols >> 6)
        heads = np.flatnonzero(_run_heads(key))
        bits.reshape(-1)[key[heads]] = np.bitwise_or.reduceat(_U1 << (cols & 63).astype("<u8"), heads)
    one_hot = np.packbits(np.eye(span, dtype=bool), axis=1, bitorder="little").view("<u8")
    rows_as_one = bits.view(np.dtype((np.void, 8 * w))).reshape(-1)
    base, k, left = np.arange(batch) * span, batch, sizes.tolist()
    for r in range(left[0]):
        while left[k - 1] <= r:
            k -= 1
        p = deg[:k].argmin(axis=1)
        out[first[:k] + r] = members.take(first[:k] + p)
        at = base[:k] + p
        n_nbrs = flat_deg[at]
        flat_deg[at] = _GONE
        prow = bits.take(at, axis=0)
        # neighbour v of pivot j is bit j*S + v of the pivot rows, and row j*S + v of `bits`
        nbr = np.flatnonzero(np.unpackbits(prow.view(np.uint8), bitorder="little").view(bool))
        rows = bits.take(nbr, axis=0)
        rows |= np.repeat(prow, n_nbrs, axis=0)
        rows ^= one_hot.take(nbr % span, axis=0)  # its own bit, which came with prow
        rows ^= np.repeat(one_hot.take(p, axis=0), n_nbrs, axis=0)  # and the pivot's, which it had
        np.put(rows_as_one, nbr, rows.view(rows_as_one.dtype).reshape(-1))
        # their degrees: the set bits of each row, counted within each word by SWAR
        x = rows - ((rows >> _U1) & _M1)
        x = (x & _M2) + ((x >> _U2) & _M2)
        x = ((x + (x >> _U4)) & _M4) * _BYTES
        flat_deg[nbr] = np.einsum("ij->i", x >> _U56)  # a row sum, faster than sum(axis=1) on few words


def order_subgraph(g: SymGraph, engine: MinDegreeEngine, group: np.ndarray | None = None) -> np.ndarray:
    """`engine.order(g, group)` for a `group` of every node; InvalidPermutation unless each is there once, by group."""
    perm = engine.order(g, group)
    if not is_permutation(perm, g.n_nodes) or (group is not None and np.any(np.diff(group[perm]) < 0)):
        raise InvalidPermutation("ordering engine returned a non-bijective ordering")
    return perm
