"""Graph-side view of symmetric sparsity patterns.

A square symmetric pattern is read as an undirected graph: one node per
row/column, one edge per off-diagonal nonzero pair. Adjacency is always
stored sorted and deduplicated so that diffs, subgraph extraction and BFS
are deterministic linear scans.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AsymmetricPattern, DimMismatch, IndexOutOfBounds, InvalidArgument, InvalidMap

ABSENT = -1

# the largest n whose row-major entry keys row * n + col (at most n^2 - 1)
# fit in int64: isqrt(2**63 - 1)
MAX_ROWS = 3_037_000_499

# bfs_distances runs over Python lists up to this many nodes and numpy
# above: whole level-pass builds of grids tie from 4 096 to 8 100 nodes;
# lists win at 2 304 and below, numpy at 9 216 and above (2 cores, Python 3.11)
_LIST_BFS_MAX = 8192

# changed_rows gives up past one changed row per this many entries (and
# at least 64 rows): the row diff pays about 10 us of Python per changed
# row and the whole-pattern check about 20 ns per entry (65k grid, 2 cores)
_ENTRIES_PER_CHANGED_ROW = 512

_EMPTY = np.empty(0, dtype=np.int64)


def _index_array(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _checked_index_array(a, name: str) -> np.ndarray:
    """`a` as an int64 array; InvalidArgument unless it is 1-D and integer (an empty one may have any dtype)."""
    arr = np.asarray(a)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise InvalidArgument(f"{name} must be a 1-D integer array, got {arr.dtype} of shape {arr.shape}")
    if arr.dtype.kind == "u" and arr.size and arr.max() > np.iinfo(np.int64).max:  # the cast would wrap it
        raise InvalidArgument(f"{name} holds values above int64's range")
    return _index_array(arr)


def _checked_int(value, name: str, least: int | None = None, error: type = InvalidArgument,
                 below: int | None = None, most: int | None = None) -> int:
    """`value` as a Python int; `error` unless it is an integer other than a bool (`operator.index`) in [least, most].

    With `below`, IndexOutOfBounds unless it lies in [least, below)."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if below is not None and not least <= value < below:
        raise IndexOutOfBounds(f"{name} {value} outside [{least}, {below})")
    if least is not None and value < least:
        raise error(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise error(f"{name} must be <= {most}, got {value}")
    return value


def _checked_real(value, name: str, lo: float, hi: float, open_lo: bool = False) -> float:
    """`value` as a float; InvalidArgument unless it is a real number other than a bool in [lo, hi], or (lo, hi] with `open_lo`."""
    # bool is an int to Python and numpy's bool no numbers.Real; nan fails every comparison
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (lo < value <= hi if open_lo else lo <= value <= hi)):
        raise InvalidArgument(f"{name} must be a finite number in {'(' if open_lo else '['}{lo}, {hi}], got {value!r}")
    return float(value)


def _frozen_index_array(a, name: str) -> np.ndarray:
    """`a` as a checked, read-only int64 array for an object to keep; a writable caller array is copied, not frozen."""
    out = _checked_index_array(a, name)
    if out is a and out.flags.writeable:
        out = out.copy()
    out.setflags(write=False)
    return out


def _counts_to_starts(counts: np.ndarray) -> np.ndarray:
    starts = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return starts


def _unique(a: np.ndarray, return_inverse: bool = False):
    """Sorted distinct values of a 1-D int64 array, as `np.unique` returns them.

    numpy 2's `np.unique` hashes; on int64 arrays of 128 to 65k values one
    sort plus a neighbour compare measured 3-30x faster (numpy 2.4.6, 2-core
    x86 host). Input that is already strictly increasing is returned as is,
    with no sort and no copy, so pass an array the caller does not keep.
    """
    if np.all(a[1:] > a[:-1]):
        return (a, np.arange(a.size, dtype=np.int64)) if return_inverse else a
    if return_inverse:
        order = np.argsort(a)
        s = a[order]
    else:
        s = np.sort(a)
    first = _run_heads(s)
    if not return_inverse:
        return s[first]
    inverse = np.empty(a.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return s[first], inverse


def _run_heads(a: np.ndarray) -> np.ndarray:
    """True where an entry differs from the one before it, and at the first."""
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return first


def _gather_slices(data: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate data[starts[i] : starts[i]+counts[i]] for all i, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return _EMPTY
    first = np.cumsum(counts) - counts
    idx = np.arange(total, dtype=np.int64) + np.repeat(starts - first, counts)
    return data[idx]


def _row_entries(starts: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (row, index) entries of the given ascending rows of a CSR array."""
    counts = starts[rows + 1] - starts[rows]
    return np.repeat(rows, counts), _gather_slices(idx, starts[rows], counts)


def changed_rows(
    starts_old: np.ndarray, idx_old: np.ndarray, starts_new: np.ndarray, idx_new: np.ndarray
) -> np.ndarray | None:
    """Rows, ascending, whose entries differ between two CSR arrays with the same row count.

    Rows that changed length are where the shift `starts_new - starts_old`
    changes. Between two of them the shift is constant, so each stretch is
    one `array_equal`, and only a stretch that differs is scanned for its rows.
    Returns None when more than max(64, entries // _ENTRIES_PER_CHANGED_ROW)
    rows differ: the caller then compares everything at once.
    """
    n = starts_old.size - 1
    limit = max(idx_new.size // _ENTRIES_PER_CHANGED_ROW, 64)
    shift = starts_new - starts_old
    resized = np.flatnonzero(shift[1:] != shift[:-1])
    if resized.size > limit:
        return None
    pieces = []
    lo = 0
    for k, hi in enumerate(resized.tolist() + [n]):
        a, b, d = starts_old[lo], starts_old[hi], shift[lo]
        old, new = idx_old[a:b], idx_new[a + d : b + d]
        if not np.array_equal(old, new):
            at = np.searchsorted(starts_old, np.flatnonzero(old != new) + a, side="right") - 1
            pieces.append(at[np.r_[True, at[1:] != at[:-1]]])
        pieces.append(resized[k : k + 1])
        lo = hi + 1
    changed = np.concatenate(pieces)
    return changed if changed.size <= limit else None


def _check_csr(n: int, starts: np.ndarray, idx: np.ndarray, starts_name: str, item: str) -> np.ndarray:
    """Raise IndexOutOfBounds unless (starts, idx) is CSR over [0, n).

    That is: valid nondecreasing offsets, indices in range and strictly
    increasing within each row. Returns the row of every entry.
    """
    if starts.shape != (n + 1,) or starts[0] != 0 or starts[-1] != idx.size:
        raise IndexOutOfBounds(f"{starts_name} is not a valid offset array")
    if np.any(np.diff(starts) < 0):
        raise IndexOutOfBounds(f"{starts_name} must be nondecreasing")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexOutOfBounds(f"{item} index outside [0, {n})")
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(starts))
    keys = rows * n + idx
    if np.any(np.diff(keys) <= 0):
        raise IndexOutOfBounds(f"{item} indices must be strictly increasing within each row")
    return rows


@dataclass(frozen=True, eq=False)
class SparsityPattern:
    """CSR-style structural pattern of a square matrix.

    Column indices are strictly increasing inside each row. Diagonal entries
    may be present or absent; graph construction ignores them.
    """

    n_rows: int
    row_starts: np.ndarray
    col_indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_rows", _checked_int(self.n_rows, "n_rows", 0))
        object.__setattr__(self, "row_starts", _frozen_index_array(self.row_starts, "row_starts"))
        object.__setattr__(self, "col_indices", _frozen_index_array(self.col_indices, "col_indices"))
        _check_csr(self.n_rows, self.row_starts, self.col_indices, "row_starts", "column")

    @property
    def nnz(self) -> int:
        return int(self.col_indices.size)

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.row_starts))
        return rows, self.col_indices

    @classmethod
    def from_coo(cls, n_rows: int, rows, cols) -> "SparsityPattern":
        n_rows = _checked_int(n_rows, "n_rows", 0)
        rows, cols = _checked_index_array(rows, "rows"), _checked_index_array(cols, "cols")
        if rows.size != cols.size:
            raise InvalidArgument(f"{rows.size} row indices but {cols.size} column indices")
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise IndexOutOfBounds("row index outside [0, n_rows)")
        if cols.size and (cols.min() < 0 or cols.max() >= n_rows):
            raise IndexOutOfBounds("column index outside [0, n_rows)")
        return sum_duplicates(n_rows, rows, cols)[0]


def sum_duplicates(n: int, rows, cols, vals=None) -> tuple[SparsityPattern, np.ndarray | None]:
    """Pattern of in-range COO entries with repeated (row, col) pairs merged.

    Values, when given, are summed over repeats and returned in the
    pattern's row-major entry order; otherwise the second item is None.
    Raises InvalidArgument when n > MAX_ROWS, where the keys would overflow.
    """
    if n > MAX_ROWS:
        raise InvalidArgument(f"n={n} exceeds {MAX_ROWS}: row-major entry keys would overflow int64")
    keys = _index_array(rows) * np.int64(n) + _index_array(cols)
    summed = None
    if vals is None:
        keys = _unique(keys)
    else:
        keys, inverse = _unique(keys, return_inverse=True)
        # sums in entry order, as np.add.at does; with no entries bincount returns ints
        summed = np.bincount(inverse, weights=vals, minlength=keys.size).astype(np.float64, copy=False)
    width = max(n, 1)
    starts = _counts_to_starts(np.bincount(keys // width, minlength=n))
    cols = keys % width
    starts.setflags(write=False)  # read-only, these fresh arrays are kept without a copy
    cols.setflags(write=False)
    return SparsityPattern(n, starts, cols), summed


def _is_symmetric_coo(rows: np.ndarray, cols: np.ndarray, n: int) -> bool:
    # entries of a validated pattern come out row-major with strictly
    # increasing keys, so only the transposed keys need sorting
    keys = rows * np.int64(n)
    keys += cols
    tkeys = cols * np.int64(n)
    tkeys += rows
    tkeys.sort()
    return np.array_equal(keys, tkeys)


def is_structurally_symmetric(pattern: SparsityPattern) -> bool:
    rows, cols = pattern.to_coo()
    return _is_symmetric_coo(rows, cols, pattern.n_rows)


def require_symmetric(pattern: SparsityPattern) -> tuple[np.ndarray, np.ndarray]:
    """Off-diagonal entries as row-major (rows, cols); raises unless symmetric.

    The diagonal is symmetric by itself, so only the off-diagonal part is
    checked.
    """
    rows, cols = pattern.to_coo()
    off = rows != cols
    rows, cols = rows[off], cols[off]
    if not _is_symmetric_coo(rows, cols, pattern.n_rows):
        raise AsymmetricPattern("pattern is not structurally symmetric")
    return rows, cols


def _checked_changes(pattern: SparsityPattern, prev) -> np.ndarray | None:
    """Rows, ascending, where `pattern` differs from the symmetric pattern of `prev`.

    `pattern` is symmetric exactly when the entries among changed rows are,
    and no changed row changed on another column; else AsymmetricPattern.
    None, with nothing checked, when `prev` is None, of another size, or
    too far from `pattern` for `changed_rows`.
    """
    if prev is None or prev[0].n_rows != pattern.n_rows:
        return None
    old = prev[0]
    changed = changed_rows(old.row_starts, old.col_indices, pattern.row_starts, pattern.col_indices)
    if changed is None or changed.size == 0:
        return changed
    rows, cols = _row_entries(pattern.row_starts, pattern.col_indices, changed)
    old_rows, old_cols = _row_entries(old.row_starts, old.col_indices, changed)
    inside, old_inside = _is_member(changed, cols), _is_member(changed, old_cols)
    if not (
        np.array_equal(rows[~inside], old_rows[~old_inside])
        and np.array_equal(cols[~inside], old_cols[~old_inside])
        and _is_symmetric_coo(rows[inside], cols[inside], pattern.n_rows)
    ):
        raise AsymmetricPattern("pattern is not structurally symmetric")
    return changed


@dataclass(frozen=True, eq=False)
class SymGraph:
    """Undirected graph in compressed adjacency form.

    Neighbor lists are sorted, deduplicated, free of self-loops, and
    symmetric. Instances are immutable and safe to share.
    """

    n_nodes: int
    adj_starts: np.ndarray
    adj: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_nodes", _checked_int(self.n_nodes, "n_nodes", 0))
        object.__setattr__(self, "adj_starts", _frozen_index_array(self.adj_starts, "adj_starts"))
        object.__setattr__(self, "adj", _frozen_index_array(self.adj, "adj"))
        rows = _check_csr(self.n_nodes, self.adj_starts, self.adj, "adj_starts", "neighbor")
        if np.any(rows == self.adj):
            raise IndexOutOfBounds("self-loops are not allowed")
        if not _is_symmetric_coo(rows, self.adj, self.n_nodes):
            raise IndexOutOfBounds("adjacency is not symmetric")

    def neighbors(self, i: int) -> np.ndarray:
        return self.adj[self.adj_starts[i] : self.adj_starts[i + 1]]

    @cached_property
    def _neighbor_lists(self) -> list[list[int]]:
        """Every node's neighbours as a Python list, built on first use and kept: the graph never changes."""
        starts, adj = self.adj_starts.tolist(), self.adj.tolist()
        return [adj[a:b] for a, b in zip(starts, starts[1:])]

    def edges(self, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Row-major (u, v) arrays of the u < v entries of the ascending `rows`: every edge once for None."""
        if rows is None:
            u, v = np.repeat(np.arange(self.n_nodes, dtype=np.int64), np.diff(self.adj_starts)), self.adj
        else:
            u, v = _row_entries(self.adj_starts, self.adj, rows)
        mask = u < v
        return u[mask], v[mask]

    @classmethod
    def _trusted(cls, n_nodes: int, adj_starts: np.ndarray, adj: np.ndarray) -> "SymGraph":
        """Wrap int64 arrays that already satisfy every invariant, unchecked.

        Only for graphs this module derives from validated input; the public
        constructor keeps the full checks.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n_nodes", int(n_nodes))
        object.__setattr__(g, "adj_starts", adj_starts)
        object.__setattr__(g, "adj", adj)
        adj_starts.setflags(write=False)
        adj.setflags(write=False)
        return g


def bfs_distances(g: SymGraph, roots, blocked: np.ndarray | None = None) -> np.ndarray:
    """Hop distances from the nearest of `roots` (one node or several); -1 where unreachable.

    `blocked`, a boolean mask that leaves out every root, marks nodes the
    search never enters; they read -1. Distances are unique, so both
    branches below return the same array.

    - Up to `_LIST_BFS_MAX` nodes the search runs over Python lists, with
      a queue that claims each node once. At that size numpy's per-call
      overhead on every level costs more than the whole search does in
      Python. It reads the graph's neighbour-list view,
      `SymGraph._neighbor_lists`, built on the first such search and
      shared by every later one of the same graph.
    - Above it the search is level-synchronous in numpy. Each new frontier
      is deduplicated by scattering its candidates' positions into `dist`
      itself and keeping the candidate whose position survived, one per
      node, with no sort; the new distance then overwrites every position.
    """
    roots = np.atleast_1d(_index_array(roots))
    dist = np.full(g.n_nodes, -1, dtype=np.int64)
    if blocked is not None:
        dist[blocked] = -2  # never -1, so never claimed
    dist[roots] = 0
    small = g.n_nodes <= _LIST_BFS_MAX
    dist = _list_bfs(g, roots.tolist(), dist.tolist()) if small else _numpy_bfs(g, roots, dist)
    if blocked is not None:
        dist[blocked] = -1
    return dist


def _list_bfs(g: SymGraph, queue: list[int], dist: list[int]) -> np.ndarray:
    nbrs = g._neighbor_lists
    for x in queue:  # the loop also visits the nodes appended while it runs
        d = dist[x] + 1
        for y in nbrs[x]:
            if dist[y] == -1:
                dist[y] = d
                queue.append(y)
    return np.array(dist, dtype=np.int64)


def _numpy_bfs(g: SymGraph, frontier: np.ndarray, dist: np.ndarray) -> np.ndarray:
    starts, deg, d = g.adj_starts, np.diff(g.adj_starts), 0
    while frontier.size:  # entry j of node i's neighbour list is adj[starts[i] + j]
        counts = deg[frontier]
        ends = counts.cumsum()
        nb = g.adj[np.arange(ends[-1]) + (starts[frontier] - ends + counts).repeat(counts)]
        nb = nb[dist[nb] == -1]
        pos = np.arange(nb.size, dtype=np.int64)
        dist[nb] = pos
        frontier = nb[dist[nb] == pos]
        d += 1
        dist[frontier] = d
    return dist


def component_labels(g: SymGraph, mask: np.ndarray | None = None) -> np.ndarray:
    """Each node's component in the subgraph `mask` induces, named by its smallest node; -1 outside `mask`.

    Labels start as the node indices. Each round hooks, over every edge
    whose endpoints disagree, the larger label onto the smaller one, then
    jumps pointers until every label is its own root, and replaces each
    edge by its ends' labels, dropping those that now agree. Labels only
    decrease and stay inside their component, so at the fixed point each
    node is labelled with its component's smallest node.
    """
    rows = np.repeat(np.arange(g.n_nodes, dtype=np.int64), np.diff(g.adj_starts))
    keep = rows < g.adj
    if mask is not None:
        keep &= mask[rows]
        keep &= mask[g.adj]
    u, v = rows[keep], g.adj[keep]
    del rows, keep
    label = np.arange(g.n_nodes, dtype=np.int64)
    while u.size:
        np.minimum.at(label, v, u)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        # an edge whose ends share a label keeps sharing it; only the rest go on
        u, v = label[u], label[v]
        keep = u != v
        u, v = u[keep], v[keep]
        u, v = np.minimum(u, v), np.maximum(u, v)
    if mask is not None:
        label[~mask] = -1
    return label


def _splice(g: SymGraph, nodes: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> SymGraph:
    """g with the neighbour lists of the ascending `nodes` replaced by the row-major (rows, cols), copied segment by segment."""
    begins, ends = np.searchsorted(rows, nodes), np.searchsorted(rows, nodes, side="right")
    counts = np.diff(g.adj_starts)
    counts[nodes] = ends - begins
    pieces = []
    kept = 0
    for node, a, b in zip(nodes.tolist(), begins.tolist(), ends.tolist()):
        pieces += (g.adj[kept : g.adj_starts[node]], cols[a:b])
        kept = g.adj_starts[node + 1]
    pieces.append(g.adj[kept:])
    return SymGraph._trusted(g.n_nodes, _counts_to_starts(counts), np.concatenate(pieces))


def build_dual(pattern: SparsityPattern, prev: tuple[SparsityPattern, SymGraph] | None = None) -> SymGraph:
    """Undirected graph sharing the pattern's off-diagonal structure: `compress_by_dim` at one row per node."""
    return compress_by_dim(pattern, 1, prev)


def block_count(n_rows: int, dim: int) -> int:
    """Graph nodes of n_rows rows at `dim` rows per node; raises DimMismatch unless the integer dim divides n_rows."""
    dim = _checked_int(dim, "dim")
    if dim < 1 or n_rows % dim != 0:
        raise DimMismatch(f"n_rows={n_rows} not divisible by dim={dim}")
    return n_rows // dim


def compress_by_dim(
    pattern: SparsityPattern, dim: int, prev: tuple[SparsityPattern, SymGraph] | None = None
) -> SymGraph:
    """Graph with each run of `dim` consecutive rows merged into one node.

    Block b covers rows [b*dim, (b+1)*dim); blocks are adjacent when any
    off-diagonal nonzero couples them. `prev`, an earlier symmetric pattern
    of the same size and its graph, limits the symmetry check and the build
    to the rows that changed since and their blocks; with no changed row it
    returns `prev`'s graph itself.
    """
    n_blocks = block_count(pattern.n_rows, dim)
    changed = _checked_changes(pattern, prev)
    if changed is None:
        rb, cb = _block_pairs(*require_symmetric(pattern), dim, n_blocks)
        return SymGraph._trusted(n_blocks, _counts_to_starts(np.bincount(rb, minlength=n_blocks)), cb)
    if changed.size == 0:
        return prev[1]
    blocks = _unique(changed // dim)
    # every row of a changed block, for the block's whole neighbour list
    rows = (blocks[:, None] * dim + np.arange(dim)).ravel()
    rb, cb = _block_pairs(*_row_entries(pattern.row_starts, pattern.col_indices, rows), dim, n_blocks)
    return _splice(prev[1], blocks, rb, cb)


def _block_pairs(rows: np.ndarray, cols: np.ndarray, dim: int, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct off-diagonal (block row, block column) pairs of row-major entries, row-major.

    Overwrites `rows` and `cols` with their blocks: pass arrays the caller does not keep."""
    rows //= dim
    cols //= dim
    keys = rows * n_blocks
    keys += cols
    # a row's repeats of one block pair are adjacent, so on sorted keys the run heads are the distinct pairs
    first = _run_heads(keys)
    if np.any(keys[1:] < keys[:-1]):  # the rows of a block interleave their columns: sort the keys alone
        rows, cols = np.divmod(_unique(keys[first]), n_blocks)
        first = rows != cols
    else:
        first &= rows != cols
    return rows[first], cols[first]


def induced_subgraph(g: SymGraph, nodes) -> tuple[SymGraph, np.ndarray]:
    """Subgraph over `nodes` plus the local-to-global index array."""
    nodes = _unique(np.array(nodes, dtype=np.int64))  # a copy: the result keeps it
    if nodes.size and (nodes.min() < 0 or nodes.max() >= g.n_nodes):
        raise IndexOutOfBounds("subgraph node outside [0, n_nodes)")
    if nodes.size == g.n_nodes:  # every node: g itself, with no copy
        return g, nodes
    pos = np.full(g.n_nodes, -1, dtype=np.int64)
    pos[nodes] = np.arange(nodes.size, dtype=np.int64)
    # pos is monotone on sorted nodes, so per-row sortedness is preserved
    return SymGraph._trusted(nodes.size, *_rows_within(g, nodes, pos >= 0, pos)), nodes


def _rows_within(g: SymGraph, nodes: np.ndarray, label: np.ndarray, local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR offsets over `nodes` and the `local` names of their neighbours that share their `label`."""
    counts = g.adj_starts[nodes + 1] - g.adj_starts[nodes]
    cols = _gather_slices(g.adj, g.adj_starts[nodes], counts)
    keep = label[cols] == np.repeat(label[nodes], counts)
    return _counts_to_starts(keep)[_counts_to_starts(counts)], local[cols[keep]]


@dataclass(frozen=True, eq=False)
class NodeMap:
    """Index map between consecutive graphs, checked when it is built.

    entries[i] is the index of new node i in the previous graph of n_old
    nodes, or ABSENT (-1) for a node that did not exist before; previous
    indices not in the image are removed nodes. The constructor raises
    InvalidMap unless n_old is in [0, MAX_ROWS] and entries are >= -1,
    below n_old and free of repeated previous indices, and attaches the
    read-only inverse `o2n` (previous index -> new index, -1 for a removed
    node) and `is_identity`. An identity map is recognised first and is
    its own inverse.
    """

    entries: np.ndarray
    n_old: int
    o2n: np.ndarray = field(init=False, repr=False)
    is_identity: bool = field(init=False)

    def __post_init__(self):
        e, n_old = _frozen_index_array(self.entries, "entries"), _checked_int(self.n_old, "n_old", error=InvalidMap)
        if not 0 <= n_old <= MAX_ROWS:  # before anything of size n_old is allocated
            raise InvalidMap(f"previous graph of {n_old} nodes, outside [0, {MAX_ROWS}]")
        is_identity = e.size == n_old and np.array_equal(e, np.arange(n_old))
        if is_identity:
            o2n = e
        else:
            if e.size and e.min() < ABSENT:
                raise InvalidMap("map entries below -1")
            new_ids = np.flatnonzero(e >= 0)
            if new_ids.size and e[new_ids].max() >= n_old:
                raise InvalidMap("map entry outside previous graph")
            o2n = np.full(n_old, -1, dtype=np.int64)
            o2n[e[new_ids]] = new_ids
            # a repeated previous index claims one slot for two new nodes
            if np.count_nonzero(o2n >= 0) != new_ids.size:
                raise InvalidMap("duplicate previous-graph index in map")
            o2n.setflags(write=False)
        for name, value in (("entries", e), ("n_old", n_old), ("o2n", o2n), ("is_identity", is_identity)):
            object.__setattr__(self, name, value)

    @property
    def n_new(self) -> int:
        return int(self.entries.size)

    @classmethod
    def identity(cls, n: int) -> "NodeMap":
        return cls(np.arange(_checked_int(n, "n", error=InvalidMap, most=MAX_ROWS), dtype=np.int64), n)

    def require_sizes(self, n_old: int, n_new: int) -> None:
        """Raise InvalidMap unless this map takes n_old nodes to n_new."""
        if (self.n_old, self.n_new) != (n_old, n_new):
            raise InvalidMap(
                f"map takes {self.n_old} nodes to {self.n_new}, expected {n_old} to {n_new}"
            )


def _is_member(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """queries[i] in sorted_keys, by binary search (no hashing)."""
    if sorted_keys.size == 0:
        return np.zeros(queries.size, dtype=bool)
    pos = np.searchsorted(sorted_keys, queries)
    np.minimum(pos, sorted_keys.size - 1, out=pos)
    return sorted_keys[pos] == queries


def edge_set_diff(
    g_old: SymGraph, g_new: SymGraph, node_map: NodeMap
) -> tuple[np.ndarray, np.ndarray]:
    """Exact edge delta between consecutive graphs.

    Returns (added, removed) as (k, 2) arrays of unordered pairs. Added
    edges use new-graph indices, in new-graph edge order; removed edges use
    old-graph indices, sorted lexicographically. Edges incident to removed
    nodes are excluded from the removed set; every edge incident to an added
    node shows up in the added set. Under the identity map only the rows
    `changed_rows` finds are read, as both ends of a changed edge are among
    them; under any other map, or when `changed_rows` gives up, every row.
    """
    node_map.require_sizes(g_old.n_nodes, g_new.n_nodes)
    rows = None
    if node_map.is_identity:
        if g_old is g_new:
            return np.empty((0, 2), np.int64), np.empty((0, 2), np.int64)
        rows = changed_rows(g_old.adj_starts, g_old.adj, g_new.adj_starts, g_new.adj)
    nu, nv = g_new.edges(rows)
    ou, ov = tu, tv = g_old.edges(rows)
    if not node_map.is_identity:
        tu, tv = node_map.o2n[ou], node_map.o2n[ov]
        survive = (tu >= 0) & (tv >= 0)
        ou, ov, tu, tv = ou[survive], ov[survive], tu[survive], tv[survive]
        tu, tv = np.minimum(tu, tv), np.maximum(tu, tv)
    n = np.int64(max(g_new.n_nodes, 1))
    # both sides come out row-major, so the removed set is in old-index order;
    # the old keys are out of order only where the map reorders the survivors
    new_keys, old_keys = nu * n + nv, tu * n + tv
    sorted_old = old_keys if np.all(old_keys[1:] > old_keys[:-1]) else np.sort(old_keys)
    added = ~_is_member(sorted_old, new_keys)
    removed = ~_is_member(new_keys, old_keys)
    return np.column_stack([nu[added], nv[added]]), np.column_stack([ou[removed], ov[removed]])
