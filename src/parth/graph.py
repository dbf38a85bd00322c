"""Graph-side view of symmetric sparsity patterns.

A square symmetric pattern is read as an undirected graph: one node per
row/column, one edge per off-diagonal nonzero pair. Adjacency is always
stored sorted and deduplicated so that diffs, subgraph extraction and BFS
are deterministic linear scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _frozen_index_array(a) -> np.ndarray:
    """`a` as a read-only int64 array for an object to keep; a writable caller array is copied, not frozen."""
    out = _index_array(a)
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
    first = np.ones(s.size, dtype=bool)
    first[1:] = s[1:] != s[:-1]
    if not return_inverse:
        return s[first]
    inverse = np.empty(a.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return s[first], inverse


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
        object.__setattr__(self, "row_starts", _frozen_index_array(self.row_starts))
        object.__setattr__(self, "col_indices", _frozen_index_array(self.col_indices))
        _check_csr(self.n_rows, self.row_starts, self.col_indices, "row_starts", "column")

    @property
    def nnz(self) -> int:
        return int(self.col_indices.size)

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.row_starts))
        return rows, self.col_indices

    def entry_keys(self) -> np.ndarray:
        rows, cols = self.to_coo()
        return rows * self.n_rows + cols

    @classmethod
    def from_coo(cls, n_rows: int, rows, cols) -> "SparsityPattern":
        rows, cols = _index_array(rows), _index_array(cols)
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
        summed = np.zeros(keys.size, dtype=np.float64)
        np.add.at(summed, inverse, np.asarray(vals, dtype=np.float64))
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


def _checked_changes(pattern: SparsityPattern, prev) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Rows where `pattern` differs from the symmetric pattern of `prev`, with their (rows, cols) entries.

    `pattern` is symmetric exactly when the entries among changed rows are,
    and no changed row changed on another column; else AsymmetricPattern.
    None, with nothing checked, when `prev` is None, of another size, or
    too far from `pattern` for `changed_rows`.
    """
    if prev is None or prev[0].n_rows != pattern.n_rows:
        return None
    old = prev[0]
    changed = changed_rows(old.row_starts, old.col_indices, pattern.row_starts, pattern.col_indices)
    if changed is None:
        return None
    rows, cols = _row_entries(pattern.row_starts, pattern.col_indices, changed)
    old_rows, old_cols = _row_entries(old.row_starts, old.col_indices, changed)
    inside, old_inside = _is_member(changed, cols), _is_member(changed, old_cols)
    if not (
        np.array_equal(rows[~inside], old_rows[~old_inside])
        and np.array_equal(cols[~inside], old_cols[~old_inside])
        and _is_symmetric_coo(rows[inside], cols[inside], pattern.n_rows)
    ):
        raise AsymmetricPattern("pattern is not structurally symmetric")
    return changed, rows, cols


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
        object.__setattr__(self, "adj_starts", _frozen_index_array(self.adj_starts))
        object.__setattr__(self, "adj", _frozen_index_array(self.adj))
        rows = _check_csr(self.n_nodes, self.adj_starts, self.adj, "adj_starts", "neighbor")
        if np.any(rows == self.adj):
            raise IndexOutOfBounds("self-loops are not allowed")
        if not _is_symmetric_coo(rows, self.adj, self.n_nodes):
            raise IndexOutOfBounds("adjacency is not symmetric")

    def neighbors(self, i: int) -> np.ndarray:
        return self.adj[self.adj_starts[i] : self.adj_starts[i + 1]]

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as (u, v) arrays with u < v."""
        rows = np.repeat(np.arange(self.n_nodes, dtype=np.int64), np.diff(self.adj_starts))
        mask = rows < self.adj
        return rows[mask], self.adj[mask]

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

    @classmethod
    def empty(cls, n_nodes: int) -> "SymGraph":
        return cls(n_nodes, np.zeros(n_nodes + 1, np.int64), _EMPTY)

    @classmethod
    def from_edges(cls, n_nodes: int, u, v) -> "SymGraph":
        """Build from an edge list; symmetrizes, deduplicates, drops self-loops."""
        u, v = _index_array(u), _index_array(v)
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n_nodes):
            raise IndexOutOfBounds("edge endpoint outside [0, n_nodes)")
        keep = u != v
        u, v = u[keep], v[keep]
        # both directions as row-major keys, deduplicated by sorting
        keys = np.sort(np.concatenate([u * np.int64(n_nodes) + v, v * np.int64(n_nodes) + u]))
        if keys.size:
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        rows, adj = np.divmod(keys, max(n_nodes, 1))
        counts = np.bincount(rows, minlength=n_nodes)
        return cls._trusted(n_nodes, _counts_to_starts(counts), adj)


def gather_neighbors(g: SymGraph, nodes: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of the given nodes (duplicates kept)."""
    nodes = _index_array(nodes)
    counts = g.adj_starts[nodes + 1] - g.adj_starts[nodes]
    return _gather_slices(g.adj, g.adj_starts[nodes], counts)


def bfs_distances(g: SymGraph, roots, blocked: np.ndarray | None = None) -> np.ndarray:
    """Hop distances from the nearest of `roots` (one node or several); -1 where unreachable.

    `blocked`, a boolean mask that leaves out every root, marks nodes the
    search never enters; they read -1. Distances are unique, so both
    branches below return the same array.

    - Up to `_LIST_BFS_MAX` nodes the search runs over Python lists, with
      a queue that claims each node once. At that size numpy's per-call
      overhead on every level costs more than the whole search does in
      Python.
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
    starts, adj = g.adj_starts.tolist(), g.adj.tolist()
    for x in queue:  # the loop also visits the nodes appended while it runs
        d = dist[x] + 1
        for y in adj[starts[x] : starts[x + 1]]:
            if dist[y] == -1:
                dist[y] = d
                queue.append(y)
    return np.array(dist, dtype=np.int64)


def _numpy_bfs(g: SymGraph, frontier: np.ndarray, dist: np.ndarray) -> np.ndarray:
    d = 0
    while frontier.size:
        nb = gather_neighbors(g, frontier)
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
    if nodes.size == 0:
        return g
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
    """Undirected graph sharing the pattern's off-diagonal structure.

    `prev`, an earlier symmetric pattern of the same size and its graph,
    limits the symmetry check and the build to the rows that changed since.
    """
    found = _checked_changes(pattern, prev)
    if found is not None:
        changed, rows, cols = found
        off = rows != cols
        return _splice(prev[1], changed, rows[off], cols[off])
    rows, cols = require_symmetric(pattern)
    counts = np.bincount(rows, minlength=pattern.n_rows)
    return SymGraph._trusted(pattern.n_rows, _counts_to_starts(counts), cols)


def block_count(n_rows: int, dim: int) -> int:
    """Graph nodes of n_rows rows at `dim` rows per node; raises DimMismatch unless dim divides n_rows."""
    if dim < 1 or n_rows % dim != 0:
        raise DimMismatch(f"n_rows={n_rows} not divisible by dim={dim}")
    return n_rows // dim


def compress_by_dim(
    pattern: SparsityPattern, dim: int, prev: tuple[SparsityPattern, SymGraph] | None = None
) -> SymGraph:
    """Merge each run of `dim` consecutive rows into one graph node.

    Block b covers rows [b*dim, (b+1)*dim); blocks are adjacent when any
    nonzero couples them. `prev` acts as in `build_dual`: only the blocks
    of changed rows are rebuilt.
    """
    n_blocks = block_count(pattern.n_rows, dim)
    found = _checked_changes(pattern, prev)
    if found is None:
        rb, cb = _block_pairs(*require_symmetric(pattern), dim, n_blocks)
        return SymGraph._trusted(n_blocks, _counts_to_starts(np.bincount(rb, minlength=n_blocks)), cb)
    blocks = _unique(found[0] // dim)
    # every row of a changed block, for the block's whole neighbour list
    rows = (blocks[:, None] * dim + np.arange(dim)).ravel()
    rb, cb = _block_pairs(*_row_entries(pattern.row_starts, pattern.col_indices, rows), dim, n_blocks)
    return _splice(prev[1], blocks, rb, cb)


def _block_pairs(rows: np.ndarray, cols: np.ndarray, dim: int, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct off-diagonal (block row, block column) pairs of row-major entries, row-major."""
    keys = rows // dim * n_blocks + cols // dim
    # a row's repeats of one block pair are adjacent; dropping them shrinks the sort
    keys = _unique(keys[np.r_[True, keys[1:] != keys[:-1]]] if keys.size else keys)
    rb, cb = np.divmod(keys, max(n_blocks, 1))
    return rb[rb != cb], cb[rb != cb]


def induced_subgraph(g: SymGraph, nodes) -> tuple[SymGraph, np.ndarray]:
    """Subgraph over `nodes` plus the local-to-global index array."""
    nodes = _unique(np.array(nodes, dtype=np.int64))  # a copy: the result keeps it
    if nodes.size and (nodes.min() < 0 or nodes.max() >= g.n_nodes):
        raise IndexOutOfBounds("subgraph node outside [0, n_nodes)")
    pos = np.full(g.n_nodes, -1, dtype=np.int64)
    pos[nodes] = np.arange(nodes.size, dtype=np.int64)
    counts = g.adj_starts[nodes + 1] - g.adj_starts[nodes]
    flat_rows = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
    flat_cols = _gather_slices(g.adj, g.adj_starts[nodes], counts)
    keep = pos[flat_cols] >= 0
    flat_rows, flat_cols = flat_rows[keep], pos[flat_cols[keep]]
    # pos is monotone on sorted nodes, so per-row sortedness is preserved
    sub_counts = np.bincount(flat_rows, minlength=nodes.size)
    return SymGraph._trusted(nodes.size, _counts_to_starts(sub_counts), flat_cols), nodes


@dataclass(frozen=True, eq=False)
class NodeMap:
    """Index map between consecutive graphs, checked when it is built.

    entries[i] is the index of new node i in the previous graph of n_old
    nodes, or ABSENT (-1) for a node that did not exist before; previous
    indices not in the image are removed nodes. The constructor raises
    InvalidMap unless entries are >= -1, below n_old and free of repeated
    previous indices, and attaches the read-only inverse `o2n` (previous
    index -> new index, -1 for a removed node) and `is_identity`. An
    identity map is recognised first and is its own inverse.
    """

    entries: np.ndarray
    n_old: int
    o2n: np.ndarray = field(init=False, repr=False)
    is_identity: bool = field(init=False)

    def __post_init__(self):
        e, n_old = _frozen_index_array(self.entries), int(self.n_old)
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
        return cls(np.arange(n, dtype=np.int64), n)

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
    node shows up in the added set.
    """
    node_map.require_sizes(g_old.n_nodes, g_new.n_nodes)
    diff = _row_diff(g_old, g_new) if node_map.is_identity else None
    if diff is not None:
        return diff
    o2n = node_map.o2n

    # old edges come out row-major, so the survivors (and with them the
    # removed set) are already in lexicographic old-index order
    ou, ov = g_old.edges()
    tu, tv = o2n[ou], o2n[ov]
    survive = (tu >= 0) & (tv >= 0)
    su, sv, tu, tv = ou[survive], ov[survive], tu[survive], tv[survive]
    n = np.int64(max(g_new.n_nodes, 1))
    old_keys = np.minimum(tu, tv) * n + np.maximum(tu, tv)

    nu, nv = g_new.edges()
    new_keys = nu * n + nv  # row-major: strictly increasing

    # a map that keeps the survivors in their old relative order keeps the
    # translated keys sorted too; any other map needs one sort
    kept = o2n[o2n >= 0]
    order_preserving = bool(np.all(kept[1:] > kept[:-1]))
    sorted_old = old_keys if order_preserving else np.sort(old_keys)
    added_mask = ~_is_member(sorted_old, new_keys)
    removed_mask = ~_is_member(new_keys, old_keys)
    added = np.column_stack([nu[added_mask], nv[added_mask]])
    removed = np.column_stack([su[removed_mask], sv[removed_mask]])
    return added, removed


def _row_diff(g_old: SymGraph, g_new: SymGraph) -> tuple[np.ndarray, np.ndarray] | None:
    """`edge_set_diff` under the identity map, over the changed rows alone: both ends of a changed edge are in them.

    None when `changed_rows` gives up.
    """
    if g_old is g_new:
        return np.empty((0, 2), np.int64), np.empty((0, 2), np.int64)
    changed = changed_rows(g_old.adj_starts, g_old.adj, g_new.adj_starts, g_new.adj)
    if changed is None:
        return None
    n = np.int64(max(g_new.n_nodes, 1))
    nu, nv = _row_entries(g_new.adj_starts, g_new.adj, changed)
    ou, ov = _row_entries(g_old.adj_starts, g_old.adj, changed)
    new_keys, old_keys = nu * n + nv, ou * n + ov
    added = (nu < nv) & ~_is_member(old_keys, new_keys)
    removed = (ou < ov) & ~_is_member(new_keys, old_keys)
    return np.column_stack([nu[added], nv[added]]), np.column_stack([ou[removed], ov[removed]])
