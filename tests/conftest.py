"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from parth import (
    AsymmetricPattern,
    InvalidMap,
    NodeMap,
    ParseError,
    SparsityPattern,
    StaleTree,
    SymGraph,
    build_dual,
)
from parth.graph import is_structurally_symmetric, sum_duplicates
from parth.hgd import HgdTree
from parth.separator import SeparatorResult


def n_edges(g: SymGraph) -> int:
    return int(g.adj.size) // 2


def has_edge(g: SymGraph, u: int, v: int) -> bool:
    nb = g.neighbors(u)
    pos = np.searchsorted(nb, v)
    return bool(pos < nb.size and nb[pos] == v)


def edge_pairs(g: SymGraph) -> set[tuple[int, int]]:
    u, v = g.edges()
    return {(int(a), int(b)) for a, b in zip(u, v)}


def reference_edge_diff(g_old, g_new, entries):
    """Added pairs in new-graph edge order; removed old pairs sorted lexicographically."""
    o2n = {int(old): new for new, old in enumerate(entries) if old >= 0}
    translated = {}
    for a, b in edge_pairs(g_old):
        if a in o2n and b in o2n:
            translated[tuple(sorted((o2n[a], o2n[b])))] = [a, b]
    new = edge_pairs(g_new)
    added = [list(e) for e in sorted(new) if e not in translated]
    removed = sorted(old for key, old in translated.items() if key not in new)
    return added, removed


def total_nodes(tree: HgdTree) -> int:
    return int(tree.perm.size)


def tree_from_node_sets(max_level: int, sets, g: SymGraph | None = None) -> HgdTree:
    """Build a tree directly from per-index node sets, each stored ascending.

    Partition is always validated; when a graph is supplied the separator
    property is checked too.
    """
    tree = HgdTree(max_level)
    if len(sets) != tree.size:
        raise StaleTree(f"expected {tree.size} node sets, got {len(sets)}")
    parts = [np.unique(np.array(sets[i], dtype=np.int64)) for i in tree.post_order]
    sizes = [p.size for p in parts]
    tree.perm = np.concatenate(parts)
    tree.offsets = np.cumsum([0] + sizes)
    tree.owner = np.empty(tree.perm.size, dtype=np.int64)
    np.put(tree.owner, tree.perm, np.repeat(tree.post_order, sizes), mode="clip")
    tree.validate_partition(tree.owner.size)  # the audit rejects a clipped entry
    if g is not None:
        bad = tree.separator_violations(g)
        if bad:
            raise StaleTree(f"separator property violated at tree nodes {bad}")
    return tree


def _induced_pairs(g: SymGraph, nodes: np.ndarray, label: np.ndarray) -> set[tuple[int, int]]:
    inside = np.zeros(g.n_nodes, dtype=bool)
    inside[nodes] = True
    u, v = g.edges()
    keep = inside[u] & inside[v]
    a, b = label[u[keep]], label[v[keep]]
    return set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


def unchanged_slots(tree: HgdTree, slots, before, g_old: SymGraph, g_new: SymGraph, o2n: np.ndarray) -> list[int]:
    """The given slots that hold the same nodes and the same induced edges as before a step.

    before[i] is slot i's nodes ahead of the step, in g_old's indices; o2n
    takes them to g_new's (-1 for a removed node, which changes the slot).
    """
    same = []
    for i in sorted(slots):
        old, new = before[i], tree.slot_nodes(i)
        if sorted(o2n[old].tolist()) == sorted(new.tolist()) and _induced_pairs(
            g_old, old, o2n
        ) == _induced_pairs(g_new, new, np.arange(g_new.n_nodes)):
            same.append(i)
    return same


def verify_separator(g: SymGraph, result: SeparatorResult) -> bool:
    """Exhaustive check: partition, disjointness, and no left-right edge."""
    n = g.n_nodes
    pieces = np.concatenate([result.sep, result.left, result.right])
    if pieces.size != n or np.unique(pieces).size != n:
        return False
    side = np.zeros(n, dtype=np.int8)
    side[result.left] = 1
    side[result.right] = 2
    u, v = g.edges()
    return not bool(np.any(side[u] * side[v] == 2))  # one end left, the other right


def graph_from_edges(n: int, u, v) -> SymGraph:
    """Graph of the pattern with entries (u, v) and (v, u), built by the library's own ingest.

    Repeated edges merge; self-loops are diagonal entries, which the graph leaves out.
    """
    u, v = np.asarray(u, np.int64), np.asarray(v, np.int64)
    return build_dual(SparsityPattern.from_coo(n, np.concatenate([u, v]), np.concatenate([v, u])))


def pattern_from_edges(n: int, edges, diagonal: bool = True) -> SparsityPattern:
    """Symmetric pattern from an undirected edge list."""
    eu = [e[0] for e in edges]
    ev = [e[1] for e in edges]
    rows = eu + ev
    cols = ev + eu
    if diagonal:
        rows += list(range(n))
        cols += list(range(n))
    return SparsityPattern.from_coo(n, np.array(rows, np.int64), np.array(cols, np.int64))


def arrowhead_pattern(n: int) -> SparsityPattern:
    """Dense first row/column plus the diagonal."""
    return pattern_from_edges(n, [(0, j) for j in range(1, n)])


# arrays of 9 that are not integer permutations, though a cast would make
# each one 0..8: the float ones by truncation, the string one by parsing
NON_INTEGER_PERMS = {
    "float": np.arange(9, dtype=np.float64),
    "float+0.5": np.arange(9) + 0.5,
    "string": list(range(8)) + ["8"],
}


# Nine-node two-call sequence exercising one coarse re-decomposition: the
# second pattern gains edges (0,6) and (3,8) and loses (2,8).
NINE_EDGES_FIRST = [
    (0, 1), (1, 4),
    (0, 5), (1, 6), (4, 7),
    (0, 2), (1, 3), (4, 8),
    (2, 3), (2, 8),
    (5, 6), (6, 7),
]
NINE_EDGES_SECOND = [e for e in NINE_EDGES_FIRST if e != (2, 8)] + [(0, 6), (3, 8)]

# Hand-built 3-level layout for the sequence above: the root separator
# {0,1,4} splits {5,6,7} from {2,3,8}; {6} splits {5} from {7}; {2} splits
# {3} from {8}.
NINE_TREE_SETS = [[0, 1, 4], [6], [2], [5], [7], [3], [8]]


def nine_node_patterns() -> tuple[SparsityPattern, SparsityPattern]:
    return pattern_from_edges(9, NINE_EDGES_FIRST), pattern_from_edges(9, NINE_EDGES_SECOND)


def nine_node_graphs() -> tuple[SymGraph, SymGraph]:
    p1, p2 = nine_node_patterns()
    return build_dual(p1), build_dual(p2)


def blocks(pattern: SparsityPattern, dim: int) -> SparsityPattern:
    """Replace every entry by a dense dim-by-dim block (rows b*dim .. b*dim+dim-1)."""
    rows, cols = pattern.to_coo()
    offs = np.arange(dim, dtype=np.int64)
    big_rows = np.repeat(rows[:, None] * dim + offs, dim, axis=1).ravel()
    big_cols = np.tile(cols[:, None] * dim + offs, dim).ravel()
    return SparsityPattern.from_coo(pattern.n_rows * dim, big_rows, big_cols)


def random_pattern(rng: np.random.Generator, n: int, avg_degree: float = 3.0) -> SparsityPattern:
    """Random connected-ish symmetric pattern with a full diagonal."""
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]  # random spanning tree
    extra = int(avg_degree * n / 2)
    if extra:
        u = rng.integers(0, n, size=extra)
        v = rng.integers(0, n, size=extra)
        edges += [(int(a), int(b)) for a, b in zip(u, v) if a != b]
    return pattern_from_edges(n, edges)


def pattern_edge_set(pattern: SparsityPattern) -> set[tuple[int, int]]:
    g = build_dual(pattern)
    u, v = g.edges()
    return {(int(a), int(b)) for a, b in zip(u, v)}


def apply_edge_delta(pattern: SparsityPattern, add, remove) -> SparsityPattern:
    """New pattern with off-diagonal pairs added/removed (diagonal kept)."""
    n = pattern.n_rows
    edges = pattern_edge_set(pattern)
    for u, v in remove:
        edges.discard((min(u, v), max(u, v)))
    for u, v in add:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    diag = {int(r) for r, c in zip(*pattern.to_coo()) if r == c}
    rows = [u for u, v in edges] + [v for u, v in edges] + sorted(diag)
    cols = [v for u, v in edges] + [u for u, v in edges] + sorted(diag)
    return SparsityPattern.from_coo(n, np.array(rows, np.int64), np.array(cols, np.int64))


def remove_and_add_nodes(
    rng: np.random.Generator, pattern: SparsityPattern, n_remove: int, n_add: int
) -> tuple[SparsityPattern, NodeMap]:
    """Node-level delta: drop random nodes, append new ones with random edges."""
    n = pattern.n_rows
    n_remove = min(n_remove, n - 2)
    removed = set(map(int, rng.choice(n, size=n_remove, replace=False))) if n_remove else set()
    survivors = [i for i in range(n) if i not in removed]
    new_of_old = {old: new for new, old in enumerate(survivors)}
    n_new = len(survivors) + n_add

    edges = []
    for u, v in zip(*build_dual(pattern).edges()):
        u, v = int(u), int(v)
        if u in new_of_old and v in new_of_old:
            edges.append((new_of_old[u], new_of_old[v]))
    for j in range(n_add):
        u = len(survivors) + j
        n_links = int(rng.integers(1, 4))
        targets = rng.integers(0, u, size=n_links)  # earlier nodes only
        edges += [(int(t), u) for t in targets]

    entries = survivors + [-1] * n_add
    return pattern_from_edges(n_new, edges), NodeMap(np.array(entries, np.int64), n)


def dense_factor_structure(n: int, edges, perm) -> tuple[np.ndarray, np.ndarray]:
    """Independent symbolic oracle: right-looking elimination on a dense bitmap.

    Returns the per-column counts of L (diagonal included) and the
    elimination-tree parent of each column: the first below-diagonal row of
    that column of L, or -1 for a root.
    """
    A = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        A[u, v] = A[v, u] = True
    perm = np.asarray(perm, dtype=np.int64)
    B = A[np.ix_(perm, perm)]
    counts = np.ones(n, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    for k in range(n):
        below = np.flatnonzero(B[k, k + 1 :]) + k + 1
        counts[k] += below.size
        if below.size:
            parent[k] = below[0]
            B[np.ix_(below, below)] = True
    return counts, parent


def dense_fill_nnz(n: int, edges, perm) -> int:
    """nnz(L), diagonal included, from the dense elimination oracle."""
    counts, _ = dense_factor_structure(n, edges, perm)
    return int(counts.sum())


def reference_read_matrix_market(path):
    """The per-line Matrix Market reader that `read_matrix_market` replaced.

    Every line is split and converted with int()/float() in Python; the
    one-pass reader must return the same (pattern, values) or raise the
    same ParseError, message and line number alike.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty file", path, 1)
    header = lines[0].split()
    if len(header) < 5 or header[0] != "%%MatrixMarket":
        raise ParseError("missing %%MatrixMarket header", path, 1)
    obj, fmt, field, symmetry = (tok.lower() for tok in header[1:5])
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError(f"unsupported object/format {obj!r}/{fmt!r}", path, 1)
    if field not in ("pattern", "real", "integer", "double"):
        raise ParseError(f"unsupported field {field!r}", path, 1)
    if symmetry not in ("symmetric", "general"):
        raise ParseError(f"unsupported symmetry {symmetry!r}", path, 1)
    has_values = field != "pattern"

    body = [
        (no, ln.strip())
        for no, ln in enumerate(lines[1:], start=2)
        if ln.strip() and not ln.lstrip().startswith("%")
    ]
    if not body:
        raise ParseError("missing size line", path, len(lines))
    size_no, size_line = body[0]
    toks = size_line.split()
    if len(toks) != 3:
        raise ParseError("size line must be 'rows cols nnz'", path, size_no)
    try:
        m, n, nnz = (int(t) for t in toks)
    except ValueError:
        raise ParseError("non-integer size line", path, size_no) from None
    if min(m, n, nnz) < 0:
        raise ParseError(f"negative size in size line {size_line!r}", path, size_no)
    if m != n:
        raise ParseError(f"matrix must be square, got {m}x{n}", path, size_no)
    entries = body[1:]
    if len(entries) != nnz:
        raise ParseError(f"expected {nnz} entries, found {len(entries)}", path, size_no)

    want = 3 if has_values else 2
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64) if has_values else None
    for k, (no, ln) in enumerate(entries):
        toks = ln.split()
        if len(toks) != want:
            raise ParseError(f"expected {want} tokens, found {len(toks)}", path, no)
        try:
            i, j = int(toks[0]), int(toks[1])
            if has_values:
                vals[k] = float(toks[2])
        except ValueError:
            raise ParseError("malformed entry", path, no) from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"index ({i}, {j}) outside [1, {n}]", path, no)
        rows[k], cols[k] = i - 1, j - 1

    if symmetry == "symmetric":
        off = rows != cols
        mr, mc = cols[off], rows[off]
        rows = np.concatenate([rows, mr])
        cols = np.concatenate([cols, mc])
        if has_values:
            vals = np.concatenate([vals, vals[off]])

    pattern, out_vals = sum_duplicates(n, rows, cols, vals)

    if symmetry == "general" and not is_structurally_symmetric(pattern):
        raise AsymmetricPattern(f"{path}: general matrix is not structurally symmetric")
    return pattern, out_vals


def reference_read_node_map(path, n_new: int, n_old: int) -> NodeMap:
    """The per-line node-map reader that `read_node_map` replaced."""
    path = Path(path)
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for no, ln in enumerate(fh, start=1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            try:
                entries.append(int(ln))
            except ValueError:
                raise ParseError(f"not an integer: {ln!r}", path, no) from None
    if len(entries) != n_new:
        raise InvalidMap(f"{path}: map has {len(entries)} lines, expected {n_new}")
    return NodeMap(np.array(entries, dtype=np.int64), n_old)
