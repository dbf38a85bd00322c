"""The level pass against the one-sub-graph-at-a-time reference in `reference_split`.

`hgd_build` and `hgd_redecompose` split a whole tree level with one
`LevelSetEngine.split(g, group)` call; the trees they build must equal the
depth-first recursion's slot by slot, and a grouped split must equal the
per-group split of each group's induced subgraph.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from parth import SymGraph, build_dual, grid_laplacian
from parth.graph import _LIST_BFS_MAX, induced_subgraph
from parth.hgd import hgd_build, hgd_redecompose
from parth.separator import LevelSetEngine
from reference_split import reference_build, reference_redecompose, reference_split

ENGINE = LevelSetEngine()


def random_graph(rng: np.random.Generator, n: int) -> SymGraph:
    """Sparse random edges (isolated nodes likely), or a few disjoint dense-ish blocks, or a path with chords."""
    kind = rng.integers(3)
    if n == 0:
        return SymGraph.empty(0)
    if kind == 0:
        m = int(rng.integers(0, 2 * n + 1))
        return SymGraph.from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
    if kind == 1:
        block = rng.integers(0, max(1, n // 8) + 1, n)  # disconnected: no edge leaves a block
        u, v = rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)
        keep = block[u] == block[v]
        return SymGraph.from_edges(n, u[keep], v[keep])
    order = rng.permutation(n)
    extra = int(rng.integers(0, n // 4 + 1))
    return SymGraph.from_edges(
        n,
        np.concatenate([order[:-1], rng.integers(0, n, extra)]),
        np.concatenate([order[1:], rng.integers(0, n, extra)]),
    )


def assert_same_tree(got, want):
    assert got.size == want.size
    for i, (a, b) in enumerate(zip(got.nodes, want.nodes)):
        assert a.nodes.dtype == np.int64
        assert np.array_equal(a.nodes, b.nodes), f"slot {i}"
    assert np.array_equal(got.owner, want.owner)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 200), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_build_matches_reference(n, max_level, seed):
    g = random_graph(np.random.default_rng(seed), n)
    assert_same_tree(hgd_build(g, max_level, ENGINE), reference_build(g, max_level))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_redecompose_matches_reference(n, max_level, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n)
    got, want = hgd_build(g, max_level, ENGINE), reference_build(g, max_level)
    root = int(rng.integers(got.size))
    region = got.subtree_union(root)
    # new edges inside the region give its decomposition something to change
    if region.size:
        u, v = g.edges()
        extra = rng.choice(region, size=(2, int(rng.integers(0, region.size + 1))))
        g = SymGraph.from_edges(n, np.concatenate([u, extra[0]]), np.concatenate([v, extra[1]]))
    hgd_redecompose(got, root, g, region, ENGINE)
    reference_redecompose(want, root, g, region)
    assert_same_tree(got, want)


def grouped_graph(rng: np.random.Generator, n: int) -> tuple[SymGraph, np.ndarray]:
    """A random graph and groups (-1 for none) joined by no edge; outside nodes may touch any group."""
    group = rng.integers(-1, int(rng.integers(1, 6)), n)
    g = random_graph(rng, n)
    u, v = g.edges()
    keep = (group[u] == group[v]) | (group[u] < 0) | (group[v] < 0)
    return SymGraph.from_edges(n, u[keep], v[keep]), group


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 200), st.integers(0, 2**32 - 1))
def test_grouped_split_is_the_per_group_split(n, seed):
    g, group = grouped_graph(np.random.default_rng(seed), n)
    res = ENGINE.split(g, group)
    parts = {"sep": [], "left": [], "right": []}
    for label in np.unique(group[group >= 0]).tolist():
        sub, to_global = induced_subgraph(g, np.flatnonzero(group == label))
        ref = reference_split(sub)
        for name in parts:
            parts[name].append(to_global[getattr(ref, name)])
    for name, pieces in parts.items():
        want = np.sort(np.concatenate(pieces)) if pieces else np.empty(0, dtype=np.int64)
        assert np.array_equal(getattr(res, name), want), name


def test_shrink_only_where_both_sides_filled():
    # group 0 is a triangle (one side stays empty, its separator is kept),
    # group 1 a path; node 8, in no group, touches both
    g = SymGraph.from_edges(9, [0, 0, 1, 3, 4, 5, 6, 8, 8], [1, 2, 2, 4, 5, 6, 7, 0, 3])
    res = ENGINE.split(g, np.array([0, 0, 0, 1, 1, 1, 1, 1, -1]))
    assert res.sep.tolist() == [0, 5]
    assert res.left.tolist() == [1, 2, 3, 4] and res.right.tolist() == [6, 7]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 200), st.integers(0, 2**32 - 1))
def test_ungrouped_split_matches_reference(n, seed):
    g = random_graph(np.random.default_rng(seed), n)
    res, ref = ENGINE.split(g), reference_split(g)
    for name in ("sep", "left", "right"):
        assert np.array_equal(getattr(res, name), getattr(ref, name)), name


def test_numpy_search_levels_match_reference():
    # above _LIST_BFS_MAX every level searches with numpy, where the
    # reference searches its small sub-graphs with lists; holes and chords
    # make the grid's splits uneven and some of its pieces disconnected
    rng = np.random.default_rng(4)
    g = build_dual(grid_laplacian(100, 100)[0])
    assert g.n_nodes > _LIST_BFS_MAX
    u, v = g.edges()
    keep = rng.random(u.size) > 0.05
    extra = rng.integers(0, g.n_nodes, (2, 40))
    g = SymGraph.from_edges(g.n_nodes, np.concatenate([u[keep], extra[0]]), np.concatenate([v[keep], extra[1]]))
    assert_same_tree(hgd_build(g, 6, ENGINE), reference_build(g, 6))
