import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parth import build_dual
from parth.separator import LevelSetEngine
from conftest import graph_from_edges, nine_node_graphs, random_pattern, verify_separator


@pytest.fixture(scope="module")
def engine():
    return LevelSetEngine()


def test_path_of_three(engine):
    g = graph_from_edges(3, [0, 1], [1, 2])
    res = engine.split(g)
    assert res.sep.tolist() == [1]
    assert {tuple(res.left.tolist()), tuple(res.right.tolist())} == {(0,), (2,)}


def test_edgeless_four(engine):
    g = graph_from_edges(4, [], [])
    res = engine.split(g)
    assert res.sep.size == 0
    assert res.left.size == 2 and res.right.size == 2
    assert verify_separator(g, res)


def test_nine_node_graph_quality(engine):
    # a hand-built layout of this graph uses a 3-node separator; the default
    # engine must find a valid one of equal or smaller size
    g, _ = nine_node_graphs()
    res = engine.split(g)
    assert verify_separator(g, res)
    assert 0 < res.sep.size <= 3
    assert res.left.size > 0 and res.right.size > 0


def test_two_connected_nodes(engine):
    # an edge cannot be split without a separator; both nodes land on one side
    g = graph_from_edges(2, [0], [1])
    res = engine.split(g)
    assert res.sep.size == 0
    assert verify_separator(g, res)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_too_small_to_cut(engine, n):
    # no component of fewer than 3 nodes is cut: all of it goes left
    g = graph_from_edges(n, [0] if n == 2 else [], [1] if n == 2 else [])
    res = engine.split(g)
    assert res.sep.size == res.right.size == 0
    assert res.left.tolist() == list(range(n))
    assert all(a.dtype == np.int64 for a in (res.sep, res.left, res.right))


@pytest.mark.parametrize("n", [3, 4])
def test_clique_keeps_its_one_sided_separator(engine, n):
    # the root's level is the best cut and leaves one component: with the
    # right side empty the separator is not shrunk away
    u, v = np.triu_indices(n, 1)
    res = engine.split(graph_from_edges(n, u, v))
    assert res.sep.tolist() == [0] and res.left.tolist() == list(range(1, n)) and res.right.size == 0


def test_empty_graph(engine):
    res = engine.split(graph_from_edges(0, [], []))
    assert res.sep.size == res.left.size == res.right.size == 0


def test_determinism(engine):
    rng = np.random.default_rng(5)
    p = random_pattern(rng, 80)
    g = build_dual(p)
    a = engine.split(g)
    b = engine.split(g)
    for x, y in ((a.sep, b.sep), (a.left, b.left), (a.right, b.right)):
        assert np.array_equal(x, y)


def test_grid_balance(engine):
    # balance target is achievable on grid-like graphs
    from parth import grid_laplacian

    p, _ = grid_laplacian(16, 16)
    g = build_dual(p)
    res = engine.split(g)
    assert verify_separator(g, res)
    assert max(res.left.size, res.right.size) <= 0.7 * (res.left.size + res.right.size)
    assert res.sep.size <= 20


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_partition_and_separator_property(seed):
    engine = LevelSetEngine()
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    p = random_pattern(rng, max(n, 2))
    g = build_dual(p)
    res = engine.split(g)
    assert res.sep.size + res.left.size + res.right.size == g.n_nodes
    assert verify_separator(g, res)
