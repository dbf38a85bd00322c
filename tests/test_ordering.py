import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parth import SymGraph, build_dual, is_permutation, symbolic_analyze
from parth.ordering import MinDegreeEngine, order_subgraph
from conftest import NON_INTEGER_PERMS, arrowhead_pattern, dense_fill_nnz, random_pattern


def star_graph(n: int) -> SymGraph:
    return SymGraph.from_edges(n, [0] * (n - 1), list(range(1, n)))


def test_edgeless_is_identity():
    perm = order_subgraph(SymGraph.empty(4), MinDegreeEngine())
    assert perm.tolist() == [0, 1, 2, 3]


def test_star_hub_fill_optimal():
    # brute force over all 24 orderings of the 4-node star: the minimum factor
    # size is 7 (vs 10 for hub-first), and min-degree must land on an optimum
    n = 4
    edges = [(0, 1), (0, 2), (0, 3)]
    fills = {p: dense_fill_nnz(n, edges, p) for p in itertools.permutations(range(n))}
    assert min(fills.values()) == 7
    assert fills[(0, 1, 2, 3)] == 10
    perm = order_subgraph(star_graph(n), MinDegreeEngine())
    assert fills[tuple(perm.tolist())] == 7
    # hub eliminated after at least two of the leaves
    assert perm.tolist().index(0) >= 2


def test_star_family_never_worse_than_natural():
    mindeg = MinDegreeEngine()
    for n in range(4, 65, 6):
        pattern = arrowhead_pattern(n)
        g = build_dual(pattern)
        perm = order_subgraph(g, mindeg)
        nat = symbolic_analyze(pattern, np.arange(n)).nnz_l
        ours = symbolic_analyze(pattern, perm).nnz_l
        assert ours <= nat


# sha256 of the 25 orderings below, recorded from the implementation that
# still carried a second, dense-bitmap elimination for sub-graphs of up to
# 2048 nodes; every graph here went through that path then.
MINDEG_GOLDEN = "f2d5c9bb7db1c9571d47da76ab9485a7566004d920ec0595c66752c78acab073"


def test_min_degree_golden():
    rng = np.random.default_rng(2)
    eng = MinDegreeEngine()
    h = hashlib.sha256()
    for _ in range(25):
        g = build_dual(random_pattern(rng, int(rng.integers(2, 60))))
        h.update(np.ascontiguousarray(order_subgraph(g, eng), dtype="<i8").tobytes())
    assert h.hexdigest() == MINDEG_GOLDEN


def test_determinism():
    rng = np.random.default_rng(9)
    g = build_dual(random_pattern(rng, 90))
    eng = MinDegreeEngine()
    assert np.array_equal(order_subgraph(g, eng), order_subgraph(g, eng))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_always_a_bijection(seed):
    rng = np.random.default_rng(seed)
    g = build_dual(random_pattern(rng, int(rng.integers(2, 120))))
    perm = order_subgraph(g, MinDegreeEngine())
    assert is_permutation(perm, g.n_nodes)
    assert np.array_equal(perm[np.argsort(perm)], np.arange(g.n_nodes))


@pytest.mark.parametrize(
    "perm",
    [[0, 0, 1], [1, 2, 3], [[0, 1], [1, 0]], *NON_INTEGER_PERMS.values()],
    ids=["repeat", "out-of-range", "2d", *NON_INTEGER_PERMS],
)
def test_non_permutation_rejected(perm):
    assert not is_permutation(perm, np.asarray(perm).size)
