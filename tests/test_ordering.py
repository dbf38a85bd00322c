import hashlib
import itertools
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parth.ordering
from parth import SymGraph, build_dual, grid_laplacian, is_permutation, symbolic_analyze
from parth.assembler import assemble
from parth.graph import induced_subgraph
from parth.hgd import hgd_build
from parth.ordering import MinDegreeEngine, order_subgraph
from parth.separator import LevelSetEngine
from conftest import NON_INTEGER_PERMS, arrowhead_pattern, graph_from_edges, dense_fill_nnz, random_pattern


def star_graph(n: int) -> SymGraph:
    return graph_from_edges(n, [0] * (n - 1), list(range(1, n)))


def test_edgeless_is_identity():
    perm = order_subgraph(graph_from_edges(4, [], []), MinDegreeEngine())
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


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint8, bool, str, object])
def test_empty_array_of_any_dtype_is_the_permutation_of_zero(dtype):
    assert is_permutation(np.array([], dtype=dtype), 0)
    assert not is_permutation(np.array([], dtype=dtype), 1)


# Each side of the lockstep switch, forced by patching its constants: every
# batch in lockstep (also in batches of one to four groups, and reading the
# neighbour lists a few rows at a time), or every group over sets.
SIDES = {
    "lockstep": {"_LOCKSTEP_MIN_GROUPS": 1, "_LOCKSTEP_MIN_ROWS": 0},
    "lockstep-small-batches": {"_LOCKSTEP_MIN_GROUPS": 1, "_LOCKSTEP_MIN_ROWS": 0, "_BATCH_WORDS": 256, "_FILL_ROWS": 7},
    "sets": {"_LOCKSTEP_MIN_ROWS": 10**9},
}


def forced(side: str, stack: ExitStack) -> mock.Mock:
    """Patch the switch to one side inside `stack`; returns a spy on the lockstep kernel."""
    for name, value in SIDES[side].items():
        stack.enter_context(mock.patch.object(parth.ordering, name, value))
    return stack.enter_context(mock.patch.object(parth.ordering, "_lockstep", wraps=parth.ordering._lockstep))


def one_group_at_a_time(g: SymGraph, group: np.ndarray) -> np.ndarray:
    """The grouped call's reference: each group's induced subgraph ordered alone, in label order."""
    parts = [np.empty(0, np.int64)]
    for label in range(int(group.max(initial=-1)) + 1):
        sub, sel = induced_subgraph(g, np.flatnonzero(group == label))
        parts.append(sel[order_subgraph(sub, MinDegreeEngine())])
    return np.concatenate(parts)


@pytest.mark.parametrize("side", SIDES)
@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.sampled_from([0, 1, 2, 7, 63, 64, 65, 128]), min_size=1, max_size=6),
    outside=st.integers(0, 20),
    hub=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_grouped_order_equals_one_group_at_a_time(side, sizes, outside, hub, seed):
    # groups of 1, 63, 64, 65 and 128 nodes, empty groups, nodes of no group
    # (-1) and edges between groups, which the grouped call ignores; `hub`
    # joins node 0 to every other node, an arrowhead whose hub ends last
    rng = np.random.default_rng(seed)
    group = rng.permutation(np.repeat(np.arange(-1, len(sizes)), [outside, *sizes]))
    n = group.size
    u, v = random_pattern(rng, n, avg_degree=4.0).to_coo() if n else (np.empty(0, np.int64),) * 2
    if hub:
        u, v = np.concatenate([u, np.zeros(n, np.int64)]), np.concatenate([v, np.arange(n)])
    g = graph_from_edges(n, u, v)
    expect = one_group_at_a_time(g, group)
    with ExitStack() as stack:
        spy = forced(side, stack)
        got = MinDegreeEngine().order(g, group)
    assert np.array_equal(got, expect)
    assert spy.called == (side != "sets" and expect.size > 0)


@pytest.mark.parametrize("side", SIDES)
def test_assemble_with_a_layout_reorders_few_slots_then_many(side):
    g = build_dual(grid_laplacian(40, 40)[0])
    tree = hgd_build(g, 4, LevelSetEngine())
    engine, rng = MinDegreeEngine(), np.random.default_rng(3)
    assemble(tree, g, engine, 1)
    for count in (3, tree.size - 2):
        before = [tree.slot_nodes(i) for i in range(tree.size)]
        redo = set(rng.choice(tree.size, count, replace=False).tolist())
        tree.ordered[list(redo)] = False
        expect = np.concatenate([one_group_at_a_time(g, np.isin(np.arange(g.n_nodes), before[i]) - 1)
                                 if i in redo else before[i] for i in tree.post_order])
        with ExitStack() as stack:
            spy = forced(side, stack)
            state = assemble(tree, g, engine, 1)
        assert np.array_equal(state.graph_perm, expect)
        assert spy.called == (side != "sets")
        tree.validate_partition(g.n_nodes)


def test_group_wider_than_a_batch_is_a_batch_of_its_own():
    # 4 225 nodes take 67 words a row, so one group's rows pass the 2 MB a batch may hold
    g = build_dual(grid_laplacian(65, 65)[0])
    expect = order_subgraph(g, MinDegreeEngine())
    with ExitStack() as stack:
        spy = forced("lockstep", stack)
        got = MinDegreeEngine().order(g, np.zeros(g.n_nodes, np.int64))
    assert np.array_equal(got, expect)
    assert spy.call_count == 1
