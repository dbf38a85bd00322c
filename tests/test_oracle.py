import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parth.oracle

from parth import (
    ROOT,
    InvalidArgument,
    InvalidPermutation,
    NotPositiveDefinite,
    SparsityPattern,
    elimination_tree,
    fill_deviation,
    grid_laplacian,
    numeric_cholesky_solve,
    symbolic_analyze,
)
from conftest import (
    NON_INTEGER_PERMS,
    arrowhead_pattern,
    dense_factor_structure,
    dense_fill_nnz,
    pattern_from_edges,
    random_pattern,
)


def assert_matches_dense(n, edges, perm, diagonal=True):
    """nnz(L), the flop estimate and the etree all agree with dense elimination."""
    p = pattern_from_edges(n, edges, diagonal=diagonal)
    perm = np.asarray(perm, dtype=np.int64)
    counts, parent = dense_factor_structure(n, edges, perm)
    stats = symbolic_analyze(p, perm)
    assert stats.nnz_l == int(counts.sum())
    assert stats.flop_estimate == int(np.sum(counts * counts))
    tree = elimination_tree(p, perm)
    assert tree.dtype == np.int64
    assert tree.tolist() == parent.tolist()
    return parent


@st.composite
def patterns_and_perms(draw, max_n=40):
    n = draw(st.integers(0, max_n))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    perm = draw(st.permutations(range(n)))
    return n, edges, perm, draw(st.booleans())


class TestAgainstDenseElimination:
    @settings(max_examples=150, deadline=None)
    @given(patterns_and_perms())
    def test_every_output_matches(self, case):
        n, edges, perm, diagonal = case
        assert_matches_dense(n, edges, perm, diagonal)

    def test_empty(self):
        assert assert_matches_dense(0, [], []).size == 0

    def test_single_node(self):
        assert assert_matches_dense(1, [], [0]).tolist() == [ROOT]

    def test_isolated_nodes(self):
        # a path 0-1-2 plus isolated 3 and 4, ordered with the isolated nodes between
        parent = assert_matches_dense(5, [(0, 1), (1, 2)], [3, 0, 4, 1, 2])
        assert parent.tolist() == [ROOT, 3, ROOT, 4, ROOT]

    def test_disconnected_forest(self):
        # three components: triangle {0,1,2}, path {3,4,5,6}, edge {7,8}; interleaved
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (7, 8)]
        perm = [3, 0, 7, 4, 1, 8, 5, 2, 6]
        parent = assert_matches_dense(9, edges, perm)
        roots = [j for j, pj in enumerate(parent.tolist()) if pj == ROOT]
        assert len(roots) == 3


class TestSymbolicAnalyze:
    def test_dense_three(self):
        p = pattern_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        for perm in ([0, 1, 2], [2, 0, 1]):
            assert symbolic_analyze(p, np.array(perm)).nnz_l == 6

    def test_diagonal_five(self):
        p = SparsityPattern.from_coo(5, np.arange(5), np.arange(5))
        assert symbolic_analyze(p, np.arange(5)).nnz_l == 5

    def test_arrowhead_orderings(self):
        p = arrowhead_pattern(4)
        assert symbolic_analyze(p, np.array([0, 1, 2, 3])).nnz_l == 10
        assert symbolic_analyze(p, np.array([1, 2, 3, 0])).nnz_l == 7

    def test_invalid_permutation(self):
        p = arrowhead_pattern(4)
        with pytest.raises(InvalidPermutation):
            symbolic_analyze(p, np.array([0, 0, 1, 2]))

    def test_matches_dense_fill_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            p = random_pattern(rng, n)
            perm = rng.permutation(n)
            u, v = p.to_coo()
            edges = [(int(a), int(b)) for a, b in zip(u, v) if a < b]
            assert symbolic_analyze(p, perm).nnz_l == dense_fill_nnz(n, edges, perm)

    def test_monotone_arrowhead(self):
        for n in range(3, 30, 4):
            p = arrowhead_pattern(n)
            hub_first = symbolic_analyze(p, np.arange(n)).nnz_l
            hub_last = symbolic_analyze(p, np.array(list(range(1, n)) + [0])).nnz_l
            assert hub_first > hub_last

    def test_elimination_tree_invariants(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(2, 50))
            p = random_pattern(rng, n)
            parent = elimination_tree(p, rng.permutation(n))
            for j, pj in enumerate(parent):
                assert pj == ROOT or pj > j
            stats = symbolic_analyze(p, np.arange(n))
            assert stats.nnz_l >= n


GRID_3, GRID_3_VALUES = grid_laplacian(3, 3)

# every public entry point that takes a permutation, on the 3x3 grid
PERM_CALLS = {
    "elimination_tree": lambda perm: elimination_tree(GRID_3, perm),
    "symbolic_analyze": lambda perm: symbolic_analyze(GRID_3, perm),
    "numeric_cholesky_solve": lambda perm: numeric_cholesky_solve(GRID_3, GRID_3_VALUES, perm, np.ones(9)),
    "fill_deviation-candidate": lambda perm: fill_deviation(perm, np.arange(9), GRID_3),
    "fill_deviation-baseline": lambda perm: fill_deviation(np.arange(9), perm, GRID_3),
    "fill_deviation-both": lambda perm: fill_deviation(perm, perm, GRID_3),
}


@pytest.mark.parametrize("perm", NON_INTEGER_PERMS.values(), ids=NON_INTEGER_PERMS.keys())
@pytest.mark.parametrize("call", PERM_CALLS.values(), ids=PERM_CALLS.keys())
def test_non_integer_permutation_rejected(call, perm):
    with pytest.raises(InvalidPermutation):
        call(perm)


class TestNumericCholesky:
    def test_identity_matrix(self):
        n = 6
        p = SparsityPattern.from_coo(n, np.arange(n), np.arange(n))
        x, res = numeric_cholesky_solve(p, np.ones(n), np.arange(n), np.ones(n))
        assert np.allclose(x, 1.0)
        assert res <= 1e-15

    def test_grid_against_dense(self):
        pattern, values = grid_laplacian(16, 16)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(pattern.n_rows)
        perm = rng.permutation(pattern.n_rows)
        x, res = numeric_cholesky_solve(pattern, values, perm, b)
        assert res <= 1e-10
        dense = np.zeros((pattern.n_rows, pattern.n_rows))
        r, c = pattern.to_coo()
        dense[r, c] = values
        assert np.linalg.norm(x - np.linalg.solve(dense, b)) <= 1e-10 * np.linalg.norm(x)

    def test_indefinite_rejected(self):
        p = SparsityPattern.from_coo(2, [0, 1], [0, 1])
        with pytest.raises(NotPositiveDefinite):
            numeric_cholesky_solve(p, np.array([1.0, -1.0]), np.arange(2), np.ones(2))

    def test_value_count_mismatch_rejected(self):
        p = SparsityPattern.from_coo(2, [0, 1], [0, 1])
        with pytest.raises(InvalidArgument):
            numeric_cholesky_solve(p, np.ones(3), np.arange(2), np.ones(2))

    def test_structural_agreement_with_symbolic(self):
        # nnz of the factor actually produced equals the symbolic count
        pattern, values = grid_laplacian(8, 8)
        rng = np.random.default_rng(2)
        perm = rng.permutation(pattern.n_rows)
        from parth.oracle import _row_subtree_counts, _setup

        _, _, starts, cols, parent = _setup(pattern, perm)
        _, rows = _row_subtree_counts(pattern.n_rows, starts, cols, parent, collect_rows=True)
        produced = pattern.n_rows + sum(len(r) for r in rows)
        assert produced == symbolic_analyze(pattern, perm).nnz_l

    def test_permutation_invariance(self):
        pattern, values = grid_laplacian(6, 6)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(36)
        xs = []
        for _ in range(4):
            x, res = numeric_cholesky_solve(pattern, values, rng.permutation(36), b)
            assert res <= 1e-10
            xs.append(x)
        for x in xs[1:]:
            assert np.linalg.norm(x - xs[0]) <= 1e-10 * np.linalg.norm(xs[0])


class TestFillDeviation:
    def test_identical_orderings(self):
        p = arrowhead_pattern(5)
        perm = np.arange(5)
        assert fill_deviation(perm, perm, p) == 0.0

    def test_equal_orderings_skip_the_analysis(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("symbolic_analyze called")

        monkeypatch.setattr(parth.oracle, "symbolic_analyze", refuse)
        p = arrowhead_pattern(5)
        assert fill_deviation(np.array([4, 0, 3, 1, 2]), [4, 0, 3, 1, 2], p) == 0.0
        empty = SparsityPattern.from_coo(0, [], [])
        assert fill_deviation(np.arange(0), np.arange(0), empty) == 0.0

    @pytest.mark.parametrize("perm", [[0, 0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3, 5]])
    def test_equal_non_permutations_rejected(self, perm):
        p = arrowhead_pattern(5)
        with pytest.raises(InvalidPermutation):
            fill_deviation(np.array(perm), np.array(perm), p)

    def test_arrowhead_gain(self):
        p = arrowhead_pattern(4)
        dev = fill_deviation(np.array([1, 2, 3, 0]), np.arange(4), p)
        assert dev == pytest.approx((7 - 10) / 10)
