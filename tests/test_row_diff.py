"""A step with no node map checks and diffs only the rows that changed.

Each result is compared with the full path: the whole-pattern symmetry
check, `build_dual` / `compress_by_dim` of the new pattern alone, and a
brute-force edge diff.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parth.graph
import parth.synchronizer
from parth import (
    AsymmetricPattern,
    InvalidMap,
    NodeMap,
    Parth,
    ParthConfig,
    SparsityPattern,
    build_dual,
    compress_by_dim,
    grid_laplacian,
    inject_contacts,
)
from parth.graph import changed_rows, is_structurally_symmetric
from conftest import random_pattern, reference_edge_diff


def reference_changed_rows(old: SparsityPattern, new: SparsityPattern) -> list[int]:
    def row(p, r):
        return p.col_indices[p.row_starts[r] : p.row_starts[r + 1]].tolist()

    return [r for r in range(old.n_rows) if row(old, r) != row(new, r)]


def pattern_of(n: int, entries) -> SparsityPattern:
    rows = np.array([r for r, _ in entries], dtype=np.int64)
    cols = np.array([c for _, c in entries], dtype=np.int64)
    return SparsityPattern.from_coo(n, rows, cols)


def entry_set(pattern: SparsityPattern) -> set[tuple[int, int]]:
    rows, cols = pattern.to_coo()
    return set(zip(rows.tolist(), cols.tolist()))


class TestChangedRows:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_a_row_by_row_compare(self, seed):
        # some rows change length, some keep it with new content, some empty
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 30))
        old = {(int(r), int(c)) for r, c in rng.integers(0, max(n, 1), (2 * n, 2))} if n else set()
        new = set(old)
        for r in rng.integers(0, max(n, 1), int(rng.integers(0, 4))).tolist() if n else []:
            row = {c for q, c in new if q == r}
            keep = int(rng.integers(0, 2)) == 0  # same length, other columns
            size = len(row) if keep else int(rng.integers(0, 5))
            new -= {(r, c) for c in row}
            new |= {(r, int(c)) for c in rng.choice(n, min(size, n), replace=False)}
        p_old, p_new = pattern_of(n, old), pattern_of(n, new)
        got = changed_rows(p_old.row_starts, p_old.col_indices, p_new.row_starts, p_new.col_indices)
        assert got.dtype == np.int64
        assert got.tolist() == reference_changed_rows(p_old, p_new)

    @pytest.mark.parametrize("same_length", [False, True])
    def test_gives_up_past_the_limit(self, same_length):
        # 65 of 100 rows change, one more than the floor of 64 allows
        old = pattern_of(100, [(r, r) for r in range(100)])
        new = pattern_of(100, [(r, (r + 1) % 100 if same_length else r) for r in range(65)]
                         + [(r, r) for r in range(65 if same_length else 0, 100)]
                         + ([] if same_length else [(r, (r + 1) % 100) for r in range(65)]))
        got = changed_rows(old.row_starts, old.col_indices, new.row_starts, new.col_indices)
        assert got is None
        assert len(reference_changed_rows(old, new)) == 65

    def test_empty_rows_inside_a_changed_stretch(self):
        # rows 1 and 3 are empty in both; only row 2's content differs
        old = pattern_of(5, [(0, 1), (2, 2), (4, 0)])
        new = pattern_of(5, [(0, 1), (2, 3), (4, 0)])
        got = changed_rows(old.row_starts, old.col_indices, new.row_starts, new.col_indices)
        assert got.tolist() == [2]


EDITS = ("add_pair", "remove_pair", "drop_half", "diagonal", "rewire", "move_entry")


def edit(rng: np.random.Generator, entries: set, n: int, kind: str) -> None:
    """One edit of the entry set in place; some kinds break symmetry on purpose."""
    pairs = sorted((r, c) for r, c in entries if r < c)
    if kind == "add_pair":
        u, v = (int(x) for x in rng.choice(n, 2, replace=False))
        entries |= {(u, v), (v, u)}
    elif kind == "diagonal":  # add or remove a diagonal entry only
        u = int(rng.integers(n))
        entries ^= {(u, u)}
    elif not pairs:
        return
    elif kind in ("remove_pair", "drop_half"):
        u, v = pairs[int(rng.integers(len(pairs)))]
        # drop_half leaves the other half in a row nothing else changed
        entries -= {(u, v), (v, u)} if kind == "remove_pair" else {(u, v) if rng.random() < 0.5 else (v, u)}
    elif kind == "rewire":  # (a, b), (c, d) -> (a, d), (c, b): every row keeps its length
        (a, b), (c, d) = (pairs[int(i)] for i in rng.integers(len(pairs), size=2))
        if len({a, b, c, d}) == 4 and (a, d) not in entries and (c, b) not in entries:
            entries -= {(a, b), (b, a), (c, d), (d, c)}
            entries |= {(a, d), (d, a), (c, b), (b, c)}
    else:  # move_entry: row u swaps column v for w, the same length; asymmetric
        u, v = pairs[int(rng.integers(len(pairs)))]
        w = int(rng.integers(n))
        if (u, w) not in entries:
            entries -= {(u, v)}
            entries |= {(u, w)}


@pytest.fixture
def whole_checks(monkeypatch):
    """The patterns `require_symmetric` checks whole, in call order."""
    calls = []
    real_check = parth.graph.require_symmetric
    monkeypatch.setattr(parth.graph, "require_symmetric", lambda p: calls.append(p) or real_check(p))
    return calls


class TestNoMapStep:
    @pytest.mark.parametrize("dim", [1, 3])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_row_diff_matches_the_full_path(self, dim, seed):
        rng = np.random.default_rng(seed)
        n = dim * int(rng.integers(2, 40 // dim + 1))
        accepted = entry_set(random_pattern(rng, n, avg_degree=2.0))
        engine = Parth(ParthConfig(dim=dim, target_leaf=2))
        engine.start(pattern_of(n, accepted))
        diffs = []
        real_diff = parth.synchronizer.edge_set_diff

        def recording_diff(g_old, g_new, node_map):
            diffs.append((g_old, g_new, real_diff(g_old, g_new, node_map)))
            return diffs[-1][2]

        for _ in range(3):
            entries = set(accepted)
            for kind in rng.choice(EDITS, int(rng.integers(1, 4))):
                edit(rng, entries, n, str(kind))
            pattern = pattern_of(n, entries)
            if not is_structurally_symmetric(pattern):
                with pytest.raises(AsymmetricPattern):
                    engine.step(pattern)
                continue
            with mock.patch.object(parth.synchronizer, "edge_set_diff", recording_diff):
                engine.step(pattern)
            accepted = entries
            full = build_dual(pattern) if dim == 1 else compress_by_dim(pattern, dim)
            assert np.array_equal(engine.graph.adj_starts, full.adj_starts)
            assert np.array_equal(engine.graph.adj, full.adj)
            g_old, g_new, (added, removed) = diffs[-1]
            assert g_new is engine.graph
            ref_added, ref_removed = reference_edge_diff(g_old, g_new, np.arange(g_new.n_nodes))
            assert added.shape == (len(ref_added), 2) and removed.shape == (len(ref_removed), 2)
            assert added.tolist() == ref_added
            assert removed.tolist() == ref_removed

    @pytest.mark.parametrize("dim", [1, 3])
    def test_only_start_and_map_steps_check_the_whole_pattern(self, dim, whole_checks):
        pattern, _ = grid_laplacian(12, 12)
        changed = inject_contacts(pattern, 70, 3, 12, seed=1)
        calls = whole_checks
        calls.clear()  # inject_contacts checks the pattern it reads
        engine = Parth(ParthConfig(dim=dim, target_leaf=8))
        engine.start(pattern)
        g = engine.graph
        engine.step(pattern)
        assert engine.graph is g  # no row changed: the graph is kept as it was
        engine.step(changed)
        assert calls == [pattern]
        engine.step(changed, NodeMap.identity(g.n_nodes))
        assert calls == [pattern, changed]

    @pytest.mark.parametrize("dim", [1, 3])
    def test_a_step_changing_many_rows_checks_the_whole_pattern(self, dim, whole_checks, monkeypatch):
        # dropping the diagonal changes all 144 rows, past changed_rows' limit
        # of 64; so does adding (r, r + 2) to every row, which for dim=1 also
        # changes every graph row and sends the edge diff down the full path
        pattern, _ = grid_laplacian(12, 12)
        off = {(r, c) for r, c in entry_set(pattern) if r != c}
        no_diagonal, broken = pattern_of(144, off), pattern_of(144, off - {(0, 1)})
        denser = pattern_of(144, off | {(r, r + 2) for r in range(142)} | {(r + 2, r) for r in range(142)})
        diffs = []
        real_diff = parth.synchronizer.edge_set_diff
        monkeypatch.setattr(parth.synchronizer, "edge_set_diff",
                            lambda *args: diffs.append((args, real_diff(*args))) or diffs[-1][1])
        engine = Parth(ParthConfig(dim=dim, target_leaf=8))
        engine.start(pattern)
        g = engine.graph
        with pytest.raises(AsymmetricPattern):
            engine.step(broken)
        dirty, _ = engine.step(no_diagonal)
        assert np.array_equal(engine.graph.adj, g.adj) and np.array_equal(engine.graph.adj_starts, g.adj_starts)
        assert dirty.reuse_mask.all()
        engine.step(denser)
        assert whole_checks == [pattern, broken, no_diagonal, denser]
        full = build_dual(denser) if dim == 1 else compress_by_dim(denser, dim)
        assert np.array_equal(engine.graph.adj, full.adj) and np.array_equal(engine.graph.adj_starts, full.adj_starts)
        (g_old, g_new, _), (added, removed) = diffs[-1]
        assert (added.tolist(), removed.tolist()) == reference_edge_diff(g_old, g_new, np.arange(g_new.n_nodes))


def asymmetric_copy(pattern: SparsityPattern) -> SparsityPattern:
    """The pattern less one half of its last off-diagonal pair."""
    entries = entry_set(pattern)
    entries.discard(max((r, c) for r, c in entries if r < c))
    return pattern_of(pattern.n_rows, entries)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("bad", ["asymmetric", "asymmetric_resized", "resized", "mis_sized_map"])
def test_rejected_step_changes_nothing(dim, bad):
    # the next valid steps match those of an engine that never saw the bad
    # step: the pattern a later step is diffed against is the accepted one
    pattern, _ = grid_laplacian(12, 12)
    first = inject_contacts(pattern, 70, 3, 12, seed=1)
    second = inject_contacts(first, 30, 2, 6, seed=2)
    resized, _ = grid_laplacian(12, 13)
    n_nodes = pattern.n_rows // dim
    bad_step, error = {
        "asymmetric": ((asymmetric_copy(first), None), AsymmetricPattern),
        "asymmetric_resized": ((asymmetric_copy(resized), None), AsymmetricPattern),
        "resized": ((resized, None), InvalidMap),
        "mis_sized_map": ((first, NodeMap(np.arange(n_nodes), n_nodes + 1)), InvalidMap),
    }[bad]
    config = ParthConfig(dim=dim, target_leaf=8)
    hit, clean = Parth(config), Parth(config)
    hit.start(pattern)
    clean.start(pattern)
    with pytest.raises(error):
        hit.step(*bad_step)
    for p in (first, second):
        dirty_hit, state_hit = hit.step(p)
        dirty_clean, state_clean = clean.step(p)
        assert np.array_equal(state_hit.matrix_perm, state_clean.matrix_perm)
        assert np.array_equal(dirty_hit.reuse_mask, dirty_clean.reuse_mask)
        assert (dirty_hit.fine, dirty_hit.coarse, dirty_hit.dirty_node_total) == (
            dirty_clean.fine, dirty_clean.coarse, dirty_clean.dirty_node_total)
