"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 3 and 4 share one 50-seed dynamic-sparsity suite on a 64x64 grid;
criterion 10 audits work proportionality across every incremental step the
other suites performed.
"""

import itertools
import time

import numpy as np
import pytest

from parth import (
    LevelSetEngine,
    MinDegreeEngine,
    NodeMap,
    Parth,
    ParthConfig,
    build_dual,
    edge_set_diff,
    fill_deviation,
    grid_laplacian,
    inject_contacts,
    is_permutation,
    numeric_cholesky_solve,
    order_subgraph,
    patch_remesh,
    reuse_ratio,
    symbolic_analyze,
    synchronize,
)
from conftest import (
    NINE_TREE_SETS,
    apply_edge_delta,
    arrowhead_pattern,
    dense_fill_nnz,
    has_edge,
    nine_node_graphs,
    random_pattern,
    remove_and_add_nodes,
    tree_from_node_sets,
)

# (recomputed graph nodes, dirty-set node total) for every incremental step
# executed by the suites below; audited by criterion 10
_PROPORTIONALITY: list[tuple[int, int]] = []

_SUITE_BUDGETS = {}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _record(dirty, state, n_nodes):
    _PROPORTIONALITY.append((n_nodes - state.reused_nodes, dirty.dirty_node_total))


def test_criterion_01_correctness_oracle():
    """500 random patterns + random deltas: bijections and intact separators."""
    started = time.perf_counter()
    rng = np.random.default_rng(20_240_501)
    trials = 500
    for trial in range(trials):
        n = int(rng.integers(16, 201))
        pattern = random_pattern(rng, n)
        config = ParthConfig(target_leaf=n >> 4, aggressive=bool(trial % 3 == 0), theta=0.4)  # depth 4
        parth = Parth(config)
        first = parth.start(pattern)
        assert is_permutation(first.matrix_perm, n)
        if trial % 5 < 3:  # edge-only delta
            k = int(rng.integers(1, 7))
            add = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(k)]
            eu, ev = parth.graph.edges()
            rem = []
            if eu.size:
                picks = rng.integers(0, eu.size, size=int(rng.integers(0, 4)))
                rem = [(int(eu[i]), int(ev[i])) for i in picks]
            new_pattern, node_map = apply_edge_delta(pattern, add, rem), None
        else:  # node add/remove delta with a map
            new_pattern, node_map = remove_and_add_nodes(
                rng, pattern, int(rng.integers(0, 4)), int(rng.integers(0, 4))
            )
        dirty, state = parth.step(new_pattern, node_map)
        assert is_permutation(state.matrix_perm, new_pattern.n_rows)
        assert parth.tree.separator_violations(parth.graph) == []
        parth.tree.validate_partition(parth.graph.n_nodes)
        _record(dirty, state, parth.graph.n_nodes)
    elapsed = time.perf_counter() - started
    report(1, elapsed < 60.0, f"{trials} random dynamic systems clean in {elapsed:.1f}s (< 60s)")


def test_criterion_02_fixed_point_reuse():
    """Replaying an unchanged pattern reuses everything bit-identically."""
    cases = [grid_laplacian(16, 16)[0], random_pattern(np.random.default_rng(5), 150)]
    g1_pattern, _ = _nine_node_patterns()
    cases.append(g1_pattern)
    for pattern in cases:
        parth = Parth(ParthConfig(target_leaf=pattern.n_rows >> 3))  # depth 3
        first = parth.start(pattern)
        dirty, again = parth.step(pattern)
        assert reuse_ratio(again, parth.graph.n_nodes) == 1.0
        assert int(np.count_nonzero(~dirty.reuse_mask)) == 0
        assert np.array_equal(first.matrix_perm, again.matrix_perm)
        _record(dirty, again, parth.graph.n_nodes)
    report(2, True, "unchanged replays: reuse 1.0, zero recomputed tree nodes, identical output")


def _nine_node_patterns():
    from conftest import nine_node_patterns

    return nine_node_patterns()


@pytest.fixture(scope="module")
def grid_suite():
    """50-seed 2%-ball dynamic suite on a 64x64 grid, shared by criteria 3/4.

    The aggressive-reuse heuristic is enabled (theta 0.4) so changes that
    land on a high-level separator are defused instead of triggering a
    half-graph re-decomposition.
    """
    started = time.perf_counter()
    base, _ = grid_laplacian(64, 64)
    config = ParthConfig(aggressive=True, theta=0.4)
    reuses, deviations = [], []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        parth = Parth(config)
        parth.start(base)
        center = int(rng.integers(base.n_rows))
        if seed % 2 == 0:
            new_pattern = inject_contacts(base, center, radius=5, k=16, seed=seed)
            node_map = None
        else:
            new_pattern, node_map = patch_remesh(base, center, radius=5, densify=1.0, seed=seed)
        dirty, state = parth.step(new_pattern, node_map)
        assert parth.tree.separator_violations(parth.graph) == []
        reuses.append(reuse_ratio(state, parth.graph.n_nodes))
        baseline = Parth(config).start(new_pattern).matrix_perm
        deviations.append(fill_deviation(state.matrix_perm, baseline, new_pattern))
        _record(dirty, state, parth.graph.n_nodes)
    _SUITE_BUDGETS["grid_suite"] = time.perf_counter() - started
    return np.array(reuses), np.array(deviations)


def test_criterion_03_locality_reuse(grid_suite):
    """2%-ball changes keep the bulk of the ordering: median >= 0.85, min >= 0.70."""
    reuses, _ = grid_suite
    elapsed = _SUITE_BUDGETS["grid_suite"]
    med, lo = float(np.median(reuses)), float(reuses.min())
    ok = med >= 0.85 and lo >= 0.70 and elapsed < 120.0
    report(3, ok, f"reuse median {med:.3f} (>= 0.85), min {lo:.3f} (>= 0.70), suite {elapsed:.1f}s (< 120s)")


def test_criterion_04_fill_quality(grid_suite):
    """Incremental vs same-engine full recompute: tight fill deviation."""
    _, devs = grid_suite
    elapsed = _SUITE_BUDGETS["grid_suite"]
    med = float(np.median(devs))
    hi, lo = float(np.percentile(devs, 90)), float(np.percentile(devs, 10))
    ok = abs(med) <= 0.05 and hi <= 0.10 and lo >= -0.10 and elapsed < 300.0
    report(4, ok, f"fill dev median {med:+.4f} (|.| <= 0.05), p90 {hi:+.4f} / p10 {lo:+.4f} (within +-0.10)")


def test_criterion_05_worked_example():
    """Hand-built nine-node sequence: exactly tree nodes {2, 5, 6} change."""
    g1, g2 = nine_node_graphs()
    added, removed = edge_set_diff(g1, g2, NodeMap.identity(9))
    assert added.tolist() == [[0, 6], [3, 8]]
    assert removed.tolist() == [[2, 8]]
    tree = tree_from_node_sets(2, NINE_TREE_SETS, g=g1)
    dirty = synchronize(tree, g1, g2, NodeMap.identity(9), LevelSetEngine())
    changed = sorted(np.flatnonzero(~dirty.reuse_mask).tolist())
    ok = changed == [2, 5, 6] and tree.separator_violations(g2) == []
    report(5, ok, f"changed tree nodes {changed} == [2, 5, 6]")


def test_criterion_06_ordering_quality_sanity():
    """Arrowhead family: min-degree reaches 2n-1 vs natural's n(n+1)/2."""
    mindeg = MinDegreeEngine()
    for n in range(4, 65):
        pattern = arrowhead_pattern(n)
        perm = order_subgraph(build_dual(pattern), mindeg)
        assert symbolic_analyze(pattern, perm).nnz_l == 2 * n - 1
        assert symbolic_analyze(pattern, np.arange(n)).nnz_l == n * (n + 1) // 2
    # n = 4: brute force over all 24 orderings confirms 7 vs 10
    edges = [(0, j) for j in range(1, 4)]
    fills = [dense_fill_nnz(4, edges, p) for p in itertools.permutations(range(4))]
    ok = min(fills) == 7 and dense_fill_nnz(4, edges, (0, 1, 2, 3)) == 10
    report(6, ok, "arrowhead n in 4..64: nnz(L) = 2n-1 vs n(n+1)/2; n=4 brute force 7 vs 10")


def test_criterion_07_end_to_end_numeric():
    """Produced ordering drives a numeric solve to 1e-10 of the dense oracle."""
    pattern, values = grid_laplacian(16, 16)
    parth = Parth(ParthConfig())
    state = parth.start(pattern)
    rng = np.random.default_rng(99)
    b = rng.standard_normal(pattern.n_rows)
    x, residual = numeric_cholesky_solve(pattern, values, state.matrix_perm, b)
    dense = np.zeros((pattern.n_rows, pattern.n_rows))
    r, c = pattern.to_coo()
    dense[r, c] = values
    err = float(np.linalg.norm(x - np.linalg.solve(dense, b)) / np.linalg.norm(x))
    ok = residual <= 1e-10 and err <= 1e-10
    report(7, ok, f"relative residual {residual:.2e} (<= 1e-10), dense-oracle error {err:.2e}")


def test_criterion_08_dirty_set_completeness():
    """Brute-force violated separators are always among the nodes marked changed."""
    rng = np.random.default_rng(7_777)
    engine = LevelSetEngine()
    for trial in range(200):
        n = int(rng.integers(20, 201))
        pattern = random_pattern(rng, n)
        g_old = build_dual(pattern)
        parth = Parth(ParthConfig(target_leaf=n >> 4))  # depth 4
        parth.start(pattern)
        k = int(rng.integers(1, 6))
        add = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(k)]
        new_pattern = apply_edge_delta(pattern, add, [])
        g_new = build_dual(new_pattern)
        # oracle: scan the untouched tree against the new edges
        oracle = set(parth.tree.separator_violations(g_new))
        dirty, state = parth.step(new_pattern)
        marked = set(np.flatnonzero(~dirty.reuse_mask).tolist())
        assert oracle <= marked, f"trial {trial}: {oracle - marked} not marked"
        _record(dirty, state, n)
    report(8, True, "200 trials: violated separators always within the changed set")


def test_criterion_09_aggressive_reuse():
    """A single cross-root edge: high reuse with the heuristic, none without."""
    started = time.perf_counter()
    pattern, _ = grid_laplacian(64, 64)

    on = Parth(ParthConfig(aggressive=True, theta=0.5))
    on.start(pattern)
    left, right = on.tree.subtree_union(1), on.tree.subtree_union(2)
    u = next(int(a) for a in left if not has_edge(on.graph, int(a), int(right[0])))
    v = int(right[0])
    new_pattern = apply_edge_delta(pattern, [(u, v)], [])

    dirty_on, state_on = on.step(new_pattern)
    r_on = reuse_ratio(state_on, on.graph.n_nodes)
    violations = on.tree.separator_violations(on.graph)
    _record(dirty_on, state_on, on.graph.n_nodes)

    off = Parth(ParthConfig(aggressive=False))
    off.start(pattern)
    dirty_off, state_off = off.step(new_pattern)
    r_off = reuse_ratio(state_off, off.graph.n_nodes)
    _record(dirty_off, state_off, off.graph.n_nodes)

    elapsed = time.perf_counter() - started
    ok = r_on >= 0.90 and violations == [] and r_off <= 0.05 and elapsed < 30.0
    report(9, ok, f"reuse {r_on:.3f} with heuristic (>= 0.90) vs {r_off:.3f} without, {elapsed:.1f}s (< 30s)")


def test_criterion_10_work_proportionality():
    """Recomputed nodes never exceed the filtered dirty sets' coverage."""
    if len(_PROPORTIONALITY) < 700:
        pytest.skip("requires the earlier criteria suites in the same session")
    worst = max((r - t) for r, t in _PROPORTIONALITY)
    ok = all(recomputed <= total for recomputed, total in _PROPORTIONALITY)
    report(10, ok, f"{len(_PROPORTIONALITY)} steps audited, max(recomputed - dirty) = {worst}")
