import time

import numpy as np
import pytest

from parth import (
    InvalidArgument,
    InvalidMap,
    Parth,
    ParthConfig,
    ParthError,
    SparsityPattern,
    grid_laplacian,
    inject_contacts,
    is_permutation,
    patch_remesh,
    reuse_ratio,
    step_metrics,
)


def test_start_then_fixed_point():
    pattern, _ = grid_laplacian(10, 10)
    parth = Parth(ParthConfig(max_level=3))
    first = parth.start(pattern)
    assert is_permutation(first.matrix_perm, 100)
    dirty, again = parth.step(pattern)
    assert reuse_ratio(again, 100) == 1.0
    assert np.array_equal(first.matrix_perm, again.matrix_perm)


def test_step_before_start_raises():
    from parth.driver import StateError

    pattern, _ = grid_laplacian(4, 4)
    with pytest.raises(StateError):
        Parth().step(pattern)


def test_step_before_start_is_a_parth_error():
    pattern, _ = grid_laplacian(4, 4)
    with pytest.raises(ParthError):
        Parth().step(pattern)


def test_empty_pattern():
    pattern = SparsityPattern(0, np.zeros(1, np.int64), np.empty(0, np.int64))
    parth = Parth()
    first = parth.start(pattern)
    assert first.matrix_perm.size == 0 and reuse_ratio(first, 0) == 1.0
    dirty, state = parth.step(pattern)
    assert state.matrix_perm.size == 0
    row = step_metrics(state, dirty, pattern, first.matrix_perm)
    assert row.n == 0 and row.reuse_ratio == 1.0 and row.recomp_nodes == 0 and row.fill_dev == 0.0


def test_start_times_tree_build_as_assembly(monkeypatch):
    import parth.driver

    real_build = parth.driver.hgd_build

    def slow_build(*args, **kwargs):
        time.sleep(0.05)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(parth.driver, "hgd_build", slow_build)
    pattern, _ = grid_laplacian(6, 6)
    engine = Parth(ParthConfig(max_level=1))
    engine.start(pattern)
    assert engine.last_sync_us == 0
    assert engine.last_assemble_us >= 50_000


def test_dimension_change_requires_map():
    p1, _ = grid_laplacian(6, 6)
    p2, _ = grid_laplacian(6, 7)
    parth = Parth(ParthConfig(max_level=2))
    parth.start(p1)
    with pytest.raises(InvalidMap):
        parth.step(p2)


def test_remesh_sequence_stays_consistent():
    pattern, _ = grid_laplacian(16, 16)
    parth = Parth(ParthConfig(max_level=3, aggressive=True, theta=0.4))
    parth.start(pattern)
    rng = np.random.default_rng(3)
    for k in range(5):
        center = int(rng.integers(pattern.n_rows))
        pattern, node_map = patch_remesh(pattern, center, 1, densify=1.2, seed=k)
        dirty, state = parth.step(pattern, node_map)
        assert is_permutation(state.matrix_perm, pattern.n_rows)
        assert parth.tree.separator_violations(parth.graph) == []


def test_tiny_graphs():
    from parth import SparsityPattern

    for n in (1, 2, 3):
        pattern = SparsityPattern.from_coo(n, np.arange(n), np.arange(n))
        parth = Parth(ParthConfig())
        state = parth.start(pattern)
        assert is_permutation(state.matrix_perm, n)
        dirty, again = parth.step(pattern)
        assert reuse_ratio(again, n) == 1.0


def test_non_monotone_relabel_keeps_bijection():
    # renumbering that scrambles sorted order: stored orderings stay usable
    from parth import NodeMap

    pattern, _ = grid_laplacian(8, 8)
    parth = Parth(ParthConfig(max_level=2))
    parth.start(pattern)
    rng = np.random.default_rng(13)
    relabel = rng.permutation(64)  # new index of each old node
    rows, cols = pattern.to_coo()
    shuffled = type(pattern).from_coo(64, relabel[rows], relabel[cols])
    entries = np.empty(64, dtype=np.int64)
    entries[relabel] = np.arange(64)  # entries[new] = old
    dirty, state = parth.step(shuffled, NodeMap(entries))
    assert is_permutation(state.matrix_perm, 64)
    assert parth.tree.separator_violations(parth.graph) == []


def _blocks(pattern: SparsityPattern, dim: int) -> SparsityPattern:
    rows, cols = pattern.to_coo()
    offs = np.arange(dim, dtype=np.int64)
    big_rows = np.repeat(rows[:, None] * dim + offs, dim, axis=1).ravel()
    big_cols = np.tile(cols[:, None] * dim + offs, dim).ravel()
    return SparsityPattern.from_coo(pattern.n_rows * dim, big_rows, big_cols)


@pytest.mark.parametrize("dim", [1, 3])
def test_pure_relabel_reuses_orderings_of_the_same_nodes(dim):
    # a renumbering changes no structure: every stored ordering is reused and
    # must still eliminate the same physical nodes, so the permutation is the
    # previous one mapped through the relabel and the fill does not move
    from parth import NodeMap, symbolic_analyze

    grid, _ = grid_laplacian(16, 16)
    pattern = _blocks(grid, dim)
    parth = Parth(ParthConfig(dim=dim, max_level=3))
    first = parth.start(pattern).matrix_perm
    rng = np.random.default_rng(29)
    new_of_old = rng.permutation(256)
    entries = np.empty(256, dtype=np.int64)
    entries[new_of_old] = np.arange(256)  # entries[new] = old
    rows, cols = grid.to_coo()
    relabelled = _blocks(SparsityPattern.from_coo(256, new_of_old[rows], new_of_old[cols]), dim)
    dirty, state = parth.step(relabelled, NodeMap(entries))
    assert bool(dirty.reuse_mask.all())
    assert state.reused_nodes == 256
    row_of_old = (new_of_old[:, None] * dim + np.arange(dim)).ravel()
    assert np.array_equal(state.matrix_perm, row_of_old[first])
    assert symbolic_analyze(relabelled, state.matrix_perm).nnz_l == symbolic_analyze(pattern, first).nnz_l


def test_reset_starts_fresh():
    pattern, _ = grid_laplacian(8, 8)
    parth = Parth(ParthConfig(max_level=2))
    a = parth.start(pattern).matrix_perm
    parth.step(inject_contacts(pattern, 10, 2, 4, seed=0))
    parth.reset()
    b = parth.start(pattern).matrix_perm
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "kwargs", [{"max_level": -1}, {"max_level": 40}, {"target_leaf": 0}, {"dim": 0}, {"dim": -2}]
)
def test_config_bounds_checked_at_construction(kwargs):
    # raised before any tree exists: max_level=40 would ask for 2**41 slots
    with pytest.raises(InvalidArgument) as exc:
        ParthConfig(**kwargs)
    assert isinstance(exc.value, ParthError) and isinstance(exc.value, ValueError)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-9, 1.0 + 1e-9, 5.0])
def test_theta_outside_unit_interval_rejected(theta):
    # NaN or a negative theta would try to defuse every crossing change, theta > 1 none
    with pytest.raises(InvalidArgument):
        ParthConfig(aggressive=True, theta=theta)
    with pytest.raises(InvalidArgument):
        ParthConfig(theta=theta)  # checked whether or not aggressive reuse is on


@pytest.mark.parametrize("theta", [0.0, 0.4, 1.0])
def test_theta_bounds_are_inclusive(theta):
    assert ParthConfig(aggressive=True, theta=theta).theta == theta
