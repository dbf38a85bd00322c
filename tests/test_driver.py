import dataclasses
import time
import types

import numpy as np
import pytest

import parth

from parth import (
    InvalidArgument,
    InvalidMap,
    NodeMap,
    Parth,
    ParthConfig,
    ParthError,
    SparsityPattern,
    StateError,
    grid_laplacian,
    inject_contacts,
    is_permutation,
    patch_remesh,
    reuse_ratio,
    step_metrics,
)
from conftest import blocks


# what `import parth` offers a caller; every stage behind it is imported from its module
PUBLIC_NAMES = {
    # engine
    "Parth", "ParthConfig", "AssemblyState", "DirtyState", "reuse_ratio",
    # patterns, graphs and maps
    "SparsityPattern", "SymGraph", "NodeMap", "ABSENT", "build_dual", "compress_by_dim", "is_permutation",
    # errors
    "ParthError", "InvalidArgument", "AsymmetricPattern", "IndexOutOfBounds", "DimMismatch", "InvalidMap",
    "StaleTree", "InvalidPermutation", "BallTooSmall", "ParseError", "StateError",
    # files
    "SequenceStep", "read_manifest", "read_matrix_market", "read_node_map",
    "write_manifest", "write_matrix_market", "write_node_map",
    # synthetic sequences
    "grid_laplacian", "hop_ball", "inject_contacts", "patch_remesh", "radius_for_fraction",
    # metrics and the symbolic oracle
    "CSV_HEADER", "StepMetrics", "step_metrics", "degradation_monitor",
    "FactorStats", "symbolic_analyze", "fill_deviation",
}


def test_public_names_are_pinned():
    exposed = {
        name
        for name, value in vars(parth).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exposed == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 42


def test_start_then_fixed_point():
    pattern, _ = grid_laplacian(10, 10)
    parth = Parth(ParthConfig(target_leaf=100 >> 3))  # depth 3
    first = parth.start(pattern)
    assert is_permutation(first.matrix_perm, 100)
    dirty, again = parth.step(pattern)
    assert reuse_ratio(again, 100) == 1.0
    assert np.array_equal(first.matrix_perm, again.matrix_perm)


def test_step_before_start_raises():
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
    engine = Parth(ParthConfig(target_leaf=36 >> 1))  # depth 1
    engine.start(pattern)
    assert engine.last_sync_us == 0
    assert engine.last_assemble_us >= 50_000


def test_no_map_steps_share_one_identity_map(monkeypatch):
    import parth.driver

    maps = []
    real_sync = parth.driver.synchronize

    def recording_sync(tree, g_old, g_new, node_map, *args, **kwargs):
        maps.append(node_map)
        return real_sync(tree, g_old, g_new, node_map, *args, **kwargs)

    monkeypatch.setattr(parth.driver, "synchronize", recording_sync)
    pattern, _ = grid_laplacian(8, 8)
    engine = Parth(ParthConfig(target_leaf=16))
    engine.start(pattern)
    engine.step(pattern)
    engine.step(pattern)
    assert maps[0] is maps[1] and maps[0].is_identity and maps[0].n_new == 64
    remeshed, node_map = patch_remesh(pattern, 27, 1, densify=2.0, seed=0)
    engine.step(remeshed, node_map)
    engine.step(remeshed)  # the node count changed, so the identity is rebuilt
    assert maps[3].is_identity and maps[3].n_new == remeshed.n_rows != 64


def test_dimension_change_requires_map():
    p1, _ = grid_laplacian(6, 6)
    p2, _ = grid_laplacian(6, 7)
    parth = Parth(ParthConfig(target_leaf=36 >> 2))  # depth 2
    parth.start(p1)
    with pytest.raises(InvalidMap):
        parth.step(p2)


def test_mis_sized_map_leaves_the_engine_untouched():
    # a map of the wrong length, or one built for another previous size, is
    # refused before node sync relabels anything, and so is a pattern that is
    # no SparsityPattern: the next valid step matches that of an engine that
    # never saw the bad calls
    pattern, _ = grid_laplacian(12, 12)
    n = pattern.n_rows
    remeshed, node_map = patch_remesh(pattern, 70, 2, densify=1.2, seed=5)
    config = ParthConfig(target_leaf=n >> 3)  # depth 3
    hit, clean = Parth(config), Parth(config)
    hit.start(pattern)
    clean.start(pattern)
    bad_steps = [
        (remeshed, NodeMap(node_map.entries[:-1], n)),  # one entry short
        (remeshed, NodeMap(node_map.entries, n + 1)),  # built for another n_old
        (pattern, NodeMap(np.arange(n - 1), n)),
        (pattern, NodeMap(np.arange(n), n + 1)),
    ]
    for p, bad in bad_steps:
        with pytest.raises(InvalidMap):
            hit.step(p, bad)
    with pytest.raises(InvalidArgument, match="node_map must be a NodeMap"):
        hit.step(remeshed, node_map.entries)  # the map's entries, not the map
    for call, bad in ((hit.step, "x"), (hit.step, None), (hit.start, "x"), (hit.start, remeshed.row_starts)):
        with pytest.raises(InvalidArgument, match="pattern must be a SparsityPattern"):
            call(bad)
    dirty_hit, state_hit = hit.step(remeshed, node_map)
    dirty_clean, state_clean = clean.step(remeshed, node_map)
    assert np.array_equal(state_hit.matrix_perm, state_clean.matrix_perm)
    assert np.array_equal(dirty_hit.reuse_mask, dirty_clean.reuse_mask)


def test_remesh_sequence_stays_consistent():
    pattern, _ = grid_laplacian(16, 16)
    parth = Parth(ParthConfig(target_leaf=256 >> 3, aggressive=True, theta=0.4))  # depth 3
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
    parth = Parth(ParthConfig(target_leaf=64 >> 2))  # depth 2
    parth.start(pattern)
    rng = np.random.default_rng(13)
    relabel = rng.permutation(64)  # new index of each old node
    rows, cols = pattern.to_coo()
    shuffled = type(pattern).from_coo(64, relabel[rows], relabel[cols])
    entries = np.empty(64, dtype=np.int64)
    entries[relabel] = np.arange(64)  # entries[new] = old
    dirty, state = parth.step(shuffled, NodeMap(entries, 64))
    assert is_permutation(state.matrix_perm, 64)
    assert parth.tree.separator_violations(parth.graph) == []


@pytest.mark.parametrize("dim", [1, 3])
def test_pure_relabel_reuses_orderings_of_the_same_nodes(dim):
    # a renumbering changes no structure: every stored ordering is reused and
    # must still eliminate the same physical nodes, so the permutation is the
    # previous one mapped through the relabel and the fill does not move
    from parth import NodeMap, symbolic_analyze

    grid, _ = grid_laplacian(16, 16)
    pattern = blocks(grid, dim)
    parth = Parth(ParthConfig(dim=dim, target_leaf=256 >> 3))  # depth 3
    first = parth.start(pattern).matrix_perm
    rng = np.random.default_rng(29)
    new_of_old = rng.permutation(256)
    entries = np.empty(256, dtype=np.int64)
    entries[new_of_old] = np.arange(256)  # entries[new] = old
    rows, cols = grid.to_coo()
    relabelled = blocks(SparsityPattern.from_coo(256, new_of_old[rows], new_of_old[cols]), dim)
    dirty, state = parth.step(relabelled, NodeMap(entries, 256))
    assert bool(dirty.reuse_mask.all())
    assert state.reused_nodes == 256
    row_of_old = (new_of_old[:, None] * dim + np.arange(dim)).ravel()
    assert np.array_equal(state.matrix_perm, row_of_old[first])
    assert symbolic_analyze(relabelled, state.matrix_perm).nnz_l == symbolic_analyze(pattern, first).nnz_l


def test_start_after_steps_starts_fresh():
    # start replaces the whole state, also after steps that changed n
    pattern, _ = grid_laplacian(8, 8)
    contacts = inject_contacts(pattern, 10, 2, 4, seed=0)
    config = ParthConfig(target_leaf=64 >> 2)  # depth 2
    fresh = Parth(config)
    first = fresh.start(pattern).matrix_perm
    parth = Parth(config)
    parth.start(pattern)
    parth.step(contacts)
    parth.step(*patch_remesh(contacts, 27, 1, densify=1.5, seed=1))
    assert np.array_equal(parth.start(pattern).matrix_perm, first)
    assert np.array_equal(parth.step(contacts)[1].matrix_perm, fresh.step(contacts)[1].matrix_perm)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"target_leaf": 0}, {"dim": 0}, {"dim": -2}, {"dim": 2.0}, {"dim": "3"}, {"target_leaf": 2.5},
        {"theta": "0.5"}, {"theta": None}, {"theta": True}, {"theta": np.True_},
        {"aggressive": "no"}, {"aggressive": 1}, {"aggressive": None},
        {"dim": True}, {"target_leaf": np.True_},
    ],
)
def test_config_bounds_checked_at_construction(kwargs):
    with pytest.raises(InvalidArgument) as exc:
        ParthConfig(**kwargs)
    assert isinstance(exc.value, ParthError) and isinstance(exc.value, ValueError)


def test_config_takes_numpy_integers():
    config = ParthConfig(dim=np.int64(2), target_leaf=np.int32(16))
    assert (config.dim, config.target_leaf) == (2, 16)
    pattern, _ = grid_laplacian(4, 4)
    assert is_permutation(Parth(config).start(pattern).matrix_perm, 16)


def test_config_takes_numpy_bool_and_float():
    config = ParthConfig(aggressive=np.bool_(True), theta=np.float32(0.25))
    assert config.aggressive is True and config.theta == 0.25


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-9, 1.0 + 1e-9, 5.0])
def test_theta_outside_unit_interval_rejected(theta):
    # NaN or a negative theta would try to defuse every crossing change, theta > 1 none
    with pytest.raises(InvalidArgument):
        ParthConfig(aggressive=True, theta=theta)
    with pytest.raises(InvalidArgument):
        ParthConfig(theta=theta)  # checked whether or not aggressive reuse is on


@pytest.mark.parametrize("field, value", [("theta", float("nan")), ("aggressive", "yes"), ("dim", 0)])
def test_config_cannot_change_after_its_checks(field, value):
    # a step would otherwise run with the unchecked value: theta NaN tries a move for every crossing change
    engine = Parth(ParthConfig(aggressive=True, theta=0.3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(engine.config, field, value)
    assert engine.config == ParthConfig(aggressive=True, theta=0.3)
    with pytest.raises(InvalidArgument):
        dataclasses.replace(engine.config, **{field: value})


def test_config_replace_normalizes_like_construction():
    config = dataclasses.replace(ParthConfig(), dim=np.int64(3), aggressive=np.bool_(True), theta=0.25)
    assert config == ParthConfig(dim=3, aggressive=True, theta=0.25)
    assert type(config.dim) is int and config.aggressive is True


@pytest.mark.parametrize("theta", [0.0, 0.4, 1.0])
def test_theta_bounds_are_inclusive(theta):
    assert ParthConfig(aggressive=True, theta=theta).theta == theta
