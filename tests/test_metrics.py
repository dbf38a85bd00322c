import math

import numpy as np

from parth import (
    CSV_HEADER,
    Parth,
    ParthConfig,
    degradation_monitor,
    grid_laplacian,
    inject_contacts,
    step_metrics,
)
from parth.metrics import OK, RESET_RECOMMENDED
from parth.synchronizer import DirtyState


def make_first_call(pattern):
    parth = Parth(ParthConfig(target_leaf=pattern.n_rows >> 3))  # depth 3
    state = parth.start(pattern)
    dirty = DirtyState(
        np.zeros(parth.tree.size, dtype=bool), frozenset(), frozenset(), parth.graph.n_nodes
    )
    return parth, state, dirty


class TestStepMetrics:
    def test_first_call(self):
        pattern, _ = grid_laplacian(8, 8)
        parth, state, dirty = make_first_call(pattern)
        m = step_metrics(state, dirty, pattern, state.matrix_perm, step=1, label="base")
        assert m.reuse_ratio == 0.0
        assert m.fill_dev == 0.0  # baseline is itself
        assert m.recomp_nodes == 64
        assert m.n == 64

    def test_unchanged_step(self):
        pattern, _ = grid_laplacian(8, 8)
        parth, state, _ = make_first_call(pattern)
        dirty, state2 = parth.step(pattern)
        m = step_metrics(state2, dirty, pattern, None, step=2)
        assert m.reuse_ratio == 1.0
        assert m.recomp_tree == 0 and m.recomp_nodes == 0
        assert math.isnan(m.fill_dev)

    def test_counts_add_up(self):
        pattern, _ = grid_laplacian(12, 12)
        parth, state, _ = make_first_call(pattern)
        changed = inject_contacts(pattern, 50, 2, 6, seed=2)
        dirty, state2 = parth.step(changed)
        m = step_metrics(state2, dirty, pattern, None)
        assert 0.0 <= m.reuse_ratio <= 1.0
        assert m.recomp_nodes + state2.reused_nodes == parth.graph.n_nodes

    def test_csv_row_shape(self):
        pattern, _ = grid_laplacian(8, 8)
        _, state, dirty = make_first_call(pattern)
        m = step_metrics(state, dirty, pattern, state.matrix_perm, step=1, label="x")
        assert len(m.csv_row().split(",")) == len(CSV_HEADER.split(","))


class TestDegradationMonitor:
    def test_all_zero(self):
        assert degradation_monitor([0.0] * 10) == OK

    def test_trending_high(self):
        history = [0.0, 0.05, 0.18, 0.2, 0.22, 0.21, 0.2]
        assert degradation_monitor(history) == RESET_RECOMMENDED

    def test_single_spike_tolerated(self):
        history = [0.0, 0.0, 0.5, 0.0, 0.0, 0.01]
        assert degradation_monitor(history) == OK

    def test_empty(self):
        assert degradation_monitor([]) == OK

    def test_nan_ignored(self):
        assert degradation_monitor([float("nan"), 0.01]) == OK
