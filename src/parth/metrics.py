"""Per-step measurement and quality-degradation tracking."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import islice
from statistics import median

import numpy as np

from .assembler import AssemblyState, reuse_ratio
from .graph import SparsityPattern
from .oracle import fill_deviation
from .synchronizer import DirtyState

OK = "ok"
RESET_RECOMMENDED = "reset_recommended"
# a reset is recommended once the median of the last RESET_WINDOW fill
# deviations exceeds RESET_THRESHOLD
RESET_THRESHOLD = 0.15
RESET_WINDOW = 5


@dataclass
class StepMetrics:
    step: int
    label: str
    n: int
    nnz: int
    reuse_ratio: float
    fill_dev: float
    recomp_tree: int
    recomp_nodes: int
    t_sync_us: int
    t_assemble_us: int
    t_baseline_us: int
    reset_recommended: bool = False

    def csv_row(self) -> str:
        """The fields in `CSV_HEADER` order: floats to 6 decimals (NaN empty), booleans as 0/1."""
        return ",".join(_csv_cell(getattr(self, f.name), f.type) for f in fields(self))


def _csv_cell(value, kind: str) -> str:
    # `kind` is the field's annotation, a string under postponed evaluation
    if kind == "float":
        return "" if math.isnan(value) else f"{value:.6f}"
    return str(int(value)) if kind == "bool" else str(value)


CSV_HEADER = ",".join(f.name for f in fields(StepMetrics))


def step_metrics(
    state: AssemblyState,
    dirty: DirtyState,
    pattern: SparsityPattern,
    baseline_perm: np.ndarray | None,
    *,
    step: int = 0,
    label: str = "",
    t_sync_us: int = 0,
    t_assemble_us: int = 0,
    t_baseline_us: int = 0,
) -> StepMetrics:
    """Assemble one measurement row; baseline_perm may be None to skip fill."""
    n_graph = int(state.graph_perm.size)
    dev = float("nan")
    if baseline_perm is not None:
        dev = fill_deviation(state.matrix_perm, baseline_perm, pattern)
    return StepMetrics(
        step=step,
        label=label,
        n=pattern.n_rows,
        nnz=pattern.nnz,
        reuse_ratio=reuse_ratio(state, n_graph),
        fill_dev=dev,
        recomp_tree=int(np.count_nonzero(~dirty.reuse_mask)),
        recomp_nodes=n_graph - state.reused_nodes,
        t_sync_us=t_sync_us,
        t_assemble_us=t_assemble_us,
        t_baseline_us=t_baseline_us,
    )


def degradation_monitor(history) -> str:
    """Flag a recommended reset when the trailing-median deviation drifts high.

    `history` is a sequence of fill deviations, NaN where none was measured, read from its end up to
    the last RESET_WINDOW measured values. The reset itself is left to the caller; this only reports.
    """
    values = list(islice((v for v in reversed(history) if not math.isnan(v)), RESET_WINDOW))
    if not values:
        return OK
    return RESET_RECOMMENDED if median(values) > RESET_THRESHOLD else OK
