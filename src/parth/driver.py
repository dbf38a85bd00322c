"""Stateful engine instance driving repeated ordering calls."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .assembler import AssemblyState, assemble
from .errors import InvalidArgument, InvalidMap, ParthError
from .graph import NodeMap, SparsityPattern, SymGraph, build_dual, compress_by_dim
from .hgd import MAX_LEVEL, HgdTree, default_max_level, hgd_build
from .ordering import MinDegreeEngine
from .separator import LevelSetEngine
from .synchronizer import DirtyState, synchronize


@dataclass
class ParthConfig:
    dim: int = 1
    max_level: int | None = None  # None = derive from graph size
    target_leaf: int = 256
    aggressive: bool = False
    theta: float = 0.5

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidArgument(f"dim must be >= 1, got {self.dim}")
        if self.max_level is not None and not 0 <= self.max_level <= MAX_LEVEL:
            raise InvalidArgument(f"max_level must be in [0, {MAX_LEVEL}] or None, got {self.max_level}")
        if self.target_leaf < 1:
            raise InvalidArgument(f"target_leaf must be >= 1, got {self.target_leaf}")
        if not (math.isfinite(self.theta) and 0.0 <= self.theta <= 1.0):
            raise InvalidArgument(f"theta must be a finite number in [0, 1], got {self.theta}")


class StateError(ParthError, RuntimeError):
    """A call arrived before the instance was started."""


class Parth:
    """Holds one decomposition across a sequence of patterns.

    `start` ingests the first pattern and orders everything; `step` folds a
    changed pattern into the existing decomposition, reusing local orderings
    wherever the change detection allows.
    """

    def __init__(self, config: ParthConfig | None = None):
        self.config = config or ParthConfig()
        # one pair per instance: tracing tools patch these methods in place
        self.separator_engine = LevelSetEngine()
        self.ordering_engine = MinDegreeEngine()
        self.graph: SymGraph | None = None
        self.tree: HgdTree | None = None
        self.state: AssemblyState | None = None
        self.last_sync_us = 0
        self.last_assemble_us = 0

    def _ingest(self, pattern: SparsityPattern) -> SymGraph:
        cfg = self.config
        return build_dual(pattern) if cfg.dim == 1 else compress_by_dim(pattern, cfg.dim)

    def reset(self) -> None:
        self.graph = None
        self.tree = None
        self.state = None

    def start(self, pattern: SparsityPattern) -> AssemblyState:
        cfg = self.config
        g = self._ingest(pattern)
        max_level = (
            cfg.max_level
            if cfg.max_level is not None
            else default_max_level(max(g.n_nodes, 1), cfg.target_leaf)
        )
        t0 = time.perf_counter_ns()
        self.tree = hgd_build(g, max_level, self.separator_engine)
        self.state = assemble(self.tree, g, self.ordering_engine, cfg.dim)
        # nothing is synchronized on a start: the tree build counts as assembly
        self.last_sync_us = 0
        self.last_assemble_us = (time.perf_counter_ns() - t0) // 1000
        self.graph = g
        return self.state

    def step(
        self, pattern: SparsityPattern, node_map: NodeMap | None = None
    ) -> tuple[DirtyState, AssemblyState]:
        if self.tree is None or self.graph is None:
            raise StateError("step() called before start()")
        cfg = self.config
        g_new = self._ingest(pattern)
        if node_map is None:
            if g_new.n_nodes != self.graph.n_nodes:
                raise InvalidMap(
                    f"node count changed {self.graph.n_nodes} -> {g_new.n_nodes}; a node map is required"
                )
            node_map = NodeMap.identity(g_new.n_nodes)
        t0 = time.perf_counter_ns()
        dirty = synchronize(
            self.tree,
            self.graph,
            g_new,
            node_map,
            self.separator_engine,
            aggressive=cfg.aggressive,
            theta=cfg.theta,
        )
        t1 = time.perf_counter_ns()
        self.state = assemble(self.tree, g_new, self.ordering_engine, cfg.dim)
        self.last_sync_us = (t1 - t0) // 1000
        self.last_assemble_us = (time.perf_counter_ns() - t1) // 1000
        self.graph = g_new
        return dirty, self.state
