"""Stateful engine instance driving repeated ordering calls."""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .assembler import AssemblyState, assemble
from .errors import InvalidArgument, InvalidMap, StateError
from .graph import NodeMap, SparsityPattern, SymGraph, _checked_int, build_dual, compress_by_dim
from .hgd import HgdTree, default_max_level, hgd_build
from .ordering import MinDegreeEngine
from .separator import LevelSetEngine
from .synchronizer import DirtyState, synchronize


@dataclass(frozen=True)
class ParthConfig:
    """Engine settings, checked at construction; frozen, so `dataclasses.replace` re-runs the checks."""

    dim: int = 1
    target_leaf: int = 256
    aggressive: bool = False
    theta: float = 0.5

    def __post_init__(self):
        for name in ("dim", "target_leaf"):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name, 1))
        if not isinstance(self.aggressive, (bool, np.bool_)):
            raise InvalidArgument(f"aggressive must be a bool, got {self.aggressive!r}")
        object.__setattr__(self, "aggressive", bool(self.aggressive))
        theta = self.theta
        # bool is an int to Python; numpy's bool is no numbers.Real
        if isinstance(theta, bool) or not isinstance(theta, numbers.Real) or not (
            math.isfinite(theta) and 0.0 <= theta <= 1.0
        ):
            raise InvalidArgument(f"theta must be a finite number in [0, 1], got {theta!r}")


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
        # the last accepted pattern and its graph, replaced together
        self.pattern: SparsityPattern | None = None
        self.graph: SymGraph | None = None
        self.tree: HgdTree | None = None
        self.state: AssemblyState | None = None
        # the map of a step that brings none, kept while n stays the same
        self._identity = NodeMap.identity(0)
        self.last_sync_us = 0
        self.last_assemble_us = 0

    def _ingest(self, pattern: SparsityPattern, prev=None) -> SymGraph:
        if not isinstance(pattern, SparsityPattern):
            raise InvalidArgument(f"pattern must be a SparsityPattern, got {type(pattern).__name__}")
        cfg = self.config
        return build_dual(pattern, prev) if cfg.dim == 1 else compress_by_dim(pattern, cfg.dim, prev)

    def start(self, pattern: SparsityPattern) -> AssemblyState:
        cfg = self.config
        g = self._ingest(pattern)
        t0 = time.perf_counter_ns()
        self.tree = hgd_build(g, default_max_level(g.n_nodes, cfg.target_leaf), self.separator_engine)
        self.state = assemble(self.tree, g, self.ordering_engine, cfg.dim)
        # nothing is synchronized on a start: the tree build counts as assembly
        self.last_sync_us = 0
        self.last_assemble_us = (time.perf_counter_ns() - t0) // 1000
        self.pattern, self.graph = pattern, g
        return self.state

    def step(
        self, pattern: SparsityPattern, node_map: NodeMap | None = None
    ) -> tuple[DirtyState, AssemblyState]:
        if self.tree is None or self.graph is None:
            raise StateError("step() called before start()")
        if node_map is not None and not isinstance(node_map, NodeMap):
            raise InvalidArgument(f"node_map must be a NodeMap or None, got {type(node_map).__name__}")
        cfg = self.config
        # with no map, only the rows that changed since the last pattern are checked and diffed
        g_new = self._ingest(pattern, (self.pattern, self.graph) if node_map is None else None)
        if node_map is None:
            if g_new.n_nodes != self.graph.n_nodes:
                raise InvalidMap(
                    f"node count changed {self.graph.n_nodes} -> {g_new.n_nodes}; a node map is required"
                )
            if self._identity.n_new != g_new.n_nodes:
                self._identity = NodeMap.identity(g_new.n_nodes)
            node_map = self._identity
        t0 = time.perf_counter_ns()
        dirty = synchronize(
            self.tree,
            self.graph,
            g_new,
            node_map,
            self.separator_engine,
            theta=cfg.theta if cfg.aggressive else None,
        )
        t1 = time.perf_counter_ns()
        self.state = assemble(self.tree, g_new, self.ordering_engine, cfg.dim)
        self.last_sync_us = (t1 - t0) // 1000
        self.last_assemble_us = (time.perf_counter_ns() - t1) // 1000
        self.pattern, self.graph = pattern, g_new
        return dirty, self.state
