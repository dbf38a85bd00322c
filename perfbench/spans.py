"""Span tracing of parth's layers from outside the package.

`instrumented(tracer)` swaps wrappers onto the module attributes that parth's
own callers resolve at call time (for example `parth.synchronizer.edge_set_diff`
or `parth.driver.assemble`) and restores the originals on exit.
`instrument_engines` wraps the `split` and `order` methods of one `Parth`
instance's separator and ordering engines. Nothing inside `src/` changes.

Each wrapped call records a span (op id, span id, parent span id, name,
start ns, end ns) while an op is open; all spans of one step share that op id.
Counts are taken at the same boundaries, outside the span's own interval.
Spans stay in memory until `write_jsonl` is called at the end of a run.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import parth.assembler
import parth.cli
import parth.driver
import parth.hgd
import parth.oracle
import parth.synchronizer
from parth.hgd import is_in_subtree

# span name -> per-layer timing metric (self time, ms, per-step median)
SPAN_METRICS = {
    "graph.ingest": "graph.ingest.ms",
    "graph.edge_diff": "graph.edge_diff.ms",
    "graph.induced_subgraph": "graph.induced_subgraph.ms",
    "synchronizer.node_change": "synchronizer.node_change.ms",
    "synchronizer.map_edges": "synchronizer.map_edges.ms",
    "synchronizer.aggressive": "synchronizer.aggressive.ms",
    "synchronizer.classify": "synchronizer.classify.ms",
    "synchronizer.synchronize": "synchronizer.self.ms",
    "hgd.redecompose": "hgd.redecompose.ms",
    "hgd.build": "hgd.build.ms",
    "separator.split": "separator.split.ms",
    "ordering.order": "ordering.order.ms",
    "assembler.assemble": "assembler.self.ms",
    "driver.step": "driver.step.self.ms",
    "oracle.symbolic": "oracle.symbolic.ms",
    "sequence_io.read": "sequence_io.read.ms",
    "cli.run": "cli.run.self.ms",
}

COUNT_METRICS = (
    "graph.edges_added",
    "graph.edges_removed",
    "graph.induced_subgraph.calls",
    "synchronizer.nodes_added",
    "synchronizer.nodes_removed",
    "synchronizer.tree_changes",
    "synchronizer.aggressive.attempted",
    "synchronizer.aggressive.accepted",
    "synchronizer.dismissed",
    "synchronizer.fine",
    "synchronizer.coarse",
    "hgd.redecompose.calls",
    "hgd.region_nodes",
    "separator.calls",
    "separator.nodes_in",
    "separator.sep_nodes",
    "ordering.calls",
    "ordering.nodes",
    "assembler.reused_nodes",
    "oracle.calls",
    "sequence_io.bytes",
)


def _related(a: int, b: int) -> bool:
    return a == b or is_in_subtree(a, b) or is_in_subtree(b, a)


def _crossing_added(changes) -> int:
    """Added-edge changes between disjoint subtrees: each would break a separator."""
    return sum(1 for ch in changes if ch.kind == "added" and not _related(ch.a, ch.b))


class Tracer:
    """Span and count recorder for one pass; inert while no op is open."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def op_scope(self, op: int):
        self.op = op
        try:
            yield
        finally:
            self.op = None

    def wrap(self, name: str, fn, count=None):
        """Wrap fn so each call inside an op records a span and, optionally, counts.

        count(result, *args, **kwargs) returns {counter: amount}; it runs after
        the span closes so its own cost lands in the parent's self time.
        """

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((self.op, sid, parent, name, t0, t1))
            if count is not None:
                self.counts.update(count(result, *args, **kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    def self_ms_by_op(self) -> dict[int, Counter]:
        """Per op, per span name: summed self time in ms (duration minus direct children)."""
        child_ns: Counter = Counter()
        for _, _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[int, Counter] = {}
        for op, sid, _, name, t0, t1 in self.spans:
            out.setdefault(op, Counter())[name] += (t1 - t0 - child_ns[sid]) / 1e6
        return out

    def write_jsonl(self, path: str, pass_no: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"pass": pass_no, "op": op, "id": sid, "parent": parent,
                                     "name": name, "start_ns": t0, "end_ns": t1}) + "\n")


def layer_medians(tracers: list[Tracer], n_ops_per_pass: int, steps_per_op: int = 1) -> dict[str, float]:
    """Per-step median self time of each layer over every op of the traced passes.

    An op in which a layer never ran contributes 0 ms for that layer. When one
    op covers several steps (a `parth run` call over a manifest), its self
    times are divided by steps_per_op first.
    """
    per_layer: dict[str, list[float]] = {m: [] for m in SPAN_METRICS.values()}
    for tr in tracers:
        by_op = tr.self_ms_by_op()
        for op in range(n_ops_per_pass):
            selfs = by_op.get(op, Counter())
            for span, metric in SPAN_METRICS.items():
                per_layer[metric].append(selfs[span] / steps_per_op)
    return {m: statistics.median(v) if v else 0.0 for m, v in per_layer.items()}


# -- count extractors -------------------------------------------------------


def _count_edge_diff(result, g_old, g_new, node_map):
    # The node delta is read here because this is the first boundary that sees
    # both graphs; node_change_synchronizer settles the same map just before.
    added, removed = result
    kept = int((node_map.entries >= 0).sum())
    return {"graph.edges_added": len(added), "graph.edges_removed": len(removed),
            "synchronizer.nodes_added": g_new.n_nodes - kept,
            "synchronizer.nodes_removed": g_old.n_nodes - kept}


def _count_induced(result, *args, **kwargs):
    return {"graph.induced_subgraph.calls": 1}


def _count_map_edges(result, *args, **kwargs):
    changes, _ = result
    return {"synchronizer.tree_changes": len(changes)}


def _count_aggressive(result, tree, g_new, changes, theta=0.5):
    attempted = _crossing_added(changes)
    remaining = _crossing_added(result[0])
    return {"synchronizer.aggressive.attempted": attempted,
            "synchronizer.aggressive.accepted": attempted - remaining}


def _count_detection(result, tree, changes):
    dismissed = sum(1 for ch in changes if ch.a != ch.b and _related(ch.a, ch.b))
    return {"synchronizer.dismissed": dismissed}


def _count_filter(result, *args, **kwargs):
    fine, coarse = result
    return {"synchronizer.fine": len(fine), "synchronizer.coarse": len(coarse)}


def _count_redecompose(result, tree, root_index, g, region, *args, **kwargs):
    return {"hgd.redecompose.calls": 1, "hgd.region_nodes": len(region)}


def _count_assemble(result, *args, **kwargs):
    return {"assembler.reused_nodes": int(result.reused_nodes)}


def _count_split(result, g, *args, **kwargs):
    return {"separator.calls": 1, "separator.nodes_in": g.n_nodes,
            "separator.sep_nodes": int(result.sep.size)}


def _count_order(result, g, *args, **kwargs):
    return {"ordering.calls": 1, "ordering.nodes": g.n_nodes}


def _count_symbolic(result, *args, **kwargs):
    return {"oracle.calls": 1}


def _count_read(result, path, *args, **kwargs):
    return {"sequence_io.bytes": os.path.getsize(path)}


# (module, attribute, span name, count extractor)
_MODULE_HOOKS = (
    (parth.driver, "build_dual", "graph.ingest", None),
    (parth.driver, "compress_by_dim", "graph.ingest", None),
    (parth.synchronizer, "edge_set_diff", "graph.edge_diff", _count_edge_diff),
    (parth.assembler, "induced_subgraph", "graph.induced_subgraph", _count_induced),
    (parth.hgd, "induced_subgraph", "graph.induced_subgraph", _count_induced),
    (parth.synchronizer, "node_change_synchronizer", "synchronizer.node_change", None),
    (parth.synchronizer, "map_edges_to_tree", "synchronizer.map_edges", _count_map_edges),
    (parth.synchronizer, "aggressive_reuse", "synchronizer.aggressive", _count_aggressive),
    (parth.synchronizer, "dirty_subgraph_detection", "synchronizer.classify", _count_detection),
    (parth.synchronizer, "filter_redundant_subgraphs", "synchronizer.classify", _count_filter),
    (parth.driver, "synchronize", "synchronizer.synchronize", None),
    (parth.synchronizer, "hgd_redecompose", "hgd.redecompose", _count_redecompose),
    (parth.hgd, "hgd_build", "hgd.build", None),
    (parth.driver, "hgd_build", "hgd.build", None),
    (parth.driver, "assemble", "assembler.assemble", _count_assemble),
    (parth.oracle, "symbolic_analyze", "oracle.symbolic", _count_symbolic),
    (parth.cli, "read_matrix_market", "sequence_io.read", _count_read),
    (parth.cli, "read_node_map", "sequence_io.read", _count_read),
    (parth.cli, "cmd_run", "cli.run", None),
)


def instrument_engines(tracer: Tracer, engine):
    """Wrap split/order on this Parth instance's engines (instance attributes)."""
    sep, order = engine.separator_engine, engine.ordering_engine
    sep.split = tracer.wrap("separator.split", sep.split, _count_split)
    order.order = tracer.wrap("ordering.order", order.order, _count_order)
    return engine


@contextmanager
def instrumented(tracer: Tracer):
    """Install every module-level wrapper; the CLI's engines get instance wrappers too."""
    saved = []
    real_parth = parth.cli.Parth

    def traced_parth(config=None):
        return instrument_engines(tracer, real_parth(config))

    hooks = list(_MODULE_HOOKS)
    try:
        for module, attr, name, count in hooks:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        saved.append((parth.driver.Parth, "step", parth.driver.Parth.step))
        parth.driver.Parth.step = tracer.wrap("driver.step", parth.driver.Parth.step)
        saved.append((parth.cli, "Parth", real_parth))
        parth.cli.Parth = traced_parth
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
