"""The benchmark's span tracer patches parth attributes by name; keep them there.

perfbench/spans.py wraps module attributes (parth.driver.assemble, ...) and
reads some call arguments by position. A rename or a reordered signature in
src/ would silently drop spans or counts, so this checks the hooks against
the live package on a tiny grid.
"""

import ast
import csv
import importlib.util
from pathlib import Path

import pytest

import parth.cli
import parth.driver
from parth import Parth, ParthConfig, grid_laplacian, inject_contacts
from parth.cli import main as parth_main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves(spans):
    for module, attr, _, _ in spans._MODULE_HOOKS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"


def _dotted(node: ast.AST) -> list[str] | None:
    """["parth", "driver", "Parth"] for the expression `parth.driver.Parth`; None unless it starts at `parth`."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not (isinstance(node, ast.Name) and node.id == "parth"):
        return None
    return ["parth", *reversed(parts)]


def _resolves(path: list[str]) -> bool:
    obj = importlib.import_module(path[0])
    for i, name in enumerate(path[1:], 1):
        if not hasattr(obj, name):
            try:
                importlib.import_module(".".join(path[: i + 1]))
            except ImportError:
                return False
        obj = getattr(obj, name)
    return True


@pytest.mark.parametrize("script", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_benchmark_names_resolve(script):
    # every parth name the benchmark imports or reads as an attribute exists
    missing = []
    for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "parth":
            paths = [[*node.module.split("."), alias.name] for alias in node.names]
        elif isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names if alias.name.split(".")[0] == "parth"]
        else:
            paths = [p] if (p := _dotted(node)) else []
        missing += [".".join(p) for p in paths if not _resolves(p)]
    assert not missing, f"{script.name} uses names parth does not have: {missing}"


def test_instrumented_installs_and_restores(spans):
    originals = [(m, a, getattr(m, a)) for m, a, _, _ in spans._MODULE_HOOKS]
    real_step, real_parth = parth.driver.Parth.step, parth.cli.Parth
    with spans.instrumented(spans.Tracer()):
        for module, attr, original in originals:
            assert getattr(module, attr).__wrapped__ is original, f"{module.__name__}.{attr}"
        assert parth.driver.Parth.step.__wrapped__ is real_step
        assert parth.cli.Parth is not real_parth
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
    assert parth.driver.Parth.step is real_step
    assert parth.cli.Parth is real_parth


def test_traced_step_records_counts(spans):
    # contacts across the 8x8 grid break a separator: every hooked layer runs
    pattern, _ = grid_laplacian(8, 8)
    changed = inject_contacts(pattern, 27, 3, 12, seed=1)
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        engine = spans.instrument_engines(tracer, Parth(ParthConfig(target_leaf=64 >> 2)))  # depth 2
        with tracer.op_scope(0):
            engine.start(pattern)
        with tracer.op_scope(1):
            engine.step(changed)
    by_op = tracer.self_ms_by_op()
    assert {"hgd.build", "separator.split", "ordering.order", "assembler.assemble"} <= set(by_op[0])
    # the no-map step's row-diff ingest still goes through the hooked name
    assert {"driver.step", "graph.ingest", "graph.edge_diff", "synchronizer.synchronize"} <= set(by_op[1])
    counts = tracer.counts
    assert counts["separator.calls"] > 0 and counts["ordering.calls"] > 0
    assert counts["graph.edges_added"] == 12
    assert counts["hgd.redecompose.calls"] > 0
    assert counts["hgd.region_nodes"] > 0


def test_traced_no_op_step_counts_every_node_reused(spans):
    # a step that re-orders nothing returns the previous permutations, still
    # through the hooked parth.driver.assemble, with every node counted reused
    pattern, _ = grid_laplacian(8, 8)
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        engine = spans.instrument_engines(tracer, Parth(ParthConfig(target_leaf=64 >> 2)))  # depth 2
        first = engine.start(pattern)
        with tracer.op_scope(0):
            _, state = engine.step(pattern)
    assert "assembler.assemble" in tracer.self_ms_by_op()[0]
    assert tracer.counts["assembler.reused_nodes"] == 64
    assert "ordering.calls" not in tracer.counts
    assert state.graph_perm is first.graph_perm


def test_engines_are_per_instance(spans):
    # instrument_engines patches split/order on the instance's engines;
    # engines shared between instances would stack wrappers
    traced, plain = Parth(), Parth()
    assert traced.separator_engine is not plain.separator_engine
    assert traced.ordering_engine is not plain.ordering_engine
    spans.instrument_engines(spans.Tracer(), traced)
    assert hasattr(traced.separator_engine.split, "__wrapped__")
    assert hasattr(traced.ordering_engine.order, "__wrapped__")
    assert not hasattr(plain.separator_engine.split, "__wrapped__")
    assert not hasattr(plain.ordering_engine.order, "__wrapped__")


def test_traced_cli_run_sees_the_oracle(spans, tmp_path, capsys):
    # `parth run --baseline full` measures fill_dev with two symbolic_analyze
    # calls for each row after the first (row 1's start is its own baseline)
    # whose ordering differs from its baseline's; both must go through the
    # hooked module attribute. On this sequence both later rows differ.
    steps = 2
    out = tmp_path / "seq"
    argv = ["gen", "--out", str(out), "--nx", "24", "--ny", "24", "--steps", str(steps), "--seed", "0"]
    assert parth_main(argv) == 0
    capsys.readouterr()
    tracer = spans.Tracer()
    out_csv = tmp_path / "out.csv"
    with spans.instrumented(tracer):
        with tracer.op_scope(0):
            rc = parth_main(["run", str(out / "manifest.txt"), "--target-leaf", "16", "--out-csv", str(out_csv)])
    assert rc == 0
    rows = list(csv.DictReader(out_csv.read_text(encoding="utf-8").splitlines()))
    assert [float(r["fill_dev"]) != 0.0 for r in rows] == [False] + [True] * steps
    assert tracer.counts["oracle.calls"] == 2 * steps
    assert tracer.self_ms_by_op()[0]["oracle.symbolic"] > 0
