"""Step-vs-start benchmark for parth: seeded dynamic-sparsity streams, one workload per run.

    python3 perfbench/run.py --workload quiet_256 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; parth is imported from `src/` next to this
directory, never from an installed copy. A run is a closed loop with one
caller: each step waits for the previous permutation, in one process,
single-threaded.

Stream workloads (contact_128, remesh_dim3_64, quiet_256, quiet_dim3_128):
  1. generate the initial pattern and the stream from the seed (never timed);
  2. every pass over the stream starts with a timed set-up, `Parth(config)`
     plus its first `start`, so set-ups are sampled across the whole run
     (setup_s is their median) and only one engine is alive at a time;
  3. pass 0 verifies: every step is audited (bijection, partition, separator
     property, work <= dirty coverage, bit-identical replay on the quiet
     workloads), the exact counts are taken through count hooks, and quality
     checkpoints run a fresh `start` plus two `symbolic_analyze` calls; none
     of it is timed;
  4. timed passes replay the stream until --seconds have passed, comparing
     every permutation with pass 0's.
     With --trace 1 every other timed pass is traced.

cli_replay_64 writes several `parth gen` sequences, then calls `parth run`
in-process on them in turn until --seconds have passed, checking its exit
code and CSV after each call. A timed set-up precedes every call, so that
setup_s samples the whole run.

Output: `fingerprint` and `report` lines (all ten end-to-end metrics, with units,
null where a metric does not apply), then, last, one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

# the ten end-to-end metrics of the report line, with units; the first four
# are BENCHMARK.json's end_to_end list, the rest are reported but not gated
UNITS = {
    "steps_per_s": "1/s",
    "setup_s": "s",
    "reuse_ratio_mean": "ratio",
    "peak_rss_mb": "MB",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "start_s": "s",
    "speedup": "x",
    "fill_dev_max": "ratio",
    "error_rate": "ratio",
}
END_TO_END = ("steps_per_s", "setup_s", "reuse_ratio_mean", "peak_rss_mb")


def _load_parth():
    src = ROOT / "src"
    if not (src / "parth" / "__init__.py").is_file():
        print(f"error: no parth sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


_load_parth()
os.environ.pop("PARTH_SEED", None)  # would override `parth gen --seed`

import numpy as np  # noqa: E402

import parth  # noqa: E402
from parth import Parth, is_permutation, symbolic_analyze  # noqa: E402
from parth.cli import main as parth_main  # noqa: E402
from parth.sequence_io import read_manifest, read_matrix_market  # noqa: E402

from spans import COUNT_METRICS, SPAN_METRICS, Tracer, instrument_engines, instrumented, layer_medians  # noqa: E402
from workloads import WORKLOADS, initial_pattern, stream  # noqa: E402


def digest(perm: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(perm, dtype="<i8").tobytes()).hexdigest()[:16]


def percentile(values, q: int) -> float:
    """q-th percentile by linear interpolation (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def edge_delta(g_old, g_new, node_map) -> tuple[int, int]:
    """Edges added and removed between consecutive graphs, counted independently of parth."""
    entries = node_map.entries if node_map is not None else np.arange(g_new.n_nodes)
    o2n = np.full(g_old.n_nodes, -1, dtype=np.int64)
    kept = np.flatnonzero(entries >= 0)
    o2n[entries[kept]] = kept
    ou, ov = g_old.edges()
    tu, tv = o2n[ou], o2n[ov]
    survive = (tu >= 0) & (tv >= 0)
    n = np.int64(max(g_new.n_nodes, 1))
    old = np.minimum(tu, tv)[survive] * n + np.maximum(tu, tv)[survive]
    nu, nv = g_new.edges()
    new = nu * n + nv
    return int(np.setdiff1d(new, old).size), int(np.setdiff1d(old, new).size)


class Run:
    """Outcome bookkeeping shared by both workload kinds."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set[str] = set()
        self.fingerprint: dict = {}
        self.report: dict = {}
        self.layers: dict = {}

    def check(self, ok: bool, op: str, what: str) -> bool:
        """Record a failed check against operation `op`; returns ok."""
        if not ok:
            self.failed_ops.add(op)
            print(f"FAIL {op}: {what}", file=sys.stderr)
        return ok

    def crashed(self, op: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.check(False, op, "raised")


def timed_setup(run: Run, config, pattern, setups: list[tuple[float, str]]) -> Parth:
    """One timed `Parth(config)` plus its first `start`; appends (seconds, perm digest) to setups."""
    op = f"setup {len(setups)}"
    run.attempted += 1
    t0 = time.perf_counter()
    engine = Parth(config)
    state = engine.start(pattern)
    setups.append((time.perf_counter() - t0, digest(state.matrix_perm)))
    run.check(is_permutation(state.matrix_perm, pattern.n_rows), op, "matrix_perm is not a bijection")
    run.check(setups[-1][1] == setups[0][1], op, "start is not deterministic")
    return engine


def median_setup_s(setups: list[tuple[float, str]]) -> float:
    return statistics.median(s for s, _ in setups)


def audit_step(run: Run, op: str, engine: Parth, pattern, dirty, state, full_audit: bool) -> None:
    """Satellite-1 invariants after one step; the separator scan only when full_audit."""
    g = engine.graph
    run.check(is_permutation(state.graph_perm, g.n_nodes), op, "graph_perm is not a bijection")
    run.check(is_permutation(state.matrix_perm, pattern.n_rows), op, "matrix_perm is not a bijection")
    try:
        engine.tree.validate_partition(g.n_nodes)
    except parth.ParthError as exc:
        run.check(False, op, f"partition broken: {exc}")
    if full_audit:
        bad = engine.tree.separator_violations(g)
        run.check(not bad, op, f"separator property violated at tree nodes {bad}")
    recomputed = g.n_nodes - state.reused_nodes
    run.check(recomputed <= dirty.dirty_node_total, op,
              f"recomputed {recomputed} nodes > dirty coverage {dirty.dirty_node_total}")


def verify_pass(run: Run, w, sizes, engine: Parth, steps, counter: Tracer) -> list[str] | None:
    """Pass 0 on a freshly set-up engine: audit every step, fill the fingerprint and the quality checkpoints.

    Nothing here is timed except the checkpoints' fresh starts (start_s).
    Returns the per-step permutation digests, or None when a step raised.
    """
    instrument_engines(counter, engine)
    fp = dict.fromkeys(("edges_added", "edges_removed", "nodes_added", "nodes_removed",
                        "fine", "coarse", "ordered_nodes", "reused_nodes"), 0)
    digests, reuse, starts, fill_devs, nnz_l = [], [], [], [], []
    prev_perm = engine.state.matrix_perm
    with instrumented(counter):
        for i, (pattern, node_map) in enumerate(steps):
            op = f"pass 0 step {i}"
            run.attempted += 1
            g_old = engine.graph
            try:
                with counter.op_scope(i):
                    dirty, state = engine.step(pattern, node_map)
            except Exception:  # a step that raises is a failed operation; nothing after it is valid
                run.crashed(op)
                return None
            full = (i + 1) % sizes.audit_stride == 0 or i + 1 == len(steps)
            audit_step(run, op, engine, pattern, dirty, state, full)
            if w.kind == "quiet":
                run.check(np.array_equal(state.matrix_perm, prev_perm), op,
                          "matrix_perm changed on an unchanged pattern")
            prev_perm = state.matrix_perm
            n = engine.graph.n_nodes
            kept = n if node_map is None else int((node_map.entries >= 0).sum())
            added, removed = edge_delta(g_old, engine.graph, node_map)
            for key, value in (("edges_added", added), ("edges_removed", removed),
                               ("nodes_added", n - kept), ("nodes_removed", g_old.n_nodes - kept),
                               ("fine", len(dirty.fine)), ("coarse", len(dirty.coarse)),
                               ("ordered_nodes", n - state.reused_nodes),
                               ("reused_nodes", state.reused_nodes)):
                fp[key] += value
            reuse.append(state.reused_nodes / n)
            digests.append(digest(state.matrix_perm))

            if sizes.checkpoint_stride and (i + 1) % sizes.checkpoint_stride == 0:
                op = f"checkpoint {i}"
                run.attempted += 1
                t0 = time.perf_counter()
                fresh = Parth(w.config).start(pattern)
                starts.append(time.perf_counter() - t0)
                run.check(is_permutation(fresh.matrix_perm, pattern.n_rows), op, "fresh start is not a bijection")
                inc = symbolic_analyze(pattern, state.matrix_perm).nnz_l
                ref = symbolic_analyze(pattern, fresh.matrix_perm).nnz_l
                nnz_l.append([inc, ref])
                fill_devs.append((inc - ref) / ref)

    c = counter.counts
    run.check(c["graph.edges_added"] == fp["edges_added"] and c["graph.edges_removed"] == fp["edges_removed"],
              "pass 0", "parth's edge diff disagrees with the independent edge count")
    fp["aggressive_accepted"] = c["synchronizer.aggressive.accepted"]
    fp["dismissed"] = c["synchronizer.dismissed"]
    fp["nnz_l_checkpoints"] = nnz_l
    fp["final_perm_digest"] = digests[-1]
    run.fingerprint = fp
    run.report.update({
        "reuse_ratio_mean": statistics.fmean(reuse),
        "start_s": statistics.median(starts) if starts else None,
        "fill_dev_max": max(fill_devs) if fill_devs else None,
    })
    return digests


def run_stream(w, sizes, seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    p0 = initial_pattern(w, sizes)
    steps = stream(w, sizes, seed)
    setups = []
    counter = Tracer()
    engine = timed_setup(run, w.config, p0, setups)
    digests = None if run.failed_ops else verify_pass(run, w, sizes, engine, steps, counter)
    engine = None
    if digests is None or run.failed_ops:
        return run

    plain, traced, tracers = [], [], []
    t_begin = time.perf_counter()
    pass_no = 1
    while not plain or (trace and not traced) or time.perf_counter() - t_begin < seconds:
        tracer = Tracer() if trace and pass_no % 2 == 0 else None
        engine = timed_setup(run, w.config, p0, setups)
        if run.failed_ops:
            return run
        samples = plain
        if tracer:
            instrument_engines(tracer, engine)
            samples = traced
        with instrumented(tracer) if tracer else nullcontext():
            for i, (pattern, node_map) in enumerate(steps):
                op = f"pass {pass_no} step {i}"
                run.attempted += 1
                try:
                    with tracer.op_scope(i) if tracer else nullcontext():
                        t0 = time.perf_counter_ns()
                        _, state = engine.step(pattern, node_map)
                        t1 = time.perf_counter_ns()
                except Exception:
                    run.crashed(op)
                    return run
                samples.append((t1 - t0) / 1e6)
                run.check(digest(state.matrix_perm) == digests[i], op, "permutation differs from pass 0")
        engine = None
        if tracer:
            tracers.append(tracer)
            run.check(tracer.counts == counter.counts, f"pass {pass_no}", "traced counts differ from pass 0")
        pass_no += 1

    p50, p90 = statistics.median(plain), percentile(plain, 90)
    start_s = run.report["start_s"]
    run.report.update({
        "setup_s": median_setup_s(setups),
        "step_ms_p50": p50,
        "step_ms_p90": p90,
        "steps_per_s": len(plain) / (sum(plain) / 1000),
        "speedup": start_s * 1000 / p50 if start_s else None,
        "setup_samples": len(setups),
        "step_samples": len(plain),
        "p90_tail_samples": sum(1 for s in plain if s > p90),
    })
    if trace:
        run.layers = layer_medians(tracers, len(steps))
        run.layers.update(counter.counts)
        run.layers["trace.overhead.ms"] = statistics.median(traced) - p50
        write_spans(w.name, seed, tracers)
    return run


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def manifest_fingerprint(manifests: list[Path], dim: int) -> tuple[dict, object]:
    """Input-side counts of the manifests, computed independently of `parth run`; also the first pattern."""
    fp = dict.fromkeys(("edges_added", "edges_removed", "nodes_added", "nodes_removed"), 0)
    first = None
    for manifest in manifests:
        g_old = None
        for stp in read_manifest(manifest):
            pattern, _ = read_matrix_market(stp.matrix_path)
            g = parth.build_dual(pattern) if dim == 1 else parth.compress_by_dim(pattern, dim)
            if g_old is None:
                first = first or pattern
            else:
                node_map = parth.read_node_map(stp.map_path, g.n_nodes, g_old.n_nodes) if stp.map_path else None
                kept = g.n_nodes if node_map is None else int((node_map.entries >= 0).sum())
                added, removed = edge_delta(g_old, g, node_map)
                fp["edges_added"] += added
                fp["edges_removed"] += removed
                fp["nodes_added"] += g.n_nodes - kept
                fp["nodes_removed"] += g_old.n_nodes - kept
            g_old = g
    return fp, first


CSV_TIMING_COLUMNS = ("t_sync_us", "t_assemble_us", "t_baseline_us")


def run_cli(w, sizes, seed: int, seconds: float, trace: bool) -> Run:
    """`parth run` over `sizes.manifests` independent mixed sequences, round-robin.

    Calls continue until --seconds have passed and every manifest ran once
    (with --trace 1: once untraced, then once traced). A manifest that runs
    again must reproduce its first CSV, timing columns aside.
    """
    run = Run()
    work = OUT_DIR / f"{w.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    sub_seeds = np.random.default_rng(seed).integers(2**31, size=sizes.manifests)
    n_rows = sizes.steps + 1
    try:
        manifests = []
        for m, sub in enumerate(sub_seeds):
            out = work / f"seq{m}"
            with redirect_stdout(io.StringIO()):  # `parth gen` prints the manifest path
                rc = parth_main(["gen", "--out", str(out), "--nx", str(sizes.grid), "--ny", str(sizes.grid),
                                 "--steps", str(sizes.steps), "--kind", "mixed", "--seed", str(sub)])
            if not run.check(rc == 0, "gen", f"parth gen exited {rc}"):
                return run
            manifests.append(out / "manifest.txt")
        fp, first = manifest_fingerprint(manifests, w.config.dim)
        out_csv = work / "out.csv"

        # plain / traced: wall seconds per `parth run` call
        setups, plain, traced, tracers, reference = [], [], [], [], {}
        t_begin = time.perf_counter()
        call = 0
        per_manifest = 2 if trace else 1  # traced: an untraced then a traced call of each manifest
        while call < per_manifest * len(manifests) or time.perf_counter() - t_begin < seconds:
            m = (call // per_manifest) % len(manifests)
            op = f"parth run {call} (manifest {m})"
            tracer = Tracer() if trace and call % 2 == 1 else None
            argv = ["run", str(manifests[m]), "--aggressive-reuse", str(w.config.theta), "--out-csv", str(out_csv)]
            timed_setup(run, w.config, first, setups)
            out_csv.unlink(missing_ok=True)
            run.attempted += 1
            call += 1
            try:
                with instrumented(tracer) if tracer else nullcontext():
                    with tracer.op_scope(0) if tracer else nullcontext():
                        t0 = time.perf_counter_ns()
                        rc = parth_main(argv)
                        t1 = time.perf_counter_ns()
            except Exception:
                run.crashed(op)
                return run
            if not run.check(rc == 0 and out_csv.is_file(), op, f"exit code {rc}"):
                return run
            rows = read_csv(out_csv)
            if not run.check(len(rows) == n_rows, op, f"{len(rows)} CSV rows, expected {n_rows}"):
                return run
            for row in rows:
                for col in CSV_TIMING_COLUMNS:
                    del row[col]
            run.check(reference.setdefault(m, rows) == rows, op, "CSV differs from this manifest's first run")
            (traced if tracer else plain).append((t1 - t0) / 1e9)
            if tracer:
                tracers.append((m, tracer))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    steps = [row for m in sorted(reference) for row in reference[m][1:]]
    fp["ordered_nodes"] = sum(int(r["recomp_nodes"]) for r in steps)
    fp["reused_nodes"] = sum(int(r["n"]) - int(r["recomp_nodes"]) for r in steps)
    fp["recomputed_tree_nodes"] = sum(int(r["recomp_tree"]) for r in steps)
    fp["csv_digest"] = hashlib.sha256(json.dumps([reference[m] for m in sorted(reference)]).encode()).hexdigest()[:16]
    run.fingerprint = fp
    devs = [float(r["fill_dev"]) for r in steps if r["fill_dev"]]
    run.report.update({
        "setup_s": median_setup_s(setups),
        "steps_per_s": n_rows * len(plain) / sum(plain),
        "setup_samples": len(setups),
        "reuse_ratio_mean": statistics.fmean(float(r["reuse_ratio"]) for r in steps),
        "fill_dev_max": max(devs) if devs else None,
        "step_samples": len(plain) * n_rows,
    })
    if trace:
        # counts are totals over one traced call of the first traced manifest
        first_m = tracers[0][0]
        same = [tr for m, tr in tracers if m == first_m]
        run.check(all(tr.counts == same[0].counts for tr in same), "trace", "traced counts differ between calls")
        run.layers = layer_medians([tr for _, tr in tracers], 1, n_rows)
        run.layers.update(same[0].counts)
        # no per-step times exist here: the overhead is per manifest row, from the call totals
        run.layers["trace.overhead.ms"] = 1000 * (sum(traced) / len(traced) - sum(plain) / len(plain)) / n_rows
        write_spans(w.name, seed, [tr for _, tr in tracers])
    return run


def write_spans(name: str, seed: int, tracers) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    path.unlink(missing_ok=True)
    for k, tr in enumerate(tracers):
        tr.write_jsonl(str(path), k)


def per_layer_metrics(layers: dict) -> dict:
    out = {}
    for name in list(SPAN_METRICS.values()) + ["trace.overhead.ms"]:
        out[name] = {"value": float(layers[name]), "unit": "ms"}
    for name in COUNT_METRICS:
        out[name] = {"value": int(layers.get(name, 0)), "unit": "count"}
    attempted = layers.get("synchronizer.aggressive.attempted", 0)
    accepted = layers.get("synchronizer.aggressive.accepted", 0)
    out["synchronizer.aggressive.accept_ratio"] = {"value": accepted / attempted if attempted else 0.0,
                                                   "unit": "ratio"}
    return out


def emit(run: Run, trace: bool) -> int:
    failed = len(run.failed_ops)
    attempted = max(run.attempted, 1)
    report = dict(run.report)
    report["error_rate"] = failed / attempted
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = failed == 0 and all(report.get(m) is not None for m in END_TO_END)
    if trace:
        correct = correct and bool(run.layers)
    print("fingerprint " + json.dumps(run.fingerprint, sort_keys=True))
    shown = {m: {"value": report.get(m), "unit": u} for m, u in UNITS.items()}
    extra = {k: report[k] for k in ("setup_samples", "step_samples", "p90_tail_samples") if k in report}
    print("report " + json.dumps({**shown, **extra}))
    if correct and trace:
        metrics = per_layer_metrics(run.layers)
    elif correct:
        metrics = {m: {"value": report[m], "unit": UNITS[m]} for m in END_TO_END}
    else:
        metrics = {}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    w = WORKLOADS[args.workload]
    sizes = w.tiny if args.tiny else w.full
    runner = run_cli if w.kind == "cli" else run_stream
    try:
        run = runner(w, sizes, args.seed, args.seconds, bool(args.trace))
    except Exception:  # anything unexpected is a failed run, never a silent pass
        run = Run()
        run.attempted = 1
        run.crashed("benchmark")
    return emit(run, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
