"""Command-line driver: replay sequences, generate synthetic ones, audit a step.

Subcommands:
  run    replay a manifest and emit one metrics row per step (CSV)
  gen    generate a synthetic dynamic-sparsity sequence (manifest + files)
  check  build a decomposition for one matrix and audit every invariant
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .driver import Parth, ParthConfig
from .errors import InvalidArgument, ParthError
from .graph import block_count
from .metrics import CSV_HEADER, RESET_RECOMMENDED, degradation_monitor, step_metrics
from .oracle import symbolic_analyze
from .ordering import is_permutation
from .sequence_io import (
    SequenceStep,
    read_manifest,
    read_matrix_market,
    read_node_map,
    write_manifest,
    write_matrix_market,
    write_node_map,
)
from .synchronizer import DirtyState
from .synthetic import grid_laplacian, inject_contacts, patch_remesh, radius_for_fraction


def _now_us() -> int:
    return time.perf_counter_ns() // 1000


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=ParthConfig.dim, help="matrix rows per graph node")
    p.add_argument("--target-leaf", type=int, default=ParthConfig.target_leaf,
                   help="graph nodes per leaf; sets the tree depth")


def _config_from_args(args, theta: float | None = None) -> ParthConfig:
    """The engine flags as a config; a theta turns aggressive reuse on."""
    reuse = {} if theta is None else {"aggressive": True, "theta": theta}
    return ParthConfig(dim=args.dim, target_leaf=args.target_leaf, **reuse)


def cmd_run(args) -> int:
    config = _config_from_args(args, args.aggressive_reuse)
    steps = read_manifest(args.manifest)
    if not steps:
        raise InvalidArgument("manifest has no steps")

    parth = Parth(config)
    rows = []
    history: list[float] = []
    for num, stp in enumerate(steps, start=1):
        try:
            pattern, _ = read_matrix_market(stp.matrix_path)
            baseline_perm, t_baseline = None, 0
            if parth.tree is None:
                t0 = _now_us()
                state = parth.start(pattern)
                if args.baseline == "full":
                    # row 1 is a start of this config; the engines are
                    # deterministic, so a second start would repeat it bit for bit
                    baseline_perm, t_baseline = state.matrix_perm, _now_us() - t0
                dirty = DirtyState(
                    np.zeros(parth.tree.size, dtype=bool),
                    frozenset(),
                    frozenset(),
                    parth.graph.n_nodes,
                )
            else:
                node_map = None
                if stp.map_path is not None:
                    n_new = block_count(pattern.n_rows, config.dim)
                    node_map = read_node_map(stp.map_path, n_new, parth.graph.n_nodes)
                dirty, state = parth.step(pattern, node_map)
                if args.baseline == "full":
                    tb = _now_us()
                    baseline_perm = Parth(config).start(pattern).matrix_perm
                    t_baseline = _now_us() - tb

            m = step_metrics(
                state,
                dirty,
                pattern,
                baseline_perm,
                step=num,
                label=stp.label,
                t_sync_us=parth.last_sync_us,
                t_assemble_us=parth.last_assemble_us,
                t_baseline_us=t_baseline,
            )
            history.append(m.fill_dev)
            m.reset_recommended = degradation_monitor(history) == RESET_RECOMMENDED
            rows.append(m.csv_row())
        except (ParthError, OSError) as exc:
            print(f"step {num} ({stp.label or stp.matrix_path.name}): {exc}", file=sys.stderr)
            return 1

    out = "\n".join([CSV_HEADER] + rows) + "\n"
    if args.out_csv:
        Path(args.out_csv).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return 0


def cmd_check(args) -> int:
    parth = Parth(_config_from_args(args))
    pattern, _ = read_matrix_market(args.matrix)
    state = parth.start(pattern)

    tree, g = parth.tree, parth.graph
    failures = []
    try:
        bad = tree.separator_violations(g)  # validates the partition first
        if bad:
            failures.append(f"separator property violated at tree nodes {bad}")
    except ParthError as exc:
        failures.append(f"partition: {exc}")
    if not is_permutation(state.graph_perm, g.n_nodes):
        failures.append("graph permutation is not a bijection")
    if not is_permutation(state.matrix_perm, pattern.n_rows):
        failures.append("matrix permutation is not a bijection")

    natural = symbolic_analyze(pattern, np.arange(pattern.n_rows, dtype=np.int64)).nnz_l
    produced = symbolic_analyze(pattern, state.matrix_perm).nnz_l
    print(f"n={pattern.n_rows} nnz={pattern.nnz} max_level={tree.max_level}")
    print(f"nnz(L) natural ordering:  {natural}")
    print(f"nnz(L) produced ordering: {produced}")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("check: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


def cmd_gen(args) -> int:
    print(_generate(args))
    return 0


def _generate(args) -> Path:
    """Write the base grid and every step of a synthetic sequence; return the manifest.

    Every step is built before the first file is written, so an argument
    that fails on a later step leaves no partial sequence behind.
    """
    rng = np.random.default_rng(args.seed)
    pattern, values = grid_laplacian(args.nx, args.ny)
    built = [(pattern, values, None, "base")]
    for s in range(1, args.steps + 1):
        kind = args.kind
        if kind == "mixed":
            kind = "contacts" if s % 2 == 1 else "remesh"
        center = int(rng.integers(pattern.n_rows))
        radius = radius_for_fraction(pattern, center, args.patch_frac)
        seed_s = int(rng.integers(2**31))
        node_map = None
        if kind == "contacts":
            # a contact needs two nodes: on a small grid the fraction's radius is 0
            pattern = inject_contacts(pattern, center, max(radius, 1), args.contacts, seed_s)
        else:
            pattern, node_map = patch_remesh(pattern, center, radius, args.densify, seed_s)
        built.append((pattern, None, node_map, kind))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    for s, (pattern, values, node_map, kind) in enumerate(built):
        mpath = out_dir / f"step{s:03d}.mtx"
        write_matrix_market(mpath, pattern, values)
        npath = None
        if node_map is not None:
            npath = mpath.with_suffix(".map")
            write_node_map(npath, node_map)
        steps.append(SequenceStep(mpath, npath, kind))

    manifest = out_dir / "manifest.txt"
    write_manifest(manifest, steps)
    return manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parth",
        description="Incremental fill-reducing ordering over dynamic sparsity sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="replay a manifest, emit metrics CSV")
    p_run.add_argument("manifest")
    _add_engine_flags(p_run)
    p_run.add_argument(
        "--aggressive-reuse",
        nargs="?",
        const=ParthConfig.theta,
        default=None,
        type=float,
        metavar="THETA",
        help="defuse coarse regions above THETA*n (THETA in [0, 1]) by moving one endpoint into the separator",
    )
    p_run.add_argument("--baseline", choices=("full", "none"), default="full")
    p_run.add_argument("--out-csv", default=None)
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("gen", help="generate a synthetic sequence")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--kind", choices=("contacts", "remesh", "mixed"), default="mixed")
    p_gen.add_argument("--nx", type=int, default=64)
    p_gen.add_argument("--ny", type=int, default=64)
    p_gen.add_argument("--steps", type=int, default=4)
    p_gen.add_argument("--patch-frac", type=float, default=0.02)
    p_gen.add_argument("--contacts", type=int, default=16)
    p_gen.add_argument("--densify", type=float, default=1.0, help="remeshed ball growth, in (0, 16]")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)

    p_check = sub.add_parser("check", help="audit all invariants on one matrix")
    p_check.add_argument("matrix")
    _add_engine_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a failure outside a replayed step is one `error:` line and status 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
