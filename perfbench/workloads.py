"""Seeded input streams for the benchmark's workloads.

Every input is derived from (workload, seed) alone, before any timing starts,
so the same seed always replays the same patterns and node maps. The program
under test only ever sees the generated `SparsityPattern`s and `NodeMap`s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from parth import ParthConfig, SparsityPattern, grid_laplacian, inject_contacts, patch_remesh
from parth.synthetic import radius_for_fraction


@dataclass(frozen=True)
class Sizes:
    """Size knobs of one workload; `tiny` variants exist only for the smoke test."""

    grid: int
    steps: int  # steps per pass over the stream; for the CLI, `parth gen --steps`
    checkpoint_stride: int = 0  # quality checkpoint every this many steps (0: none)
    audit_stride: int = 1  # full separator audit every this many steps of pass 0
    manifests: int = 0  # CLI only: independent sequences, each replayed by `parth run`


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "contacts" | "remesh" | "quiet" | "cli"
    why: str
    config: ParthConfig
    full: Sizes
    tiny: Sizes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "contact_128",
            "contacts",
            "the paper's headline case: accumulating 16-contact steps on a 16k grid with aggressive reuse, spread over every step layer",
            ParthConfig(aggressive=True, theta=0.4),
            Sizes(grid=128, steps=20, checkpoint_stride=10),
            Sizes(grid=40, steps=6, checkpoint_stride=3),
        ),
        Workload(
            "remesh_dim3_64",
            "remesh",
            "size-changing remesh steps with node maps and 3x3 blocks (dim=3): node sync, dim ingest, separator and ordering work dominate",
            ParthConfig(dim=3),
            Sizes(grid=64, steps=20, checkpoint_stride=10),
            Sizes(grid=24, steps=6, checkpoint_stride=3),
        ),
        Workload(
            "quiet_256",
            "quiet",
            "unchanged 65k pattern every step: the O(n) floor every step pays, and the bypass case for separator and ordering work",
            ParthConfig(),
            Sizes(grid=256, steps=20, audit_stride=5),
            Sizes(grid=32, steps=4, audit_stride=2),
        ),
        Workload(
            "quiet_dim3_128",
            "quiet",
            "unchanged 128x128 pattern of 3x3 blocks (dim=3, 49k rows) every step: the floor of compress_by_dim ingest and dim expansion",
            ParthConfig(dim=3),
            Sizes(grid=128, steps=10, audit_stride=5),
            Sizes(grid=16, steps=4, audit_stride=2),
        ),
        Workload(
            "cli_replay_64",
            "cli",
            "in-process `parth run` over mixed 64x64 manifests: the only workload that times sequence_io, the full baseline and the oracle",
            ParthConfig(aggressive=True, theta=0.4),
            Sizes(grid=64, steps=3, manifests=16),
            Sizes(grid=24, steps=2, manifests=2),
        ),
    )
}


def expand_blocks(pattern: SparsityPattern, dim: int) -> SparsityPattern:
    """Replace every entry by a dense dim-by-dim block (rows b*dim .. b*dim+dim-1)."""
    rows, cols = pattern.to_coo()
    offs = np.arange(dim, dtype=np.int64)
    big_rows = (rows[:, None, None] * dim + offs[None, :, None]).repeat(dim, axis=2)
    big_cols = (cols[:, None, None] * dim + offs[None, None, :]).repeat(dim, axis=1)
    return SparsityPattern.from_coo(pattern.n_rows * dim, big_rows.ravel(), big_cols.ravel())


def initial_pattern(w: Workload, sizes: Sizes) -> SparsityPattern:
    pattern, _ = grid_laplacian(sizes.grid, sizes.grid)
    return expand_blocks(pattern, w.config.dim) if w.config.dim > 1 else pattern


def stream(w: Workload, sizes: Sizes, seed: int) -> list[tuple[SparsityPattern, object]]:
    """The workload's step inputs: a list of (pattern, node map or None)."""
    if w.kind == "quiet":
        return [(initial_pattern(w, sizes), None)] * sizes.steps
    rng = np.random.default_rng([seed, sizes.grid])
    base, _ = grid_laplacian(sizes.grid, sizes.grid)
    out = []
    for _ in range(sizes.steps):
        if w.kind == "contacts":
            center = int(rng.integers(base.n_rows))
            base = inject_contacts(base, center, 5, 16, int(rng.integers(2**31)))
            out.append((base, None))
        elif w.kind == "remesh":
            center = int(rng.integers(base.n_rows))
            radius = radius_for_fraction(base, center, 0.01)
            base, node_map = patch_remesh(base, center, radius, 1.0, int(rng.integers(2**31)))
            out.append((expand_blocks(base, w.config.dim), node_map))
        else:
            raise ValueError(f"{w.name} has no step stream")
    return out
