"""Deterministic generators of dynamic-sparsity sequences.

Two change regimes are covered at desk scale: contact-style edge injection
confined to a hop-ball, and patch remeshing that removes the ball's nodes
and rewires a densified replacement, emitting the node map for the
dimension change.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BallTooSmall, IndexOutOfBounds, InvalidArgument
from .graph import NodeMap, SparsityPattern, _unique, bfs_distances, build_dual, sum_duplicates

# a remeshed ball grows at most this many times; far beyond any refinement
# a remesher produces, and it keeps a mistyped factor from allocating gigabytes
MAX_DENSIFY = 16.0


def grid_laplacian(nx: int, ny: int) -> tuple[SparsityPattern, np.ndarray]:
    """5-point Laplacian on an nx-by-ny grid, shifted by 1e-3 to make it SPD."""
    if nx < 2 or ny < 2:
        raise InvalidArgument("grid_laplacian requires nx, ny >= 2")
    n = nx * ny
    idx = np.arange(n, dtype=np.int64).reshape(ny, nx)
    right = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    down = np.column_stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    eu = np.concatenate([right[:, 0], down[:, 0]])
    ev = np.concatenate([right[:, 1], down[:, 1]])
    deg = np.bincount(np.concatenate([eu, ev]), minlength=n).astype(np.float64)
    rows = np.concatenate([eu, ev, np.arange(n, dtype=np.int64)])
    cols = np.concatenate([ev, eu, np.arange(n, dtype=np.int64)])
    vals = np.concatenate([-np.ones(eu.size), -np.ones(eu.size), deg + 1e-3])
    return sum_duplicates(n, rows, cols, vals)


def _hop_distances(pattern: SparsityPattern, center: int) -> np.ndarray:
    """Hop distances from center in the pattern's graph; IndexOutOfBounds unless center is a row."""
    if not 0 <= center < pattern.n_rows:
        raise IndexOutOfBounds(f"center {center} outside [0, {pattern.n_rows})")
    return bfs_distances(build_dual(pattern), center)


def hop_ball(pattern: SparsityPattern, center: int, radius: int) -> np.ndarray:
    """Nodes within `radius` hops of center in the pattern's graph."""
    dist = _hop_distances(pattern, center)
    return np.flatnonzero((dist >= 0) & (dist <= radius))


def radius_for_fraction(pattern: SparsityPattern, center: int, fraction: float) -> int:
    """Largest hop radius whose ball stays within `fraction` of all nodes.

    When the whole reachable part fits, that is the centre's eccentricity.
    """
    if not (math.isfinite(fraction) and 0.0 < fraction <= 1.0):
        raise InvalidArgument(f"fraction must be a finite number in (0, 1], got {fraction}")
    target = max(1, int(fraction * pattern.n_rows))
    dist = _hop_distances(pattern, center)
    # ball[r] = nodes within r hops; past the eccentricity the ball stops growing
    ball = np.cumsum(np.bincount(dist[dist >= 0]))
    over = np.flatnonzero(ball[1:] > target)
    return int(over[0]) if over.size else ball.size - 1


def inject_contacts(
    pattern: SparsityPattern, center: int, radius: int, k: int, seed: int = 0
) -> SparsityPattern:
    """Add k random symmetric nonzeros between node pairs inside a hop-ball."""
    if k < 0:
        raise InvalidArgument("the number of contacts must be >= 0")
    if k == 0:
        return pattern
    ball = hop_ball(pattern, center, radius)
    if ball.size < 2:
        raise BallTooSmall(f"ball around {center} has {ball.size} node(s); need at least 2")
    ai, bi = np.triu_indices(ball.size, k=1)
    cu, cv = ball[ai], ball[bi]
    existing = pattern.entry_keys()
    keys = cu * np.int64(pattern.n_rows) + cv
    fresh = ~np.isin(keys, existing)
    cu, cv = cu[fresh], cv[fresh]
    if cu.size == 0:
        return pattern
    rng = np.random.default_rng(seed)
    pick = rng.choice(cu.size, size=min(k, cu.size), replace=False)
    rows, cols = pattern.to_coo()
    new_rows = np.concatenate([rows, cu[pick], cv[pick]])
    new_cols = np.concatenate([cols, cv[pick], cu[pick]])
    return SparsityPattern.from_coo(pattern.n_rows, new_rows, new_cols)


def patch_remesh(
    pattern: SparsityPattern, center: int, radius: int, densify: float = 1.0, seed: int = 0
) -> tuple[SparsityPattern, NodeMap]:
    """Replace a hop-ball with freshly wired nodes; returns the node map.

    Ball nodes are removed; ceil(densify * ball) new nodes are appended after
    the (order-preserving) survivors, chained together for connectivity and
    attached to random boundary nodes. The map is checked when it is built,
    like any other, and its inverse relabels the surviving entries.
    """
    if not (math.isfinite(densify) and 0.0 < densify <= MAX_DENSIFY):
        raise InvalidArgument(f"densify must be a finite number in (0, {MAX_DENSIFY}], got {densify}")
    n = pattern.n_rows
    ball = hop_ball(pattern, center, radius)
    if ball.size == 0:
        raise BallTooSmall("empty ball")
    g = build_dual(pattern)
    in_ball = np.zeros(n, dtype=bool)
    in_ball[ball] = True
    survivors = np.flatnonzero(~in_ball)
    boundary_old = _unique(
        np.concatenate([g.neighbors(int(b)) for b in ball] or [np.empty(0, np.int64)])
    )
    boundary_old = boundary_old[~in_ball[boundary_old]]
    if boundary_old.size == 0:
        raise BallTooSmall("ball has no boundary to reattach new nodes to")

    n_added = int(math.ceil(densify * ball.size))
    node_map = NodeMap(np.concatenate([survivors, np.full(n_added, -1, dtype=np.int64)]), n)
    new_of_old, n_new = node_map.o2n, node_map.n_new
    fresh = survivors.size + np.arange(n_added, dtype=np.int64)
    boundary = new_of_old[boundary_old]

    rows, cols = pattern.to_coo()
    keep = ~in_ball[rows] & ~in_ball[cols]
    eu = [new_of_old[rows[keep]]]
    ev = [new_of_old[cols[keep]]]

    rng = np.random.default_rng(seed)
    if n_added > 1:
        eu.append(fresh[:-1])
        ev.append(fresh[1:])
    for u in fresh:
        att = rng.choice(boundary, size=min(2, boundary.size), replace=False)
        eu.append(np.full(att.size, u, dtype=np.int64))
        ev.append(att)
    eu.append(fresh)  # fresh nodes carry a diagonal entry
    ev.append(fresh)

    u = np.concatenate(eu)
    v = np.concatenate(ev)
    all_rows = np.concatenate([u, v])
    all_cols = np.concatenate([v, u])
    return SparsityPattern.from_coo(n_new, all_rows, all_cols), node_map
