"""Deterministic generators of dynamic-sparsity sequences.

Two change regimes are covered at desk scale: contact-style edge injection
confined to a hop-ball, and patch remeshing that removes the ball's nodes
and rewires a densified replacement, emitting the node map for the
dimension change.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BallTooSmall
from .graph import (
    MAX_ROWS, NodeMap, SparsityPattern, _checked_int, _checked_real, _is_member, _row_entries, bfs_distances, build_dual, sum_duplicates
)

# a remeshed ball grows at most this many times; far beyond any refinement
# a remesher produces, and it keeps a mistyped factor from allocating gigabytes
MAX_DENSIFY = 16.0


def grid_laplacian(nx: int, ny: int) -> tuple[SparsityPattern, np.ndarray]:
    """5-point Laplacian on an nx-by-ny grid, shifted by 1e-3 to make it SPD."""
    nx, ny = _checked_int(nx, "nx", 2), _checked_int(ny, "ny", 2)
    n = _checked_int(nx * ny, "nx * ny", most=MAX_ROWS)  # before anything of size n is allocated
    idx = np.arange(n, dtype=np.int64).reshape(ny, nx)
    eu = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    ev = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    diag = np.arange(n, dtype=np.int64)
    rows, cols = np.concatenate([eu, ev, diag]), np.concatenate([ev, eu, diag])
    deg = np.bincount(rows[: 2 * eu.size], minlength=n)
    vals = np.concatenate([np.full(2 * eu.size, -1.0), deg + 1e-3])
    return sum_duplicates(n, rows, cols, vals)


def _hop_distances(pattern: SparsityPattern, center: int) -> np.ndarray:
    """Hop distances from center in the pattern's graph; IndexOutOfBounds unless center is a row."""
    center = _checked_int(center, "center", 0, below=pattern.n_rows)
    return bfs_distances(build_dual(pattern), center)


def hop_ball(pattern: SparsityPattern, center: int, radius: int) -> np.ndarray:
    """Nodes within `radius` hops of center in the pattern's graph."""
    return _ball(_hop_distances(pattern, center), radius)


def _ball(dist: np.ndarray, radius: int) -> np.ndarray:
    radius = _checked_int(radius, "radius")
    return np.flatnonzero((dist >= 0) & (dist <= radius))


def radius_for_fraction(pattern: SparsityPattern, center: int, fraction: float) -> int:
    """Largest hop radius whose ball stays within `fraction` of all nodes.

    When the whole reachable part fits, that is the centre's eccentricity.
    """
    fraction = _checked_real(fraction, "fraction", 0, 1, open_lo=True)
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
    k, seed = _checked_int(k, "k", 0), _checked_int(seed, "seed", 0)
    ball = hop_ball(pattern, center, radius)
    if k == 0:
        return pattern
    if ball.size < 2:
        raise BallTooSmall(f"ball around {center} has {ball.size} node(s); need at least 2")
    ai, bi = np.triu_indices(ball.size, k=1)
    cu, cv = ball[ai], ball[bi]
    # both ends of a candidate are in the ball, so only the ball's rows can hold it
    n = np.int64(pattern.n_rows)
    rows, cols = _row_entries(pattern.row_starts, pattern.col_indices, ball)
    fresh = ~_is_member(rows * n + cols, cu * n + cv)
    cu, cv = cu[fresh], cv[fresh]
    if cu.size == 0:
        return pattern
    rng = np.random.default_rng(seed)
    pick = rng.choice(cu.size, size=min(k, cu.size), replace=False)
    cu, cv = cu[pick], cv[pick]
    rows, cols = pattern.to_coo()
    return sum_duplicates(pattern.n_rows, np.concatenate([rows, cu, cv]), np.concatenate([cols, cv, cu]))[0]


def patch_remesh(
    pattern: SparsityPattern, center: int, radius: int, densify: float = 1.0, seed: int = 0
) -> tuple[SparsityPattern, NodeMap]:
    """Replace a hop-ball with freshly wired nodes; returns the node map.

    Ball nodes are removed; ceil(densify * ball) new nodes are appended after
    the (order-preserving) survivors, chained together for connectivity and
    attached to random boundary nodes. The map is checked when it is built,
    like any other, and its inverse relabels the surviving entries.
    """
    densify = _checked_real(densify, "densify", 0, MAX_DENSIFY, open_lo=True)
    seed = _checked_int(seed, "seed", 0)
    n = pattern.n_rows
    dist = _hop_distances(pattern, center)
    ball = _ball(dist, radius)
    if ball.size == 0:
        raise BallTooSmall("empty ball")
    in_ball = np.zeros(n, dtype=bool)
    in_ball[ball] = True
    survivors = np.flatnonzero(~in_ball)
    # the ball's neighbours outside it are exactly the nodes one hop further out
    boundary_old = np.flatnonzero((dist > radius) & (dist <= radius + 1))
    if boundary_old.size == 0:
        raise BallTooSmall("ball has no boundary to reattach new nodes to")

    n_added = int(math.ceil(densify * ball.size))
    node_map = NodeMap(np.concatenate([survivors, np.full(n_added, -1, dtype=np.int64)]), n)
    new_of_old, n_new = node_map.o2n, node_map.n_new
    fresh = survivors.size + np.arange(n_added, dtype=np.int64)
    boundary = new_of_old[boundary_old]

    rng = np.random.default_rng(seed)
    eu, ev = [], []  # the new edges, each once
    if n_added > 1:
        eu.append(fresh[:-1])
        ev.append(fresh[1:])
    for u in fresh:
        att = rng.choice(boundary, size=min(2, boundary.size), replace=False)
        eu.append(np.full(att.size, u, dtype=np.int64))
        ev.append(att)

    # the surviving entries are symmetric already, and fresh nodes carry a diagonal entry
    rows, cols = pattern.to_coo()
    keep = ~in_ball[rows] & ~in_ball[cols]
    rows = np.concatenate([new_of_old[rows[keep]], fresh] + eu + ev)
    cols = np.concatenate([new_of_old[cols[keep]], fresh] + ev + eu)
    return sum_duplicates(n_new, rows, cols)[0], node_map
