import numpy as np
import pytest

from parth import (
    BallTooSmall,
    IndexOutOfBounds,
    InvalidArgument,
    build_dual,
    grid_laplacian,
    hop_ball,
    inject_contacts,
    patch_remesh,
    radius_for_fraction,
)
from parth.graph import bfs_distances, is_structurally_symmetric
from conftest import n_edges, pattern_from_edges


class TestGridLaplacian:
    def test_two_by_two(self):
        p, v = grid_laplacian(2, 2)
        assert p.n_rows == 4
        assert n_edges(build_dual(p)) == 4

    def test_three_by_three(self):
        p, _ = grid_laplacian(3, 3)
        assert p.n_rows == 9
        assert n_edges(build_dual(p)) == 12  # 2*nx*ny - nx - ny

    def test_large(self):
        p, _ = grid_laplacian(64, 64)
        assert p.n_rows == 4096

    def test_values_spd(self):
        p, v = grid_laplacian(4, 4)
        dense = np.zeros((16, 16))
        r, c = p.to_coo()
        dense[r, c] = v
        assert np.all(np.linalg.eigvalsh(dense) > 0)


class TestInjectContacts:
    def test_zero_additions(self):
        p, _ = grid_laplacian(4, 4)
        assert inject_contacts(p, 5, 2, 0, seed=1) is p

    def test_minimal_ball(self):
        # 1x-hop ball of a corner on a 2x2 grid has 3 nodes; force the single
        # missing pair (the diagonal of the square) to be added
        p, _ = grid_laplacian(2, 2)
        out = inject_contacts(p, 0, 1, 1, seed=0)
        g = build_dual(out)
        assert n_edges(g) == 5

    def test_ball_too_small(self):
        p, _ = grid_laplacian(2, 2)
        with pytest.raises(BallTooSmall):
            inject_contacts(p, 0, 0, 1, seed=0)

    def test_ball_already_full_is_unchanged(self):
        # every pair of the ball is already an entry: there is nothing to add
        p = pattern_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert inject_contacts(p, 0, 1, 2, seed=0) is p

    def test_locality_bfs_oracle(self):
        p, _ = grid_laplacian(64, 64)
        center, radius = 2080, 5
        out = inject_contacts(p, center, radius, 20, seed=9)
        dist = bfs_distances(build_dual(p), center)
        old = set(map(tuple, np.column_stack(build_dual(p).edges()).tolist()))
        new = set(map(tuple, np.column_stack(build_dual(out).edges()).tolist()))
        for u, v in new - old:
            assert dist[u] <= radius and dist[v] <= radius

    def test_determinism_and_symmetry(self):
        p, _ = grid_laplacian(16, 16)
        a = inject_contacts(p, 40, 3, 8, seed=4)
        b = inject_contacts(p, 40, 3, 8, seed=4)
        assert np.array_equal(a.col_indices, b.col_indices)
        assert is_structurally_symmetric(a)


class TestPatchRemesh:
    def test_single_node_swap(self):
        p, _ = grid_laplacian(3, 3)
        out, node_map = patch_remesh(p, 4, 0, densify=1.0, seed=0)
        assert out.n_rows == 9
        assert int(np.count_nonzero(node_map.entries == -1)) == 1
        assert node_map.n_old == 9  # checked against the old size when built

    def test_map_valid_by_construction(self):
        rng = np.random.default_rng(5)
        p, _ = grid_laplacian(12, 12)
        for _ in range(10):
            center = int(rng.integers(p.n_rows))
            out, node_map = patch_remesh(p, center, 2, densify=1.5, seed=int(rng.integers(1 << 30)))
            assert node_map.n_old == p.n_rows
            assert node_map.n_new == out.n_rows
            assert is_structurally_symmetric(out)

    def test_two_percent_ball(self):
        p, _ = grid_laplacian(64, 64)
        ball = hop_ball(p, 2080, 5)
        assert ball.size <= 0.02 * p.n_rows
        out, node_map = patch_remesh(p, 2080, 5, densify=1.0, seed=3)
        changed = int(np.count_nonzero(node_map.entries == -1))
        assert changed == ball.size  # densify=1 swaps the ball one for one
        assert abs(changed / p.n_rows - 0.015) < 0.01

    def test_new_region_connected_to_boundary(self):
        p, _ = grid_laplacian(8, 8)
        out, node_map = patch_remesh(p, 27, 1, densify=2.0, seed=7)
        g = build_dual(out)
        fresh = np.flatnonzero(node_map.entries == -1)
        for u in fresh:
            assert g.neighbors(int(u)).size > 0

    @pytest.mark.parametrize("densify", [float("nan"), float("inf"), 1e9, 16.0 + 1e-9, 0.0, -1.0])
    def test_densify_out_of_range_rejected(self, densify):
        # refused before anything is allocated: 1e9 would ask for 5e9 new nodes here
        p, _ = grid_laplacian(8, 8)
        with pytest.raises(InvalidArgument):
            patch_remesh(p, 27, 1, densify=densify, seed=0)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda p: hop_ball(p, 16, 1), IndexOutOfBounds, r"center 16 outside \[0, 16\)"),
            (lambda p: hop_ball(p, -1, 1), IndexOutOfBounds, "center -1 outside"),
            (lambda p: radius_for_fraction(p, 16, 0.1), IndexOutOfBounds, r"center 16 outside \[0, 16\)"),
            (lambda p: radius_for_fraction(p, -1, 0.1), IndexOutOfBounds, "center -1 outside"),
            (lambda p: patch_remesh(p, 5, -1), BallTooSmall, "empty ball"),
            (lambda p: patch_remesh(p, 5, 6), BallTooSmall, "no boundary"),  # the ball is the grid
        ],
        ids=[
            "hop_ball_center_high",
            "hop_ball_center_negative",
            "radius_for_fraction_center_high",
            "radius_for_fraction_center_negative",
            "negative_radius",
            "no_boundary",
        ],
    )
    def test_ball_without_room_rejected(self, call, error, message):
        p, _ = grid_laplacian(4, 4)
        with pytest.raises(error, match=message):
            call(p)

    def test_densify_upper_bound_inclusive(self):
        p, _ = grid_laplacian(8, 8)
        out, node_map = patch_remesh(p, 27, 1, densify=16.0, seed=0)
        assert out.n_rows == 64 - 5 + 16 * 5

    def test_determinism(self):
        p, _ = grid_laplacian(10, 10)
        a, ma = patch_remesh(p, 44, 2, densify=1.0, seed=11)
        b, mb = patch_remesh(p, 44, 2, densify=1.0, seed=11)
        assert np.array_equal(a.col_indices, b.col_indices)
        assert np.array_equal(ma.entries, mb.entries)


class TestRadiusForFraction:
    def test_fraction_one_covers_the_graph(self):
        # the upper bound of (0, 1] is accepted; out-of-range values are
        # refused in tests/test_cli.py's bad-argument cases
        p, _ = grid_laplacian(4, 4)
        assert hop_ball(p, 0, radius_for_fraction(p, 0, 1.0)).size == p.n_rows

    def test_whole_graph_gives_the_eccentricity(self):
        p, _ = grid_laplacian(32, 32)
        assert radius_for_fraction(p, 0, 1.0) == 62  # corner to opposite corner

    @pytest.mark.parametrize("fraction", [0.001, 0.02, 0.1, 0.3, 0.5, 0.99, 1.0])
    def test_matches_growing_the_ball(self, fraction):
        # the radius grown one hop at a time, stopped at the eccentricity
        # once the ball holds every reachable node
        p, _ = grid_laplacian(24, 24)
        target = max(1, int(fraction * p.n_rows))
        for center in (0, 23, 287, 300, 575):
            dist = bfs_distances(build_dual(p), center)
            radius = 0
            while radius < dist.max() and np.count_nonzero(dist <= radius + 1) <= target:
                radius += 1
            assert radius_for_fraction(p, center, fraction) == radius
