import numpy as np
import pytest

from parth import (
    AsymmetricPattern,
    InvalidMap,
    ParseError,
    grid_laplacian,
    read_manifest,
    read_matrix_market,
    read_node_map,
    write_manifest,
    write_matrix_market,
    write_node_map,
)
from parth.sequence_io import SequenceStep
from conftest import random_pattern


class TestMatrixMarket:
    def test_symmetric_pattern_expansion(self, tmp_path):
        f = tmp_path / "m.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 1\n3 1\n"
        )
        pattern, values = read_matrix_market(f)
        assert values is None
        rows, cols = pattern.to_coo()
        assert set(zip(rows.tolist(), cols.tolist())) == {(0, 0), (2, 0), (0, 2)}

    def test_empty_entry_list(self, tmp_path):
        f = tmp_path / "m.mtx"
        f.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n4 4 0\n")
        pattern, _ = read_matrix_market(f)
        assert pattern.n_rows == 4 and pattern.nnz == 0

    def test_zero_index_rejected(self, tmp_path):
        f = tmp_path / "m.mtx"
        f.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n0 1\n")
        with pytest.raises(ParseError) as exc:
            read_matrix_market(f)
        assert exc.value.line == 3

    @pytest.mark.parametrize("size", ["-1 -1 0", "3 3 -1"])
    def test_negative_size_rejected(self, tmp_path, size):
        f = tmp_path / "m.mtx"
        f.write_text(f"%%MatrixMarket matrix coordinate pattern symmetric\n{size}\n")
        with pytest.raises(ParseError) as exc:
            read_matrix_market(f)
        assert exc.value.line == 2

    def test_general_asymmetric_rejected(self, tmp_path):
        f = tmp_path / "m.mtx"
        f.write_text("%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2\n")
        with pytest.raises(AsymmetricPattern):
            read_matrix_market(f)

    def test_general_symmetric_accepted(self, tmp_path):
        f = tmp_path / "m.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n"
        )
        pattern, _ = read_matrix_market(f)
        assert pattern.nnz == 2

    def test_bad_header(self, tmp_path):
        f = tmp_path / "m.mtx"
        f.write_text("not a header\n1 1 0\n")
        with pytest.raises(ParseError):
            read_matrix_market(f)

    def test_entry_count_mismatch(self, tmp_path):
        f = tmp_path / "m.mtx"
        f.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 1\n")
        with pytest.raises(ParseError):
            read_matrix_market(f)

    def test_round_trip_pattern(self, tmp_path):
        rng = np.random.default_rng(8)
        for i in range(10):
            p = random_pattern(rng, int(rng.integers(2, 50)))
            f = tmp_path / f"r{i}.mtx"
            write_matrix_market(f, p)
            back, values = read_matrix_market(f)
            assert values is None
            assert np.array_equal(back.row_starts, p.row_starts)
            assert np.array_equal(back.col_indices, p.col_indices)

    def test_round_trip_values(self, tmp_path):
        pattern, values = grid_laplacian(5, 4)
        f = tmp_path / "g.mtx"
        write_matrix_market(f, pattern, values)
        back, vback = read_matrix_market(f)
        assert np.array_equal(back.col_indices, pattern.col_indices)
        assert np.allclose(vback, values)


class TestNodeMapIO:
    def test_identity(self, tmp_path):
        f = tmp_path / "m.map"
        f.write_text("0\n1\n2\n")
        m = read_node_map(f, 3, 3)
        assert m.entries.tolist() == [0, 1, 2]

    def test_removal_and_addition(self, tmp_path):
        f = tmp_path / "m.map"
        f.write_text("0\n2\n-1\n")
        m = read_node_map(f, 3, 3)
        assert m.entries.tolist() == [0, 2, -1]

    def test_duplicate_rejected(self, tmp_path):
        f = tmp_path / "m.map"
        f.write_text("0\n0\n")
        with pytest.raises(InvalidMap):
            read_node_map(f, 2, 3)

    def test_wrong_length_rejected(self, tmp_path):
        f = tmp_path / "m.map"
        f.write_text("0\n1\n")
        with pytest.raises(InvalidMap):
            read_node_map(f, 3, 3)

    def test_non_integer_rejected(self, tmp_path):
        f = tmp_path / "m.map"
        f.write_text("0\nx\n")
        with pytest.raises(ParseError) as exc:
            read_node_map(f, 2, 3)
        assert exc.value.line == 2

    def test_write_read(self, tmp_path):
        from parth import NodeMap

        f = tmp_path / "m.map"
        m = NodeMap(np.array([3, -1, 0]))
        write_node_map(f, m)
        assert read_node_map(f, 3, 4).entries.tolist() == [3, -1, 0]


class TestManifest:
    def test_two_steps_no_maps(self, tmp_path):
        f = tmp_path / "seq.txt"
        f.write_text("matrix=a.mtx\nmatrix=b.mtx;label=second\n")
        steps = read_manifest(f)
        assert len(steps) == 2
        assert steps[0].map_path is None and steps[0].label == ""
        assert steps[1].label == "second"
        assert steps[1].matrix_path == tmp_path / "b.mtx"

    def test_map_on_second_step(self, tmp_path):
        f = tmp_path / "seq.txt"
        f.write_text("matrix=a.mtx\nmatrix=b.mtx;map=b.map\n")
        steps = read_manifest(f)
        assert steps[1].map_path == tmp_path / "b.map"

    def test_missing_file_is_lazy(self, tmp_path):
        # manifest parse succeeds; the error surfaces when the step is loaded
        f = tmp_path / "seq.txt"
        f.write_text("matrix=absent.mtx\n")
        steps = read_manifest(f)
        with pytest.raises(OSError):
            read_matrix_market(steps[0].matrix_path)

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "seq.txt"
        f.write_text("matrix=a.mtx;color=red\n")
        with pytest.raises(ParseError) as exc:
            read_manifest(f)
        assert exc.value.line == 1

    def test_write_read(self, tmp_path):
        steps = [
            SequenceStep(tmp_path / "a.mtx", None, "base"),
            SequenceStep(tmp_path / "b.mtx", tmp_path / "b.map", "patch"),
        ]
        f = tmp_path / "seq.txt"
        write_manifest(f, steps)
        assert read_manifest(f) == steps
