import warnings

import numpy as np
import pytest

from parth import (
    AsymmetricPattern,
    InvalidArgument,
    InvalidMap,
    ParseError,
    ParthError,
    SparsityPattern,
    grid_laplacian,
    read_manifest,
    read_matrix_market,
    read_node_map,
    write_manifest,
    write_matrix_market,
    write_node_map,
)
from parth import sequence_io
from parth.cli import main
from parth.graph import MAX_ROWS, sum_duplicates
from parth.sequence_io import SequenceStep
from conftest import random_pattern, reference_read_matrix_market, reference_read_node_map


def outcome(reader, path, *args):
    """A reader's result, or the type, text and line of the ParthError it raised."""
    try:
        return reader(path, *args)
    except ParthError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def assert_same_matrix(path):
    got, want = outcome(read_matrix_market, path), outcome(reference_read_matrix_market, path)
    if isinstance(want[0], str):
        assert got == want
        return
    (pattern, values), (ref_pattern, ref_values) = got, want
    assert pattern.n_rows == ref_pattern.n_rows
    assert np.array_equal(pattern.row_starts, ref_pattern.row_starts)
    assert np.array_equal(pattern.col_indices, ref_pattern.col_indices)
    if ref_values is None:
        assert values is None
    else:
        assert values.dtype == ref_values.dtype and values.tobytes() == ref_values.tobytes()


def write_variant(path, pattern, values, field, symmetry):
    """Coordinate file of a symmetric pattern in the given field and storage."""
    rows, cols = pattern.to_coo()
    keep = rows >= cols if symmetry == "symmetric" else np.ones(rows.size, dtype=bool)
    lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}", f"{pattern.n_rows} {pattern.n_rows} {keep.sum()}"]
    for k in np.flatnonzero(keep):
        entry = f"{rows[k] + 1} {cols[k] + 1}"
        lines.append(entry if field == "pattern" else f"{entry} {float(values[k])!r}")
    path.write_text("\n".join(lines) + "\n")


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
        m = NodeMap(np.array([3, -1, 0]), 4)
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

    @pytest.mark.parametrize(
        "line, message",
        [("matrix=a.mtx;second", "expected key=value"),
         ("matrix=a.mtx;label=x;matrix=b.mtx", "duplicate key"),
         ("label=x;map=a.map", "missing matrix=")],
    )
    def test_malformed_line_rejected(self, tmp_path, line, message):
        # comment and blank lines are skipped but still counted
        f = tmp_path / "seq.txt"
        f.write_text(f"matrix=first.mtx\n\n  # comment\n{line}\n")
        with pytest.raises(ParseError, match=message) as exc:
            read_manifest(f)
        assert exc.value.line == 4

    def test_write_read(self, tmp_path):
        steps = [
            SequenceStep(tmp_path / "a.mtx", None, "base"),
            SequenceStep(tmp_path / "b.mtx", tmp_path / "b.map", "patch"),
        ]
        f = tmp_path / "seq.txt"
        write_manifest(f, steps)
        assert read_manifest(f) == steps


# a valid 3x3 file; the cases below each break or bend one part of it
VALID = ["%%MatrixMarket matrix coordinate real symmetric", "3 3 4", "1 1 1.0", "2 1 -0.5", "2 2 1.0", "3 3 2.0"]


def edited(line_no, text):
    lines = list(VALID)
    lines[line_no - 1] = text
    return lines


MATRIX_CASES = {
    "valid": VALID,
    "comments_and_blanks_between_entries": VALID[:3] + ["% note", "", "   % indented", "  \t "] + VALID[3:] + ["%"],
    "comment_before_size_line": VALID[:1] + ["% about", ""] + VALID[1:],
    "tabs_and_padding": VALID[:2] + ["  1\t1\t1.0  ", "2 1\t-0.5"] + VALID[4:],
    "bad_index_token_mid_file": edited(4, "2 x -0.5"),
    "bad_value_token_mid_file": edited(4, "2 1 abc"),
    "float_index": edited(4, "2.0 1 -0.5"),
    "too_few_tokens": edited(4, "2 1"),
    "too_many_tokens": edited(4, "2 1 -0.5 7"),
    "trailing_comment": edited(4, "2 1 -0.5 % why"),
    "glued_trailing_comment": edited(4, "2 1 -0.5%"),
    "index_zero_mid_file": edited(4, "0 1 -0.5"),
    "index_n_plus_one_mid_file": edited(4, "2 4 -0.5"),
    "index_beyond_int64": edited(4, "99999999999999999999 1 -0.5"),
    "too_few_entries": edited(2, "3 3 5"),
    "too_many_entries": edited(2, "3 3 3"),
    "wrong_count_and_bad_token": edited(2, "3 3 5")[:3] + ["2 x -0.5"] + VALID[4:],
    "no_entries": ["%%MatrixMarket matrix coordinate pattern symmetric", "3 3 0"],
    "entries_but_zero_declared": ["%%MatrixMarket matrix coordinate pattern symmetric", "3 3 0", "1 1"],
    "missing_size_line": VALID[:1] + ["% only a comment"],
    "duplicates_summed": VALID + ["1 1 0.25"],
    "extreme_values": VALID[:2] + ["1 1 1e400", "2 1 -0.", "2 2 .5e-3", "3 3 Infinity"],
    "integer_field": ["%%MatrixMarket matrix coordinate integer symmetric", "2 2 2", "1 1 3", "2 2 -4"],
    "pattern_with_values": ["%%MatrixMarket matrix coordinate pattern symmetric", "2 2 1", "1 1 1.0"],
    "general_symmetric": ["%%MatrixMarket matrix coordinate pattern general", "2 2 3", "1 2", "2 1", "2 2"],
    "general_asymmetric": ["%%MatrixMarket matrix coordinate pattern general", "2 2 1", "1 2"],
    "non_square": edited(2, "3 4 4"),
    "bad_header": edited(1, "%%MatrixMarket matrix array real general"),
    "unsupported_field": edited(1, "%%MatrixMarket matrix coordinate complex symmetric"),
    "unsupported_symmetry": edited(1, "%%MatrixMarket matrix coordinate real skew-symmetric"),
    "size_line_token_count": edited(2, "3 3"),
    "non_integer_size_line": edited(2, "3 3 four"),
}


class TestAgainstReference:
    """The one-pass readers agree with the per-line readers they replaced."""

    @pytest.mark.parametrize("name", sorted(MATRIX_CASES))
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_matrix_case(self, tmp_path, name, newline):
        f = tmp_path / "m.mtx"
        f.write_bytes(newline.join(MATRIX_CASES[name]).encode() + newline.encode())
        assert_same_matrix(f)

    def test_no_final_newline(self, tmp_path):
        f = tmp_path / "m.mtx"
        f.write_text("\n".join(VALID))
        assert_same_matrix(f)
        f.write_text("\n".join(VALID[:1] + ["% c"]))
        assert_same_matrix(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "m.mtx"
        f.write_text("")
        assert_same_matrix(f)

    @pytest.mark.parametrize("field", ["pattern", "real"])
    @pytest.mark.parametrize("symmetry", ["symmetric", "general"])
    def test_gen_output(self, tmp_path, capsys, field, symmetry):
        assert main(["gen", "--out", str(tmp_path / "seq"), "--nx", "12", "--ny", "10",
                     "--steps", "3", "--kind", "mixed", "--seed", "4", "--patch-frac", "0.1"]) == 0
        capsys.readouterr()
        rng = np.random.default_rng(4)
        for k, mtx in enumerate(sorted((tmp_path / "seq").glob("*.mtx"))):
            pattern, values = read_matrix_market(mtx)
            if values is None:
                values = rng.normal(size=pattern.nnz)
            f = tmp_path / f"{k}-{field}-{symmetry}.mtx"
            write_variant(f, pattern, values, field, symmetry)
            assert_same_matrix(f)
            assert_same_matrix(mtx)

    @pytest.mark.parametrize("token", ["1_0", "\u0663"])
    def test_exotic_digits_are_malformed(self, tmp_path, token):
        # int() and float() accept "_" grouping and non-ASCII digits, and
        # the per-line reader took them; the one-pass reader refuses them
        for line in (f"{token} 1 1.0", f"1 1 {token}"):
            f = tmp_path / "m.mtx"
            f.write_text("\n".join(["%%MatrixMarket matrix coordinate real symmetric", "12 12 1", line]) + "\n")
            reference_read_matrix_market(f)
            with pytest.raises(ParseError) as exc:
                read_matrix_market(f)
            assert exc.value.line == 3 and str(exc.value).endswith("malformed entry")

    MAP_CASES = {
        "valid": ["0", "2", "-1"],
        "comments_and_blanks": ["# map", "0", "", "  # x", "2", "  ", "-1"],
        "padded_and_signed": [" +0 ", "\t2", "-1"],
        "not_an_integer_mid_file": ["0", "x", "-1"],
        "two_per_line": ["0", "2 1", "-1"],
        "float": ["0", "2.0", "-1"],
        "trailing_comment": ["0", "2 # kept", "-1"],
        "too_few_lines": ["0", "2"],
        "too_many_lines": ["0", "2", "-1", "1"],
        "bad_line_and_wrong_count": ["0", "x"],
        "duplicate": ["0", "0", "-1"],
        "out_of_range": ["0", "3", "-1"],
        "empty": [],
    }

    @pytest.mark.parametrize("name", sorted(MAP_CASES))
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_node_map_case(self, tmp_path, name, newline):
        f = tmp_path / "m.map"
        f.write_bytes("".join(ln + newline for ln in self.MAP_CASES[name]).encode())
        got = outcome(read_node_map, f, 3, 3)
        want = outcome(reference_read_node_map, f, 3, 3)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.entries.tolist() == want.entries.tolist()

    def test_float_index_refused_with_warnings_ignored(self, tmp_path, monkeypatch):
        # numpy 1.23-1.26 parse "2.5" into an int64 field by truncation and
        # warn only; the readers must refuse it even where that warning is
        # ignored, as it is outside pytest. The stand-in loadtxt does what
        # those numpy versions do, so the check does not hang on the installed one.
        real_loadtxt = np.loadtxt

        def truncating_loadtxt(lines, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return real_loadtxt([ln.replace(".5", "").replace(".0", "") for ln in lines], dtype=dtype, **kwargs)

        m = tmp_path / "m.mtx"
        m.write_text("\n".join(edited(4, "2.5 1 -0.5")) + "\n")
        f = tmp_path / "m.map"
        f.write_text("0\n2.0\n-1\n")
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert outcome(read_matrix_market, m) == outcome(reference_read_matrix_market, m)
                assert outcome(read_node_map, f, 3, 3) == outcome(reference_read_node_map, f, 3, 3)
                assert outcome(read_matrix_market, m)[::2] == ("ParseError", 4)
                assert outcome(read_node_map, f, 3, 3)[::2] == ("ParseError", 2)

    def test_node_map_exotic_digits(self, tmp_path):
        f = tmp_path / "m.map"
        f.write_text("0\n1_0\n")
        assert reference_read_node_map(f, 2, 11).entries.tolist() == [0, 10]
        with pytest.raises(ParseError) as exc:
            read_node_map(f, 2, 11)
        assert exc.value.line == 2


class TestSizeBound:
    """Row-major keys row * n + col overflow int64 above MAX_ROWS rows."""

    def test_max_rows_is_the_overflow_edge(self):
        assert MAX_ROWS**2 - 1 <= np.iinfo(np.int64).max < (MAX_ROWS + 1) ** 2 - 1

    def test_reader_stops_at_size_line(self, tmp_path):
        f = tmp_path / "m.mtx"
        f.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n4000000000 4000000000 0\n")
        with pytest.raises(ParseError) as exc:
            read_matrix_market(f)
        assert exc.value.line == 2 and str(MAX_ROWS) in str(exc.value)

    @pytest.mark.parametrize(
        "size_line, entries",
        [("4000000 4000000 0", ""), ("1048579 1048579 1", "1 2\n"), ("1000000000 1000000000 3", "1 2\n2 3\n3 4\n")],
    )
    def test_size_the_entries_cannot_back_is_refused_at_the_size_line(self, tmp_path, monkeypatch, size_line, entries):
        # 2 * nnz + 2**20 rows at most: refused before sum_duplicates allocates O(n)
        def never(*args):
            raise AssertionError("sum_duplicates ran")

        monkeypatch.setattr(sequence_io, "sum_duplicates", never)
        f = tmp_path / "m.mtx"
        f.write_text(f"%%MatrixMarket matrix coordinate pattern symmetric\n{size_line}\n{entries}")
        with pytest.raises(ParseError) as exc:
            read_matrix_market(f)
        n, nnz = (int(t) for t in size_line.split()[1:])
        assert exc.value.line == 2 and f"matrix size {n} exceeds what {nnz} entries can back" in str(exc.value)

    def test_size_the_entries_back_is_read(self, tmp_path):
        f = tmp_path / "m.mtx"
        f.write_text(f"%%MatrixMarket matrix coordinate pattern symmetric\n{2**20 + 2} {2**20 + 2} 1\n1 2\n")
        pattern, _ = read_matrix_market(f)
        assert pattern.n_rows == 2**20 + 2 and pattern.nnz == 2

    def test_from_coo(self):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(InvalidArgument):
            SparsityPattern.from_coo(MAX_ROWS + 1, empty, empty)
        with pytest.raises(InvalidArgument):
            sum_duplicates(MAX_ROWS + 1, empty, empty, empty)
