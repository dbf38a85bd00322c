import numpy as np
import pytest

from parth import grid_laplacian, write_matrix_market, write_node_map, NodeMap
from parth.cli import main


def write_manifest_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def grid_file(tmp_path):
    pattern, values = grid_laplacian(8, 8)
    f = tmp_path / "grid.mtx"
    write_matrix_market(f, pattern, values)
    return f


class TestRun:
    def test_single_step(self, tmp_path, grid_file, capsys):
        manifest = tmp_path / "seq.txt"
        write_manifest_lines(manifest, ["matrix=grid.mtx;label=base"])
        assert main(["run", str(manifest), "--max-level", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2  # header + one row
        row = out[1].split(",")
        assert row[0] == "1" and row[1] == "base"
        assert float(row[4]) == 0.0  # reuse on the first call

    def test_two_identical_steps(self, tmp_path, grid_file, capsys):
        manifest = tmp_path / "seq.txt"
        write_manifest_lines(manifest, ["matrix=grid.mtx", "matrix=grid.mtx"])
        assert main(["run", str(manifest), "--max-level", "2"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert float(rows[1].split(",")[4]) == 1.0
        assert rows[1].split(",")[6] == "0"  # no tree nodes recomputed

    def test_missing_matrix_names_step(self, tmp_path, grid_file, capsys):
        manifest = tmp_path / "seq.txt"
        write_manifest_lines(manifest, ["matrix=grid.mtx", "matrix=absent.mtx"])
        assert main(["run", str(manifest)]) == 1
        assert "step 2" in capsys.readouterr().err

    def test_baseline_none_skips_fill(self, tmp_path, grid_file, capsys):
        manifest = tmp_path / "seq.txt"
        write_manifest_lines(manifest, ["matrix=grid.mtx", "matrix=grid.mtx"])
        assert main(["run", str(manifest), "--baseline", "none"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert all(r.split(",")[5] == "" for r in rows)

    def test_invalid_map_names_step(self, tmp_path, grid_file, capsys):
        bad_map = tmp_path / "bad.map"
        write_node_map(bad_map, NodeMap(np.zeros(64, dtype=np.int64)))
        manifest = tmp_path / "seq.txt"
        write_manifest_lines(manifest, ["matrix=grid.mtx", "matrix=grid.mtx;map=bad.map"])
        assert main(["run", str(manifest)]) == 1
        assert "step 2" in capsys.readouterr().err

    def test_csv_output_deterministic(self, tmp_path, grid_file):
        manifest = tmp_path / "seq.txt"
        write_manifest_lines(manifest, ["matrix=grid.mtx", "matrix=grid.mtx"])
        outs = []
        for i in range(2):
            out_csv = tmp_path / f"out{i}.csv"
            assert main(["run", str(manifest), "--out-csv", str(out_csv)]) == 0
            # timing columns (8..10) vary run to run; everything else must not
            rows = [r.split(",") for r in out_csv.read_text().strip().splitlines()]
            outs.append([r[:8] + [r[11]] for r in rows])
        assert outs[0] == outs[1]


    @pytest.mark.parametrize("theta", ["nan", "-1", "5", "inf"])
    def test_bad_theta_is_one_line(self, tmp_path, grid_file, capsys, theta):
        manifest = tmp_path / "seq.txt"
        write_manifest_lines(manifest, ["matrix=grid.mtx", "matrix=grid.mtx"])
        assert main(["run", str(manifest), "--aggressive-reuse", theta]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "theta" in captured.err


class TestCheck:
    def test_grid_passes_and_improves(self, grid_file, capsys):
        assert main(["check", str(grid_file)]) == 0
        out = capsys.readouterr().out
        natural = int(out.split("natural ordering:")[1].splitlines()[0])
        produced = int(out.split("produced ordering:")[1].splitlines()[0])
        assert produced < natural
        assert "PASS" in out

    def test_asymmetric_fails(self, tmp_path, capsys):
        f = tmp_path / "bad.mtx"
        f.write_text("%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2\n")
        assert main(["check", str(f)]) == 1

    def test_diagonal_matrix(self, tmp_path, capsys):
        f = tmp_path / "diag.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n4 4 4\n1 1\n2 2\n3 3\n4 4\n"
        )
        assert main(["check", str(f)]) == 0
        out = capsys.readouterr().out
        natural = int(out.split("natural ordering:")[1].splitlines()[0])
        produced = int(out.split("produced ordering:")[1].splitlines()[0])
        assert natural == produced == 4

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "missing.mtx")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_negative_size_line_is_one_line(self, tmp_path, capsys):
        f = tmp_path / "neg.mtx"
        f.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n-1 -1 0\n")
        assert main(["check", str(f)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "negative size" in err

    def test_max_level_not_an_int_is_a_usage_error(self, grid_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(grid_file), "--max-level", "abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--max-level" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--max-level", "-1"], ["--target-leaf", "0"], ["--dim", "0"]])
    def test_config_out_of_range_is_one_line(self, grid_file, capsys, flags):
        assert main(["check", str(grid_file)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestGen:
    @staticmethod
    def _gen_files(out_dir, seed):
        argv = ["gen", "--out", str(out_dir), "--nx", "12", "--ny", "12", "--steps", "2",
                "--patch-frac", "0.1", "--seed", str(seed)]
        assert main(argv) == 0
        return {f.name: f.read_bytes() for f in out_dir.iterdir()}

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PARTH_SEED", raising=False)
        plain_123 = self._gen_files(tmp_path / "plain123", 123)
        plain_7 = self._gen_files(tmp_path / "plain7", 7)
        assert plain_123 != plain_7  # the seed reaches the generator
        monkeypatch.setenv("PARTH_SEED", "123")
        env_7 = self._gen_files(tmp_path / "env7", 7)
        env_8 = self._gen_files(tmp_path / "env8", 8)
        assert env_7 == env_8 == plain_123

    def test_generate_then_run(self, tmp_path, capsys):
        out_dir = tmp_path / "seq"
        assert main(
            ["gen", "--out", str(out_dir), "--nx", "16", "--ny", "16", "--steps", "3",
             "--kind", "mixed", "--seed", "5"]
        ) == 0
        manifest = out_dir / "manifest.txt"
        assert manifest.exists()
        capsys.readouterr()
        assert main(["run", str(manifest), "--max-level", "3", "--aggressive-reuse"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 5  # header + 4 steps
        for row in rows[2:]:
            assert float(row.split(",")[4]) > 0.0  # some reuse on every later step

    def test_generator_error_is_one_line(self, tmp_path, capsys):
        # the default 2% patch of a 12x12 grid is a 2-node ball, too small for 16 contacts
        argv = ["gen", "--out", str(tmp_path / "seq"), "--nx", "12", "--ny", "12", "--steps", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--nx", "1"],
            ["--kind", "remesh", "--densify", "0"],
            ["--contacts", "-3"],
            # refused at the argument check, before anything is allocated
            ["--kind", "remesh", "--densify", "nan"],
            ["--kind", "remesh", "--densify", "inf"],
            ["--kind", "remesh", "--densify", "1e9"],
            ["--patch-frac", "nan"],
            ["--patch-frac", "inf"],
            ["--patch-frac", "-5"],
            ["--patch-frac", "0"],
            ["--patch-frac", "1.5"],
        ],
    )
    def test_bad_generator_argument_is_one_line(self, tmp_path, capsys, flags):
        argv = ["gen", "--out", str(tmp_path / "seq"), "--steps", "1"] + flags
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_failing_later_step_writes_nothing(self, tmp_path, capsys):
        # step 1 (contacts) is fine; step 2 (remesh) refuses the densify factor
        out_dir = tmp_path / "seq"
        argv = ["gen", "--out", str(out_dir), "--nx", "8", "--ny", "8", "--steps", "2",
                "--patch-frac", "0.2", "--densify", "nan"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        left = [p.name for p in out_dir.iterdir()] if out_dir.exists() else []
        assert left == []

    def test_dim_flag(self, tmp_path, capsys):
        # a 2-rows-per-node pattern: expand an 8x8 grid by duplicating blocks
        pattern, values = grid_laplacian(4, 4)
        n = pattern.n_rows
        rows, cols = pattern.to_coo()
        eu, ev, val2 = [], [], []
        for r, c, v in zip(rows, cols, np.asarray(values)):
            for dr in range(2):
                for dc in range(2):
                    eu.append(2 * r + dr)
                    ev.append(2 * c + dc)
                    val2.append(v if (dr == dc and r == c) or r != c else 0.25)
        from parth import SparsityPattern

        big = SparsityPattern.from_coo(2 * n, np.array(eu), np.array(ev))
        f = tmp_path / "blocks.mtx"
        write_matrix_market(f, big)
        manifest = tmp_path / "seq.txt"
        write_manifest_lines(manifest, ["matrix=blocks.mtx", "matrix=blocks.mtx"])
        assert main(["run", str(manifest), "--dim", "2", "--max-level", "2"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert float(rows[1].split(",")[4]) == 1.0
