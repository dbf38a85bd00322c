import numpy as np
import pytest

from parth import grid_laplacian, write_matrix_market
import parth.driver
from parth.cli import main
from parth.graph import MAX_ROWS


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
        assert main(["run", str(manifest), "--target-leaf", "16"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2  # header + one row
        row = out[1].split(",")
        assert row[0] == "1" and row[1] == "base"
        assert float(row[4]) == 0.0  # reuse on the first call

    def test_two_identical_steps(self, tmp_path, grid_file, capsys):
        manifest = tmp_path / "seq.txt"
        write_manifest_lines(manifest, ["matrix=grid.mtx", "matrix=grid.mtx"])
        assert main(["run", str(manifest), "--target-leaf", "16"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert float(rows[1].split(",")[4]) == 1.0
        assert rows[1].split(",")[6] == "0"  # no tree nodes recomputed

    @pytest.mark.parametrize("lines", [[], ["# only a comment", ""]])
    def test_empty_manifest_is_one_line(self, tmp_path, capsys, lines):
        manifest = tmp_path / "seq.txt"
        write_manifest_lines(manifest, lines)
        assert main(["run", str(manifest)]) == 1
        assert capsys.readouterr().err == "error: manifest has no steps\n"

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
        bad_map.write_text("0\n" * 64)  # every new node claims previous node 0
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


    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_first_row_is_its_own_baseline(self, tmp_path, grid_file, capsys, monkeypatch, n_rows):
        # row 1's start is the full baseline of that row: one start, not two;
        # each later row still pays one baseline start of its own
        starts = []
        real_start = parth.driver.Parth.start

        def counted_start(self, pattern):
            starts.append(pattern)
            return real_start(self, pattern)

        monkeypatch.setattr(parth.driver.Parth, "start", counted_start)
        manifest = tmp_path / "seq.txt"
        write_manifest_lines(manifest, ["matrix=grid.mtx"] * n_rows)
        assert main(["run", str(manifest), "--target-leaf", "16"]) == 0
        assert len(starts) == n_rows
        first = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert first[5] == "0.000000"
        assert int(first[10]) > 0  # t_baseline_us: that start's wall time

    @pytest.mark.parametrize("with_map", [True, False])
    def test_size_not_divisible_by_dim_is_named(self, tmp_path, capsys, with_map):
        # a 15-row remesh row under --dim 2: the size is at fault, not the map
        write_matrix_market(tmp_path / "a.mtx", grid_laplacian(4, 4)[0])
        write_matrix_market(tmp_path / "b.mtx", grid_laplacian(3, 5)[0])
        (tmp_path / "b.map").write_text("".join(f"{i}\n" for i in range(8)))
        second = "matrix=b.mtx;map=b.map" if with_map else "matrix=b.mtx"
        manifest = tmp_path / "seq.txt"
        write_manifest_lines(manifest, ["matrix=a.mtx", second])
        assert main(["run", str(manifest), "--dim", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("step 2") and err.count("\n") == 1
        assert "n_rows=15 not divisible by dim=2" in err

    @pytest.mark.parametrize("theta", ["nan", "-1", "5", "inf"])
    def test_bad_theta_is_one_line(self, tmp_path, grid_file, capsys, theta):
        manifest = tmp_path / "seq.txt"
        write_manifest_lines(manifest, ["matrix=grid.mtx", "matrix=grid.mtx"])
        assert main(["run", str(manifest), "--aggressive-reuse", theta]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "theta" in captured.err

    def test_csv_into_missing_directory_is_one_line(self, tmp_path, grid_file, capsys):
        manifest = tmp_path / "seq.txt"
        write_manifest_lines(manifest, ["matrix=grid.mtx"])
        assert main(["run", str(manifest), "--out-csv", str(tmp_path / "absent" / "run.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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

    def test_size_beyond_key_range_is_one_line(self, tmp_path, capsys):
        f = tmp_path / "huge.mtx"
        f.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n4000000000 4000000000 0\n")
        assert main(["check", str(f)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(MAX_ROWS) in err

    def test_aggressive_reuse_is_not_a_check_flag(self, grid_file, capsys):
        # check builds one start, which never synchronizes, so reuse could not act
        with pytest.raises(SystemExit) as exc:
            main(["check", str(grid_file), "--aggressive-reuse"])
        assert exc.value.code == 2
        assert "--aggressive-reuse" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--target-leaf", "0"], ["--dim", "0"]])
    def test_config_out_of_range_is_one_line(self, grid_file, capsys, flags):
        assert main(["check", str(grid_file)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


    def test_partition_failure_is_reported(self, grid_file, capsys, monkeypatch):
        build = parth.driver.hgd_build

        def misowned_build(*args):
            tree = build(*args)
            tree.owner = tree.owner.copy()
            tree.owner[0] = tree.owner[0] + 1  # node 0 now names a slot that does not hold it
            return tree

        monkeypatch.setattr(parth.driver, "hgd_build", misowned_build)
        assert main(["check", str(grid_file), "--target-leaf", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "FAIL partition: owner array disagrees with the tree node sets\n"
        assert captured.out.endswith("check: FAIL\n")


class TestGen:
    @staticmethod
    def _gen_files(out_dir, seed):
        argv = ["gen", "--out", str(out_dir), "--nx", "12", "--ny", "12", "--steps", "2",
                "--patch-frac", "0.1", "--seed", str(seed)]
        assert main(argv) == 0
        return {f.name: f.read_bytes() for f in out_dir.iterdir()}

    def test_seed_flag_is_the_only_seed(self, tmp_path, monkeypatch):
        plain_123 = self._gen_files(tmp_path / "plain123", 123)
        plain_7 = self._gen_files(tmp_path / "plain7", 7)
        assert plain_123 != plain_7  # the seed reaches the generator
        # the environment plays no part, not even a non-integer PARTH_SEED
        monkeypatch.setenv("PARTH_SEED", "abc")
        assert self._gen_files(tmp_path / "env7", 7) == plain_7

    def test_generate_then_run(self, tmp_path, capsys):
        out_dir = tmp_path / "seq"
        assert main(
            ["gen", "--out", str(out_dir), "--nx", "16", "--ny", "16", "--steps", "3",
             "--kind", "mixed", "--seed", "5"]
        ) == 0
        manifest = out_dir / "manifest.txt"
        assert manifest.exists()
        capsys.readouterr()
        assert main(["run", str(manifest), "--target-leaf", "32", "--aggressive-reuse"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 5  # header + 4 steps
        for row in rows[2:]:
            assert float(row.split(",")[4]) > 0.0  # some reuse on every later step

    def test_generator_error_is_one_line(self, tmp_path, capsys):
        # step 1 (contacts) is fine; step 2 (remesh) refuses a ball grown past 16 times
        argv = ["gen", "--out", str(tmp_path / "seq"), "--kind", "mixed", "--steps", "2", "--densify", "20"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("nx", [8, 10, 12, 14])
    def test_small_grid_generates_and_runs(self, tmp_path, capsys, nx):
        # the default 2% patch is a one-node ball here; contact steps widen it to radius 1
        out_dir = tmp_path / "seq"
        assert main(["gen", "--out", str(out_dir), "--nx", str(nx), "--ny", str(nx), "--steps", "4"]) == 0
        capsys.readouterr()
        assert main(["run", str(out_dir / "manifest.txt")]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 6  # header + 5 steps

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
            ["--nx", "10000000000", "--ny", "10000000000"],
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
        assert main(["run", str(manifest), "--dim", "2", "--target-leaf", "4"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert float(rows[1].split(",")[4]) == 1.0
