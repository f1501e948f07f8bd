import importlib
import json

import numpy as np
import pytest

from cliquereg import InputError, SolverFailure
from cliquereg.cli import main

bench_module = importlib.import_module("cliquereg.bench")
clipper_plus_module = importlib.import_module("cliquereg.clipper_plus")

WORKED_EXAMPLE = """\
p edge 5 4
e 1 4
e 2 3
e 2 5
e 3 5
"""


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "example.clq"
    path.write_text(WORKED_EXAMPLE)
    return str(path)


@pytest.fixture
def dense_graph_file(tmp_path):
    """A seeded G(40, 0.6) on which the exact search needs more than 3 nodes."""
    rng = np.random.default_rng(3)
    n = 40
    lines = ["p edge 40 0"]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.6:
                lines.append(f"e {i} {j}")
    lines[0] = f"p edge 40 {len(lines) - 1}"
    path = tmp_path / "dense.clq"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestSolve:
    @pytest.mark.parametrize("algo", ["greedy", "relax", "clipper+", "exact"])
    def test_all_algorithms(self, graph_file, algo, capsys):
        assert main(["solve", graph_file, "--algo", algo]) == 0
        out = capsys.readouterr().out
        assert "clique size: 3" in out
        assert "clique (1-based): 2 3 5" in out

    def test_default_algorithm_reports_early_termination(self, graph_file, capsys):
        assert main(["solve", graph_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "stop: core bound" in lines

    def test_reports_colour_bound(self, tmp_path, capsys):
        # K_{3,3}: all six vertices survive the prune, two colours cover them.
        path = tmp_path / "k33.clq"
        path.write_text("p edge 6 9\n" + "".join(
            f"e {a} {b}\n" for a in (1, 2, 3) for b in (4, 5, 6)))
        assert main(["solve", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "stop: colour bound" in lines

    @pytest.mark.parametrize("fails, stop", [(False, "relaxation"), (True, "degraded")])
    def test_reports_relaxation_stops(self, tmp_path, capsys, monkeypatch, fails, stop):
        # C5: greedy finds an edge and three colours leave room, so the
        # relaxation runs; a failing one leaves the greedy edge.
        if fails:
            def explode(*args, **kwargs):
                raise SolverFailure("forced")

            monkeypatch.setattr(clipper_plus_module, "solve_relaxation", explode)
        path = tmp_path / "c5.clq"
        path.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
        assert main(["solve", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"stop: {stop}" in lines
        assert "clique size: 2" in lines

    def test_missing_file_is_input_error(self, capsys):
        assert main(["solve", "/nonexistent/path.clq"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_graph_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.clq"
        bad.write_text("e 1 2\n")
        assert main(["solve", str(bad)]) == 1

    def test_vertex_count_over_packed_graph_cap_is_input_error(self, tmp_path, capsys):
        # 92,681 vertices would need just over 1 GiB of packed rows.
        path = tmp_path / "huge.clq"
        path.write_text("p edge 92681 0\n")
        assert main(["solve", str(path)]) == 1
        assert "cap" in capsys.readouterr().err

    def test_budget_exhaustion_exit_code(self, dense_graph_file, capsys):
        assert main(["solve", dense_graph_file, "--algo", "exact", "--budget", "3"]) == 2
        assert "solver failure" in capsys.readouterr().err


def _command_argv(command, graph_file, out):
    """A command line of ``command`` that passes argparse, writing to ``out``."""
    return {
        "solve": ["solve", graph_file],
        "bench-dimacs": ["bench-dimacs", graph_file, "--algo", "greedy", "--out", str(out)],
        "bench-synthetic": ["bench-synthetic", "--trials", "1", "--out", str(out)],
        "register": ["register", "--out", str(out)],
    }[command]


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag(self, graph_file, capsys):
        assert main(["solve", graph_file, "--frobnicate"]) == 1

    def test_bad_algo_choice(self, graph_file, capsys):
        assert main(["solve", graph_file, "--algo", "magic"]) == 1

    # The relaxation's line-search constants are a library setting
    # (SolverParams), not a flag of any command.
    @pytest.mark.parametrize("command", ["solve", "bench-dimacs", "bench-synthetic", "register"])
    def test_params_flag_is_gone(self, graph_file, tmp_path, capsys, command):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"sigma": 0.02}))
        argv = _command_argv(command, graph_file, tmp_path / "o.csv")
        assert main(argv + ["--params", str(params)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments: --params")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "bench-dimacs", "bench-synthetic"])
    @pytest.mark.parametrize("value", ["0", "-5", "2.5", "many"])
    def test_budget_must_be_a_positive_integer(self, graph_file, tmp_path, capsys, command, value):
        argv = _command_argv(command, graph_file, tmp_path / "o.csv")
        assert main(argv + ["--budget", value]) == 1
        err = capsys.readouterr().err
        assert err == f"error: argument --budget: must be a positive integer, got {value!r}\n"
        assert not (tmp_path / "o.csv").exists()


class TestBenchDimacs:
    def test_csv_output(self, graph_file, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = main(
            ["bench-dimacs", graph_file, "--algo", "greedy", "--algo", "exact",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("graph_id,")
        assert len(lines) == 3
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[1].split() == ["graph", "algo", "size", "omega", "r", "ms"]
        assert [row.split()[:5] for row in stdout[2:4]] == [
            ["example", "exact", "3", "-", "-"],
            ["example", "greedy", "3", "-", "-"],
        ]
        assert stdout[4].startswith("note: no instance matched")

    def test_omega_table_fills_ratio(self, graph_file, tmp_path, capsys):
        table = tmp_path / "omega.json"
        table.write_text(json.dumps({"example": 3}))
        out = tmp_path / "records.csv"
        assert main(
            ["bench-dimacs", graph_file, "--algo", "greedy",
             "--omega-gt", str(table), "--out", str(out)]
        ) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[5] == "3" and row[6] == "1.0"
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[2].split()[:5] == ["example", "greedy", "3", "3", "1.000"]
        assert "note:" not in stdout

    @pytest.mark.parametrize(
        "value", ["x", [1], 1.7, True, 0], ids=["string", "list", "float", "bool", "zero"]
    )
    def test_omega_value_not_a_positive_int_is_input_error(
        self, graph_file, tmp_path, capsys, value
    ):
        table = tmp_path / "omega.json"
        table.write_text(json.dumps({"example": value}))
        assert main(
            ["bench-dimacs", graph_file, "--algo", "greedy",
             "--omega-gt", str(table), "--out", str(tmp_path / "records.csv")]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'example'" in err
        assert not (tmp_path / "records.csv").exists()

    def test_failed_run_leaves_the_other_records(self, dense_graph_file, tmp_path, capsys):
        out = tmp_path / "records.csv"
        assert main(
            ["bench-dimacs", dense_graph_file, "--algo", "greedy", "--algo", "exact",
             "--budget", "3", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[1].split(",")[3] == "greedy"
        assert "warning: exact failed on dense" in capsys.readouterr().err

    def test_algo_required(self, graph_file, tmp_path, capsys):
        assert main(["bench-dimacs", graph_file, "--out", str(tmp_path / "o.csv")]) == 1

    def test_one_vertex_graph_has_an_empty_sparsity_cell(self, graph_file, tmp_path):
        one = tmp_path / "one.clq"
        one.write_text("p edge 1 0\n")
        out = tmp_path / "records.csv"
        assert main(
            ["bench-dimacs", graph_file, str(one), "--algo", "clipper+", "--out", str(out)]
        ) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[:5] for row in rows] == [
            ["example", "5", "0.6", "clipper+", "3"],
            ["one", "1", "", "clipper+", "1"],
        ]


class TestBenchSynthetic:
    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["bench-synthetic", "--outlier-start", "0", "--outlier-stop", "30",
             "--outlier-step", "30", "--trials", "2", "--points", "30",
             "--clutter", "30", "--associations", "20", "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 2 * 2
        stdout = capsys.readouterr().out
        assert "mean_r" in stdout

    def test_bad_range_is_input_error(self, tmp_path, capsys):
        assert main(
            ["bench-synthetic", "--outlier-start", "50", "--outlier-stop", "40",
             "--out", str(tmp_path / "o.csv")]
        ) == 1

    def test_one_association_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(
            ["bench-synthetic", "--outlier-start", "0", "--outlier-stop", "0",
             "--trials", "1", "--associations", "1", "--points", "5",
             "--clutter", "5", "--out", str(out)]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: need at least 2 associations per scene, got 1")
        assert not out.exists()


def _raw_files(tmp_path):
    """Cloud A, cloud B (the same ten points) and the identity pairs."""
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.0, 1.0, size=(10, 3))
    cloud = "\n".join(f"{x} {y} {z}" for x, y, z in pts) + "\n"
    a, b, assoc = tmp_path / "a.xyz", tmp_path / "b.xyz", tmp_path / "assoc.txt"
    a.write_text(cloud)
    b.write_text(cloud)
    assoc.write_text("\n".join(f"{i} {i}" for i in range(10)) + "\n")
    return a, b, assoc


# Bad cloud-file text, bad association-file text (None: no file at all), and
# what must follow the path in the error ("" when no one line is at fault).
BAD_ROW_FILES = {
    "unreadable": (None, None, ""),
    "field count": ("0 0\n", "0 1 2\n", ":1:"),
    "non-numeric": ("# header\n\n0 x 0\n", "# header\n\n0 1.5\n", ":3:"),
    "comments only": ("# header\n\n  \n", "# header\n\n  \n", ""),
}


class TestRegisterAndGenScene:
    def test_gen_scene_then_register(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        assert main(
            ["gen-scene", "--points", "60", "--clutter", "30",
             "--associations", "40", "--outlier-ratio", "0.5", "--seed", "11",
             "--out", str(scene_path)]
        ) == 0
        result_path = tmp_path / "result.json"
        code = main(
            ["register", "--scenario", str(scene_path), "--out", str(result_path)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "rotation error:" in stdout
        assert "greedy clique size:" in stdout
        assert "stop: core bound" in stdout.splitlines()
        assert "solve time: core " in stdout
        assert "planted inliers found: 20 of 20" in stdout.splitlines()
        payload = json.loads(result_path.read_text())
        assert payload["rotation_error_deg"] < 5.0
        rot = np.array(payload["rotation"])
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-9)

    def test_register_raw_files(self, tmp_path, capsys):
        a, b, assoc = _raw_files(tmp_path)
        a.write_text("# cloud A\n\n" + a.read_text() + "   \n")
        assoc.write_text("# pairs\n\n" + assoc.read_text() + "# end\n")
        code = main(
            ["register", "--cloud-a", str(a), "--cloud-b", str(b),
             "--associations", str(assoc), "--epsilon", "1e-6"]
        )
        assert code == 0
        assert "inliers found: 10" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--cloud-a", "--associations"])
    @pytest.mark.parametrize("case", list(BAD_ROW_FILES))
    def test_bad_row_file_is_input_error(self, tmp_path, capsys, flag, case):
        a, b, assoc = _raw_files(tmp_path)
        cloud_text, assoc_text, prefix = BAD_ROW_FILES[case]
        bad = tmp_path / "bad.txt"
        text = cloud_text if flag == "--cloud-a" else assoc_text
        if text is not None:
            bad.write_text(text)
        files = {"--cloud-a": a, "--cloud-b": b, "--associations": assoc, flag: bad}
        argv = ["register", "--epsilon", "0.5"]
        for name, path in files.items():
            argv += [name, str(path)]
        assert main(argv) == 1
        assert f"{bad}{prefix}" in capsys.readouterr().err

    def test_register_requires_epsilon_for_raw_files(self, tmp_path, capsys):
        a = tmp_path / "a.xyz"
        a.write_text("0 0 0\n1 0 0\n0 1 0\n")
        assoc = tmp_path / "assoc.txt"
        assoc.write_text("0 0\n1 1\n2 2\n")
        assert main(
            ["register", "--cloud-a", str(a), "--cloud-b", str(a),
             "--associations", str(assoc)]
        ) == 1

    def test_register_nan_epsilon_is_input_error(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        main(["gen-scene", "--points", "20", "--clutter", "5",
              "--associations", "10", "--out", str(scene_path)])
        assert main(
            ["register", "--scenario", str(scene_path), "--epsilon", "nan"]
        ) == 1
        assert "epsilon" in capsys.readouterr().err

    def test_register_scenario_excludes_raw_files(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        main(["gen-scene", "--points", "20", "--clutter", "5",
              "--associations", "10", "--out", str(scene_path)])
        assert main(
            ["register", "--scenario", str(scene_path), "--cloud-a", "x.xyz"]
        ) == 1

    def test_register_too_few_consistent_raises_exit_3(self, tmp_path, capsys):
        # Three collinear points: every pair is consistent but the max
        # clique over 2 distinct associations cannot reach 3.
        a = tmp_path / "a.xyz"
        a.write_text("0 0 0\n1 0 0\n")
        assoc = tmp_path / "assoc.txt"
        assoc.write_text("0 0\n1 1\n")
        code = main(
            ["register", "--cloud-a", str(a), "--cloud-b", str(a),
             "--associations", str(assoc), "--epsilon", "0.5"]
        )
        assert code == 3
        assert "registration failure" in capsys.readouterr().err

    def test_register_over_packed_graph_cap_is_input_error(self, tmp_path, capsys):
        # 92,681 associations would need just over 1 GiB of packed rows.
        a = tmp_path / "a.xyz"
        a.write_text("0 0 0\n")
        assoc = tmp_path / "assoc.txt"
        assoc.write_text("0 0\n" * 92681)
        assert main(
            ["register", "--cloud-a", str(a), "--cloud-b", str(a),
             "--associations", str(assoc), "--epsilon", "0.5"]
        ) == 1
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [10, 150])
    def test_inlier_mask_of_the_wrong_length_is_input_error(self, tmp_path, capsys, flags):
        scene_path = tmp_path / "scene.json"
        assert main(
            ["gen-scene", "--points", "200", "--clutter", "100", "--associations", "100",
             "--outlier-ratio", "0.5", "--seed", "4", "--out", str(scene_path)]
        ) == 0
        payload = json.loads(scene_path.read_text())
        payload["inlier_mask"] = [True] * flags
        scene_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["register", "--scenario", str(scene_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{flags} inlier flags for 100" in err

    def test_scenario_not_an_object_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["register", "--scenario", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-scene", "bench-synthetic"])
    @pytest.mark.parametrize(
        "flag, argument", [("--cube-size", "cube_size"),
                           ("--sphere-radius", "outlier_sphere_radius")]
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_scene_size_is_input_error(
        self, tmp_path, capsys, command, flag, argument, value
    ):
        assert main([command, flag, value, "--out", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argument} must be positive and finite")
        assert "Traceback" not in err
        assert not (tmp_path / "o.json").exists()

    def test_gen_scene_infeasible_is_input_error(self, tmp_path, capsys):
        assert main(
            ["gen-scene", "--points", "5", "--associations", "10",
             "--outlier-ratio", "0.0", "--out", str(tmp_path / "s.json")]
        ) == 1


class TestUnwritableOut:
    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    @pytest.mark.parametrize(
        "command", ["bench-dimacs", "bench-synthetic", "gen-scene", "register"]
    )
    def test_unwritable_out_is_input_error(self, graph_file, tmp_path, capsys, command, target):
        scene = tmp_path / "scene.json"
        assert main(
            ["gen-scene", "--points", "20", "--clutter", "5", "--associations", "10",
             "--out", str(scene)]
        ) == 0
        out = tmp_path / "nonexistent" / "x.csv" if target == "missing directory" else tmp_path
        argv = {
            "bench-dimacs": ["bench-dimacs", graph_file, "--algo", "greedy"],
            "bench-synthetic": [
                "bench-synthetic", "--outlier-start", "0", "--outlier-stop", "0",
                "--trials", "1", "--points", "20", "--clutter", "5", "--associations", "10",
            ],
            "gen-scene": ["gen-scene", "--points", "20", "--clutter", "5", "--associations", "10"],
            "register": ["register", "--scenario", str(scene)],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("error: cannot write ")
        assert err.count("\n") == 1 and "Traceback" not in err
        if command == "register":
            # A failed write prints no result.
            assert captured.out == ""

    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    @pytest.mark.parametrize(
        "command, loader",
        [("bench-dimacs", "load_dimacs"), ("bench-synthetic", "synthetic_scene")],
    )
    def test_unwritable_out_fails_before_any_input_is_built(
        self, graph_file, tmp_path, monkeypatch, capsys, command, loader, target
    ):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{loader} ran before --out was checked")

        monkeypatch.setattr(bench_module, loader, refuse)
        out = tmp_path / "nonexistent" / "x.csv" if target == "missing directory" else tmp_path
        assert main(_command_argv(command, graph_file, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write records file: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("existing", [False, True])
    def test_writable_out_check_leaves_no_trace(self, graph_file, tmp_path, monkeypatch, existing):
        # The check before the run neither leaves a new file behind when
        # the run fails nor changes a file that was already there.
        def refuse(*args, **kwargs):
            raise InputError("stop after the check")

        monkeypatch.setattr(bench_module, "load_dimacs", refuse)
        out = tmp_path / "o.csv"
        if existing:
            out.write_text("old records\n")
        assert main(_command_argv("bench-dimacs", graph_file, out)) == 1
        if existing:
            assert out.read_text() == "old records\n"
        else:
            assert not out.exists()


class TestConsoleEntryPoint:
    def test_module_invocation(self, graph_file):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "cliquereg", "solve", graph_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "clique size: 3" in proc.stdout

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # The reader takes one line and closes the pipe. The scene's inlier
        # list alone is longer than the pipe's capacity, shrunk to one page,
        # so the rest of the output meets a closed pipe.
        import fcntl
        import os
        import subprocess
        import sys

        scene = tmp_path / "s.json"
        assert main(
            ["gen-scene", "--points", "1000", "--associations", "1000",
             "--outlier-ratio", "0.0", "--seed", "11", "--out", str(scene)]
        ) == 0
        read_end, write_end = os.pipe()
        fcntl.fcntl(read_end, fcntl.F_SETPIPE_SZ, 4096)
        with os.fdopen(read_end) as stdout:
            proc = subprocess.Popen(
                [sys.executable, "-m", "cliquereg", "register", "--scenario", str(scene)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
            os.close(write_end)
            assert stdout.readline() == "associations: 1000\n"
        err = proc.communicate(timeout=60)[1]
        assert "Traceback" not in err and "BrokenPipeError" not in err
        assert proc.returncode == 141
