import json
import os
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hankeltensor
from hankeltensor import worked_examples
from hankeltensor.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tensor(tmp_path, name, order, dim, gen):
    path = tmp_path / name
    path.write_text(json.dumps({"order": order, "dim": dim, "gen": list(gen)}))
    return str(path)


@pytest.fixture
def quartic(tmp_path):
    return write_tensor(tmp_path, "a.json", 4, 2, [1.0, 0.0, -1 / 6, 0.0, 1.0])


class TestBuildAndEval:
    def test_build_prints_document(self, capsys):
        code, out, _ = run(capsys, "build", "--order", "2", "--dim", "2", "--gen", "1,2,3")
        assert code == 0
        assert json.loads(out) == {"order": 2, "dim": 2, "gen": [1.0, 2.0, 3.0]}

    def test_build_output_file(self, tmp_path, capsys):
        dest = tmp_path / "t.json"
        code, out, _ = run(
            capsys, "build", "--order", "2", "--dim", "2", "--gen", "1,2,3", "-o", str(dest)
        )
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["gen"] == [1.0, 2.0, 3.0]

    def test_entry(self, quartic, capsys):
        code, out, _ = run(capsys, "entry", quartic, "--idx", "1,2,1,2")
        assert code == 0
        assert out.strip() == "-0.16666666666666666"

    def test_eval_prints_plain_number(self, quartic, capsys):
        code, out, _ = run(capsys, "eval", quartic, "--x", "1,1")
        assert code == 0
        assert out.strip() == "1"

    def test_eval_grad(self, quartic, capsys):
        code, out, _ = run(capsys, "eval", quartic, "--x", "1,0", "--grad")
        assert code == 0
        parts = [float(s) for s in out.strip().split(",")]
        assert parts == pytest.approx([1.0, 0.0])


class TestVerdictCommands:
    def test_is_strong_negative_verdict(self, quartic, capsys):
        code, out, _ = run(capsys, "is-strong", quartic)
        assert code == 1
        doc = json.loads(out)
        assert doc["is_strong"] is False
        assert doc["min_eigenvalue"] == pytest.approx(-1 / 6, abs=1e-12)
        assert doc["violation_vector"] is not None

    def test_is_strong_positive_verdict(self, tmp_path, capsys):
        path = write_tensor(tmp_path, "s.json", 3, 2, [2.0, 1.0, 1.0, 1.0])
        code, out, _ = run(capsys, "is-strong", path)
        assert code == 0
        assert json.loads(out)["is_strong"] is True

    def test_copositive_plane_witness(self, capsys):
        code, out, _ = run(capsys, "copositive-plane", "--p", "1,-3,1")
        assert code == 1
        doc = json.loads(out)
        assert doc["copositive"] is False
        assert doc["witness_t"] == pytest.approx(0.5, abs=1e-10)
        assert doc["min_phi"] == pytest.approx(-1.0, abs=1e-10)
        assert 0.0 in doc["critical_points"] and 1.0 in doc["critical_points"]

    def test_copositive_plane_from_file(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"degree": 2, "p": [1.0, 0.0, 1.0]}))
        code, out, _ = run(capsys, "copositive-plane", str(path))
        assert code == 0
        assert json.loads(out)["copositive"] is True

    def test_copositive_plane_has_no_degree_option(self, capsys):
        # the degree is always the coefficient count minus one
        with pytest.raises(SystemExit) as exc:
            main(["copositive-plane", "--p", "1,-3,1", "--degree", "2"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_copositive_plane_errors_name_degree_and_p(self, tmp_path, capsys):
        code, out, err = run(capsys, "copositive-plane", "--p", "1,-3")
        assert (code, out) == (2, "")
        assert "plane: a plane needs degree at least 2, got degree 1" in err
        path = tmp_path / "p3.json"
        path.write_text(json.dumps({"degree": 3, "p": [1.0, 2.0]}))
        code, out, err = run(capsys, "copositive-plane", str(path))
        assert (code, out) == (2, "")
        assert "plane: degree 3 needs 4 coefficients in 'p', got 2" in err
        code, out, err = run(capsys, "copositive-plane", "--p", "1,nan,1")
        assert (code, out) == (2, "")
        assert "plane: field 'p' must contain only finite values" in err

    def test_copositive_plane_requires_input(self, capsys):
        code, _, err = run(capsys, "copositive-plane")
        assert code == 2
        assert "error:" in err

    def test_copositive_plane_rejects_file_and_p_together(self, tmp_path, capsys):
        # the file alone is copositive and --p alone is not: neither may win
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"degree": 2, "p": [1.0, 0.0, 1.0]}))
        for argv in ([str(path), "--p", "1,-3,1"], ["--p", "1,-3,1", str(path)], []):
            code, out, err = run(capsys, "copositive-plane", *argv)
            assert (code, out) == (2, "")
            assert "exactly one of" in err
            assert "--p" in err and "plane" in err
        assert run(capsys, "copositive-plane", str(path))[0] == 0
        assert run(capsys, "copositive-plane", "--p", "1,-3,1")[0] == 1

    def test_falsify_witness(self, tmp_path, capsys):
        path = write_tensor(tmp_path, "n.json", 4, 2, [0.0, 0.0, -1 / 6, 0.0, 0.0])
        code, out, _ = run(capsys, "falsify", path)
        assert code == 1
        doc = json.loads(out)
        assert doc["value"] < 0
        assert doc["witness"] == pytest.approx([0.5, 0.5], abs=1e-4)

    def test_falsify_none(self, quartic, capsys):
        code, out, _ = run(capsys, "falsify", quartic)
        assert code == 0
        assert json.loads(out) == {"witness": None, "value": None}


class TestPipelines:
    def test_decompose_compose_roundtrip(self, tmp_path, capsys):
        src = write_tensor(tmp_path, "t.json", 3, 3, [0.3, -1.2, 0.8, 0.05, -0.6, 1.1, 0.0])
        dec = tmp_path / "d.json"
        code, out, _ = run(capsys, "decompose", src, "-o", str(dec))
        assert code == 0 and out == ""
        code, out, _ = run(
            capsys, "compose", str(dec), "--order", "3", "--dim", "3"
        )
        assert code == 0
        got = json.loads(out)["gen"]
        want = json.loads(Path(src).read_text())["gen"]
        assert got == pytest.approx(want, abs=1e-9)

    def test_assoc_matrix_and_plane(self, tmp_path, quartic, capsys):
        code, out, _ = run(capsys, "assoc-matrix", quartic)
        assert code == 0
        doc = json.loads(out)
        assert doc == {"order": 2, "dim": 3, "gen": [1.0, 0.0, -1 / 6, 0.0, 1.0]}
        # odd degree: the completion is the last generating-vector entry
        cubic = write_tensor(tmp_path, "c.json", 3, 2, [1.0, 0.0, 0.0, 1.0])
        code, out, _ = run(capsys, "assoc-matrix", cubic, "--completion", "2.5")
        assert code == 0
        assert json.loads(out) == {"order": 2, "dim": 3, "gen": [1.0, 0.0, 0.0, 1.0, 2.5]}

        code, out, _ = run(capsys, "plane", quartic)
        assert code == 0
        assert json.loads(out) == {"degree": 4, "p": [1.0, 0.0, -1 / 6, 0.0, 1.0]}

        # a dim-2 tensor is its own plane at every order, as a built plane is at every degree
        gen = np.random.default_rng(0).uniform(-1, 1, 63).tolist()
        code, out, _ = run(capsys, "plane", write_tensor(tmp_path, "t62.json", 62, 2, gen))
        assert code == 0
        assert json.loads(out) == {"degree": 62, "p": gen}

    def test_tensor_commands_read_the_matrix(self, tmp_path, quartic, capsys):
        matrix = str(tmp_path / "m.json")
        assert run(capsys, "assoc-matrix", quartic, "-o", matrix)[0] == 0
        code, out, _ = run(capsys, "is-strong", matrix)
        assert code == 1
        assert json.loads(out)["min_eigenvalue"] == pytest.approx(-1 / 6, abs=1e-12)
        # z^T M z at the middle unit vector is the middle antidiagonal value
        code, out, _ = run(capsys, "eval", matrix, "--x", "0,1,0")
        assert code == 0 and float(out) == -1 / 6
        code, out, _ = run(capsys, "zeig", matrix, "--mode", "min")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(-1 / 6, abs=1e-12)

    def test_from_measure(self, tmp_path, capsys):
        mu = tmp_path / "mu.json"
        mu.write_text(json.dumps({"nodes": [1.0, -1.0], "weights": [0.75, 0.25]}))
        code, out, _ = run(capsys, "from-measure", str(mu), "--order", "3", "--dim", "2")
        assert code == 0
        assert json.loads(out)["gen"] == [1.0, 0.5, 1.0, 0.5]

    def test_hadamard(self, tmp_path, quartic, capsys):
        other = write_tensor(tmp_path, "b.json", 4, 2, [0.0, 1.0, 1.0, 1.0, 0.0])
        code, out, _ = run(capsys, "hadamard", quartic, other)
        assert code == 0
        assert json.loads(out)["gen"] == [0.0, 0.0, -1 / 6, 0.0, 0.0]

    def test_bounds_sources(self, tmp_path, quartic, capsys):
        code, out, _ = run(capsys, "bounds", quartic)
        assert code == 0
        assert json.loads(out) == {"upper_for_min": 1.0, "lower_for_max": 1.0, "source": "prop6"}
        code, out, _ = run(capsys, "bounds", quartic, "--source", "prop7")
        assert code == 0
        doc = json.loads(out)
        assert doc["upper_for_min"] == pytest.approx(0.25, abs=1e-8)
        assert doc["lower_for_max"] == pytest.approx(1.0, abs=1e-8)

        # odd (dim-1)*order: the form x1^3 + x2^3 takes -1 and 1 on the circle
        cubic = write_tensor(tmp_path, "c.json", 3, 2, [1.0, 0.0, 0.0, 1.0])
        code, out, _ = run(capsys, "bounds", cubic, "--source", "prop7")
        assert code == 0
        doc = json.loads(out)
        assert doc["upper_for_min"] == pytest.approx(-1.0, abs=1e-12)
        assert doc["lower_for_max"] == pytest.approx(1.0, abs=1e-12)


class TestEigenCommands:
    def test_zeig_deterministic_bytes(self, quartic, capsys):
        code, out1, _ = run(capsys, "zeig", quartic, "--mode", "min")
        assert code == 0
        code, out2, _ = run(capsys, "zeig", quartic, "--mode", "min")
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["kind"] == "Z"
        assert doc["value"] == pytest.approx(0.25, abs=1e-8)
        assert doc["converged"] is True
        assert doc["steps"] > 0 and 0 <= doc["rejected"] <= doc["steps"]

    def test_heig2(self, tmp_path, capsys):
        path = write_tensor(tmp_path, "c.json", 3, 2, [1.0, 1.0, 1.0, 1.0])
        code, out, _ = run(capsys, "heig2", path)
        assert code == 0
        pairs = json.loads(out)["pairs"]
        assert [p["value"] for p in pairs] == pytest.approx([4.0, 0.0], abs=1e-9)
        assert all(p["kind"] == "H" for p in pairs)


class TestWorkedExamples:
    def test_paper_examples_pass(self, capsys):
        code, out, _ = run(capsys, "paper-examples")
        assert code == 0
        assert "paper claim not reproduced" in out
        assert "all checks behaved as documented" in out

    def test_paper_examples_deviation_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(worked_examples, "copositive_falsify", lambda a: None)
        code, out, _ = run(capsys, "paper-examples")
        assert code == 1
        assert "[FAIL] A o B copositivity witness" in out
        assert out.endswith("some checks deviated from the documented outcomes\n")


class TestErrorPaths:
    def test_unreadable_file(self, capsys):
        code, _, err = run(capsys, "entry", "/nonexistent.json", "--idx", "1,1")
        assert code == 2 and "error:" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, err = run(capsys, "eval", str(path), "--x", "1,1")
        assert code == 2 and "invalid JSON" in err

    def test_bad_field(self, tmp_path, capsys):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"order": 2, "dim": 2, "gen": "nope"}))
        code, _, err = run(capsys, "eval", str(path), "--x", "1,1")
        assert code == 2 and "field 'gen'" in err

    def test_index_out_of_range(self, quartic, capsys):
        code, _, err = run(capsys, "entry", quartic, "--idx", "1,1,1,5")
        assert code == 2 and "error:" in err

    def test_bad_number_list(self, quartic, capsys):
        code, _, err = run(capsys, "eval", quartic, "--x", "1,abc")
        assert code == 2 and "--x expects" in err
        code, _, err = run(capsys, "entry", quartic, "--idx", "1,a")
        assert code == 2 and "--idx expects a comma-separated list of integers" in err

    def test_verdicts_and_printouts_take_no_settings(self, tmp_path, capsys):
        path = write_tensor(tmp_path, "s.json", 2, 2, [1.0, 0.0, 1.0])
        for argv in (
            ["is-strong", path, "--tol", "1e-10"],
            ["copositive-plane", "--p", "1,0,1", "--tol", "1e-10"],
            ["eval", path, "--x", "1,1", "--digits", "5"],
            ["entry", path, "--idx", "1,1", "--digits", "5"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and "error:" in captured.err
            if argv[0] == "copositive-plane":
                # argparse takes 1e-10 for a plane file, yet the error names --tol
                assert "unrecognized arguments: --tol" in captured.err

    def test_overflowing_form_exits_2(self, capsys, tmp_path):
        path = write_tensor(tmp_path, "q.json", 4, 2, [1.0, 0.0, 1.0, 0.0, 1.0])
        code, out, err = run(capsys, "eval", path, "--x", "1e100,1e100")
        assert (code, out) == (2, "") and "the form overflows the float range" in err
        code, out, err = run(capsys, "eval", path, "--x", "1e200,1e200", "--grad")
        assert (code, out) == (2, "") and "the gradient form overflows the float range" in err

    def test_degree_past_the_root_engine_exits_2(self, tmp_path, capsys):
        gen = np.random.default_rng(0).uniform(0.5, 1.0, 1031)
        t1024 = write_tensor(tmp_path, "t1024.json", 1024, 2, gen[:1025])
        cases = [
            ("bounds", t1024, "--source", "prop7"),
            ("heig2", write_tensor(tmp_path, "t513.json", 513, 2, gen[:514])),
            ("copositive-plane", "--p", ",".join(map(str, gen[:1026]))),
            ("zeig", write_tensor(tmp_path, "t1030.json", 1030, 2, gen), "--mode", "max"),
        ]
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "exceeds the root engine's limit 1023" in err

    def test_overflowing_zeig_shift_scale_exits_2(self, tmp_path, capsys):
        gen = np.random.default_rng(660).uniform(-1, 1, 1321)
        path = write_tensor(tmp_path, "t660.json", 660, 3, gen)
        code, out, err = run(capsys, "zeig", path, "--mode", "max")
        assert (code, out) == (2, "")
        assert "shift scale overflows at order 660, dim 3" in err

    def test_zeig_restarts_beyond_the_scan_table_exit_2(self, tmp_path, capsys):
        path = write_tensor(tmp_path, "t.json", 3, 5, np.linspace(-1.0, 1.0, 13))
        code, out, err = run(capsys, "zeig", path, "--mode", "max", "--restarts", "1025")
        assert (code, out) == (2, "")
        assert "restarts must be in 1..1024" in err
        code, out, _ = run(capsys, "zeig", path, "--mode", "max", "--restarts", "1024", "--iters", "1")
        assert code == 0 and json.loads(out)["steps"] > 0

    def test_failed_output_write_exits_2(self, tmp_path, quartic, capsys):
        # the quartic is not strong, yet the failed write, not the verdict, sets the code
        dest = str(tmp_path / "missing" / "out.json")
        for argv in (
            ["build", "--order", "2", "--dim", "2", "--gen", "1,2,3", "-o", dest],
            ["is-strong", quartic, "-o", dest],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error:")
        assert not (tmp_path / "missing").exists()

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zeig", "x.json", "--mode", "sideways"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_zeig_has_no_seed_flag(self, quartic, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zeig", quartic, "--mode", "max", "--seed", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestEntryPoints:
    def test_python_dash_m_runs_main(self, tmp_path, monkeypatch, capsys):
        # a fresh import, as under `python -m`: runpy warns when the module
        # it runs as __main__ is already imported
        monkeypatch.delitem(sys.modules, "hankeltensor.cli")
        dest = tmp_path / "t.json"
        for argv, code in (
            (["build", "--order", "2", "--dim", "2", "--gen", "1,2,3", "-o", str(dest)], 0),
            (["is-strong", str(tmp_path / "missing.json")], 2),
        ):
            monkeypatch.setattr(sys, "argv", ["hankel", *argv])
            with pytest.raises(SystemExit) as exc:
                runpy.run_module("hankeltensor.cli", run_name="__main__")
            assert exc.value.code == code
        assert json.loads(dest.read_text())["gen"] == [1.0, 2.0, 3.0]
        assert "error:" in capsys.readouterr().err

    def test_each_subcommand_loads_only_the_modules_it_calls(self, tmp_path):
        # one fresh process: the loaded hankeltensor.* modules after the import
        # and after each subcommand, with the subcommand's exit status
        script = """
import contextlib, io, json, sys
from hankeltensor.cli import main

def loaded(code):
    print(json.dumps([code, sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("hankeltensor."))]))

loaded(None)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded(code)
"""
        t = str(tmp_path / "t.json")
        steps = [
            ["build", "--order", "4", "--dim", "2", "--gen", "1,0,-0.16666666666666666,0,1", "-o", t],
            ["is-strong", t, "-o", str(tmp_path / "s.json")],
            ["decompose", t, "-o", str(tmp_path / "d.json")],
            ["paper-examples"],
        ]
        src = str(Path(hankeltensor.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(steps)], env=env, capture_output=True, text=True, check=True
        )
        base = ["cli", "core", "errors", "serialize"]
        everything = sorted(base + ["associated", "plane", "polyroots", "spectra", "vandermonde", "worked_examples"])
        assert [json.loads(line) for line in proc.stdout.splitlines()] == [
            [None, base],
            [0, base],
            [1, sorted(base + ["associated"])],
            [0, sorted(base + ["associated", "vandermonde"])],
            [0, everything],
        ]

    def test_readme_examples_parse(self):
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        lines = [
            line for block in blocks for line in block.splitlines() if line.startswith("hankel ")
        ]
        assert lines
        parser = build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line, comments=True)[1:])
