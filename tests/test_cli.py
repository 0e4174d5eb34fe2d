import json

import numpy as np
import pytest

from hankeltensor import worked_examples
from hankeltensor.cli import main


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

    def test_eval_digits(self, quartic, capsys):
        # 15.0625 is exact in binary and %g rounds the trailing 5 half-to-even
        code, out, _ = run(capsys, "eval", quartic, "--x", "0.5,2", "--digits", "5")
        assert code == 0
        assert out.strip() == "15.062"

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

    def test_copositive_plane_requires_input(self, capsys):
        code, _, err = run(capsys, "copositive-plane")
        assert code == 2
        assert "error:" in err

    def test_copositive_plane_rejects_file_and_p_together(self, tmp_path, capsys):
        # the file alone is copositive and --p alone is not: neither may win
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"degree": 2, "p": [1.0, 0.0, 1.0]}))
        for argv in ([str(path), "--p", "1,-3,1"], ["--p", "1,-3,1", str(path)]):
            with pytest.raises(SystemExit) as exc:
                main(["copositive-plane", *argv])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "not allowed with argument" in captured.err
            assert "--p" in captured.err and "plane" in captured.err
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
        want = json.loads(open(src).read())["gen"]
        assert got == pytest.approx(want, abs=1e-9)

    def test_assoc_matrix_and_plane(self, tmp_path, quartic, capsys):
        code, out, _ = run(capsys, "assoc-matrix", quartic)
        assert code == 0
        doc = json.loads(out)
        assert doc["size"] == 3 and doc["completion"] is None

        code, out, _ = run(capsys, "plane", quartic)
        assert code == 0
        assert json.loads(out) == {"degree": 4, "p": [1.0, 0.0, -1 / 6, 0.0, 1.0]}

        # a dim-2 tensor is its own plane at every order, past the cap of 60 on built planes
        gen = np.random.default_rng(0).uniform(-1, 1, 63).tolist()
        code, out, _ = run(capsys, "plane", write_tensor(tmp_path, "t62.json", 62, 2, gen))
        assert code == 0
        assert json.loads(out) == {"degree": 62, "p": gen}

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

    def test_nonfinite_or_negative_tol_exits_2(self, tmp_path, capsys):
        path = write_tensor(tmp_path, "s.json", 2, 2, [1.0, 0.0, 1.0])
        for tol in ("nan", "inf", "-1"):
            code, out, err = run(capsys, "is-strong", path, "--tol", tol)
            assert (code, out) == (2, "") and "tol must be finite and nonnegative" in err
            code, out, err = run(capsys, "copositive-plane", "--p", "1,0,1", "--tol", tol)
            assert (code, out) == (2, "") and "tol must be finite and nonnegative" in err

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

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zeig", "x.json", "--mode", "sideways"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2
        capsys.readouterr()
