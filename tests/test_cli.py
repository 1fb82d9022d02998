"""Command-line interface: outputs, exit codes, config validation."""

import json
import subprocess
import sys

import numpy as np
import pytest

from affinebv.cli import main
from affinebv.grid import GridFunction, GridSpec
from affinebv.serialize import read_afg, write_afg

from conftest import src_env


@pytest.fixture
def square_cfg(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(
        {"shape": "box", "extents": [[0.0, 1.0], [0.0, 1.0]]}))
    return str(path)


@pytest.fixture
def disk_cfg(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(
        {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0}))
    return str(path)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstants:
    def test_dim2_digits(self, capsys):
        code, out, _ = run_main(capsys, "constants", "--dim", "2")
        assert code == 0
        doc = json.loads(out)
        assert float(doc["alpha_n"]) == pytest.approx(
            3.9374024864306049, abs=1e-15)
        assert float(doc["sharp_sobolev"]) == pytest.approx(
            2 * np.sqrt(np.pi), abs=1e-15)
        assert float(doc["d0"]) == pytest.approx(
            0.98435062160765123, abs=1e-15)

    def test_dim3_digits(self, capsys):
        code, out, _ = run_main(capsys, "constants", "--dim", "3")
        assert code == 0
        doc = json.loads(out)
        assert float(doc["alpha_n"]) == pytest.approx(
            4.6497894060385059, abs=1e-14)
        assert float(doc["d0"]) == pytest.approx(
            0.97639459170768218, abs=1e-14)

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "c.json"
        code, _, _ = run_main(capsys, "constants", "--dim", "2",
                              "--out", str(out))
        assert code == 0
        assert "alpha_n" in json.loads(out.read_text())

    @pytest.mark.parametrize("dim", ["1", "0"])
    def test_bad_dim_exits_2(self, capsys, dim):
        code, out, err = run_main(capsys, "constants", "--dim", dim)
        assert code == 2
        assert out == ""
        assert err == f"configuration error: --dim must be >= 2, got {dim}\n"

    @pytest.mark.parametrize("dim", ["171", "100000"])
    def test_overflowing_dim_exits_2(self, capsys, dim):
        code, out, err = run_main(capsys, "constants", "--dim", dim)
        assert code == 2
        assert out == ""
        assert err == (f"configuration error: the constants of dimension "
                       f"{dim} are not finite floats\n")


class TestEnergy:
    def test_square_indicator(self, capsys, square_cfg):
        code, out, _ = run_main(capsys, "energy", "--domain", square_cfg,
                                "--grid", "128", "--dirs", "256")
        assert code == 0
        doc = json.loads(out)
        assert doc["energy"]["value"] == pytest.approx(3.93740249, rel=0.02)
        assert doc["energy"]["degenerate"] is False

    def test_disk_indicator(self, capsys, disk_cfg):
        code, out, _ = run_main(capsys, "energy", "--domain", disk_cfg,
                                "--grid", "128", "--dirs", "256")
        assert code == 0
        doc = json.loads(out)
        assert doc["energy"]["value"] == pytest.approx(2 * np.pi, rel=0.03)

    def test_missing_domain_file(self, capsys, tmp_path):
        code, _, err = run_main(capsys, "energy", "--domain",
                                str(tmp_path / "nope.json"))
        assert code == 2
        assert "configuration error" in err

    def test_unknown_keys_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"shape": "ball", "center": [0, 0],
                                    "radius": 1.0, "colour": "red"}))
        code, _, err = run_main(capsys, "energy", "--domain", str(path))
        assert code == 2
        assert "colour" in err

    def test_missing_shape_key(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"radius": 1.0}))
        code, _, err = run_main(capsys, "energy", "--domain", str(path))
        assert code == 2

    @pytest.mark.parametrize("desc", [
        {"shape": "ball"},
        {"shape": "ball", "center": [0.0, 0.0], "radius": "x"},
        {"shape": "ball", "center": [0.0, 0.0], "radius": -1},
        {"shape": ["ball"], "center": [0.0, 0.0], "radius": 1.0},
        {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0,
         "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        {"shape": "box", "extents": [[0.0, 1.0], [0.0, 1.0]], "radius": 1.0},
    ], ids=["missing-keys", "non-numeric-radius", "negative-radius",
            "list-shape", "ball-with-matrix", "box-with-radius"])
    def test_bad_descriptor_exits_2(self, capsys, tmp_path, desc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(desc))
        code, _, err = run_main(capsys, "energy", "--domain", str(path))
        assert code == 2
        assert err.startswith("configuration error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("extent", ["x", [[0.0, 1.0]], [[0.0, "a"], [0.0, 1.0]],
                                        [[1.0, 0.0], [0.0, 1.0]]],
                             ids=["string", "one-axis", "non-numeric", "inverted"])
    def test_bad_grid_extent_exits_2(self, capsys, tmp_path, extent):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"shape": "ball", "center": [0.0, 0.0],
                                    "radius": 0.5, "grid_extent": extent}))
        code, _, err = run_main(capsys, "energy", "--domain", str(path))
        assert code == 2
        assert err.startswith("configuration error: grid_extent")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("option", [["--dirs", "3"], ["--sigma", "-1"],
                                        ["--grid", "0"]],
                             ids=["odd-dirs", "negative-sigma", "zero-grid"])
    def test_bad_option_exits_2(self, capsys, disk_cfg, option):
        code, _, err = run_main(capsys, "energy", "--domain", disk_cfg,
                                "--grid", "32", *option)
        assert code == 2
        assert err.startswith("configuration error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cut", [None, 0, 14, -5],
                             ids=["missing", "empty", "short-header",
                                  "short-values"])
    def test_bad_field_file_exits_2(self, capsys, disk_cfg, tmp_path, cut):
        path = tmp_path / "field.afg"
        if cut is not None:
            spec = GridSpec(dim=2, shape=(32, 32), spacing=0.1, origin=(0, 0))
            write_afg(str(path), GridFunction.zeros(spec))
            path.write_bytes(path.read_bytes()[:cut])
        code, out, err = run_main(capsys, "energy", "--domain", disk_cfg,
                                  "--grid", "32", "--field", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error:")
        assert err.count("\n") == 1

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_main(capsys, "energy", "--domain", str(path))
        assert code == 2


class TestOracle:
    def test_square(self, capsys):
        code, out, _ = run_main(capsys, "oracle", "--body", "square",
                                "--dirs", "16")
        assert code == 0
        doc = json.loads(out)
        assert doc["energy"] == pytest.approx(3.93740249, rel=1e-6)
        assert len(doc["psi"]) == 16

    def test_disk(self, capsys):
        code, out, _ = run_main(capsys, "oracle", "--body", "disk",
                                "--dirs", "8")
        doc = json.loads(out)
        assert code == 0
        assert doc["energy"] == pytest.approx(2 * np.pi, rel=1e-6)
        assert np.allclose(doc["psi"], 4.0)

    def test_ellipse_requires_matrix(self, capsys):
        code, _, err = run_main(capsys, "oracle", "--body", "ellipse")
        assert code == 2
        assert "--matrix" in err

    @pytest.mark.parametrize("matrix", ["[[1,0]", "[[1,2],[3]]", '"x"', "5"],
                             ids=["unclosed", "ragged", "string", "scalar"])
    def test_bad_matrix_exits_2(self, capsys, matrix):
        code, out, err = run_main(capsys, "oracle", "--body", "ellipse",
                                  "--matrix", matrix)
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error: --matrix")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("matrix", ["[[1e200,0],[0,1e200]]",
                                        "[[1e160,0],[0,1e160]]",
                                        "[[NaN,0],[0,1]]"])
    def test_non_finite_ellipse_exits_2(self, capsys, matrix):
        # the determinant overflows, or the matrix holds a NaN
        code, out, err = run_main(capsys, "oracle", "--body", "ellipse",
                                  "--matrix", matrix)
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error: ellipsoid matrix")
        assert err.count("\n") == 1

    def test_ellipse(self, capsys):
        code, out, _ = run_main(capsys, "oracle", "--body", "ellipse",
                                "--matrix", "[[2.0, 0.0], [0.0, 0.5]]",
                                "--dirs", "8")
        assert code == 0
        assert json.loads(out)["energy"] == pytest.approx(
            2 * np.pi, rel=1e-6)


class TestMinimize:
    def test_smoke_with_field_dump(self, capsys, square_cfg, tmp_path):
        out = tmp_path / "result.json"
        field = tmp_path / "extremal.afg"
        code, _, _ = run_main(
            capsys, "minimize", "--level", "cA", "--q", "1.0",
            "--domain", square_cfg, "--grid", "48", "--dirs", "64",
            "--max-iters", "60", "--starts", "2",
            "--out", str(out), "--field-out", str(field))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["level"] > 0
        assert doc["norm_residual"] <= 1e-8
        u = read_afg(str(field))
        assert u.values.any()

    def test_start_records_in_json(self, capsys, square_cfg):
        code, out, _ = run_main(
            capsys, "minimize", "--level", "cA", "--q", "1.0",
            "--domain", square_cfg, "--grid", "32", "--dirs", "64",
            "--max-iters", "20", "--starts", "2")
        assert code == 0
        starts = json.loads(out)["starts"]
        assert [s["stop"] for s in starts] == ["max_iters"] * 2
        assert all(s["iterations"] == 20 for s in starts)

    def test_bad_level_flag_exits_2(self, square_cfg):
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "--level", "bogus", "--q", "1.0",
                  "--domain", square_cfg])
        assert exc.value.code == 2

    def test_bad_exponent_exits_2(self, capsys, square_cfg):
        code, _, err = run_main(capsys, "minimize", "--level", "cA",
                                "--q", "0.5", "--domain", square_cfg)
        assert code == 2
        assert err.startswith("configuration error: exponents")
        assert err.count("\n") == 1

    def test_missing_required_flag_exits_2(self, square_cfg):
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "--domain", square_cfg])
        assert exc.value.code == 2

    @pytest.mark.parametrize("option,message", [
        (["--starts", "0"], "n_starts must be >= 1"),
        (["--max-iters", "-1"], "max_iters must be >= 0"),
        (["--grid", "0"], "--grid must be >= 1"),
        (["--b-const", "-1"], "b_const must be >= 0"),
        (["--b-const", "nan"], "b_const must be a finite number"),
        (["--a-const", "inf"], "a_const must be a finite number"),
        (["--q", "inf"], "exponents must be finite"),
        (["--r", "inf"], "exponents must be finite"),
    ], ids=["zero-starts", "negative-iters", "zero-grid", "negative-b",
            "nan-b", "infinite-a", "infinite-q", "infinite-r"])
    def test_bad_solver_option_exits_2(self, capsys, square_cfg, option,
                                       message):
        code, out, err = run_main(capsys, "minimize", "--level", "cA",
                                  "--q", "1.0", "--domain", square_cfg,
                                  "--grid", "32", *option)
        assert code == 2
        assert out == ""
        assert err.startswith(f"configuration error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("weight", [{"a_const": "x"}, {"a_const": True},
                                        {"a_const": 10 ** 400}, {"b_const": -1}],
                             ids=["string-a", "bool-a", "huge-int-a", "negative-b"])
    def test_bad_descriptor_weight_exits_2(self, capsys, tmp_path, weight):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({"shape": "box",
                                    "extents": [[0.0, 1.0], [0.0, 1.0]],
                                    **weight}))
        code, out, err = run_main(capsys, "minimize", "--level", "cA",
                                  "--q", "1.0", "--domain", str(path),
                                  "--grid", "32")
        assert code == 2
        assert out == ""
        assert err.startswith(f"configuration error: {next(iter(weight))}")
        assert err.count("\n") == 1

    def test_negative_seed_exits_2(self, capsys, square_cfg):
        code, out, err = run_main(capsys, "minimize", "--level", "cA",
                                  "--q", "1.0", "--domain", square_cfg,
                                  "--grid", "32", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "configuration error: seed must be >= 0, got -1\n"

    def test_every_start_unprojectable_is_not_degenerate(self, capsys,
                                                         tmp_path):
        # every inside cell of this thin box is a rim cell, so the zero-trace
        # projection fails for every start: a failure, not a degenerate level
        path = tmp_path / "thin.json"
        path.write_text(json.dumps(
            {"shape": "box", "extents": [[0.1, 0.9], [0.45, 0.5]],
             "grid_extent": [[0, 1], [0, 1]]}))
        code, out, _ = run_main(capsys, "minimize", "--level", "cA0",
                                "--q", "1", "--domain", str(path),
                                "--grid", "32", "--dirs", "64", "--starts", "2")
        assert code == 0
        doc = json.loads(out)
        assert [s["stop"] for s in doc["starts"]] == ["projection_failed"] * 2
        assert doc["failed"] is True
        assert doc["degenerate"] is False


class TestVerify:
    def test_pass_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, err = run_main(
            capsys, "verify", "--suite", "wirtinger_gap",
            "--grid", "64", "--dirs", "64", "--fields", "2",
            "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert "PASS wirtinger_gap" in err

    def test_failure_exit_one(self, capsys, monkeypatch):
        from affinebv import verify

        # no eigenvalue ratio lies below a negative bound
        monkeypatch.setattr(verify, "COV_EIGEN_EPS", -1.0)
        code, out, err = run_main(
            capsys, "verify", "--suite", "wirtinger_gap",
            "--grid", "64", "--dirs", "64", "--fields", "2")
        assert code == 1
        assert err.startswith("FAIL wirtinger_gap")
        assert json.loads(out)["passed"] is False

    def test_grid_too_small_names_region_per_axis(self, capsys):
        # 5 cells of 0.15 leave only [0.35, 0.65] on each axis for the
        # shape, printed per axis like its bounding box
        code, out, err = run_main(capsys, "verify", "--grid", "5")
        assert code == 2
        assert out == ""
        assert err == ("configuration error: shape bounding box "
                       "[[0.0, 1.0], [0.0, 1.0]] exceeds grid "
                       "[[0.35, 0.65], [0.35, 0.65]] (needs 2 cells of margin)\n")

    def test_forced_tolerance_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "wirtinger_gap",
                  "--forced-tolerance", "-1.0"])
        assert exc.value.code == 2

    def test_summary_prints_slack_and_vacuous(self, capsys, monkeypatch):
        from affinebv import verify

        # an empty corpus is rejected, not reported as checks that passed
        code, out, err = run_main(
            capsys, "verify", "--grid", "64", "--dirs", "64", "--fields", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error: n_fields must be >= 1")
        assert err.count("\n") == 1
        _, _, err = run_main(
            capsys, "verify", "--suite", "wirtinger_gap", "--grid", "64",
            "--dirs", "64", "--fields", "2")
        assert "slack" in err and "vacuous" not in err
        # all-zero random fields leave the checks that skip zero fields with
        # nothing to test; the fixed corpora still test something
        monkeypatch.setattr(
            verify, "random_bumps",
            lambda mask, count, rng, signed=False:
                [GridFunction.zeros(mask.spec) for _ in range(count)])
        code, _, err = run_main(
            capsys, "verify", "--grid", "64", "--dirs", "64", "--fields", "2")
        assert code == 0
        lines = err.strip().splitlines()
        assert len(lines) == 7
        for line in lines:
            assert line.startswith("PASS") and "slack" in line
        vacuous = [line.split()[1].rstrip(":") for line in lines
                   if "vacuous" in line]
        assert vacuous == ["sobolev_zhang", "superadditivity",
                           "affine_invariance"]

    def test_tiny_grid_exit_two(self, capsys):
        code, _, err = run_main(capsys, "verify", "--grid", "2")
        assert code == 2
        assert err.startswith("configuration error:")
        assert err.count("\n") == 1

    def test_zero_grid_exit_two(self, capsys):
        code, out, err = run_main(capsys, "verify", "--grid", "0")
        assert code == 2
        assert out == ""
        assert err == "configuration error: --grid must be >= 1, got 0\n"

    def test_negative_fields_exit_two(self, capsys):
        code, out, err = run_main(capsys, "verify", "--fields", "-3")
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error: n_fields must be >= 1")
        assert err.count("\n") == 1

    def test_negative_seed_exit_two(self, capsys):
        code, out, err = run_main(capsys, "verify", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "configuration error: seed must be >= 0, got -1\n"

    def test_unknown_suite_exit_two(self, capsys):
        code, _, err = run_main(capsys, "verify", "--suite", "nonsense")
        assert code == 2
        assert "unknown suite" in err


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "affinebv.cli", "constants", "--dim", "2"],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0
        assert "alpha" in proc.stdout

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
