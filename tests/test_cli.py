"""End-to-end tests of the command-line interface."""

import csv
import json

import pytest

from cartandev import builtins as bi
from cartandev.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# -- exit code conventions -------------------------------------------------------


def test_algebra_check_builtin_ok(capsys):
    code, rep, _ = run_json(capsys, "algebra", "check", "--builtin",
                            "heisenberg3")
    assert code == 0
    assert rep == {"dim": 3, "growth": [2, 3], "step": 2, "valid": True}


def test_algebra_check_malformed_json_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 3, "growth": [2, 3],}')
    code, out, err = run(capsys, "algebra", "check", str(bad))
    assert code == 2
    assert "line 1" in err


def test_algebra_check_missing_file(capsys):
    code, _, err = run(capsys, "algebra", "check", "/nonexistent/alg.json")
    assert code == 2


def test_manifold_check_missing_file(capsys):
    code, _, err = run(capsys, "manifold", "check", "/nonexistent/frame.json")
    assert code == 2


def test_manifold_check_malformed_json_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"growth": [2, 3],}')
    code, out, err = run(capsys, "manifold", "check", str(bad))
    assert code == 2
    assert "line 1" in err


def test_algebra_check_invalid_spec(capsys, tmp_path):
    bad = tmp_path / "alg.json"
    bad.write_text(json.dumps({"dim": 3, "growth": [2, 3], "brackets": {}}))
    code, _, err = run(capsys, "algebra", "check", str(bad))
    assert code == 2  # not bracket generating


def test_develop_condition_goursat_infeasible(capsys):
    code, rep, _ = run_json(capsys, "develop-condition", "--builtin",
                            "goursat-halfplane")
    assert code == 1
    assert rep["feasible"] is False
    assert rep["witness_direction"] == [0.0, 1.0]
    assert "witness_point" in rep


def test_develop_condition_contact_feasible(capsys):
    code, rep, _ = run_json(capsys, "develop-condition", "--builtin",
                            "contact-halfplane")
    assert code == 0 and rep["feasible"] is True


def test_christoffel_goursat_inconsistent(capsys):
    code, rep, _ = run_json(capsys, "christoffel", "--builtin",
                            "goursat-halfplane")
    assert code == 1
    assert rep["feasible"] is False and rep["index"] == 2


def test_christoffel_contact(capsys):
    code, rep, _ = run_json(capsys, "christoffel", "--builtin",
                            "contact-halfplane")
    assert code == 0
    assert rep["feasible"] is True
    assert rep["max_defect"] < 1e-12


# -- algebra generation and round-trips --------------------------------------------


def test_algebra_free_then_symmetry(capsys, tmp_path):
    spec_file = tmp_path / "free23.json"
    code, out, _ = run(capsys, "algebra", "free", "--generators", "2",
                       "--step", "3", "-o", str(spec_file))
    assert code == 0
    spec = json.loads(out)
    assert spec["growth"] == [2, 3, 5]
    # the emitted file feeds straight back into the other subcommands
    code, rep, _ = run_json(capsys, "symmetry", str(spec_file))
    assert code == 0
    assert rep["dimH"] == 1
    assert rep["dim_ker_h"] == 0


def test_normal_module_and_obstruction(capsys):
    code, rep, _ = run_json(capsys, "normal-module", "--builtin", "free23")
    assert code == 0
    assert (rep["dim_hom_plus"], rep["dim_im_partial_plus"], rep["dim_N"]) \
        == (53, 13, 40)
    code, rep, _ = run_json(capsys, "normal-module", "--builtin", "free23",
                            "--method", "morimoto")
    assert code == 0 and rep["dim_N"] == 40

    code, rep, _ = run_json(capsys, "obstruction", "--builtin", "free23")
    assert code == 0
    assert rep["vanishes"] is False
    assert rep["obstruction"]["1"] == {"5:1,2,3": "1"}
    assert rep["obstruction"]["2"] == {"4:1,2,3": "-1"}

    code, rep, _ = run_json(capsys, "obstruction", "--builtin", "heisenberg3")
    assert code == 0 and rep["vanishes"] is True


def test_manifold_check_builtin(capsys):
    code, rep, _ = run_json(capsys, "manifold", "check", "--builtin",
                            "contact-halfplane")
    assert code == 0
    assert rep["ok"] is True
    assert rep["growth"] == [2, 3]
    assert rep["structure_residual"] < 1e-9
    assert rep["nilpotentization"]["brackets"] == {"1,2": {"3": 1}}


def test_prolong_output_round_trips(capsys, tmp_path):
    out_file = tmp_path / "prolonged.json"
    code, out, _ = run(capsys, "prolong", "--builtin", "flat-plane",
                       "-o", str(out_file))
    assert code == 0
    spec = json.loads(out_file.read_text())
    assert spec["growth"] == [2, 3]
    assert spec["chart"]["coords"] == ["x", "y", "t1"]
    # the emitted manifold spec must pass the checker unchanged
    code, rep, _ = run_json(capsys, "manifold", "check", str(out_file))
    assert code == 0 and rep["ok"] is True


# -- simulation -----------------------------------------------------------------


def test_simulate_develop_writes_csv(capsys, tmp_path):
    csv_file = tmp_path / "ends.csv"
    code, rep, _ = run_json(capsys, "simulate", "develop", "--builtin",
                            "heisenberg3", "--paths", "50", "--T", "0.05",
                            "--dt", "0.005", "--csv", str(csv_file))
    assert code == 0
    assert rep["paths"] == 50
    assert set(rep["endpoint_mean"]) == {"x", "y", "z"}
    assert rep["ortho_defect"] < 1e-8
    with open(csv_file) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["path", "q1", "q2", "q3"]
    assert len(rows) == 51


def test_simulate_carnot(capsys):
    code, rep, _ = run_json(capsys, "simulate", "carnot", "--builtin",
                            "heisenberg3", "--paths", "200", "--T", "0.1",
                            "--dt", "0.005")
    assert code == 0
    assert set(rep["endpoint_mean"]) == {"n1", "n2", "n3"}


def test_simulate_popp_q0(capsys):
    code, rep, _ = run_json(capsys, "simulate", "popp", "--builtin",
                            "heisenberg3", "--paths", "50", "--T", "0.05",
                            "--dt", "0.005", "--q0", "0.1,0.2,0.0")
    assert code == 0
    assert abs(rep["endpoint_mean"]["x"] - 0.1) < 0.2


def test_simulate_bad_q0(capsys):
    code, _, err = run(capsys, "simulate", "popp", "--builtin", "heisenberg3",
                       "--q0", "0.1,0.2")
    assert code == 2


# -- verification ----------------------------------------------------------------


def test_verify_levi_civita(capsys):
    code, rep, _ = run_json(capsys, "verify", "levi-civita", "--builtin",
                            "hyperbolic-plane")
    assert code == 0
    assert rep["pass"] is True and rep["max_difference"] < 1e-9


def test_verify_equivalence_small(capsys):
    code, rep, _ = run_json(capsys, "verify", "equivalence", "--builtin",
                            "heisenberg3", "--paths", "2000", "--T", "0.1",
                            "--dt", "0.002")
    assert code == 0
    assert rep["pass"] is True and rep["max_abs_z"] <= 3.0


@pytest.mark.parametrize("argv", [
    ("symmetry", "--builtin", "heisenberg3"),
    ("algebra", "free", "--generators", "2", "--step", "3"),
    ("prolong", "--builtin", "flat-plane"),
], ids=["symmetry", "algebra-free", "prolong"])
def test_output_file_matches_stdout(capsys, tmp_path, argv):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, *argv, "-o", str(out_file))
    assert code == 0
    assert json.loads(out) == json.loads(out_file.read_text())


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "symmetry", "--builtin", "nonesuch")
    assert code == 2
