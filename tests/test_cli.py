"""End-to-end tests of the command-line interface."""

import argparse
import csv
import json
import shlex
from pathlib import Path

import pytest

from cartandev import builtins as bi
from cartandev.cli import build_parser, main


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


# [d_x, d_y + x^2 d_z] = 2x d_z: growth (2, 3) on x >= 1/2, but c_12^3 varies
VARYING_FRAME = {
    "chart": {"coords": ["x", "y", "z"], "box": [[0.5, 2], [-1, 1], [-1, 1]]},
    "growth": [2, 3],
    "frame": [["1", "0", "0"], ["0", "1", "x^2"], ["0", "0", "1"]]}


def test_manifold_check_varying_graded_constant_is_infeasible(capsys, tmp_path):
    spec = tmp_path / "frame.json"
    spec.write_text(json.dumps(VARYING_FRAME))
    code, rep, _ = run_json(capsys, "manifold", "check", str(spec))
    assert code == 1
    assert rep["growth"] == [2, 3]
    assert rep["graded_constant"] is False and rep["ok"] is False
    assert rep["nilpotentization"] is None


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


def test_simulate_popp_needs_no_nilpotent_model(capsys, tmp_path):
    # the Popp diffusion reads only the frame: a frame with no constant
    # nilpotentization still simulates
    spec = tmp_path / "frame.json"
    spec.write_text(json.dumps(VARYING_FRAME))
    code, rep, _ = run_json(capsys, "simulate", "popp", str(spec), "--paths", "10",
                            "--T", "0.01", "--dt", "0.005")
    assert code == 0
    assert rep["process"] == "popp"


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


# -- option sets: each command variant declares only the options it reads ---------


def leaf_parsers(parser, words=()):
    """(command words, parser) for every command variant of the CLI."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(words), parser
        return
    for name, p in subs[0].choices.items():
        yield from leaf_parsers(p, words + (name,))


INPUT = {"spec", "--builtin"}
SDE = {"--dt", "--T", "--paths", "--seed"}
LEAF_OPTIONS = {
    "algebra check": INPUT,
    "algebra free": {"--generators", "--step"},
    "symmetry": INPUT,
    "normal-module": INPUT | {"--method", "--basis"},
    "obstruction": INPUT,
    "manifold check": INPUT | {"--tol", "--seed"},
    "christoffel": INPUT | {"--tol", "--seed", "--q0"},
    "develop-condition": INPUT | {"--tol", "--seed"},
    "prolong": INPUT,
    "simulate develop": INPUT | SDE | {"--q0", "--csv"},
    "simulate popp": INPUT | SDE | {"--q0", "--csv"},
    "simulate carnot": INPUT | SDE | {"--csv"},
    "verify generator": INPUT | SDE | {"--q0"},
    "verify equivalence": INPUT | SDE | {"--q0"},
    "verify levi-civita": INPUT | {"--tol"},
    "verify suite": {"--full"},
}


# Options the flat per-command parsers used to accept without any handler
# reading them; each is now rejected as malformed input.
DROPPED = [
    ("algebra check", "--generators"), ("algebra check", "--step"),
    ("algebra check", "--tol"), ("algebra check", "--seed"),
    ("algebra free", "spec"), ("algebra free", "--builtin"),
    ("algebra free", "--tol"), ("algebra free", "--seed"),
    ("symmetry", "--tol"), ("symmetry", "--seed"),
    ("normal-module", "--tol"), ("normal-module", "--seed"),
    ("obstruction", "--tol"), ("obstruction", "--seed"),
    ("prolong", "--tol"), ("prolong", "--seed"),
    ("simulate develop", "--tol"), ("simulate popp", "--tol"),
    ("simulate carnot", "--tol"), ("simulate carnot", "--q0"),
    ("verify generator", "--tol"), ("verify generator", "--full"),
    ("verify equivalence", "--tol"), ("verify equivalence", "--full"),
    ("verify levi-civita", "--full"), ("verify levi-civita", "--seed"),
    ("verify levi-civita", "--dt"), ("verify levi-civita", "--T"),
    ("verify levi-civita", "--paths"), ("verify levi-civita", "--q0"),
    ("verify suite", "spec"), ("verify suite", "--builtin"),
    ("verify suite", "--tol"), ("verify suite", "--seed"),
    ("verify suite", "--dt"), ("verify suite", "--T"),
    ("verify suite", "--paths"), ("verify suite", "--q0"),
]


def test_each_command_variant_declares_exactly_its_options():
    got = {}
    for words, p in leaf_parsers(build_parser()):
        got[words] = {a.option_strings[-1] if a.option_strings else a.dest
                      for a in p._actions if a.dest != "help"}
    assert got == {w: opts | {"--output"} for w, opts in LEAF_OPTIONS.items()}
    assert sum(map(len, got.values())) == 84
    assert len(set(DROPPED)) == 38
    assert not [(w, o) for w, o in DROPPED if o in got[w]]


VALUES = {"spec": ["spec.json"], "--full": ["--full"],
          "--builtin": ["--builtin", "heisenberg3"],
          "--generators": ["--generators", "2"], "--step": ["--step", "3"],
          "--tol": ["--tol", "1e-6"], "--seed": ["--seed", "1"],
          "--dt": ["--dt", "0.01"], "--T": ["--T", "0.1"],
          "--paths": ["--paths", "10"], "--q0": ["--q0", "0,0,0"]}


@pytest.mark.parametrize("words,option", DROPPED,
                         ids=[f"{w}:{o}" for w, o in DROPPED])
def test_unread_option_is_rejected(capsys, words, option):
    argv = words.split()
    build_parser().parse_args(argv)        # the variant alone parses
    with pytest.raises(SystemExit) as e:
        main(argv + VALUES[option])
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command-line interface", 1)[1].split("```sh", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("cartandev ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 13
    parser = build_parser()
    for argv in commands:
        assert callable(parser.parse_args(argv).fn), argv
