"""End-to-end tests of the command-line interface."""

import argparse
import ast
import csv
import functools
import hashlib
import json
import math
import shlex
from pathlib import Path

import pytest

from cartandev import builtins as bi
from cartandev import checks as ck
from cartandev import cli
from cartandev import develop as dv
from cartandev.cli import build_parser, main
from cartandev.errors import CartandevError


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
    code, rep, _ = run_json(capsys, "normal-module", "--builtin", "free23", "--basis")
    assert code == 0
    assert (rep["dim_hom_plus"], rep["dim_im_partial_plus"], rep["dim_N"]) \
        == (53, 13, 40)
    assert len(rep["basis"]) == rep["dim_N"]
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


# sha256 of the stdout of each exact command, recorded before both normal
# modules were built from their annihilators; every later engine must print
# these bytes
CLI_DIGESTS = {
    "heisenberg3": {
        "popp": "eafe3bf3c4daaee2f8963fe7b112454bae596da3a14752598da05e6c13cfc3d4",
        "morimoto": "f811112400f56f9dae62300fa8e9ae9bbeaf9432e37307458e547cf5c10d9d22",
        "obstruction": "7c7e72ff4bfe53d269e52a63f7dea4daefc009173b17f014b29c37ac71e0e9b9",
        "symmetry": "792380a1944cab94bbb8269cd1d70b218fb626d1ca16f04c4621cf1514aa351b"},
    "engel": {
        "popp": "d682f07644c6fa01ab190510b5b90f90b776ad72b47fa3c17eff85d004352898",
        "morimoto": "3c55d377b86581a15c75932fd56f1eaf6ba8ea2f830bc9b4305731716d64b229",
        "obstruction": "fb6ea14599e550b80952ca12a02f8e9ccb656b0c33df77c06f862988d1eb6794",
        "symmetry": "a5df2cda212a961545f674c6201044c865aba9adfa7dde696734e7ef44bdc15c"},
    "free23": {
        "popp": "2469656964d6d92b2089e2a91be275b8d6af047447b9b4cf642f5938baf358be",
        "morimoto": "8628b72e655907b276e61320d0ec4d1462131847e4c0f8fcc9cead18456abe94",
        "obstruction": "6387eba84675c2322e2281b93beaea429807c1d9e570f114cd65b4b61ed9fd06",
        "symmetry": "0cd1114ec959393768e048da11c685836edb5ae2cc353949888536c4c6f2c797"},
    "free24": {
        "popp": "9f2add775c4893424f7e3cb2602b8ecf11ce16d0b5cb47a2886a108db49b0972",
        "morimoto": "36eab92f02126a6c4840b53199a3d5bb65e8bf2e22bee26137a8b9f890a05f79",
        "obstruction": "9eb9b23c7b7d778a9cd927ca21851699f4438df1547f8be012455470254ca81e",
        "symmetry": "e598f497463817f6acccad81795e34097a4d35727a01bee4df29d7a08571dadc"},
}


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_exact_command_outputs_are_pinned(capsys, name):
    argv = {"popp": ["normal-module", "--method", "popp", "--basis"],
            "morimoto": ["normal-module", "--method", "morimoto", "--basis"],
            "obstruction": ["obstruction"], "symmetry": ["symmetry"]}
    digests = {}
    for key, args in argv.items():
        code, out, _ = run(capsys, *args, "--builtin", name)
        assert code == 0
        digests[key] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == CLI_DIGESTS[name]


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


def test_simulate_popp_literal_division_by_zero_is_an_error(capsys, tmp_path):
    # a frame component 1/0 is a singular frame, reported, not a traceback
    spec = bi.frame("contact-halfplane").to_spec()
    spec["frame"][0][0] = "1/0"
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "simulate", "popp", str(path), "--paths", "4",
                         "--T", "0.01", "--dt", "0.005")
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_simulate_popp_infinite_non_horizontal_component_is_an_error(capsys, tmp_path):
    # X3's t1 component 1/0 cancels out of det X along X1 = (0, 0, 1), so
    # only the constant check at construction sees it
    spec = bi.frame("contact-halfplane").to_spec()
    spec["frame"][2][2] = "1/0"
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "simulate", "popp", str(path), "--paths", "4",
                         "--T", "0.01", "--dt", "0.005")
    assert code == 2
    assert out == "" and err.startswith("error: X3 has the non-finite constant")


def test_manifold_check_overflowing_constant_is_an_error(capsys, tmp_path):
    # a constant power or exp that overflows folds to inf, as its evaluation
    # would, and the frame check reports it: no OverflowError or
    # RuntimeWarning out of the parser
    spec = bi.frame("contact-halfplane").to_spec()
    path = tmp_path / "frame.json"
    for text in ("(10*10*10*10*10*10*10*10*10*10)^40", "exp(1000)"):
        spec["frame"][2][2] = text
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "manifold", "check", str(path))
        assert code == 2
        assert out == "" and err == "error: X3 has the non-finite constant component t1 = inf\n"


def test_simulate_bad_q0(capsys):
    code, _, err = run(capsys, "simulate", "popp", "--builtin", "heisenberg3",
                       "--q0", "0.1,0.2")
    assert code == 2


def _frame_spec(*keys, value):
    """heisenberg3's manifold spec with the entry at keys set to value."""
    spec = bi.frame("heisenberg3").to_spec()
    functools.reduce(lambda d, k: d[k], keys[:-1], spec)[keys[-1]] = value
    return "manifold", spec


def _algebra_spec(**entries):
    """heisenberg3's algebra spec with the given top-level entries replaced."""
    return "algebra", {**bi.algebra("heisenberg3").to_spec(), **entries}


SIMULATE = ("simulate", "popp", "--paths", "4", "--T", "0.01", "--dt", "0.005")


@pytest.mark.parametrize("spec,argv", [
    (None, (*SIMULATE, "--builtin", "heisenberg3", "--q0", "a,b,c")),
    (None, (*SIMULATE, "--builtin", "heisenberg3", "--q0", "1,,2")),
    (_frame_spec("frame", 0, 0, value=1), ("manifold", "check")),
    (_frame_spec("growth", value=["a"]), ("manifold", "check")),
    (_algebra_spec(brackets={"1,2": {"x": 1}}), ("algebra", "check")),
    (_algebra_spec(brackets={"1,2": {"3": "abc"}}), ("algebra", "check")),
    (_algebra_spec(brackets={"1,2": {"3": "1/0"}}), ("algebra", "check")),
    (_frame_spec("chart", "box", value=[[1, -1], [-1, 1], [-1, 1]]), SIMULATE),
    (_frame_spec("chart", "box", value=[[0, 1], [0], [0, 1]]), SIMULATE),
    # whole numbers are not truncated: int() would read these as [2, 3] and 3
    (_algebra_spec(growth=[2.7, 3]), ("algebra", "check")),
    (_frame_spec("growth", value=[2.9, 3.2]), ("manifold", "check")),
    (_algebra_spec(dim=3.5), ("algebra", "check")),
], ids=["q0-letters", "q0-empty", "component-number", "growth-letter", "bracket-target",
        "coefficient-letters", "coefficient-over-zero", "box-reversed", "box-ragged",
        "algebra-growth-fraction", "manifold-growth-fraction", "dim-fraction"])
def test_malformed_input_exits_2(capsys, tmp_path, spec, argv):
    # each is an input error, not a traceback (exit 1 means infeasible),
    # and a reversed box is not a run whose every path left the chart
    if spec:
        path = tmp_path / f"{spec[0]}.json"
        path.write_text(json.dumps(spec[1]))
        argv = (*argv, str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("input error:")


# -- verification ----------------------------------------------------------------


def test_verify_levi_civita(capsys):
    code, rep, _ = run_json(capsys, "verify", "levi-civita", "--builtin",
                            "hyperbolic-plane")
    assert code == 0
    assert rep["pass"] is True and rep["max_difference"] < 1e-9


def test_verify_generator_report(capsys):
    # a small run, its config fixed before it first ran: the exit code
    # follows the report's pass, with one row per test function
    code, rep, _ = run_json(capsys, "verify", "generator", "--builtin", "contact-halfplane",
                            "--paths", "2000", "--dt", "1e-3", "--T", "0.01", "--seed", "1")
    assert code == (0 if rep["pass"] else 1)
    assert rep["pass"] == all(r["pass"] for r in rep["functions"])
    assert [r["f"] for r in rep["functions"]] == ["x", "y", "t1", "x^2", "y^2", "t1^2"]


def test_verify_generator_odd_step_count_is_an_error(capsys):
    # the t/2 record needs an even T/dt; the message names the T given
    code, out, err = run(capsys, "verify", "generator", "--builtin", "contact-halfplane",
                         "--dt", "1e-3", "--T", "0.003")
    assert code == 2
    assert out == "" and "0.003" in err and "even" in err


def test_verify_equivalence_small(capsys):
    code, rep, _ = run_json(capsys, "verify", "equivalence", "--builtin",
                            "heisenberg3", "--paths", "2000", "--T", "0.1",
                            "--dt", "0.002")
    assert code == 0
    assert rep["pass"] is True and rep["max_abs_z"] <= 3.0


@pytest.mark.parametrize("argv", [
    ("verify", "equivalence", "--builtin", "contact-halfplane", "--paths", "1",
     "--T", "0.01"),
    ("verify", "equivalence", "--builtin", "contact-halfplane", "--paths", "0",
     "--T", "0.01"),
    ("verify", "equivalence", "--builtin", "contact-halfplane", "--paths", "-3",
     "--T", "0.01"),
    ("simulate", "popp", "--builtin", "heisenberg3", "--paths", "0", "--T", "0.05"),
], ids=["equivalence-1", "equivalence-0", "equivalence-neg", "popp-0"])
def test_too_few_paths_is_malformed_input(capsys, argv):
    # one sample has no standard error, and zero paths have no mean
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "input error" in err


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


# -- verify suite: one loop over a table of checks ----------------------------------


def test_suite_driver_reports_every_row(capsys, monkeypatch, tmp_path):
    def raises():
        raise CartandevError("stand-in error")

    monkeypatch.setattr(cli, "_suite", lambda full: [
        ("fails", lambda: 2.0, ("<=", 1.0)),
        ("raises", raises, ("<=", 1.0)),
        ("passes", lambda: {"z": 0.5}, {"z": ("in", (0.0, 1.0))})])
    out = tmp_path / "suite.json"
    code, stdout, _ = run(capsys, "verify", "suite", "-o", str(out))
    assert code == 1
    assert [line.split()[:2] for line in stdout.splitlines()[:3]] == [
        ["fails", "FAIL"], ["raises", "FAIL"], ["passes", "PASS"]]
    assert "stand-in error" in stdout and "1/3 passed" in stdout
    rows = json.loads(out.read_text())
    assert [r["pass"] for r in rows] == [False, False, True]
    assert all(set(r) == {"name", "pass", "statistic", "bound", "seconds"} for r in rows)


@pytest.mark.parametrize("full", [False, True], ids=["quick", "full"])
def test_suite_configs_and_bounds_are_pinned(capsys, monkeypatch, full):
    calls = []

    def record(name, *args):
        calls.append((name, args))
        raise CartandevError("not run")

    q0 = [0.0, 1.0, 0.5]
    levy, gen, eqv = (200000, 1000000, 100000) if full else (20000, 100000, 20000)
    expected = [
        ("free23_brackets", ()),
        ("obstructions", (bi.algebra("free23"),)),
        ("symmetry_dims", ()),
        ("differential_complex", (bi.algebra("heisenberg3"),)),
        ("contact_christoffel", (7,)),
        ("goursat", (60, 3)),
        ("levi_civita", ([bi.frame("hyperbolic-plane"), bi.frame("sphere-patch")],)),
        ("lift_independence", ("heisenberg3", [0.0, 0.0, 0.0], [[0.0, -1.0], [1.0, 0.0]],
                               ["-sin(t)", "cos(t)"], "endpoints")),
        ("levy_area_variance", (dv.SDEConfig(dt=1e-3, T=1.0, seed=42, paths=levy),)),
        ("generator", (q0, dv.SDEConfig(dt=5e-4, T=0.01, seed=11, paths=gen))),
        ("equivalence", (q0, dv.SDEConfig(dt=2e-3, T=0.5, seed=13, paths=eqv),
                         [[0.5, 0.0]])),
    ]
    for name, _ in expected:
        monkeypatch.setattr(ck, name, functools.partial(record, name))
    assert main(["verify", "suite"] + ["--full"] * full) == 1
    assert calls == expected
    assert [bound for _, _, bound in cli._suite(full)] == [
        ("==", {"(0, 1)": {2: 1}, "(0, 2)": {3: 1}, "(1, 2)": {4: 1}}),
        ("==", {"free23": {"5:1,2,3": "1"}, "heisenberg3": {}}),
        ("==", {"heisenberg3": 1, "free23": 1, "engel": 0}),
        ("==", {"heisenberg3": 0, "free23": 0, "engel": 0, "free24": 0}),
        {"err": ("<=", 1e-9), "defect": ("<=", 1e-9)},
        {"feasible": ("==", False)},
        ("<=", 1e-9),
        ("<=", 1e-6),
        ("in", (0.24, 0.26) if full else (0.22, 0.28)),
        ("<=", 1.0),
        {"solved": ("<=", 3.0), "perturbed": (">", 3.0)},
    ]


def test_src_has_no_assert_statement():
    # verdicts and exact certificates must still hold under python -O
    for p in (Path(__file__).resolve().parents[1] / "src" / "cartandev").glob("*.py"):
        assert not any(isinstance(n, ast.Assert) for n in ast.walk(ast.parse(p.read_text()))), p


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


def test_readme_library_example_runs(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Library example", 1)[1].split("```python", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
    z, verdict = capsys.readouterr().out.split()
    assert math.isfinite(float(z))
    assert verdict == "True"
