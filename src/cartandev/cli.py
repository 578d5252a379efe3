"""Command-line interface.

Exit codes: 0 success / all checks pass, 1 mathematical infeasibility or a
failed verification (expected for Goursat-type inputs), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
import time

import numpy as np

from . import algebra as al
from . import builtins as bi
from . import checks as ck
from . import develop as dv
from . import manifold as mf
from . import montecarlo as mc
from .errors import (CartandevError, Inconsistent, IntersectionNonTrivial,
                     MalformedSpec)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, default=str)
        f.write("\n")


def _emit(report, args, ok=True):
    """Print the JSON report (and write it to -o); the exit code for ok."""
    if args.output:
        _write_json(args.output, report)
    print(json.dumps(report, indent=2))
    return EXIT_OK if ok else EXIT_INFEASIBLE


def _read_spec(args):
    if not args.spec:
        raise MalformedSpec("provide a spec file or --builtin NAME")
    with open(args.spec) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise MalformedSpec(
                f"{args.spec}: invalid JSON at line {e.lineno}, "
                f"column {e.colno}: {e.msg}") from None


def _load_algebra(args):
    if args.builtin:
        return bi.algebra(args.builtin)
    return al.build_algebra(_read_spec(args))


def _load_frame(args):
    if args.builtin:
        return bi.frame(args.builtin)
    return mf.build_frame(_read_spec(args))


def _q0(args, frame):
    if args.q0:
        try:
            q = [float(x) for x in args.q0.split(",")]
        except ValueError:
            raise MalformedSpec(f"--q0 must be comma-separated numbers, got {args.q0!r}") from None
        if len(q) != frame.chart.dim:
            raise MalformedSpec(
                f"--q0 needs {frame.chart.dim} components, got {len(q)}")
        return q
    return [0.5 * (lo + hi) for lo, hi in frame.chart.bounds()]


def _config(args):
    return dv.SDEConfig(dt=args.dt, T=args.T, seed=args.seed, paths=args.paths)


# -- command handlers, one per command variant ----------------------------------

def cmd_algebra_check(args):
    alg = _load_algebra(args)
    return _emit({"dim": alg.dim, "growth": list(alg.growth), "step": alg.step,
                  "valid": True}, args)


def cmd_algebra_free(args):
    return _emit(al.free_nilpotent(args.generators, args.step).to_spec(), args)


def cmd_symmetry(args):
    sym = al.symmetry_algebra(_load_algebra(args))
    return _emit({
        "dimH": sym.dimH,
        "k1": sym.k1,
        "k0": sym.k0,
        "dim_ker_h": len(sym.kerH),
        "ker_h": [[str(x) for x in v] for v in sym.kerH],
        "basis": [[[str(x) for x in row] for row in a] for a in sym.basis],
    }, args)


def cmd_normal_module(args):
    ctx = ck.cohomology_for(_load_algebra(args))
    report = {"method": args.method,
              "dim_hom_plus": len(ctx.positive_monomials(2)),
              "dim_im_partial_plus": ctx.image_partial_plus().dim}
    if args.method == "morimoto":
        module = ctx.normal_module_morimoto()
    else:
        try:
            module = ctx.normal_module_popp()
        except IntersectionNonTrivial as e:
            report.update(feasible=False, witness=e.witness.serialize())
            return _emit(report, args, ok=False)
    report.update(dim_N=module.dim, feasible=True)
    if args.basis:
        report["basis"] = [e.serialize() for e in module.elements]
    return _emit(report, args)


def cmd_obstruction(args):
    obs = ck.obstructions(_load_algebra(args))
    return _emit({"obstruction": {str(i + 1): e for i, e in enumerate(obs)},
                  "vanishes": not any(obs)}, args)


def cmd_manifold_check(args):
    frame = _load_frame(args)
    structure = mf.StructureField(frame)
    points = frame.chart.sample_points(60, seed=args.seed)
    report = mf.adapted_growth(frame, structure, points, tol=args.tol)
    # the nilpotent model exists only when the graded constants are constant
    nil = (mf.nilpotentization(frame, structure, points,
                               tol=max(args.tol, 1e-9)).to_spec()
           if report.graded_constant else None)
    return _emit({
        "growth": list(report.growth),
        "graded_constant": report.graded_constant,
        "max_graded_variation": report.max_graded_variation,
        "structure_residual": structure.residual(points),
        "nilpotentization": nil,
        "ok": report.graded_constant,
    }, args, report.graded_constant)


def cmd_christoffel(args):
    frame, structure, alg, sym = ck.context(args.builtin or _load_frame(args))
    points = frame.chart.sample_points(60, seed=args.seed)
    try:
        gamma = mf.solve_christoffel(frame, structure, sym, points, tol=args.tol)
    except Inconsistent as e:
        return _emit({"feasible": False, "error": str(e), "index": e.index},
                     args, ok=False)
    q0 = _q0(args, frame)
    values = gamma.at(np.array([q0]))[0]
    defect = mf.generator_defect(gamma, points)
    return _emit({
        "feasible": True,
        "q0": q0,
        "gamma": [[float(v) for v in row] for row in values],
        "max_defect": float(np.abs(defect).max()) if defect.size else 0.0,
    }, args)


def cmd_develop_condition(args):
    frame, structure, alg, sym = ck.context(args.builtin or _load_frame(args))
    points = frame.chart.sample_points(60, seed=args.seed)
    report = mf.develop_condition(frame, structure, alg, sym, points,
                                  tol=args.tol)
    out = report.to_dict()
    out["dimH"] = sym.dimH
    out["dim_ker_h"] = len(sym.kerH)
    return _emit(out, args, report.feasible)


def cmd_prolong(args):
    return _emit(mf.prolong(_load_frame(args)).to_spec(), args)


def _emit_path(args, process, config, path, names):
    """Endpoint statistics of a simulated path set; --csv writes the endpoints."""
    dv.check_finite(path)
    end = path.endpoints()
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            path.write_endpoints_csv(f)
    report = {
        "process": process,
        "paths": config.paths,
        "dt": config.dt,
        "T": config.T,
        "seed": config.seed,
        "endpoint_mean": dict(zip(names, map(float, end.mean(axis=0)))),
        "endpoint_var": dict(zip(names, map(float, end.var(axis=0)))),
    }
    if path.left_chart is not None:
        report["left_chart_fraction"] = float(path.left_chart.mean())
    if path.frames is not None:
        report["ortho_defect"] = path.ortho_defect
    return _emit(report, args)


def cmd_simulate_develop(args):
    config = _config(args)
    frame, structure, _, gamma = ck.connection(args.builtin or _load_frame(args))
    path = dv.develop_sde(frame, structure, gamma, _q0(args, frame), config)
    return _emit_path(args, "develop", config, path, frame.chart.coords)


def cmd_simulate_popp(args):
    config = _config(args)
    frame = _load_frame(args)
    path = dv.simulate_popp(frame, mf.StructureField(frame), _q0(args, frame), config)
    return _emit_path(args, "popp", config, path, frame.chart.coords)


def cmd_simulate_carnot(args):
    config = _config(args)
    alg = _load_algebra(args)
    path = dv.simulate_carnot_lift(alg, config)
    return _emit_path(args, "carnot", config, path,
                      [f"n{i + 1}" for i in range(alg.dim)])


def cmd_verify_levi_civita(args):
    worst = ck.levi_civita([_load_frame(args)])
    ok = bool(worst <= args.tol)
    return _emit({"test": "levi-civita", "max_difference": worst, "pass": ok}, args, ok)


def cmd_verify_generator(args):
    frame, structure, sym, gamma = ck.connection(args.builtin or _load_frame(args))
    q0, config = _q0(args, frame), _config(args)
    fs = mc.default_test_functions(frame.chart, squares=True)
    report = mc.generator_family_test(frame, structure, gamma, sym, fs, q0, config)
    return _emit(report, args, report["pass"])


def cmd_verify_equivalence(args):
    frame, structure, _, gamma = ck.connection(args.builtin or _load_frame(args))
    report, = mc.equivalence_test(frame, structure, [gamma], _q0(args, frame), _config(args))
    return _emit(report, args, report["pass"])


def _suite(full):
    """The eleven checks: (name, measurement at the quick or --full config,
    bound); a bound is (op, value), or a dict of them by statistic key."""
    levy = dv.SDEConfig(dt=1e-3, T=1.0, seed=42, paths=200000 if full else 20000)
    gen = dv.SDEConfig(dt=5e-4, T=0.01, seed=11, paths=1000000 if full else 100000)
    eqv = dv.SDEConfig(dt=2e-3, T=0.5, seed=13, paths=100000 if full else 20000)
    q0 = [0.0, 1.0, 0.5]
    return [
        ("free23 paper table", lambda: {str(k): v for k, v in ck.free23_brackets().items()},
         ("==", {"(0, 1)": {2: 1}, "(0, 2)": {3: 1}, "(1, 2)": {4: 1}})),
        ("obstruction", lambda: {
            name: ck.obstructions(bi.algebra(name))[0] for name in ("free23", "heisenberg3")},
         ("==", {"free23": {"5:1,2,3": "1"}, "heisenberg3": {}})),
        ("symmetry dims", ck.symmetry_dims, ("==", {"heisenberg3": 1, "free23": 1, "engel": 0})),
        ("d^2=0 and normal modules", lambda: {
            name: ck.differential_complex(bi.algebra(name))
            for name in ("heisenberg3", "free23", "engel", "free24")},
         ("==", {"heisenberg3": 0, "free23": 0, "engel": 0, "free24": 0})),
        ("contact christoffel", lambda: ck.contact_christoffel(7),
         {"err": ("<=", 1e-9), "defect": ("<=", 1e-9)}),
        ("goursat counterexample", lambda: ck.goursat(60, 3), {"feasible": ("==", False)}),
        ("levi-civita", lambda: ck.levi_civita(
            [bi.frame(name) for name in ("hyperbolic-plane", "sphere-patch")]), ("<=", 1e-9)),
        ("lift independence", lambda: ck.lift_independence(
            "heisenberg3", [0.0, 0.0, 0.0], [[0.0, -1.0], [1.0, 0.0]], ["-sin(t)", "cos(t)"],
            "endpoints"), ("<=", 1e-6)),
        ("levy area", lambda: ck.levy_area_variance(levy),
         ("in", (0.24, 0.26) if levy.paths >= 200000 else (0.22, 0.28))),
        # the largest |MC - symbolic| / tolerance over the test functions
        ("generator", lambda: max(abs(f["mc_value"] - f["symbolic_value"]) / f["tolerance"]
                                  for f in ck.generator(q0, gen)["functions"]), ("<=", 1.0)),
        ("equivalence", lambda: dict(zip(("solved", "perturbed"), (
            r["max_abs_z"] for r in ck.equivalence(q0, eqv, [[0.5, 0.0]])))),
         {"solved": ("<=", 3.0), "perturbed": (">", 3.0)}),
    ]


_OPS = {"==": operator.eq, "<=": operator.le, ">": operator.gt,
        "in": lambda x, b: b[0] <= x <= b[1]}


def _holds(statistic, bound):
    if isinstance(bound, dict):
        return all(_holds(statistic[key], b) for key, b in bound.items())
    return bool(_OPS[bound[0]](statistic, bound[1]))


def cmd_verify_suite(args):
    """Each row: name, pass, statistic, bound and seconds; an error fails its row."""
    suite, rows = _suite(args.full), []
    width = max(len(name) for name, _, _ in suite)
    for name, measure, bound in suite:
        start = time.perf_counter()
        try:
            statistic = measure()
            ok = _holds(statistic, bound)
        except CartandevError as e:
            statistic, ok = f"error: {e}", False
        rows.append({"name": name, "pass": ok, "statistic": statistic, "bound": bound,
                     "seconds": time.perf_counter() - start})
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  "
              f"{json.dumps(statistic, default=str)}  bound {json.dumps(bound)}  "
              f"{rows[-1]['seconds']:.2f} s")
    passed = sum(r["pass"] for r in rows)
    print(f"\n{passed}/{len(rows)} passed")
    if args.output:
        _write_json(args.output, rows)
    return EXIT_OK if passed == len(rows) else EXIT_INFEASIBLE


# -- argument parsing ---------------------------------------------------------

# Every option a command variant can declare; each variant declares only the
# options its handler reads.
_OPTIONS = {
    "--generators": dict(type=int, default=2, help="number of generators"),
    "--step": dict(type=int, default=3, help="nilpotency step"),
    "--method": dict(choices=("popp", "morimoto"), default="popp"),
    "--basis": dict(action="store_true", help="include a basis"),
    "--tol": dict(type=float, default=1e-9, help="numerical tolerance"),
    "--seed": dict(type=int, default=0, help="random seed"),
    "--dt": dict(type=float, default=1e-3, help="time step"),
    "--T": dict(type=float, default=1.0, help="horizon, a whole number of steps"),
    "--paths": dict(type=int, default=10000, help="number of sample paths"),
    "--q0": dict(help="comma-separated start point"),
    "--csv": dict(help="write endpoint CSV to a file"),
    "--full": dict(action="store_true", help="full-scale path counts"),
}
_SDE = ("--dt", "--T", "--paths", "--seed")


def _leaf(sub, name, fn, help, kind=None, options=()):
    """One command variant: its input (a kind of spec file, or none), its
    options and -o."""
    p = sub.add_parser(name, help=help)
    if kind:
        p.add_argument("spec", nargs="?", help=f"{kind} JSON file")
        p.add_argument("--builtin", help=f"built-in {kind} name")
    for option in options:
        p.add_argument(option, **_OPTIONS[option])
    p.add_argument("-o", "--output", help="write the JSON report to a file")
    p.set_defaults(fn=fn)


def _group(sub, name, help):
    """A command whose variants are named by a second word."""
    return sub.add_parser(name, help=help).add_subparsers(
        dest="variant", metavar="VARIANT", required=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cartandev",
        description="Sub-Riemannian development: algebra, cohomology, "
                    "simulation, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = _group(sub, "algebra", "validate or generate algebra specs")
    _leaf(g, "check", cmd_algebra_check, "validate an algebra spec", "algebra")
    _leaf(g, "free", cmd_algebra_free, "the free nilpotent algebra spec",
          options=("--generators", "--step"))
    _leaf(sub, "symmetry", cmd_symmetry, "metric-preserving derivations",
          "algebra")
    _leaf(sub, "normal-module", cmd_normal_module,
          "normal module of the curvature", "algebra", ("--method", "--basis"))
    _leaf(sub, "obstruction", cmd_obstruction,
          "difference obstruction between the two modules", "algebra")

    g = _group(sub, "manifold", "check a chart structure")
    _leaf(g, "check", cmd_manifold_check,
          "growth, graded constants and nilpotentization", "manifold",
          ("--tol", "--seed"))
    _leaf(sub, "christoffel", cmd_christoffel,
          "solve for the connection symbols", "manifold",
          ("--tol", "--seed", "--q0"))
    _leaf(sub, "develop-condition", cmd_develop_condition,
          "feasibility of development", "manifold", ("--tol", "--seed"))
    _leaf(sub, "prolong", cmd_prolong,
          "prolong the first two frame fields", "manifold")

    g = _group(sub, "simulate", "run a simulator")
    _leaf(g, "develop", cmd_simulate_develop, "the developed diffusion",
          "manifold", _SDE + ("--q0", "--csv"))
    _leaf(g, "popp", cmd_simulate_popp, "the direct Popp diffusion",
          "manifold", _SDE + ("--q0", "--csv"))
    _leaf(g, "carnot", cmd_simulate_carnot, "the Carnot group lift",
          "algebra", _SDE + ("--csv",))

    g = _group(sub, "verify", "statistical and exact verifications")
    _leaf(g, "generator", cmd_verify_generator,
          "generator of the developed diffusion", "manifold", _SDE + ("--q0",))
    _leaf(g, "equivalence", cmd_verify_equivalence,
          "developed against direct Popp endpoints", "manifold",
          _SDE + ("--q0",))
    _leaf(g, "levi-civita", cmd_verify_levi_civita,
          "Riemannian drift cross-check", "manifold", ("--tol",))
    _leaf(g, "suite", cmd_verify_suite, "all eleven checks",
          options=("--full",))
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MalformedSpec, FileNotFoundError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (Inconsistent, IntersectionNonTrivial) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CartandevError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
