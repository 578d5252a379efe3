"""Command-line interface.

Exit codes: 0 success / all checks pass, 1 mathematical infeasibility or a
failed verification (expected for Goursat-type inputs), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import algebra as al
from . import builtins as bi
from . import cohomology as co
from . import develop as dv
from . import manifold as mf
from . import montecarlo as mc
from .errors import (CartandevError, Inconsistent, IntersectionNonTrivial,
                     MalformedSpec)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2


def _emit(report, args):
    if getattr(args, "output", None):
        with open(args.output, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    print(json.dumps(report, indent=2))


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


def _structure_context(args):
    """Frame, structure functions, model algebra, and its symmetries."""
    frame = _load_frame(args)
    structure = mf.StructureField(frame)
    alg = bi.model_algebra_for(args.builtin) if args.builtin else None
    if alg is None:
        alg = mf.nilpotentization(frame)
    sym = al.symmetry_algebra(alg)
    return frame, structure, alg, sym


def _cohomology_for(alg):
    metric = al.extend_metric(alg)
    sym = al.symmetry_algebra(alg)
    amb = al.ambient(alg, sym)
    return co.Cohomology(amb, metric)


def _q0(args, frame):
    if args.q0:
        q = [float(x) for x in args.q0.split(",")]
        if len(q) != frame.chart.dim:
            raise MalformedSpec(
                f"--q0 needs {frame.chart.dim} components, got {len(q)}")
        return q
    b = frame.chart.bounds()
    return [0.5 * (lo + hi) for lo, hi in b]


def _config(args):
    return dv.SDEConfig(dt=args.dt, T=args.T, seed=args.seed, paths=args.paths)


# -- subcommand handlers ------------------------------------------------------

def cmd_algebra(args):
    if args.action == "free":
        _emit(al.free_nilpotent(args.generators, args.step).to_spec(), args)
        return EXIT_OK
    alg = _load_algebra(args)
    al.validate(alg)
    _emit({"dim": alg.dim, "growth": list(alg.growth), "step": alg.step,
           "valid": True}, args)
    return EXIT_OK


def cmd_symmetry(args):
    alg = _load_algebra(args)
    al.validate(alg)
    sym = al.symmetry_algebra(alg)
    _emit({
        "dimH": sym.dimH,
        "k1": sym.k1,
        "k0": sym.k0,
        "dim_ker_h": len(sym.kerH),
        "ker_h": [[str(x) for x in v] for v in sym.kerH],
        "basis": [[[str(x) for x in row] for row in a] for a in sym.basis],
    }, args)
    return EXIT_OK


def cmd_normal_module(args):
    alg = _load_algebra(args)
    al.validate(alg)
    ctx = _cohomology_for(alg)
    report = {"method": args.method,
              "dim_hom_plus": len(ctx.positive_monomials(2)),
              "dim_im_partial_plus": ctx.image_partial_plus().dim}
    if args.method == "morimoto":
        module = ctx.normal_module_morimoto()
        report["dim_N"] = module.dim
        report["feasible"] = True
    else:
        try:
            module = ctx.normal_module_popp()
            report["dim_N"] = module.dim
            report["feasible"] = True
        except IntersectionNonTrivial as e:
            report["feasible"] = False
            report["witness"] = e.witness.serialize()
            _emit(report, args)
            return EXIT_INFEASIBLE
    if args.basis:
        report["basis"] = [e.serialize() for e in module.elements]
    _emit(report, args)
    return EXIT_OK


def cmd_obstruction(args):
    alg = _load_algebra(args)
    al.validate(alg)
    ctx = _cohomology_for(alg)
    k1 = alg.growth[0]
    obs = {}
    nonzero = False
    for i in range(k1):
        e = ctx.morimoto_popp_obstruction(i)
        obs[str(i + 1)] = e.serialize()
        nonzero = nonzero or not e.is_zero()
    _emit({"obstruction": obs, "vanishes": not nonzero}, args)
    return EXIT_OK


def cmd_manifold(args):
    frame = _load_frame(args)
    structure = mf.StructureField(frame)
    points = frame.chart.sample_points(60, seed=args.seed)
    report = mf.adapted_growth(frame, points, tol=args.tol)
    nil = mf.nilpotentization(frame, points, tol=max(args.tol, 1e-9))
    _emit({
        "growth": list(report.growth),
        "graded_constant": report.graded_constant,
        "max_graded_variation": report.max_graded_variation,
        "structure_residual": structure.residual(points),
        "nilpotentization": nil.to_spec(),
        "ok": report.ok,
    }, args)
    return EXIT_OK if report.ok else EXIT_INFEASIBLE


def cmd_christoffel(args):
    frame, structure, alg, sym = _structure_context(args)
    points = frame.chart.sample_points(60, seed=args.seed)
    try:
        gamma = mf.solve_christoffel(frame, structure, sym, points, tol=args.tol)
    except Inconsistent as e:
        _emit({"feasible": False, "error": str(e), "index": e.index}, args)
        return EXIT_INFEASIBLE
    q0 = _q0(args, frame)
    values = gamma.at(np.array([q0]))[0]
    defect = mf.generator_defect(structure, sym, gamma, points)
    _emit({
        "feasible": True,
        "q0": q0,
        "gamma": [[float(v) for v in row] for row in values],
        "max_defect": float(np.abs(defect).max()) if defect.size else 0.0,
    }, args)
    return EXIT_OK


def cmd_develop_condition(args):
    frame, structure, alg, sym = _structure_context(args)
    points = frame.chart.sample_points(60, seed=args.seed)
    report = mf.develop_condition(frame, structure, alg, sym, points,
                                  tol=args.tol)
    out = report.to_dict()
    out["dimH"] = sym.dimH
    out["dim_ker_h"] = len(sym.kerH)
    _emit(out, args)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_prolong(args):
    _emit(mf.prolong(_load_frame(args)).to_spec(), args)
    return EXIT_OK


def cmd_simulate(args):
    config = _config(args)
    if args.process == "carnot":
        alg = _load_algebra(args)
        path = dv.simulate_carnot_lift(alg, config)
        names = [f"n{i + 1}" for i in range(alg.dim)]
    else:
        frame, structure, alg, sym = _structure_context(args)
        q0 = _q0(args, frame)
        if args.process == "develop":
            gamma = mf.solve_christoffel(frame, structure, sym)
            path = dv.develop_sde(frame, structure, gamma, q0, config)
        else:
            path = dv.simulate_popp(frame, structure, q0, config)
        names = list(frame.chart.coords)
    dv.check_finite(path)
    end = path.endpoints()
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            path.write_endpoints_csv(f)
    report = {
        "process": args.process,
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
    _emit(report, args)
    return EXIT_OK


def cmd_verify(args):
    if args.check == "levi-civita":
        frame = _load_frame(args)
        rep = mf.levi_civita_check(frame)
        ok = rep.max_difference <= args.tol
        _emit({"test": "levi-civita", "max_difference": rep.max_difference,
               "pass": bool(ok)}, args)
        return EXIT_OK if ok else EXIT_INFEASIBLE
    if args.check == "suite":
        return _run_suite(args)

    frame, structure, alg, sym = _structure_context(args)
    q0 = _q0(args, frame)
    gamma = mf.solve_christoffel(frame, structure, sym)
    config = _config(args)
    if args.check == "generator":
        fs = mc.default_test_functions(frame.chart, squares=True)
        report = mc.generator_family_test(frame, structure, gamma, sym, fs,
                                          q0, config)
    else:
        report = mc.equivalence_test(frame, structure, gamma, q0, config)
    _emit(report, args)
    return EXIT_OK if report["pass"] else EXIT_INFEASIBLE


def _run_suite(args):
    """The full verification battery; --full uses full-scale path counts."""
    full = args.full
    rows = []

    def run(name, fn):
        try:
            ok, detail = fn()
        except CartandevError as e:
            ok, detail = False, str(e)
        rows.append((name, ok, detail))

    run("free23 paper table", _suite_free23)
    run("obstruction", _suite_obstruction)
    run("symmetry dims", _suite_symmetry)
    run("d^2=0 and normal modules", _suite_cohomology)
    run("contact christoffel", _suite_contact_christoffel)
    run("goursat counterexample", _suite_goursat)
    run("levi-civita", _suite_levi_civita)
    run("lift independence", _suite_lift)
    run("levy area", lambda: _suite_levy(200000 if full else 20000))
    run("generator", lambda: _suite_generator(1000000 if full else 100000))
    run("equivalence", lambda: _suite_equivalence(100000 if full else 20000))

    width = max(len(r[0]) for r in rows)
    for name, ok, detail in rows:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    all_ok = all(ok for _, ok, _ in rows)
    print(f"\n{sum(ok for _, ok, _ in rows)}/{len(rows)} passed")
    if getattr(args, "output", None):
        with open(args.output, "w") as f:
            json.dump([{"name": n, "pass": ok, "detail": d}
                       for n, ok, d in rows], f, indent=2)
            f.write("\n")
    return EXIT_OK if all_ok else EXIT_INFEASIBLE


def _suite_free23():
    alg = al.free_nilpotent(2, 3)
    al.validate(alg)
    want = {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}
    got = {k: {i: int(v) for i, v in row.items()}
           for k, row in alg.brackets.items()}
    return got == want, f"brackets {got}"


def _suite_obstruction():
    ctx = _cohomology_for(al.free_nilpotent(2, 3))
    ob = ctx.morimoto_popp_obstruction(0).serialize()
    ctx3 = _cohomology_for(bi.algebra("heisenberg3"))
    ob3 = ctx3.morimoto_popp_obstruction(0)
    ok = ob == {"5:1,2,3": "1"} and ob3.is_zero()
    return ok, f"(2,3,5): {ob}"


def _suite_symmetry():
    dims = {name: al.symmetry_algebra(bi.algebra(name)).dimH
            for name in ("heisenberg3", "free23", "engel")}
    ok = dims == {"heisenberg3": 1, "free23": 1, "engel": 0}
    return ok, str(dims)


def _suite_cohomology():
    from fractions import Fraction
    for name in ("heisenberg3", "free23", "engel", "free24"):
        ctx = _cohomology_for(bi.algebra(name))
        for m in ctx.monomials(1):
            dd = ctx.differential(ctx.differential(
                co.HomElement(1, {m: Fraction(1)})))
            if not dd.is_zero():
                return False, f"d^2 != 0 on {name}"
        ctx.normal_module_popp()
        ctx.normal_module_morimoto()
    return True, "4 algebras"


def _suite_contact_christoffel():
    frame = bi.frame("contact-halfplane")
    structure = mf.StructureField(frame)
    sym = al.symmetry_algebra(bi.algebra("heisenberg3"))
    gamma = mf.solve_christoffel(frame, structure, sym)
    pts = frame.chart.sample_points(100, seed=7)
    c = structure.at(pts)
    g = gamma.at(pts)
    err = max(float(np.abs(g[:, 0, 0] - c[:, 0, 1, 0]).max()),
              float(np.abs(g[:, 0, 1] - c[:, 0, 1, 1]).max()))
    defect = float(np.abs(mf.generator_defect(structure, sym, gamma, pts)).max())
    return err <= 1e-9 and defect <= 1e-9, f"err {err:.1e}, defect {defect:.1e}"


def _suite_goursat():
    frame = bi.frame("goursat-halfplane")
    structure = mf.StructureField(frame)
    alg = bi.algebra("engel")
    sym = al.symmetry_algebra(alg)
    rep = mf.develop_condition(frame, structure, alg, sym)
    return not rep.feasible, f"witness value {rep.witness_value}"


def _suite_levi_civita():
    worst = max(mf.levi_civita_check(bi.frame(n)).max_difference
                for n in ("hyperbolic-plane", "sphere-patch"))
    return worst <= 1e-9, f"max diff {worst:.1e}"


def _suite_lift():
    frame = bi.frame("heisenberg3")
    structure = mf.StructureField(frame)
    sym = al.symmetry_algebra(bi.algebra("heisenberg3"))
    gamma = mf.ChristoffelField.zero(sym, 2)
    r = np.array([[0.0, -1.0], [1.0, 0.0]])
    p1 = dv.develop_curve(frame, structure, gamma, ["cos(t)", "sin(t)"],
                          [0, 0, 0], 1e-3, 1.0, record="endpoints")
    p2 = dv.develop_curve(frame, structure, gamma, ["-sin(t)", "cos(t)"],
                          [0, 0, 0], 1e-3, 1.0, h0=r, record="endpoints")
    err = float(np.abs(p1.endpoints() - p2.endpoints()).max())
    return err <= 1e-6, f"err {err:.1e}"


def _suite_levy(paths):
    alg = bi.algebra("heisenberg3")
    cfg = dv.SDEConfig(dt=1e-3, T=1.0, seed=42, paths=paths)
    end = dv.simulate_carnot_lift(alg, cfg).endpoints()
    v = float(end[:, 2].var())
    lo, hi = (0.24, 0.26) if paths >= 200000 else (0.22, 0.28)
    return lo <= v <= hi, f"Var(z) = {v:.4f}"


def _suite_generator(paths):
    frame = bi.frame("contact-halfplane")
    structure = mf.StructureField(frame)
    sym = al.symmetry_algebra(bi.algebra("heisenberg3"))
    gamma = mf.solve_christoffel(frame, structure, sym)
    fs = mc.default_test_functions(frame.chart, squares=True)
    cfg = dv.SDEConfig(dt=5e-4, T=0.01, seed=11, paths=paths)
    rep = mc.generator_family_test(frame, structure, gamma, sym, fs,
                                   [0.0, 1.0, 0.5], cfg)
    return rep["pass"], f"{len(rep['functions'])} functions"


def _suite_equivalence(paths):
    frame = bi.frame("contact-halfplane")
    structure = mf.StructureField(frame)
    sym = al.symmetry_algebra(bi.algebra("heisenberg3"))
    gamma = mf.solve_christoffel(frame, structure, sym)
    cfg = dv.SDEConfig(dt=2e-3, T=0.5, seed=13, paths=paths)
    q0 = [0.0, 1.0, 0.5]
    direct = dv.simulate_popp(frame, structure, q0, cfg)
    rep = mc.equivalence_test(frame, structure, gamma, q0, cfg, direct=direct)
    bad = mc.equivalence_test(frame, structure,
                              gamma.perturbed(np.array([[0.5, 0.0]])),
                              q0, cfg, direct=direct)
    ok = rep["pass"] and not bad["pass"]
    return ok, (f"max|z| {rep['max_abs_z']:.2f}, "
                f"perturbed {bad['max_abs_z']:.2f}")


# -- argument parsing ---------------------------------------------------------

def _add_input(p, kind="spec"):
    p.add_argument("spec", nargs="?", help=f"{kind} JSON file")
    p.add_argument("--builtin", help="built-in structure name")


def _add_common(p):
    p.add_argument("-o", "--output", help="write the JSON report to a file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)


def _add_sim(p):
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--q0", help="comma-separated start point")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cartandev",
        description="Sub-Riemannian development: algebra, cohomology, "
                    "simulation, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="validate or generate algebra specs")
    p.add_argument("action", choices=("check", "free"))
    p.add_argument("spec", nargs="?")
    p.add_argument("--builtin")
    p.add_argument("--generators", type=int, default=2)
    p.add_argument("--step", type=int, default=3)
    _add_common(p)
    p.set_defaults(fn=cmd_algebra)

    p = sub.add_parser("symmetry", help="metric-preserving derivations")
    _add_input(p, "algebra")
    _add_common(p)
    p.set_defaults(fn=cmd_symmetry)

    p = sub.add_parser("normal-module", help="normal module of the curvature")
    _add_input(p, "algebra")
    p.add_argument("--method", choices=("popp", "morimoto"), default="popp")
    p.add_argument("--basis", action="store_true", help="include a basis")
    _add_common(p)
    p.set_defaults(fn=cmd_normal_module)

    p = sub.add_parser("obstruction",
                       help="difference obstruction between the two modules")
    _add_input(p, "algebra")
    _add_common(p)
    p.set_defaults(fn=cmd_obstruction)

    p = sub.add_parser("manifold", help="check a chart structure")
    p.add_argument("action", choices=("check",))
    p.add_argument("spec", nargs="?")
    p.add_argument("--builtin")
    _add_common(p)
    p.set_defaults(fn=cmd_manifold)

    p = sub.add_parser("christoffel", help="solve for the connection symbols")
    _add_input(p, "manifold")
    p.add_argument("--q0")
    _add_common(p)
    p.set_defaults(fn=cmd_christoffel)

    p = sub.add_parser("develop-condition", help="feasibility of development")
    _add_input(p, "manifold")
    _add_common(p)
    p.set_defaults(fn=cmd_develop_condition)

    p = sub.add_parser("prolong", help="prolong the first two frame fields")
    _add_input(p, "manifold")
    _add_common(p)
    p.set_defaults(fn=cmd_prolong)

    p = sub.add_parser("simulate", help="run a simulator")
    p.add_argument("process", choices=("develop", "popp", "carnot"))
    p.add_argument("spec", nargs="?")
    p.add_argument("--builtin")
    p.add_argument("--csv", help="write endpoint CSV to a file")
    _add_common(p)
    _add_sim(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="statistical and exact verifications")
    p.add_argument("check", choices=("generator", "equivalence",
                                     "levi-civita", "suite"))
    p.add_argument("spec", nargs="?")
    p.add_argument("--builtin")
    p.add_argument("--full", action="store_true",
                   help="suite only: full-scale path counts")
    _add_common(p)
    _add_sim(p)
    p.set_defaults(fn=cmd_verify)
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
