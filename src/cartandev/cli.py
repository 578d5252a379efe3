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


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2)
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


def _structure_context(args):
    """Frame, structure functions, model algebra, and its symmetries."""
    frame = _load_frame(args)
    structure = mf.StructureField(frame)
    alg = bi.model_algebra_for(args.builtin) if args.builtin else None
    if alg is None:
        alg = mf.nilpotentization(frame, structure)
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
    ctx = _cohomology_for(_load_algebra(args))
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
    alg = _load_algebra(args)
    ctx = _cohomology_for(alg)
    obs = [ctx.morimoto_popp_obstruction(i) for i in range(alg.growth[0])]
    return _emit({
        "obstruction": {str(i + 1): e.serialize() for i, e in enumerate(obs)},
        "vanishes": all(e.is_zero() for e in obs),
    }, args)


def cmd_manifold_check(args):
    frame = _load_frame(args)
    structure = mf.StructureField(frame)
    points = frame.chart.sample_points(60, seed=args.seed)
    report = mf.adapted_growth(frame, structure, points, tol=args.tol)
    # the nilpotent model exists only when the graded constants are constant
    nil = (mf.nilpotentization(frame, structure, points,
                               tol=max(args.tol, 1e-9)).to_spec()
           if report.ok else None)
    return _emit({
        "growth": list(report.growth),
        "graded_constant": report.graded_constant,
        "max_graded_variation": report.max_graded_variation,
        "structure_residual": structure.residual(points),
        "nilpotentization": nil,
        "ok": report.ok,
    }, args, report.ok)


def cmd_christoffel(args):
    frame, structure, alg, sym = _structure_context(args)
    points = frame.chart.sample_points(60, seed=args.seed)
    try:
        gamma = mf.solve_christoffel(frame, structure, sym, points, tol=args.tol)
    except Inconsistent as e:
        return _emit({"feasible": False, "error": str(e), "index": e.index},
                     args, ok=False)
    q0 = _q0(args, frame)
    values = gamma.at(np.array([q0]))[0]
    defect = mf.generator_defect(structure, sym, gamma, points)
    return _emit({
        "feasible": True,
        "q0": q0,
        "gamma": [[float(v) for v in row] for row in values],
        "max_defect": float(np.abs(defect).max()) if defect.size else 0.0,
    }, args)


def cmd_develop_condition(args):
    frame, structure, alg, sym = _structure_context(args)
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


def _connection(args):
    """Frame, structure functions, symmetries, start point and Christoffel field."""
    frame, structure, alg, sym = _structure_context(args)
    q0 = _q0(args, frame)
    return frame, structure, sym, q0, mf.solve_christoffel(frame, structure, sym)


def cmd_simulate_develop(args):
    config = _config(args)
    frame, structure, sym, q0, gamma = _connection(args)
    path = dv.develop_sde(frame, structure, gamma, q0, config)
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
    frame = _load_frame(args)
    rep = mf.levi_civita_check(frame, mf.StructureField(frame))
    ok = bool(rep.max_difference <= args.tol)
    return _emit({"test": "levi-civita", "max_difference": rep.max_difference,
                  "pass": ok}, args, ok)


def cmd_verify_generator(args):
    frame, structure, sym, q0, gamma = _connection(args)
    config = _config(args)
    fs = mc.default_test_functions(frame.chart, squares=True)
    report = mc.generator_family_test(frame, structure, gamma, sym, fs, q0, config)
    return _emit(report, args, report["pass"])


def cmd_verify_equivalence(args):
    frame, structure, sym, q0, gamma = _connection(args)
    report = mc.equivalence_test(frame, structure, gamma, q0, _config(args))
    return _emit(report, args, report["pass"])


def cmd_verify_suite(args):
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
    if args.output:
        _write_json(args.output, [{"name": n, "pass": ok, "detail": d}
                                  for n, ok, d in rows])
    return EXIT_OK if all_ok else EXIT_INFEASIBLE


def _suite_free23():
    alg = al.free_nilpotent(2, 3)
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


def _contact():
    """The contact half-plane, its symmetries and its Christoffel field."""
    frame = bi.frame("contact-halfplane")
    structure = mf.StructureField(frame)
    sym = al.symmetry_algebra(bi.algebra("heisenberg3"))
    return frame, structure, sym, mf.solve_christoffel(frame, structure, sym)


def _suite_contact_christoffel():
    frame, structure, sym, gamma = _contact()
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
    frames = [bi.frame(n) for n in ("hyperbolic-plane", "sphere-patch")]
    worst = max(mf.levi_civita_check(f, mf.StructureField(f)).max_difference
                for f in frames)
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
    frame, structure, sym, gamma = _contact()
    fs = mc.default_test_functions(frame.chart, squares=True)
    cfg = dv.SDEConfig(dt=5e-4, T=0.01, seed=11, paths=paths)
    rep = mc.generator_family_test(frame, structure, gamma, sym, fs,
                                   [0.0, 1.0, 0.5], cfg)
    return rep["pass"], f"{len(rep['functions'])} functions"


def _suite_equivalence(paths):
    frame, structure, sym, gamma = _contact()
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
