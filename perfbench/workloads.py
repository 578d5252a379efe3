"""The benchmark's three workloads: set-up, timed calls, checks and fingerprints.

Each workload is a closed loop of one caller: ``iterate`` makes the calls in
order, one at a time, and returns their outputs; ``check`` compares outputs
with the stored references and returns (name, ok, detail) rows. The workload
seed given to the benchmark never reaches the package: only the seeds derived
from it here do.

The workloads separate three regimes, so that a gain in one and a loss in
another both show:

* ``mc-wide``: wide vectorised numerics, where per-path arithmetic, the RNG and
  memory dominate (per-step Python overhead is about 1% of a step);
* ``paths-narrow``: long horizons at one or 64 paths, where the Python work
  around each step (expression walking, the per-step structure solve, small
  numpy calls) dominates;
* ``normal-module-exact``: exact ``Fraction`` linear algebra with no numpy in
  the hot path; the Popp module is query-heavy (``in_span``), the Morimoto
  module build-heavy (one-shot RREF, nullspace, intersection).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np

from cartandev import algebra as al
from cartandev import builtins as bi
from cartandev import cohomology as co
from cartandev import develop as dv
from cartandev import manifold as mf
from cartandev import montecarlo as mc
from cartandev import ratlinalg as rl

FRAME = "contact-halfplane"
Q0 = (0.0, 1.0, 0.5)


def derive_seeds(seed, count):
    """Seeds for the package's simulators, derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def sha256_arrays(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def config_meta(config):
    """A simulator config with the requested T next to the simulated steps*dt."""
    return {"dt": config.dt, "T_requested": config.T, "steps": config.steps,
            "T_simulated": config.steps * config.dt, "paths": config.paths,
            "seed": config.seed, "scheme": config.scheme,
            "projection": config.projection}


def _row(name, ok, detail=""):
    return (name, bool(ok), detail)


def _finite(*arrays):
    return all(bool(np.all(np.isfinite(a))) for a in arrays if a is not None)


def _contact_geometry():
    frame = bi.frame(FRAME)
    structure = mf.StructureField(frame)
    model = bi.model_algebra_for(FRAME)
    sym = al.symmetry_algebra(model, al.extend_metric(model))
    gamma = mf.solve_christoffel(frame, structure, sym)
    return frame, structure, sym, gamma


class McWide:
    """The paper's statistical checks at wide batch.

    generator_family_test of the developed process on contact-halfplane, and
    the Levy-area lift on free24 (step 4, so every group-law term runs) with
    the heisenberg3 lift at the same seed, whose coordinates it must repeat.
    The only workload that runs develop.CarnotGroup.
    """

    name = "mc-wide"
    GENERATOR = dict(dt=5e-4, T=0.01, paths=50_000)
    LIFT = dict(dt=2e-3, T=1.0, paths=20_000)

    def __init__(self, seed):
        self.sim_seeds = derive_seeds(seed, 2)

    def setup(self):
        self.frame, self.structure, self.sym, self.gamma = _contact_geometry()
        self.functions = mc.default_test_functions(self.frame.chart, squares=True)
        self.free24 = bi.algebra("free24")
        self.heisenberg3 = bi.algebra("heisenberg3")
        self.gen_config = dv.SDEConfig(seed=self.sim_seeds[0], **self.GENERATOR)
        self.lift_config = dv.SDEConfig(seed=self.sim_seeds[1], **self.LIFT)

    def iterate(self):
        gen = mc.generator_family_test(self.frame, self.structure, self.gamma,
                                       self.sym, self.functions, Q0, self.gen_config)
        lift = dv.simulate_carnot_lift(self.free24, self.lift_config)
        lift3 = dv.simulate_carnot_lift(self.heisenberg3, self.lift_config)
        return {"generator": gen, "lift": lift.endpoints(), "lift3": lift3.endpoints()}

    def half_t_config(self):
        """The second simulation generator_family_test runs, at T/2."""
        g = self.gen_config
        return dv.SDEConfig(dt=g.dt, T=g.T / 2.0, seed=g.seed, paths=g.paths)

    def path_steps(self):
        g, lift = self.gen_config, self.lift_config
        return g.paths * (g.steps + self.half_t_config().steps) + 2 * lift.paths * lift.steps

    def check(self, out, refs):
        rows = []
        for r in out["generator"]["functions"]:
            rows.append(_row(f"generator[{r['f']}].pass", r["pass"],
                             f"mc {r['mc_value']:.4g} vs {r['symbolic_value']:.4g}"))
            rows.append(_row(f"generator[{r['f']}].bias_shrinks", r["bias_shrinks"]))
        paths = self.lift_config.paths
        lo, hi = next((lo, hi) for min_paths, lo, hi in refs["levy_variance_bounds"]
                      if paths >= min_paths)
        v = float(out["lift"][:, 2].var())
        rows.append(_row("free24 levy variance", lo <= v <= hi, f"{v:.5f} in [{lo}, {hi}]"))
        rows.append(_row("free24 lift repeats heisenberg3 bit for bit",
                         np.array_equal(out["lift"][:, :3], out["lift3"])))
        rows.append(_row("lift endpoints finite", _finite(out["lift"], out["lift3"])))
        return rows

    def fingerprint(self, out):
        gen = np.array([[r["mc_value"], r["mc_value_half_t"], r["stderr"]]
                        for r in out["generator"]["functions"]])
        return sha256_arrays(gen, out["lift"], out["lift3"])

    def meta(self, out):
        return {"configs": {"generator_family_test": config_meta(self.gen_config),
                            "generator_family_test.half_T": config_meta(self.half_t_config()),
                            "simulate_carnot_lift": config_meta(self.lift_config)},
                "q0": list(Q0),
                # generator_family_test returns reports, not the paths
                "left_chart_fraction": None, "ortho_defect": None}


class PathsNarrow:
    """Long horizons at narrow batch.

    RK4 development of u = (cos t, sin t) on contact-halfplane at dt and dt/2
    (one path, full record), then develop_sde and simulate_popp at 64 paths x
    2000 steps with full records.
    """

    name = "paths-narrow"
    CONTROL = ("cos(t)", "sin(t)")
    CURVE_T = 1.0
    CURVE_DTS = (2e-4, 1e-4)
    SDE = dict(dt=5e-4, T=1.0, paths=64)

    def __init__(self, seed):
        self.sim_seeds = derive_seeds(seed, 2)

    def setup(self):
        self.frame, self.structure, self.sym, self.gamma = _contact_geometry()
        self.sde_config = dv.SDEConfig(seed=self.sim_seeds[0], **self.SDE)
        self.popp_config = dv.SDEConfig(seed=self.sim_seeds[1], **self.SDE)

    def iterate(self):
        curves = [dv.develop_curve(self.frame, self.structure, self.gamma,
                                   list(self.CONTROL), Q0, dt, self.CURVE_T,
                                   record="full")
                  for dt in self.CURVE_DTS]
        sde = dv.develop_sde(self.frame, self.structure, self.gamma, Q0,
                             self.sde_config, record="full")
        popp = dv.simulate_popp(self.frame, self.structure, Q0,
                                self.popp_config, record="full")
        return {"curves": curves, "sde": sde, "popp": popp}

    def curve_steps(self):
        return [int(round(self.CURVE_T / dt)) for dt in self.CURVE_DTS]

    def path_steps(self):
        c = self.sde_config
        return sum(self.curve_steps()) + 2 * c.paths * c.steps

    def check(self, out, refs):
        coarse, fine = (c.endpoints()[0] for c in out["curves"])
        ref = np.array(refs["curve_endpoint"])
        tol = refs["curve_tol"]
        rows = [_row("rk4 endpoints at dt and dt/2 agree",
                     np.abs(coarse - fine).max() <= tol,
                     f"{np.abs(coarse - fine).max():.2e}")]
        for dt, end in zip(self.CURVE_DTS, (coarse, fine)):
            rows.append(_row(f"rk4 endpoint at dt={dt:g} matches reference",
                             np.abs(end - ref).max() <= tol,
                             f"{np.abs(end - ref).max():.2e}"))
        for label, path in (("curve dt", out["curves"][0]),
                            ("curve dt/2", out["curves"][1]), ("develop_sde", out["sde"])):
            rows.append(_row(f"{label} orthogonality defect",
                             path.ortho_defect <= refs["ortho_defect_max"],
                             f"{path.ortho_defect:.2e}"))
        paths = out["curves"] + [out["sde"], out["popp"]]
        rows.append(_row("all states finite",
                         _finite(*(a for p in paths for a in (p.points, p.frames)))))
        return rows

    def fingerprint(self, out):
        paths = out["curves"] + [out["sde"], out["popp"]]
        return sha256_arrays(*(p.endpoints() for p in paths))

    def meta(self, out):
        curves = {f"develop_curve.dt={dt:g}": {
            "dt": dt, "T_requested": self.CURVE_T, "steps": n, "T_simulated": n * dt,
            "paths": 1, "scheme": "rk4", "ortho_defect": c.ortho_defect,
            "left_chart_fraction": float(c.left_chart.mean())}
            for dt, n, c in zip(self.CURVE_DTS, self.curve_steps(), out["curves"])}
        return {"configs": {**curves, "develop_sde": config_meta(self.sde_config),
                            "simulate_popp": config_meta(self.popp_config)},
                "q0": list(Q0), "control": list(self.CONTROL),
                "left_chart_fraction": {"develop_sde": float(out["sde"].left_chart.mean()),
                                        "simulate_popp": float(out["popp"].left_chart.mean())},
                "ortho_defect": out["sde"].ortho_defect}


def _sparse_rows(rows):
    return [[[j, str(x)] for j, x in enumerate(r) if x != 0] for r in rows]


def _dense_rows(sparse, cols):
    out = []
    for r in sparse:
        row = [Fraction(0)] * cols
        for j, x in r:
            row[j] = Fraction(x)
        out.append(row)
    return out


class NormalModuleExact:
    """Normal modules of free_nilpotent(2,4) and free_nilpotent(3,2) over Fraction.

    Per algebra: image_partial_plus, normal_module_popp,
    normal_module_morimoto and morimoto_popp_obstruction for each generator,
    on a fresh Cohomology so its caches are filled inside the timed calls.
    The inputs are fixed; the seed only sets the order in which the algebras
    and the generators are processed.
    """

    name = "normal-module-exact"
    ALGEBRAS = {"free24": (2, 4), "free32": (3, 2)}

    def __init__(self, seed):
        rng = np.random.default_rng(derive_seeds(seed, 1))
        self.order = [list(self.ALGEBRAS)[i] for i in rng.permutation(len(self.ALGEBRAS))]
        # the generators of free(g, s) are the first g basis vectors
        self.generator_order = {key: [int(i) for i in rng.permutation(g)]
                                for key, (g, _) in self.ALGEBRAS.items()}

    def setup(self):
        self.ctx = {}
        for key in self.order:
            alg = al.free_nilpotent(*self.ALGEBRAS[key])
            metric = al.extend_metric(alg)
            sym = al.symmetry_algebra(alg, metric)
            self.ctx[key] = (al.ambient(alg, sym), metric)

    def iterate(self):
        out = {}
        for key in self.order:
            amb, metric = self.ctx[key]
            ctx = co.Cohomology(amb, metric)
            im = ctx.image_partial_plus()
            popp = ctx.normal_module_popp()
            mori = ctx.normal_module_morimoto()
            obs = {i: ctx.morimoto_popp_obstruction(i) for i in self.generator_order[key]}
            out[key] = {"im": im, "popp": popp, "morimoto": mori,
                        "obstruction": [obs[i] for i in sorted(obs)]}
        return out

    def path_steps(self):
        return 0

    def check(self, out, refs):
        rows = []
        for key in sorted(out):
            o, ref = out[key], refs[key]
            cols = len(o["im"].monomials)
            rows.append(_row(f"{key} dim hom+", cols == ref["dim_hom_plus"], str(cols)))
            rows.append(_row(f"{key} dim im d+", o["im"].dim == ref["dim_im"], str(o["im"].dim)))
            for module in ("popp", "morimoto"):
                n = o[module]
                rows.append(_row(f"{key} {module} dim N", n.dim == ref[f"dim_N_{module}"],
                                 str(n.dim)))
                stored = _dense_rows(ref[f"N_{module}"], cols)
                rows.append(_row(f"{key} {module} N equals stored span",
                                 rl.spans_equal(n.matrix, stored)))
                rows.append(_row(f"{key} {module} N meets im d+ in 0",
                                 not rl.span_intersection(n.matrix, o["im"].matrix)))
            rows.append(_row(f"{key} obstruction",
                             [e.serialize() for e in o["obstruction"]] == ref["obstruction"]))
        return rows

    def serialized(self, out):
        """The outputs as exact, JSON-ready data (the stored reference form)."""
        return {key: {"dim_hom_plus": len(o["im"].monomials), "dim_im": o["im"].dim,
                      "dim_N_popp": o["popp"].dim, "dim_N_morimoto": o["morimoto"].dim,
                      "N_popp": _sparse_rows(o["popp"].matrix),
                      "N_morimoto": _sparse_rows(o["morimoto"].matrix),
                      "obstruction": [e.serialize() for e in o["obstruction"]]}
                for key, o in sorted(out.items())}

    def fingerprint(self, out):
        data = {k: {"N_popp": v["N_popp"], "N_morimoto": v["N_morimoto"]}
                for k, v in self.serialized(out).items()}
        return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()

    def meta(self, out):
        return {"algebras": {k: list(v) for k, v in self.ALGEBRAS.items()},
                "order": self.order, "generator_order": self.generator_order}


WORKLOADS = {w.name: w for w in (McWide, PathsNarrow, NormalModuleExact)}
