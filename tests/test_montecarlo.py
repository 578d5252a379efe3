"""Tests for the Monte Carlo estimators and statistical comparisons."""

import json

import numpy as np
import pytest

from cartandev import checks as ck
from cartandev import develop as dv
from cartandev import expr as ex
from cartandev import manifold as mf
from cartandev import montecarlo as mc
from cartandev.errors import MalformedSpec, NonFinite


def pairwise_products(chart):
    """(label, Expr) of each product of two distinct coordinates."""
    names = chart.coords
    return [(f"{a}*{b}", ex.Mul(ex.Var(a), ex.Var(b)))
            for i, a in enumerate(names) for b in names[i + 1:]]


def setup(name):
    frame, st, sym, gamma = ck.connection(name)
    q0 = [0.5 * (lo + hi) for lo, hi in frame.chart.bounds()]
    return frame, st, gamma, sym, q0


# -- estimators ----------------------------------------------------------------


def test_summarize_constant_samples():
    assert mc.summarize(np.full(50, 3.25)) == (3.25, 0.0)


def test_summarize_rejects_nonfinite():
    with pytest.raises(NonFinite):
        mc.summarize([1.0, np.nan, 2.0, 3.0])


def test_stderr_scales_with_path_count():
    # quadrupling the paths should halve the standard error (within 20%)
    frame, st, gamma, sym, q0 = setup("heisenberg3")

    def stderr(paths, seed):
        cfg = dv.SDEConfig(dt=1e-2, T=0.2, seed=seed, paths=paths)
        path = dv.develop_sde(frame, st, gamma, q0, cfg)
        return mc.summarize(path.endpoints()[:, 0])[1]     # x is coordinate 0

    s1 = np.mean([stderr(500, s) for s in range(4)])
    s4 = np.mean([stderr(2000, s) for s in range(4)])
    assert abs(s1 / s4 - 2.0) < 0.4


def test_default_test_functions():
    chart = mf.Chart(coords=("x", "y"))
    fam = mc.default_test_functions(chart, squares=True) + pairwise_products(chart)
    labels = [name for name, _ in fam]
    assert labels == ["x", "y", "x^2", "y^2", "x*y"]
    env = {"x": 2.0, "y": 3.0}
    values = [float(f(env)) for _, f in fam]
    assert values == [2.0, 3.0, 4.0, 9.0, 6.0]


def test_evaluate_rejects_nonfinite_function():
    frame, st, gamma, sym, q0 = setup("hyperbolic-plane")
    cfg = dv.SDEConfig(dt=1e-2, T=0.1, seed=0, paths=8)
    bad = ex.parse("1 / (x - x)")
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonFinite):
            mc.generator_family_test(frame, st, gamma, sym, [("bad", bad)], q0, cfg)


# -- generator comparison -------------------------------------------------------


def test_symbolic_generator_matches_popp_when_gamma_solves():
    frame, st, gamma, sym, q0 = setup("contact-halfplane")
    q = np.atleast_2d(q0)
    div = st.divergence(q)
    drift = div + mf.generator_defect(gamma, q)
    for text in ("x", "y", "x^2", "sin(t1)"):
        f = ex.parse(text)
        got = float(mf.second_order(frame, f, q, drift)[0])
        want = float(mf.second_order(frame, f, q, div)[0])
        assert got == pytest.approx(want, abs=1e-12)


def test_generator_test_passes_small_scale():
    frame, st, gamma, sym, q0 = setup("heisenberg3")
    cfg = dv.SDEConfig(dt=5e-4, T=0.02, seed=5, paths=20000)
    rep = mc.generator_family_test(frame, st, gamma, sym, [("x^2", ex.parse("x^2"))],
                                   q0, cfg)
    r = rep["functions"][0]
    assert r["pass"] and r["bias_shrinks"]
    assert r["symbolic_value"] == pytest.approx(1.0)
    assert abs(r["mc_value"] - 1.0) < 0.1


def test_generator_family_test_structure():
    frame, st, gamma, sym, q0 = setup("heisenberg3")
    cfg = dv.SDEConfig(dt=5e-4, T=0.02, seed=6, paths=20000)
    fam = mc.default_test_functions(frame.chart, squares=True)
    rep = mc.generator_family_test(frame, st, gamma, sym, fam, q0, cfg)
    assert rep["pass"]
    assert [r["f"] for r in rep["functions"]] == \
        ["x", "y", "z", "x^2", "y^2", "z^2"]
    assert all(r["pass"] for r in rep["functions"])


def _tree_evaluate(f, chart, points):
    """f at points by walking its Expr tree, one function at a time."""
    env = chart.env(points)
    vals = np.broadcast_to(f(env), (len(points),))
    if not np.all(np.isfinite(vals)):
        raise NonFinite("test function evaluated to a non-finite sample")
    return vals


def _two_run_report(frame, st, gamma, fs, q0, config):
    """The generator report from separate develop_sde runs at t and t/2, each
    test function evaluated by its own tree walk."""
    chart = frame.chart
    q0v = np.asarray(q0, dtype=float)
    configs = [dv.SDEConfig(dt=config.dt, T=t, seed=config.seed, paths=config.paths)
               for t in (config.T, config.T / 2.0)]
    endpoints = [(cfg, dv.develop_sde(frame, st, gamma, q0v, cfg).endpoints())
                 for cfg in configs]
    q = q0v[None]
    drift = st.divergence(q) + mf.generator_defect(gamma, q)
    reports = []
    for label, f in fs:
        f0 = float(_tree_evaluate(f, chart, q)[0])
        symbolic = 0.5 * float(mf.second_order(frame, f, q, drift)[0])
        runs = {}
        for cfg, end in endpoints:
            mean, stderr = mc.summarize(_tree_evaluate(f, chart, end))
            runs[cfg.T] = {"mc_value": (mean - f0) / cfg.T, "stderr": stderr / cfg.T}
        t1, t2 = config.T, config.T / 2.0
        gap1 = runs[t1]["mc_value"] - symbolic
        gap2 = runs[t2]["mc_value"] - symbolic
        bias1 = abs(gap2 - gap1) + 3.0 * (runs[t1]["stderr"] + runs[t2]["stderr"])
        tol1 = 3.0 * runs[t1]["stderr"] + 2.0 * bias1
        reports.append({
            "f": label,
            "mc_value": float(runs[t1]["mc_value"]),
            "mc_value_half_t": float(runs[t2]["mc_value"]),
            "symbolic_value": symbolic,
            "stderr": float(runs[t1]["stderr"]),
            "tolerance": float(tol1),
            "bias_shrinks": bool(abs(gap2) <= abs(gap1)
                                 + 3.0 * (runs[t1]["stderr"] + runs[t2]["stderr"])),
            "pass": bool(abs(gap1) <= tol1),
        })
    return {"test": "generator-family", "t": config.T, "dt": config.dt,
            "paths": config.paths, "functions": reports,
            "pass": bool(all(r["pass"] for r in reports))}


@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_generator_report_is_that_of_two_runs(offset):
    # one run recorded at t/2 and t gives the report of separate runs to
    # t/2 and t, key for key and bit for bit (repr of a float is exact)
    frame, st, gamma, sym, q0 = setup("contact-halfplane")
    gamma = gamma.perturbed(offset)
    cfg = dv.SDEConfig(dt=1e-3, T=0.02, seed=21, paths=3000)
    fam = mc.default_test_functions(frame.chart, squares=True) + pairwise_products(frame.chart)
    rep = mc.generator_family_test(frame, st, gamma, sym, fam, q0, cfg)
    oracle = _two_run_report(frame, st, gamma, fam, q0, cfg)
    assert json.dumps(rep) == json.dumps(oracle)


def test_generator_family_test_rejects_odd_step_count():
    # T = 5 dt: the T/2 run would be 2.5 steps, so no horizon can be simulated
    frame, st, gamma, sym, q0 = setup("heisenberg3")
    cfg = dv.SDEConfig(dt=1e-2, T=0.05, seed=0, paths=8)
    with pytest.raises(MalformedSpec):
        mc.generator_family_test(frame, st, gamma, sym, [("x", ex.parse("x"))], q0, cfg)


# -- equivalence of the two simulations -------------------------------------------


def test_equivalence_passes_small_scale():
    frame, st, gamma, sym, q0 = setup("contact-halfplane")
    cfg = dv.SDEConfig(dt=1e-3, T=0.2, seed=8, paths=8000)
    rep, = mc.equivalence_test(frame, st, [gamma], q0, cfg)
    assert rep["pass"]
    assert rep["max_abs_z"] <= 3.0
    assert len(rep["moments"]) == 2 * frame.chart.dim


def test_equivalence_of_several_connections_is_that_of_each():
    # one direct simulation serves every connection: the reports equal those
    # of one call per connection, bit for bit
    frame, st, gamma, sym, q0 = setup("contact-halfplane")
    cfg = dv.SDEConfig(dt=1e-2, T=0.2, seed=3, paths=200)
    gammas = [gamma, gamma.perturbed(0.3)]
    both = mc.equivalence_test(frame, st, gammas, q0, cfg)
    each = [mc.equivalence_test(frame, st, [g], q0, cfg)[0] for g in gammas]
    assert json.dumps(both) == json.dumps(each)
    assert both[0]["moments"] != both[1]["moments"]


def _column_rows(frame, st, gamma, q0, config):
    """The equivalence rows from the endpoint columns and their squares."""
    a = dv.develop_sde(frame, st, gamma, q0, config).endpoints()
    b = dv.simulate_popp(frame, st, q0, config).endpoints()
    rows = []
    for i, name in enumerate(frame.chart.coords):
        for label, xa, xb in ((name, a[:, i], b[:, i]),
                              (f"{name}^2", a[:, i] ** 2, b[:, i] ** 2)):
            (ma, sa), (mb, sb) = mc.summarize(xa), mc.summarize(xb)
            se = np.hypot(sa, sb)
            z = float((ma - mb) / se) if se else 0.0
            rows.append({"moment": label, "developed": ma,
                         "direct": mb, "stderr": float(se), "z": z})
    return rows


@pytest.mark.parametrize("name", ["contact-halfplane", "heisenberg3"])
def test_equivalence_moments_are_the_column_moments(name):
    # the compiled family (coordinates, then squares) gives the numbers of
    # the endpoint columns and their squares, label by label
    frame, st, gamma, sym, q0 = setup(name)
    cfg = dv.SDEConfig(dt=1e-2, T=0.2, seed=4, paths=500)
    gamma = gamma.perturbed(0.2)
    rep, = mc.equivalence_test(frame, st, [gamma], q0, cfg)
    oracle = _column_rows(frame, st, gamma, q0, cfg)
    assert [r["moment"] for r in rep["moments"]] == \
        [f"{c}{s}" for s in ("", "^2") for c in frame.chart.coords]
    by_label = {r["moment"]: r for r in oracle}
    assert json.dumps(rep["moments"]) == json.dumps([by_label[r["moment"]]
                                                     for r in rep["moments"]])
    assert rep["max_abs_z"] == max(abs(r["z"]) for r in oracle)


def test_equivalence_detects_wrong_connection():
    # adding 0.5 to the first Christoffel symbol changes the drift and the
    # moment comparison must reject it decisively
    frame, st, gamma, sym, q0 = setup("contact-halfplane")
    cfg = dv.SDEConfig(dt=1e-3, T=0.2, seed=9, paths=8000)
    rep, = mc.equivalence_test(frame, st, [gamma.perturbed(0.5)], q0, cfg)
    assert not rep["pass"]
    assert rep["max_abs_z"] > 5.0
