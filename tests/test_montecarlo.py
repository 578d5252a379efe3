"""Tests for the Monte Carlo estimators and statistical comparisons."""

import numpy as np
import pytest

from cartandev import algebra as al
from cartandev import builtins as bi
from cartandev import develop as dv
from cartandev import expr as ex
from cartandev import manifold as mf
from cartandev import montecarlo as mc
from cartandev.errors import MalformedSpec, NonFinite


def setup(name):
    frame = bi.frame(name)
    st = mf.StructureField(frame)
    alg = bi.model_algebra_for(name) or mf.nilpotentization(frame, st)
    sym = al.symmetry_algebra(alg, al.extend_metric(alg))
    gamma = mf.solve_christoffel(frame, st, sym)
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
    fam = mc.default_test_functions(chart, squares=True, products=True)
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
    drift = div + mf.generator_defect(st, sym, gamma, q)
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
    rep = mc.equivalence_test(frame, st, gamma, q0, cfg)
    assert rep["pass"]
    assert rep["max_abs_z"] <= 3.0
    assert len(rep["moments"]) == 2 * frame.chart.dim


def test_equivalence_reuses_a_direct_path():
    frame, st, gamma, sym, q0 = setup("contact-halfplane")
    cfg = dv.SDEConfig(dt=1e-2, T=0.2, seed=3, paths=200)
    direct = dv.simulate_popp(frame, st, q0, cfg)
    assert (mc.equivalence_test(frame, st, gamma, q0, cfg, direct=direct)
            == mc.equivalence_test(frame, st, gamma, q0, cfg))
    other = dv.SDEConfig(dt=1e-2, T=0.1, seed=3, paths=200)
    with pytest.raises(MalformedSpec):
        mc.equivalence_test(frame, st, gamma, q0, other, direct=direct)


def test_equivalence_detects_wrong_connection():
    # adding 0.5 to the first Christoffel symbol changes the drift and the
    # moment comparison must reject it decisively
    frame, st, gamma, sym, q0 = setup("contact-halfplane")
    cfg = dv.SDEConfig(dt=1e-3, T=0.2, seed=9, paths=8000)
    rep = mc.equivalence_test(frame, st, gamma.perturbed(0.5), q0, cfg)
    assert not rep["pass"]
    assert rep["max_abs_z"] > 5.0
