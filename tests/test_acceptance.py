"""Acceptance gate: eleven end-to-end checks at full scale.

Exact identities carry no tolerance; statistical checks state theirs.
Runtime budgets are asserted where the workload is large.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from cartandev import algebra as al
from cartandev import builtins as bi
from cartandev import cohomology as ch
from cartandev import develop as dv
from cartandev import manifold as mf
from cartandev import montecarlo as mc
from cartandev.errors import Inconsistent
from test_algebra import free_layer_dims_oracle


def cohomology_for(alg):
    metric = al.extend_metric(alg)
    sym = al.symmetry_algebra(alg, metric)
    return ch.Cohomology(al.ambient(alg, sym), metric)


def context_for(name):
    frame = bi.frame(name)
    st = mf.StructureField(frame)
    alg = bi.model_algebra_for(name) or mf.nilpotentization(frame, st)
    sym = al.symmetry_algebra(alg, al.extend_metric(alg))
    q0 = [0.5 * (lo + hi) for lo, hi in frame.chart.bounds()]
    return frame, st, alg, sym, q0


# -- the free rank-2 step-3 algebra, its ambient extension, and the six
#       degree-one differentials --------------------------------------------------


def test_free23_structure_ambient_and_differentials():
    start = time.perf_counter()

    alg = al.free_nilpotent(2, 3)
    assert alg.growth == (2, 3, 5)
    assert alg.brackets == {
        (0, 1): {2: Fraction(1)},
        (0, 2): {3: Fraction(1)},
        (1, 2): {4: Fraction(1)},
    }
    al.validate(alg)

    # ambient rotation relations: the symmetry generator e0 := e6 acts by
    # [e1, e0] = e2, [e2, e0] = -e1, [e4, e0] = e5, [e5, e0] = -e4
    sym = al.symmetry_algebra(alg)
    assert sym.dimH == 1
    amb = al.ambient(alg, sym)
    assert amb.dim == 6
    assert amb.bracket_basis(0, 5) == {1: Fraction(1)}
    assert amb.bracket_basis(1, 5) == {0: Fraction(-1)}
    assert amb.bracket_basis(3, 5) == {4: Fraction(1)}
    assert amb.bracket_basis(4, 5) == {3: Fraction(-1)}
    assert amb.bracket_basis(2, 5) == {}

    co = ch.Cohomology(amb, al.extend_metric(alg))
    expected = {
        (1, 1): {"3:1,2": "1", "4:1,3": "1"},
        (1, 2): {"4:2,3": "1"},
        (1, 3): {"1:1,2": "-1", "3:2,3": "-1"},
        (2, 1): {"5:1,3": "1"},
        (2, 2): {"3:1,2": "1", "5:2,3": "1"},
        (2, 3): {"2:1,2": "-1", "3:1,3": "1"},
    }
    for (a, j), want in expected.items():
        e = ch.hom_element(1, [(a - 1, (j - 1,), 1)])
        assert co.differential(e).serialize() == want

    assert time.perf_counter() - start < 1.0


# -- the normalisation obstruction ----------------------------------------------


def test_normalisation_obstruction_values():
    co = cohomology_for(al.free_nilpotent(2, 3))
    # e5 (x) e^1 ^ e^2 ^ e^3 is the canonical form of -e5 (x) e^3 ^ e^2 ^ e^1
    assert co.morimoto_popp_obstruction(0).serialize() == {"5:1,2,3": "1"}
    co3 = cohomology_for(bi.algebra("heisenberg3"))
    assert co3.morimoto_popp_obstruction(0).is_zero()
    assert co3.morimoto_popp_obstruction(1).is_zero()


# -- symmetry dimensions and free growth ----------------------------------------


def test_symmetry_dimensions_and_free_growth():
    assert al.symmetry_algebra(bi.algebra("heisenberg3")).dimH == 1
    assert al.symmetry_algebra(al.free_nilpotent(2, 3)).dimH == 1
    assert al.symmetry_algebra(bi.algebra("engel")).dimH == 0
    free24 = al.free_nilpotent(2, 4)
    assert free24.growth == (2, 3, 5, 8)
    assert free24.layer_dims() == free_layer_dims_oracle(2, 4)


# -- the differential complex and the normal module -----------------------------


@pytest.mark.parametrize("name", ["heisenberg3", "free23", "engel", "free24"])
def test_differential_squares_to_zero(name):
    co = cohomology_for(bi.algebra(name))
    for m in co.monomials(1):
        assert co.differential(co._monomial_differential(1, m)).is_zero()


@pytest.mark.parametrize("name", ["heisenberg3", "free23"])
def test_normal_module_exact_complement(name):
    co = cohomology_for(bi.algebra(name))
    n = co.normal_module_popp()
    im = co.image_partial_plus()
    monos = co.positive_monomials(2)
    # exact-rank direct sum and invariance (checked over the rationals)
    assert n.dim + im.dim == len(monos)
    from cartandev import ratlinalg as rl
    assert not rl.span_intersection(n.matrix, im.matrix)
    assert co._check_h_invariant(n.matrix, monos)


def test_h3_degree_one_bijective():
    from cartandev import ratlinalg as rl
    co = cohomology_for(bi.algebra("heisenberg3"))
    rows = [co._coords(co._monomial_differential(1, m),
                       co.positive_monomials(2))
            for m in co.positive_monomials(1)]
    assert rl.rank(rows) == len(rows)


# -- Christoffel symbols on the generic contact builtin --------------------------


def test_contact_christoffel_identities():
    frame, st, alg, sym, _ = context_for("contact-halfplane")
    points = frame.chart.sample_points(100, seed=20)
    gamma = mf.solve_christoffel(frame, st, sym, points)
    g = gamma.at(points)
    c = st.at(points)
    assert np.abs(g[:, 0, 0] - c[:, 0, 1, 0]).max() <= 1e-14
    assert np.abs(g[:, 0, 1] - c[:, 0, 1, 1]).max() <= 1e-14
    defect = mf.generator_defect(gamma, points)
    assert np.abs(defect).max() <= 1e-9


# -- the Goursat obstructions -----------------------------------------------------


def test_goursat_obstructions():
    start = time.perf_counter()
    frame, st, alg, sym, q0 = context_for("goursat-halfplane")
    points = frame.chart.sample_points(50, seed=21)
    env = frame.chart.env(points)
    c = st.at(points)
    want = np.sin(env["t1"]) * np.sin(env["t2"])
    assert np.abs(c[:, 1, 3, 3] - want).max() <= 1e-12

    report = mf.develop_condition(frame, st, alg, sym, points)
    assert not report.feasible
    assert report.witness_direction is not None
    assert abs(report.witness_value) > 1e-6

    with pytest.raises(Inconsistent):
        mf.solve_christoffel(frame, st, sym, points)

    drift = st.divergence(points)
    assert np.abs(drift).max() > 1e-3
    assert time.perf_counter() - start < 5.0


# -- Riemannian cross-check ---------------------------------------------------------


@pytest.mark.parametrize("name", ["hyperbolic-plane", "sphere-patch"])
def test_levi_civita_cross_check(name):
    frame = bi.frame(name)
    rep = mf.levi_civita_check(frame, mf.StructureField(frame))
    assert rep.max_difference <= 1e-9


# -- lift independence and integrator order ------------------------------------------


def test_lift_independence_and_rk4_order():
    frame, st, alg, sym, q0 = context_for("contact-halfplane")
    gamma = mf.solve_christoffel(frame, st, sym)

    # develop the same model curve through two lifts: the identity frame with
    # control u(t) = (cos t, sin t), and the frame rotated by theta with the
    # correspondingly rotated control u'(t) = R u(t) = (cos(t+theta), sin(t+theta))
    theta = 0.7
    r = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    p1 = dv.develop_curve(frame, st, gamma, ["cos(t)", "sin(t)"], q0,
                          1e-3, 1.0, record="full")
    p2 = dv.develop_curve(frame, st, gamma,
                          ["cos(t + 0.7)", "sin(t + 0.7)"], q0,
                          1e-3, 1.0, h0=r, record="full")
    assert np.abs(p1.points - p2.points).max() <= 1e-6

    # fourth-order convergence: halving dt cuts the endpoint error >= 8x
    def endpoint(dt):
        path = dv.develop_curve(frame, st, gamma, ["cos(t)", "sin(t)"], q0,
                                dt, 1.0)
        return path.points[-1, 0]

    ref = endpoint(1e-4)
    e1 = np.abs(endpoint(4e-2) - ref).max()
    e2 = np.abs(endpoint(2e-2) - ref).max()
    assert e1 / e2 >= 8.0


# -- the signed-area variance ----------------------------------------------------------


def test_levy_area_variance():
    start = time.perf_counter()
    alg = bi.algebra("heisenberg3")
    config = dv.SDEConfig(dt=1e-3, T=1.0, seed=0, paths=200000)
    path = dv.simulate_carnot_lift(alg, config)
    z = path.endpoints()[:, 2]
    v = float(z.var())
    # true value 1/4: Var of the signed area of planar Brownian motion at
    # t = 1 equals E[(1/2 int b1 db2 - b2 db1)^2] = t^2/4 by the isometry
    assert 0.24 <= v <= 0.26
    assert time.perf_counter() - start < 60.0


# -- generator comparison at scale -------------------------------------------------------


def test_generator_at_scale():
    start = time.perf_counter()
    frame, st, alg, sym, q0 = context_for("contact-halfplane")
    gamma = mf.solve_christoffel(frame, st, sym)
    fs = mc.default_test_functions(frame.chart, squares=True)
    config = dv.SDEConfig(dt=5e-4, T=0.01, seed=1, paths=1000000)
    report = mc.generator_family_test(frame, st, gamma, sym, fs, q0, config)
    assert report["pass"], report
    assert all(r["bias_shrinks"] for r in report["functions"]), report
    assert time.perf_counter() - start < 600.0


# -- equivalence with a negative control ----------------------------------------------------


def test_equivalence_and_negative_control():
    frame, st, alg, sym, q0 = context_for("contact-halfplane")
    gamma = mf.solve_christoffel(frame, st, sym)
    config = dv.SDEConfig(dt=1e-3, T=0.2, seed=2, paths=50000)
    direct = dv.simulate_popp(frame, st, q0, config)
    good = mc.equivalence_test(frame, st, gamma, q0, config, direct=direct)
    assert good["pass"] and good["max_abs_z"] <= 3.0

    bad = mc.equivalence_test(frame, st, gamma.perturbed(0.5), q0, config,
                              direct=direct)
    assert not bad["pass"]
    assert bad["max_abs_z"] > 5.0
