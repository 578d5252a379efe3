"""Acceptance gate: eleven end-to-end checks at full scale.

The checks are those of cartandev.checks, which `cartandev verify suite`
runs at other seeds and scales. Exact identities carry no tolerance;
statistical checks state theirs. Runtime budgets are asserted where the
workload is large.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from cartandev import algebra as al
from cartandev import builtins as bi
from cartandev import checks as ck
from cartandev import cohomology as ch
from cartandev import develop as dv
from cartandev import manifold as mf
from cartandev.errors import Inconsistent
from test_algebra import free_layer_dims_oracle, layer_dims
from test_cohomology import check_h_invariant


# the start point of the contact checks: the middle of the chart's box
Q0 = [0.5 * (lo + hi) for lo, hi in bi.frame("contact-halfplane").chart.bounds()]


# -- the free rank-2 step-3 algebra, its ambient extension, and the six
#       degree-one differentials --------------------------------------------------


def test_free23_structure_ambient_and_differentials():
    start = time.perf_counter()

    alg = al.free_nilpotent(2, 3)
    assert alg.growth == (2, 3, 5)
    assert ck.free23_brackets() == {
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
    ob = ck.obstructions(al.free_nilpotent(2, 3))
    # e5 (x) e^1 ^ e^2 ^ e^3 is the canonical form of -e5 (x) e^3 ^ e^2 ^ e^1
    assert ob[0] == {"5:1,2,3": "1"}
    ob3 = ck.obstructions(bi.algebra("heisenberg3"))
    assert ob3[0] == {}
    assert ob3[1] == {}


# -- symmetry dimensions and free growth ----------------------------------------


def test_symmetry_dimensions_and_free_growth():
    dims = ck.symmetry_dims()
    assert dims["heisenberg3"] == 1
    assert dims["free23"] == 1
    assert dims["engel"] == 0
    free24 = al.free_nilpotent(2, 4)
    assert free24.growth == (2, 3, 5, 8)
    assert layer_dims(free24) == free_layer_dims_oracle(2, 4)


# -- the differential complex and the normal module -----------------------------


@pytest.mark.parametrize("name", ["heisenberg3", "free23", "engel", "free24"])
def test_differential_squares_to_zero(name):
    assert ck.differential_complex(bi.algebra(name)) == 0


@pytest.mark.parametrize("name", ["heisenberg3", "free23"])
def test_normal_module_exact_complement(name):
    co = ck.cohomology_for(bi.algebra(name))
    n = co.normal_module_popp()
    im = co.image_partial_plus()
    monos = co.positive_monomials(2)
    # exact-rank direct sum and invariance (checked over the rationals)
    assert n.dim + im.dim == len(monos)
    from cartandev import ratlinalg as rl
    assert not rl.span_intersection(n.matrix, im.matrix)
    assert check_h_invariant(co, list(n.echelon.values()), monos)


def test_h3_degree_one_bijective():
    from cartandev import ratlinalg as rl
    co = ck.cohomology_for(bi.algebra("heisenberg3"))
    index = ch._column_index(co.positive_monomials(2))
    rows = [ch._coords(co._monomial_differential(1, m).coeffs, index)
            for m in co.positive_monomials(1)]
    assert len(rl.echelon(rows)) == len(rows)


# -- Christoffel symbols on the generic contact builtin --------------------------


def test_contact_christoffel_identities():
    measured = ck.contact_christoffel(20)
    assert measured["err"] <= 1e-14
    assert measured["defect"] <= 1e-9


# -- the Goursat obstructions -----------------------------------------------------


def test_goursat_obstructions():
    start = time.perf_counter()
    frame, st, alg, sym = ck.context("goursat-halfplane")
    points = frame.chart.sample_points(50, seed=21)
    env = frame.chart.env(points)
    c = st.at(points)
    want = np.sin(env["t1"]) * np.sin(env["t2"])
    assert np.abs(c[:, 1, 3, 3] - want).max() <= 1e-12

    report = ck.goursat(50, 21)
    assert not report["feasible"]
    assert report["witness_direction"] is not None
    assert abs(report["witness_value"]) > 1e-6

    with pytest.raises(Inconsistent):
        mf.solve_christoffel(frame, st, sym, points)

    drift = st.divergence(points)
    assert np.abs(drift).max() > 1e-3
    assert time.perf_counter() - start < 5.0


# -- Riemannian cross-check ---------------------------------------------------------


@pytest.mark.parametrize("name", ["hyperbolic-plane", "sphere-patch"])
def test_levi_civita_cross_check(name):
    assert ck.levi_civita([bi.frame(name)]) <= 1e-9


# -- lift independence and integrator order ------------------------------------------


def test_lift_independence_and_rk4_order():
    # develop the same model curve through two lifts: the identity frame with
    # control u(t) = (cos t, sin t), and the frame rotated by theta with the
    # correspondingly rotated control u'(t) = R u(t) = (cos(t+theta), sin(t+theta))
    theta = 0.7
    r = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    err = ck.lift_independence("contact-halfplane", Q0, r,
                               ["cos(t + 0.7)", "sin(t + 0.7)"], "full")
    assert err <= 1e-6

    # fourth-order convergence: halving dt cuts the endpoint error >= 8x
    frame, st, sym, gamma = ck.connection("contact-halfplane")

    def endpoint(dt):
        path = dv.develop_curve(frame, st, gamma, ["cos(t)", "sin(t)"], Q0,
                                dt, 1.0)
        return path.points[-1, 0]

    ref = endpoint(1e-4)
    e1 = np.abs(endpoint(4e-2) - ref).max()
    e2 = np.abs(endpoint(2e-2) - ref).max()
    assert e1 / e2 >= 8.0


# -- the signed-area variance ----------------------------------------------------------


def test_levy_area_variance():
    start = time.perf_counter()
    config = dv.SDEConfig(dt=1e-3, T=1.0, seed=0, paths=200000)
    v = ck.levy_area_variance(config)
    # true value 1/4: Var of the signed area of planar Brownian motion at
    # t = 1 equals E[(1/2 int b1 db2 - b2 db1)^2] = t^2/4 by the isometry
    assert 0.24 <= v <= 0.26
    assert time.perf_counter() - start < 60.0


# -- generator comparison at scale -------------------------------------------------------


def test_generator_at_scale():
    start = time.perf_counter()
    config = dv.SDEConfig(dt=5e-4, T=0.01, seed=1, paths=1000000)
    report = ck.generator(Q0, config)
    assert report["pass"], report
    assert all(r["bias_shrinks"] for r in report["functions"]), report
    assert time.perf_counter() - start < 600.0


# -- equivalence with a negative control ----------------------------------------------------


def test_equivalence_and_negative_control():
    config = dv.SDEConfig(dt=1e-3, T=0.2, seed=2, paths=50000)
    good, bad = ck.equivalence(Q0, config, 0.5)
    assert good["pass"] and good["max_abs_z"] <= 3.0
    assert not bad["pass"]
    assert bad["max_abs_z"] > 5.0
