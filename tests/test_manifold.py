"""Tests for charts, frame fields, structure functions, and connections."""

import numpy as np
import pytest

from cartandev import algebra as al
from cartandev import builtins as bi
from cartandev import checks as ck
from cartandev import develop as dv
from cartandev import expr as ex
from cartandev import manifold as mf
from cartandev.errors import (CartandevError, Inconsistent, MalformedSpec,
                              ModelMismatch, RankDrop, SingularFrame,
                              UnknownIdentifier)


# -- charts -------------------------------------------------------------------


def test_chart_sampling_respects_box():
    chart = mf.Chart(coords=("x", "y"), box=((-2.0, 2.0), (0.5, 2.5)))
    pts = chart.sample_points(200, seed=0)
    assert pts.shape == (200, 2)
    assert pts[:, 0].min() >= -2.0 and pts[:, 0].max() <= 2.0
    assert pts[:, 1].min() >= 0.5 and pts[:, 1].max() <= 2.5


def test_chart_rejects_bad_periodic():
    with pytest.raises(MalformedSpec):
        mf.Chart(coords=("x",), periodic=("t",))


def test_parse_component_rejects_unknown_identifiers():
    chart = mf.Chart(coords=("x", "y"))
    with pytest.raises(UnknownIdentifier):
        mf.parse_component("x + z", chart)


# -- Lie brackets of vector fields ---------------------------------------------


def fields_of(name):
    frame = bi.frame(name)
    return frame, frame.chart


def test_bracket_heisenberg():
    # [d_x - (y/2) d_z, d_y + (x/2) d_z] = d_z
    frame, chart = fields_of("heisenberg3")
    br = mf.lie_bracket(frame.fields[0], frame.fields[1], chart)
    env = chart.env(chart.sample_points(10, seed=0))
    vals = np.stack([np.broadcast_to(c(env), (10,)) for c in br])
    assert np.allclose(vals[0], 0) and np.allclose(vals[1], 0)
    assert np.allclose(vals[2], 1)


def test_bracket_hyperbolic():
    # [y d_x, y d_y] = -y d_x
    frame, chart = fields_of("hyperbolic-plane")
    br = mf.lie_bracket(frame.fields[0], frame.fields[1], chart)
    pts = chart.sample_points(10, seed=1)
    env = chart.env(pts)
    assert np.allclose(np.broadcast_to(br[0](env), (10,)), -pts[:, 1])
    assert np.allclose(np.broadcast_to(br[1](env), (10,)), 0)


def test_bracket_with_itself_is_zero():
    frame, chart = fields_of("sphere-patch")
    br = mf.lie_bracket(frame.fields[0], frame.fields[0], chart)
    env = chart.env(chart.sample_points(5, seed=2))
    for comp in br:
        assert np.allclose(np.broadcast_to(comp(env), (5,)), 0)


# -- structure functions --------------------------------------------------------


@pytest.mark.parametrize("name", ["heisenberg3", "contact-halfplane",
                                  "goursat-halfplane", "hyperbolic-plane"])
def test_structure_residual_small(name):
    frame = bi.frame(name)
    st = mf.StructureField(frame)
    pts = frame.chart.sample_points(30, seed=3)
    assert st.residual(pts) < 1e-9
    c = st.at(pts)
    assert np.allclose(c, -np.swapaxes(c, 1, 2))


def test_popp_divergence_is_built_on_first_use(monkeypatch):
    # at / residual (all that `manifold check` needs) never build the drift
    built = []
    original = mf._popp_divergence
    monkeypatch.setattr(mf, "_popp_divergence", lambda f: built.append(f) or original(f))
    frame = bi.frame("goursat-halfplane")
    st = mf.StructureField(frame)
    pts = frame.chart.sample_points(10, seed=3)
    st.at(pts)
    st.residual(pts)
    assert built == []
    st.divergence(pts)
    st._horizontal_at(dict(zip(frame.chart.coords, pts[0])))
    assert built == [frame]


@pytest.mark.parametrize("name", bi.FRAME_NAMES)
def test_compiled_geometry_matches_solve(name):
    frame = bi.frame(name)
    st = mf.StructureField(frame)
    pts = frame.chart.sample_points(200)
    div = st.divergence(pts)
    solved = np.einsum("plil->pi", st.at(pts))[:, :frame.k1]
    assert np.abs(div - solved).max() <= 1e-12
    env = frame.chart.env(pts)
    comps = [c for field in frame.fields for c in field]
    for c, v in zip(comps, ex.Compiled(comps)(env)):
        assert np.array_equal(np.broadcast_to(v, len(pts)),
                              np.broadcast_to(c(env), len(pts)))


def tree_field_values(fields, chart, points):
    """The reference evaluation: one tree walk per field component."""
    env = chart.env(points)
    m = np.empty((len(points), chart.dim, len(fields)))
    for j, field in enumerate(fields):
        for a, comp in enumerate(field):
            m[:, a, j] = comp(env)
    return m


@pytest.mark.parametrize("name", bi.FRAME_NAMES)
def test_field_values_match_the_tree_walk(name):
    frame = bi.frame(name)
    st = mf.StructureField(frame)
    pts = frame.chart.sample_points(50, seed=12)
    pairs = [(i, j) for i in range(frame.n) for j in range(i + 1, frame.n)]
    brackets = tuple(mf.lie_bracket(frame.fields[i], frame.fields[j], frame.chart)
                     for i, j in pairs)
    frame_m = tree_field_values(frame.fields, frame.chart, pts)
    rhs = tree_field_values(brackets, frame.chart, pts)
    both = mf.field_values(frame.fields + brackets, frame.chart, pts)
    assert np.array_equal(both[:, :, :frame.n], frame_m)
    assert np.array_equal(both[:, :, frame.n:], rhs)
    assert np.array_equal(mf.field_values(brackets, frame.chart, pts), rhs)
    sol = np.linalg.solve(frame_m, rhs)
    c = st.at(pts)
    for col, (i, j) in enumerate(pairs):
        assert np.array_equal(c[:, i, j], sol[:, :, col])
        assert np.array_equal(c[:, j, i], -sol[:, :, col])


@pytest.mark.parametrize("name", bi.FRAME_NAMES)
def test_one_point_geometry_is_a_batch_row(name):
    # a traced curve step runs the horizontal program on one point's
    # np.float64 scalars: every bit must be that of its row in a batch
    # (with ** for powers, sphere-patch differs at 2 of these 2000 points)
    frame = bi.frame(name)
    st = mf.StructureField(frame)
    pts = frame.chart.sample_points(2000)
    batch = mf._evaluate(st._horizontal, frame.chart, pts)
    for i in range(len(pts)):
        vals = st._horizontal(dict(zip(frame.chart.coords, pts[i])))
        assert all(isinstance(v, float) for v in vals)
        assert np.array(vals).tobytes() == batch[:, i].tobytes()
    pairs = [(i, j) for i in range(frame.n) for j in range(i + 1, frame.n)]
    fields = frame.fields + tuple(
        mf.lie_bracket(frame.fields[i], frame.fields[j], frame.chart) for i, j in pairs)
    vals = mf.field_values(fields, frame.chart, pts[:200])
    for i in range(200):
        vi = mf.field_values(fields, frame.chart, pts[i:i + 1])
        assert vi.tobytes() == vals[i:i + 1].tobytes()


def test_compiled_geometry_rejects_singular_points():
    frame = bi.frame("hyperbolic-plane")
    st = mf.StructureField(frame)
    with pytest.raises(SingularFrame):
        st.divergence([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("row,col", [(0, 0), (1, 1), (2, 0)])
def test_literal_division_by_zero_is_a_singular_frame(row, col):
    # a component 1/0 is +inf: the finiteness checks see it, at one point
    # and at several
    spec = bi.frame("contact-halfplane").to_spec()
    spec["frame"][row][col] = "1/0"
    frame = mf.build_frame(spec)
    for count in (1, 4):
        with pytest.raises(SingularFrame):
            mf.StructureField(frame).divergence(frame.chart.sample_points(count, seed=0))


def test_non_finite_solve_is_a_singular_frame():
    # x/0 is inf or nan at every point, and only X3's t1 component carries
    # it: at and residual both raise SingularFrame, with no RuntimeWarning
    spec = bi.frame("contact-halfplane").to_spec()
    spec["frame"][2][2] = "sin(t1) + x/0"
    frame = mf.build_frame(spec)
    st = mf.StructureField(frame)
    points = frame.chart.sample_points(4, seed=0)
    for method in (st.at, st.residual):
        with pytest.raises(SingularFrame):
            method(points)


def test_structure_programs_are_compiled_once(monkeypatch):
    # at and residual reuse one compiled frame-and-brackets program
    frame = bi.frame("engel-halfplane")
    st = mf.StructureField(frame)
    pts = frame.chart.sample_points(5, seed=1)
    first, res = st.at(pts), st.residual(pts)
    built = []
    real = ex.Compiled

    def counting(roots):
        built.append(len(roots))
        return real(roots)

    monkeypatch.setattr(ex, "Compiled", counting)
    for p in (pts, pts[:1]):
        st.at(p)
        st.residual(p)
    assert built == []
    assert np.array_equal(st.at(pts), first) and st.residual(pts) == res
    assert np.array_equal(st.at(pts[:1]), first[:1])


def test_goursat_structure_function():
    # c^4_{24}(q) = sin(t1) sin(t2) on the twice-prolonged half-plane
    frame = bi.frame("goursat-halfplane")
    st = mf.StructureField(frame)
    pts = frame.chart.sample_points(50, seed=4)
    env = frame.chart.env(pts)
    c = st.at(pts)
    assert np.abs(c[:, 1, 3, 3] - np.sin(env["t1"]) * np.sin(env["t2"])).max() < 1e-12


def test_adapted_growth_accepts_heisenberg():
    frame = bi.frame("heisenberg3")
    rep = mf.adapted_growth(frame, mf.StructureField(frame))
    assert rep.graded_constant and rep.growth == (2, 3)


def test_adapted_growth_detects_wrong_declaration():
    # three commuting coordinate fields cannot have growth (2, 3)
    chart = mf.Chart(coords=("x", "y", "z"))
    one, zero = ex.Const(1.0), ex.Const(0.0)
    frame = mf.FrameField(
        chart=chart,
        fields=((one, zero, zero), (zero, one, zero), (zero, zero, one)),
        growth=(2, 3))
    with pytest.raises(RankDrop):
        mf.adapted_growth(frame, mf.StructureField(frame))


def test_adapted_growth_rejects_a_rank_that_varies():
    # [d_x, d_y + x^2 d_z] = 2x d_z vanishes on x = 0 only
    chart = mf.Chart(coords=("x", "y", "z"))
    one, zero = ex.Const(1.0), ex.Const(0.0)
    frame = mf.FrameField(
        chart=chart,
        fields=((one, zero, zero), (zero, one, ex.parse("x^2")), (zero, zero, one)),
        growth=(2, 3))
    pts = np.array([[0.0, 0.1, 0.2], [0.0, -0.4, 0.7], [0.5, -0.3, 0.4]])
    with pytest.raises(RankDrop, match="varies"):
        mf.adapted_growth(frame, mf.StructureField(frame), pts)


def test_nilpotentization_of_heisenberg_frame():
    frame = bi.frame("heisenberg3")
    alg = mf.nilpotentization(frame, mf.StructureField(frame))
    spec = alg.to_spec()
    assert tuple(spec["growth"]) == (2, 3)
    assert spec["brackets"] == {"1,2": {"3": 1}}


def test_check_model_mismatch():
    frame = bi.frame("heisenberg3")
    st = mf.StructureField(frame)
    wrong = al.build_algebra({"dim": 3, "growth": [2, 3],
                              "brackets": {"1,2": {"3": "2"}}})
    pts = frame.chart.sample_points(5, seed=5)
    with pytest.raises(ModelMismatch):
        mf.check_model(frame, st, wrong, pts)


# -- the second-order operator ---------------------------------------------------


def test_popp_annihilates_constants():
    frame = bi.frame("contact-halfplane")
    st = mf.StructureField(frame)
    pts = frame.chart.sample_points(20, seed=6)
    value = mf.second_order(frame, ex.parse("1"), pts, st.divergence(pts))
    assert np.abs(value).max() < 1e-12


def test_popp_heisenberg_squares():
    # X_1^2 (x^2) = 2 and the drift vanishes on the stratified model
    frame = bi.frame("heisenberg3")
    st = mf.StructureField(frame)
    pts = frame.chart.sample_points(20, seed=7)
    div = st.divergence(pts)
    assert np.allclose(div, 0)
    assert np.allclose(mf.second_order(frame, ex.parse("x^2"), pts, div), 2.0)
    assert np.allclose(mf.second_order(frame, ex.parse("z"), pts, div), 0.0)


def tree_generator_value(frame, st, gamma, f, pts):
    """The generator of gamma as the Popp operator plus the defect terms.

    The reference form: one tree evaluation of X_i f and X_i(X_i f) per field,
    the defect added after the Popp value.
    """
    chart = frame.chart
    env = chart.env(pts)
    p = len(pts)
    div = st.divergence(pts)
    defect = mf.generator_defect(gamma, pts)
    base, extra = np.zeros(p), 0.0
    for i, field in enumerate(frame.fields[:frame.k1]):
        xf = mf.apply_field(field, f, chart)
        xxf = mf.apply_field(field, xf, chart)
        base += np.broadcast_to(xxf(env), (p,))
        base += div[:, i] * np.broadcast_to(xf(env), (p,))
        extra += defect[:, i] * np.broadcast_to(xf(env), (p,))
    return base + extra


def operator_functions(chart):
    a, b = chart.coords[:2]
    texts = list(chart.coords) + [f"{c}^2" for c in chart.coords]
    return [ex.parse(t) for t in texts + [f"{a}*{b}", f"sin({a})*{b}"]]


@pytest.mark.parametrize("name", bi.FRAME_NAMES)
def test_second_order_matches_the_tree_built_generator(name):
    frame, st, alg, sym = ck.context(name)
    try:
        gamma = mf.solve_christoffel(frame, st, sym)
    except Inconsistent:
        gamma = mf.ChristoffelField(st, sym)
    delta = np.random.default_rng(8).normal(size=(sym.dimH, frame.k1))
    pts = frame.chart.sample_points(10, seed=8)
    for g in (gamma, gamma.perturbed(delta)):
        drift = st.divergence(pts) + mf.generator_defect(g, pts)
        for f in operator_functions(frame.chart):
            got = mf.second_order(frame, f, pts, drift)
            want = tree_generator_value(frame, st, g, f, pts)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_second_order_defect_of_a_perturbed_connection():
    # a constant offset delta of Gamma adds sum_i (M delta)_i X_i f
    frame, st, sym, gamma = ck.connection("contact-halfplane")
    delta = np.array([[0.3, -0.7]])
    # the system matrix M[i, alpha*k1+j] = (A_alpha)^j_i, from the symmetry basis
    k1 = frame.k1
    m = np.array([[float(a[j][i]) for a in sym.basis for j in range(k1)]
                  for i in range(k1)])
    shift = m @ delta.ravel()
    pts = frame.chart.sample_points(15, seed=10)
    env = frame.chart.env(pts)
    div = st.divergence(pts)
    drift = div + mf.generator_defect(gamma.perturbed(delta), pts)
    for f in operator_functions(frame.chart):
        want = mf.second_order(frame, f, pts, div)
        for i, field in enumerate(frame.fields[:frame.k1]):
            xf = mf.apply_field(field, f, frame.chart)(env)
            want = want + shift[i] * np.broadcast_to(xf, (len(pts),))
        assert np.abs(mf.second_order(frame, f, pts, drift) - want).max() <= 1e-12


# -- development feasibility and Christoffel symbols ------------------------------


def test_develop_condition_contact_feasible():
    frame, st, alg, sym = ck.context("contact-halfplane")
    rep = mf.develop_condition(frame, st, alg, sym)
    assert rep.feasible and rep.max_violation < 1e-9


def test_develop_condition_goursat_infeasible():
    frame, st, alg, sym = ck.context("goursat-halfplane")
    rep = mf.develop_condition(frame, st, alg, sym)
    assert not rep.feasible
    assert rep.witness_direction == (0.0, 1.0)
    assert abs(rep.witness_value) > 1e-3
    d = rep.to_dict()
    assert d["feasible"] is False and "witness_point" in d


def test_christoffel_contact_identities():
    # Gamma^1_1 = c^1_{12} = -sin(t1) and Gamma^1_2 = c^2_{12} = 0, with
    # a vanishing generator defect
    frame, st, _, sym = ck.context("contact-halfplane")
    pts = frame.chart.sample_points(40, seed=8)
    gamma = mf.solve_christoffel(frame, st, sym, pts)
    g = gamma.at(pts)
    c = st.at(pts)
    env = frame.chart.env(pts)
    assert g.shape == (40, 1, 2)
    assert np.abs(g[:, 0, 0] - c[:, 0, 1, 0]).max() < 1e-12
    assert np.abs(c[:, 0, 1, 0] + np.sin(env["t1"])).max() < 1e-12
    assert np.abs(g[:, 0, 1] - c[:, 0, 1, 1]).max() < 1e-12
    assert np.abs(c[:, 0, 1, 1]).max() < 1e-12
    assert np.abs(mf.generator_defect(gamma, pts)).max() < 1e-12


def test_christoffel_goursat_inconsistent():
    frame, st, _, sym = ck.context("goursat-halfplane")
    with pytest.raises(Inconsistent) as info:
        mf.solve_christoffel(frame, st, sym)
    assert info.value.index == 2


def test_zero_christoffel_defect_is_minus_divergence():
    frame, st, _, sym = ck.context("contact-halfplane")
    pts = frame.chart.sample_points(15, seed=9)
    gamma = mf.ChristoffelField(st, sym)
    defect = mf.generator_defect(gamma, pts)
    assert np.allclose(defect, -st.divergence(pts))


@pytest.mark.parametrize("name", bi.FRAME_NAMES)
def test_develop_condition_is_the_christoffel_solvability(name):
    frame, st, alg, sym = ck.context(name)
    pts = frame.chart.sample_points(60, seed=3)
    rep = mf.develop_condition(frame, st, alg, sym, pts)
    try:
        mf.solve_christoffel(frame, st, sym, pts)
        solved = True
    except Inconsistent:
        solved = False
    assert rep.feasible == solved


@pytest.mark.parametrize("name", ["goursat-halfplane", "engel-halfplane"])
def test_inconsistent_witness_is_the_report_witness(name):
    frame, st, alg, sym = ck.context(name)
    pts = frame.chart.sample_points(60, seed=3)
    rep = mf.develop_condition(frame, st, alg, sym, pts)
    with pytest.raises(Inconsistent) as info:
        mf.solve_christoffel(frame, st, sym, pts)
    assert info.value.witness == (rep.witness_direction, rep.witness_point,
                                  rep.witness_value)
    assert abs(rep.witness_value) == rep.max_violation


def conformal_free32_spec():
    """e^{0.3a} X_i on the free(3,2) model frame, layer 2 scaled by e^{0.6a}.

    X_i = d_i + (1/2) sum_{j<i} x_j d_{y_ji} - (1/2) sum_{j>i} x_j d_{y_ij}
    gives [X_i, X_j] = d_{y_ij}; the rescaling keeps the graded constants.
    """
    coords = ["a", "b", "c", "u", "v", "w"]          # u = y_ab, v = y_ac, w = y_bc
    s1, s2 = "exp(0.3*a)", "exp(0.6*a)"
    model = [["1", "0", "0", "-b/2", "-c/2", "0"],
             ["0", "1", "0", "a/2", "0", "-c/2"],
             ["0", "0", "1", "0", "a/2", "b/2"]]
    frame = [[f"{s1}*({t})" if t != "0" else "0" for t in row] for row in model]
    for k in range(3):
        frame.append([s2 if j == 3 + k else "0" for j in range(6)])
    return {"chart": {"coords": coords, "box": [[-1, 1]] * 6},
            "growth": [3, 6], "frame": frame}


def test_k1_three_connection():
    frame = mf.build_frame(conformal_free32_spec())
    st = mf.StructureField(frame)
    alg = al.free_nilpotent(3, 2)
    sym = al.symmetry_algebra(alg, al.extend_metric(alg))
    assert sym.dimH == 3
    pts = frame.chart.sample_points(60, seed=12)
    assert mf.develop_condition(frame, st, alg, sym, pts).feasible
    gamma = mf.solve_christoffel(frame, st, sym, pts)
    # blocks and m hold the layer-1 symmetry blocks in their two layouts
    k1 = frame.k1
    blocks = np.array([np.array(a, dtype=float)[:k1, :k1].ravel() for a in sym.basis])
    m = np.array([[float(a[j][i]) for a in sym.basis for j in range(k1)]
                  for i in range(k1)])
    assert np.array_equal(gamma.blocks, blocks) and np.array_equal(gamma.m, m)
    assert np.abs(mf.generator_defect(gamma, pts)).max() <= 1e-12
    config = dv.SDEConfig(dt=1e-3, T=0.05, seed=12, paths=200)
    path = dv.develop_sde(frame, st, gamma, [0.0] * 6, config)
    assert config.steps == 50
    assert path.ortho_defect <= 1e-12


# -- Riemannian cross-check --------------------------------------------------------


@pytest.mark.parametrize("name", ["hyperbolic-plane", "sphere-patch",
                                  "flat-plane"])
def test_levi_civita_drifts_agree(name):
    frame = bi.frame(name)
    assert mf.levi_civita_check(frame, mf.StructureField(frame)) < 1e-9


def test_levi_civita_hyperbolic_drift_value():
    # the divergence drift at levi_civita_check's default points
    frame = bi.frame("hyperbolic-plane")
    points = frame.chart.sample_points(60, seed=5)
    assert np.allclose(mf.StructureField(frame).divergence(points), [0.0, -1.0])


def test_levi_civita_rejects_nonriemannian():
    frame = bi.frame("heisenberg3")
    with pytest.raises(ModelMismatch):
        mf.levi_civita_check(frame, mf.StructureField(frame))


# -- prolongation and the Levy form -------------------------------------------------


class KernelNotOneDimensional(CartandevError):
    """The Levy-form kernel has unexpected dimension."""


def levy_kernel(frame, structure, q, tol=1e-8):
    """Kernel direction of the Levy form on D^{-2} at q (Goursat growth).

    The form L(v, w) is the layer-3 component of [V, W] for V, W in the
    second filtration subspace; for growth (2, 3, 4, ...) it is a skew
    3x3 scalar form. Returns the kernel vector over (X_1, X_2, X_3) and
    checks that it lies inside the distribution.
    """
    if len(frame.growth) < 3 or frame.growth[0] != 2 or frame.growth[1] != 3:
        raise ModelMismatch("the Levy form needs growth of type (2, 3, ...)")
    if frame.growth[2] - frame.growth[1] != 1:
        raise ModelMismatch("the Levy form here needs a one-dimensional "
                            "third layer (Goursat type)")
    q = np.atleast_2d(np.asarray(q, dtype=float))
    c = structure.at(q)[0]
    k3 = frame.growth[1]                 # index of the single layer-3 slot
    form = c[:3, :3, k3]
    u, s, vt = np.linalg.svd(form)
    kernel_dim = int(np.sum(s <= tol * max(1.0, s.max())))
    if kernel_dim != 1:
        raise KernelNotOneDimensional(
            f"Levy form kernel has dimension {kernel_dim} at {q[0].tolist()}")
    v = vt[-1]
    if abs(v[2]) > 1e-6 * np.linalg.norm(v):
        raise KernelNotOneDimensional(
            "Levy form kernel does not lie inside the distribution")
    return v


def test_prolong_flat_plane_gives_heisenberg_model():
    pr = mf.prolong(bi.frame("flat-plane"))
    assert pr.growth == (2, 3)
    assert pr.chart.coords[-1] == "t1"
    assert mf.nilpotentization(pr, mf.StructureField(pr)).to_spec()["brackets"] == {"1,2": {"3": 1}}


def test_prolong_twice_gives_goursat_growth():
    pr = mf.prolong(mf.prolong(bi.frame("hyperbolic-plane")))
    assert pr.growth == (2, 3, 4)
    assert pr.chart.coords[-1] == "t2"


def test_levy_kernel_in_distribution():
    frame = bi.frame("goursat-halfplane")
    st = mf.StructureField(frame)
    q = frame.chart.sample_points(1, seed=10)[0]
    v = levy_kernel(frame, st, q)
    v = v / np.linalg.norm(v)
    # kernel is spanned by the first horizontal direction
    assert abs(abs(v[0]) - 1.0) < 1e-9
    assert abs(v[2]) < 1e-9


def test_levy_kernel_needs_goursat_growth():
    frame = bi.frame("heisenberg3")
    with pytest.raises(ModelMismatch):
        levy_kernel(frame, mf.StructureField(frame), [0.0, 0.0, 0.0])


# -- serialization --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["heisenberg3", "contact-halfplane",
                                  "sphere-patch"])
def test_frame_spec_round_trip(name):
    frame = bi.frame(name)
    again = mf.build_frame(frame.to_spec())
    assert again.growth == frame.growth
    assert again.chart.coords == frame.chart.coords
    pts = frame.chart.sample_points(10, seed=11)
    assert np.allclose(mf.field_values(again.fields, again.chart, pts),
                       mf.field_values(frame.fields, frame.chart, pts), atol=1e-12)


def test_build_frame_rejects_malformed():
    with pytest.raises(MalformedSpec):
        mf.build_frame({"growth": [2, 3]})
    with pytest.raises(MalformedSpec):
        mf.build_frame({
            "chart": {"coords": ["x", "y"]},
            "growth": [2],
            "frame": [["1", "0", "0"], ["0", "1"]],
        })
