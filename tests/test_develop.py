"""Tests for the group law, left-invariant fields, and development dynamics."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cartandev import algebra as al
from cartandev import builtins as bi
from cartandev import checks as ck
from cartandev import develop as dv
from cartandev import expr as ex
from cartandev import manifold as mf
from cartandev.errors import MalformedSpec, NonFinite, SingularFrame, StepTooLarge


def heisenberg():
    return bi.algebra("heisenberg3")


# -- group law -----------------------------------------------------------------


def test_bch_heisenberg_product():
    alg = heisenberg()
    z = dv.CarnotGroup(alg).bch(np.array([1.0, 0.0, 0.0]),
                                np.array([0.0, 1.0, 0.0]))
    assert np.allclose(z, [1.0, 1.0, 0.5])


def test_bch_identity_and_inverse():
    alg = bi.algebra("free23")
    rng = np.random.default_rng(0)
    x = rng.normal(size=5)
    e = np.zeros(5)
    g = dv.CarnotGroup(alg)
    assert np.allclose(g.bch(x, e), x)
    assert np.allclose(g.bch(e, x), x)
    assert np.allclose(g.bch(x, -x), e, atol=1e-14)


@pytest.mark.parametrize("name", ["heisenberg3", "free23", "free24"])
def test_bch_associativity(name):
    alg = bi.algebra(name)
    g = dv.CarnotGroup(alg)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        x, y, z = rng.normal(size=(3, alg.dim))
        lhs = g.bch(g.bch(x, y), z)
        rhs = g.bch(x, g.bch(y, z))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-12


def test_bch_rejects_step_five():
    alg = al.free_nilpotent(2, 5)
    with pytest.raises(StepTooLarge):
        dv.CarnotGroup(alg).bch(np.zeros(alg.dim), np.zeros(alg.dim))


def test_bch_batched():
    alg = heisenberg()
    g = dv.CarnotGroup(alg)
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(2, 7, 3))
    batch = g.bch(x, y)
    for p in range(7):
        assert np.allclose(batch[p], g.bch(x[p], y[p]))


# -- left-invariant fields --------------------------------------------------------


def test_left_invariant_field_heisenberg():
    # V(x, e_1) = e_1 + [x, e_1]/2 = e_1 - (x_2/2) e_3
    alg = heisenberg()
    x = np.array([0.3, 0.7, -0.2])
    v = dv.CarnotGroup(alg).left_invariant_field(x, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(v, [1.0, 0.0, -0.35])


@pytest.mark.parametrize("name", ["free23", "free24"])
def test_left_invariant_field_matches_group_law(name):
    # V(x, e) = d/ds bch(x, s e) at s = 0, by central differences
    alg = bi.algebra(name)
    g = dv.CarnotGroup(alg)
    rng = np.random.default_rng(3)
    x = rng.normal(size=alg.dim)
    s = 1e-5
    for i in range(alg.growth[0]):
        e = np.zeros(alg.dim)
        e[i] = 1.0
        fd = (g.bch(x, s * e) - g.bch(x, -s * e)) / (2 * s)
        assert np.allclose(g.left_invariant_field(x, e), fd, atol=1e-9)


# -- deterministic development ------------------------------------------------------


def run_curve(name, u, dt=1e-3, T=1.0, h0=None):
    frame, st, sym, gamma = ck.connection(name)
    q0 = [0.5 * (lo + hi) for lo, hi in frame.chart.bounds()]
    return frame, dv.develop_curve(frame, st, gamma, u, q0, dt, T, h0=h0)


def test_curve_straight_line_flat_plane():
    # constant control (1, 0) on the flat plane moves one unit in x
    frame, path = run_curve("flat-plane", ["1", "0"], dt=1e-2)
    start, end = path.points[0, 0], path.points[-1, 0]
    assert np.allclose(end - start, [1.0, 0.0], atol=1e-12)


def test_curve_zero_control_is_constant():
    frame, path = run_curve("contact-halfplane", ["0", "0"], dt=1e-2)
    assert np.allclose(path.points[0], path.points[-1], atol=1e-14)
    assert np.allclose(path.frames[0], path.frames[-1], atol=1e-14)


def test_curve_rotating_control_exact_endpoint():
    # u(t) = (cos t, sin t) on the flat plane: endpoint
    # (sin 1, 1 - cos 1), computable in closed form
    frame, path = run_curve("flat-plane", ["cos(t)", "sin(t)"], dt=1e-3)
    end = path.points[-1, 0] - path.points[0, 0]
    assert np.allclose(end, [np.sin(1.0), 1.0 - np.cos(1.0)], atol=1e-10)


def test_curve_rk4_order():
    # halving dt shrinks the endpoint error by at least 8x
    def endpoint(dt):
        _, path = run_curve("contact-halfplane", ["cos(t)", "sin(t)"], dt=dt)
        return path.points[-1, 0]

    ref = endpoint(1e-4)
    e1 = np.abs(endpoint(4e-2) - ref).max()
    e2 = np.abs(endpoint(2e-2) - ref).max()
    assert e1 / e2 >= 8.0


def test_curve_flat_connection_keeps_frame_constant():
    # with zero Christoffel symbols the transported frame never moves
    frame, st, _, sym = ck.context("contact-halfplane")
    gamma = mf.ChristoffelField(st, sym)
    q0 = [0.5 * (lo + hi) for lo, hi in frame.chart.bounds()]
    path = dv.develop_curve(frame, st, gamma, ["cos(t)", "sin(t)"], q0,
                            1e-2, 1.0)
    assert np.allclose(path.frames[-1], np.eye(2), atol=1e-14)


def free32_model_frame():
    """The free(3,2) model frame X_k = d_k + (1/2)[x, e_k] in exponential
    coordinates (u = y_ab, v = y_ac, w = y_bc), so [X_i, X_j] = d_{y_ij}."""
    model = [["1", "0", "0", "-b/2", "-c/2", "0"],
             ["0", "1", "0", "a/2", "0", "-c/2"],
             ["0", "0", "1", "0", "a/2", "b/2"]]
    vertical = [["1" if j == 3 + k else "0" for j in range(6)] for k in range(3)]
    return mf.build_frame({"chart": {"coords": ["a", "b", "c", "u", "v", "w"]},
                           "growth": [3, 6], "frame": model + vertical})


@pytest.mark.parametrize("name", ["contact-halfplane", "free32-model"])
def test_curve_rkmk4_order_and_defect(name):
    # RKMK4 in Cayley coordinates keeps order 4 on both Cayley branches:
    # halving dt cuts the endpoint error about 16x, and the frames stay
    # orthogonal. The affine field turns the frames; for k1 = 3 every stage
    # moves them by cayley_move's solve
    frame, st, _, sym = ck.context(free32_model_frame() if name == "free32-model" else name)
    gamma = mf.ChristoffelField(st, sym, np.full((sym.dimH * frame.k1, frame.k1), 0.1), 0.2)
    q0 = [0.5 * (lo + hi) for lo, hi in frame.chart.bounds()]
    u = ["cos(t)", "sin(t)", "0.5*cos(2*t)"][:frame.k1]
    paths = {dt: dv.develop_curve(frame, st, gamma, u, q0, dt, 1.0) for dt in (1e-3, 2e-2, 4e-2)}
    ref = paths[1e-3].points[-1, 0]
    e1 = np.abs(paths[4e-2].points[-1, 0] - ref).max()
    e2 = np.abs(paths[2e-2].points[-1, 0] - ref).max()
    assert e1 / e2 >= 12.0
    assert np.abs(paths[1e-3].frames[-1] - np.eye(frame.k1)).max() > 0.1
    assert max(p.ortho_defect for p in paths.values()) <= 1e-12


class RowGeometry:
    """StructureField.horizontal of one point as row 0 of a two-row batch."""

    def __init__(self, structure):
        self.structure = structure

    def horizontal(self, q):
        x, div = self.structure.horizontal(np.concatenate([q, q]))
        return x[:1], div[:1]


def per_stage_curve(frame, st, gamma, u, q0, dt, T):
    """The RKMK4 curve loop with the control evaluated at every stage, on a
    Python float t, and the geometry, the batch flow and the Cayley moves on
    one-row arrays: the oracle for develop_curve. For k1 = 2, Omega = omega J
    and (I + Omega/2) A (I - Omega/2) = (1 + omega^2/4) A."""
    assert frame.k1 == 2
    sys = dv._DevelopSystem(frame, RowGeometry(st), gamma)
    control = ex.Compiled([ex.parse(c) for c in u])

    def flow(q, omega, t, h):
        u_t = np.array([[float(c) for c in control({"t": t})]])
        dq, a = sys.flow(q, dv.cayley_move(h, omega), u_t)
        w = omega[:, 1:, :1]
        return dq, a * (1.0 + 0.25 * w * w)

    def advance(s, state):
        t = s * dt
        q, h = state
        y = (q, np.zeros_like(h))
        k1 = flow(*y, t, h)
        k2 = flow(*(x + 0.5 * dt * k for x, k in zip(y, k1)), t + 0.5 * dt, h)
        k3 = flow(*(x + 0.5 * dt * k for x, k in zip(y, k2)), t + 0.5 * dt, h)
        k4 = flow(*(x + dt * k for x, k in zip(y, k3)), t + dt, h)
        q, omega = (x + dt * (a + 2 * b + 2 * c + d) / 6.0
                    for x, a, b, c, d in zip(y, k1, k2, k3, k4))
        return q, dv.cayley_move(h, omega)

    state = (np.asarray(q0, dtype=float)[None, :].copy(), np.eye(frame.k1)[None].copy())
    return dv._integrate(advance, state, round(T / dt), dt, "full", chart=frame.chart)


@pytest.mark.parametrize("name", ["contact-halfplane", "engel-halfplane"])
def test_curve_equals_the_per_stage_oracle(name):
    # the control table, the scalar one-point step and the scalar rotations
    # change no bit of the array RKMK4 step; an affine field with both a
    # drift part and an offset turns the frames. The BLAS products of
    # div P^T are exact here (contact's drift has a zero first component,
    # engel has no generators), so no fused multiply-add can split the bits
    frame, st, _, sym = ck.context(name)
    gamma = mf.ChristoffelField(st, sym, np.full((sym.dimH * frame.k1, frame.k1), 0.1), 0.2)
    q0 = [0.5 * (lo + hi) for lo, hi in frame.chart.bounds()]
    u = ["cos(t)", "sin(3*t) - 0.5"]
    path = dv.develop_curve(frame, st, gamma, u, q0, 7e-3, 0.7)
    ref = per_stage_curve(frame, st, gamma, u, q0, 7e-3, 0.7)
    assert np.abs(path.points[-1] - path.points[0]).max() > 0.1
    for got, want in ((path.times, ref.times), (path.points, ref.points),
                      (path.frames, ref.frames), (path.left_chart, ref.left_chart)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert path.ortho_defect == ref.ortho_defect


@pytest.mark.parametrize("u,first_bad", [(["1/(t-0.5)", "0"], "t=0.5"),
                                          (["exp(1000*t)", "0"], "t=0.75"),
                                          (["1/0", "0"], "t=0.0")])
def test_curve_nonfinite_control_raises_before_any_step(u, first_bad, monkeypatch):
    # the control table is checked before the first step, with no warning
    frame, st, sym, gamma = ck.connection("contact-halfplane")

    def refuse(*args):
        raise AssertionError("the curve stepped")

    monkeypatch.setattr(dv._DevelopSystem, "point", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFinite, match=first_bad):
            dv.develop_curve(frame, st, gamma, u, [0.0, 1.0, 0.5], 0.1, 1.0)


# -- stochastic development ----------------------------------------------------------


def sde_setup(name):
    frame, st, sym, gamma = ck.connection(name)
    q0 = [0.5 * (lo + hi) for lo, hi in frame.chart.bounds()]
    return frame, st, gamma, q0


def test_increments_reproducible_across_batches():
    # the increments of path p at step s must not depend on the batch size
    big = dv.increments(seed=42, step=3, paths=64, width=2, dt=1e-3)
    small = dv.increments(seed=42, step=3, paths=16, width=2, dt=1e-3)
    assert np.array_equal(big[:16], small)
    other = dv.increments(seed=42, step=4, paths=16, width=2, dt=1e-3)
    assert not np.array_equal(small, other)


def test_sde_lift_independence():
    # conjugating the initial transport frame by a rotation and rotating the
    # driving noise accordingly leaves the projected paths unchanged
    frame, st, gamma, q0 = sde_setup("contact-halfplane")
    config = dv.SDEConfig(dt=1e-3, T=0.25, seed=7, paths=32)
    base = dv.develop_sde(frame, st, gamma, q0, config)

    theta = 0.7
    r = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])

    # rerun with h0 = R and noise dw' = R dw via a wrapped system: develop_sde
    # draws its own noise, so instead start from h0 = R and compare the SDE
    # driven by the same increments through v = h^T u with u' = R u.
    sys = dv._DevelopSystem(frame, st, gamma)
    k1 = frame.k1

    def run(h0):
        q = np.tile(np.asarray(q0, dtype=float), (config.paths, 1))
        h = np.tile(h0, (config.paths, 1, 1))
        for s in range(config.steps):
            dw = dv.increments(config.seed, s, config.paths, k1, config.dt)
            if h0 is not base_h0:
                dw = dw @ r.T
            # Lie-group Heun: h~ moves by Cayley transforms of so(2) increments
            dq1, a1 = sys.flow(q, h, dw)
            dq2, a2 = sys.flow(q + dq1, dv.cayley_move(h, a1), dw)
            q = q + 0.5 * (dq1 + dq2)
            h = dv.cayley_move(h, 0.5 * (a1 + a2))
            q = frame.chart.wrap(q)
        return q

    base_h0 = np.eye(2)
    q_base = run(base_h0)
    q_rot = run(r.copy())
    assert np.abs(q_base - q_rot).max() < 1e-6
    assert np.abs(q_base - base.endpoints()).max() < 1e-12


def test_sde_takes_gamma_from_the_connection():
    # a zero offset must reproduce the solved connection bit for bit, so the
    # perturbed negative controls run through the same compiled flow
    frame, st, gamma, q0 = sde_setup("contact-halfplane")
    config = dv.SDEConfig(dt=1e-3, T=0.1, seed=5, paths=16)
    base = dv.develop_sde(frame, st, gamma, q0, config, record="full")
    same = dv.develop_sde(frame, st, gamma.perturbed(0.0), q0, config, record="full")
    assert np.array_equal(base.points, same.points)
    assert np.array_equal(base.frames, same.frames)


def nan_drift_frame():
    """contact-halfplane with X1's x component exp(-1/x^2): at x = 0 the
    frame is finite and det X = 1, but its x-derivative, 0 * inf, makes
    the Popp drift nan."""
    spec = bi.frame("contact-halfplane").to_spec()
    spec["frame"][0][0] = "exp(-1/(x*x))"
    return mf.build_frame(spec)


def test_singular_frame_raises_not_nan():
    # one path runs its geometry on scalars, several on arrays, a model
    # curve on the one-point right-hand side: all raise, at det X = 0 and
    # at a drift that is not finite
    plane = bi.frame("hyperbolic-plane")
    frame, st, gamma, _ = sde_setup("contact-halfplane")
    singular = [0.0, 0.0, 0.5]
    drifting = nan_drift_frame()
    drifting_st = mf.StructureField(drifting)
    drifting_gamma = mf.ChristoffelField(drifting_st, gamma.sym, gamma.p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for paths in (4, 1):
            config = dv.SDEConfig(dt=1e-2, T=0.1, seed=0, paths=paths)
            with pytest.raises(SingularFrame):
                dv.simulate_popp(plane, mf.StructureField(plane), [0.0, 0.0], config)
            with pytest.raises(SingularFrame):
                dv.develop_sde(frame, st, gamma, singular, config)
        with pytest.raises(SingularFrame, match="frame matrix singular"):
            dv.develop_curve(frame, st, gamma, ["cos(t)", "sin(t)"], singular, 1e-2, 0.1)
        with pytest.raises(SingularFrame, match="Popp drift not finite"):
            dv.develop_curve(drifting, drifting_st, drifting_gamma, ["cos(t)", "sin(t)"],
                             [0.0, 1.0, 0.5], 1e-2, 0.1)


# The child prints the message each curve raised, so an assert stripped by
# -O cannot make it pass
SINGULAR_CURVES_UNDER_O = """
import sys
from cartandev import checks as ck, develop as dv, manifold as mf
import test_develop as td
frame, st, sym, gamma = ck.connection("contact-halfplane")
drifting = td.nan_drift_frame()
drifting_st = mf.StructureField(drifting)
cases = [(frame, st, gamma, [0.0, 0.0, 0.5]),
         (drifting, drifting_st, mf.ChristoffelField(drifting_st, sym, gamma.p), [0.0, 1.0, 0.5])]
print(sys.flags.optimize)
for f, s, g, q0 in cases:
    try:
        dv.develop_curve(f, s, g, ["cos(t)", "sin(t)"], q0, 1e-2, 0.1)
        print("no error")
    except Exception as e:
        print(type(e).__name__, e)
"""


def test_curve_raises_singular_frame_under_python_optimize():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    proc = subprocess.run([sys.executable, "-O", "-c", SINGULAR_CURVES_UNDER_O],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "1", "SingularFrame frame matrix singular at a sample point",
        "SingularFrame Popp drift not finite at a sample point"]


def test_sde_orthogonality_defect_small():
    frame, st, gamma, q0 = sde_setup("contact-halfplane")
    config = dv.SDEConfig(dt=1e-3, T=0.5, seed=1, paths=16)
    path = dv.develop_sde(frame, st, gamma, q0, config)
    assert path.ortho_defect < 1e-8
    assert np.all(np.isfinite(path.points))


def test_sde_zero_gamma_keeps_frames_constant():
    frame, st, _, sym = ck.context("heisenberg3")
    gamma = mf.ChristoffelField(st, sym)
    config = dv.SDEConfig(dt=1e-3, T=0.1, seed=2, paths=8)
    path = dv.develop_sde(frame, st, gamma, [0.0, 0.0, 0.0], config,
                          record="full")
    assert np.allclose(path.frames, np.eye(2), atol=1e-13)


def _skew(rng, paths, k, scale):
    a = rng.normal(scale=scale, size=(paths, k, k))
    return a - np.swapaxes(a, 1, 2)


def test_cayley_closed_form_matches_solve():
    # for k1 = 2 the rotation formula is cay(A) = (I - A/2)^-1 (I + A/2)
    rng = np.random.default_rng(8)
    eye = np.eye(2)
    for scale in (0.03, 1.0, 10.0):
        a = _skew(rng, 500, 2, scale)
        h = dv.cayley_move(np.tile(eye, (500, 1, 1)), _skew(rng, 500, 2, 1.0))
        want = h @ np.linalg.solve(eye - 0.5 * a, eye + 0.5 * a)
        assert np.abs(dv.cayley_move(h, a) - want).max() <= 1e-15


def test_cayley_keeps_so3_frames_orthogonal():
    # the k1 > 2 branch: 10^3 steps of random so(3) increments stay in O(3)
    rng = np.random.default_rng(9)
    h = np.tile(np.eye(3), (64, 1, 1))
    for _ in range(1000):
        h = dv.cayley_move(h, _skew(rng, 64, 3, 0.1))
    assert dv.ortho_defect(h) <= 1e-13
    assert np.abs(h - np.eye(3)).max() > 0.5        # the frames did move


def test_sde_step_makes_no_linear_solve(monkeypatch):
    # k1 = 2: the frame moves by closed-form rotations, with no inverse or solve
    frame, st, gamma, q0 = sde_setup("contact-halfplane")
    config = dv.SDEConfig(dt=1e-3, T=0.05, seed=6, paths=32)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called in an SDE step")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    path = dv.develop_sde(frame, st, gamma, q0, config, record="full")
    assert path.ortho_defect < 1e-13
    assert np.abs(path.frames[-1] - np.eye(2)).max() > 1e-3


def test_carnot_lift_runs_and_records():
    alg = bi.algebra("heisenberg3")
    config = dv.SDEConfig(dt=1e-3, T=0.1, seed=3, paths=100)
    path = dv.simulate_carnot_lift(alg, config, record="full")
    assert path.points.shape == (config.steps + 1, 100, 3)
    assert np.allclose(path.points[0], 0.0)
    dv.check_finite(path)


def _c_order_lift(alg, config):
    """Reference Heun lift on C-ordered arrays, the group law written out."""
    terms = dv.CarnotGroup(alg)._terms
    k1 = alg.growth[0]

    def b(x, y):
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        for i, j, k, v in terms:
            out[..., k] += v * (x[..., i] * y[..., j] - x[..., j] * y[..., i])
        return out

    def field(x, e):
        xe = b(x, e)
        out = e + xe / 2.0
        return out + b(x, xe) / 12.0 if alg.step >= 3 else out

    x = np.zeros((config.paths, alg.dim))
    for s in range(config.steps):
        dw = np.zeros((config.paths, alg.dim))
        dw[:, :k1] = dv.increments(config.seed, s, config.paths, k1, config.dt)
        a = field(x, dw)
        x = x + 0.5 * (a + field(x + a, dw))
    return x


# beyond the builtins: k1 = 3, and a bracket coefficient other than 1
LIFT_ALGEBRAS = {
    "free33": lambda: al.free_nilpotent(3, 3),
    "heisenberg3-2e3": lambda: al.build_algebra(
        {"dim": 3, "growth": [2, 3], "brackets": {"1,2": {"3": "2"}}}),
}


@pytest.mark.parametrize("name", ["heisenberg3", "free23", "free24",
                                  "free33", "heisenberg3-2e3"])
def test_carnot_lift_column_major_is_bitwise_c_order(name):
    # the lift keeps its state column-major; the endpoints, sign bits
    # included, are those of the same arithmetic on C-ordered arrays
    alg = LIFT_ALGEBRAS[name]() if name in LIFT_ALGEBRAS else bi.algebra(name)
    config = dv.SDEConfig(dt=1e-2, T=0.3, seed=12, paths=40)
    ends = dv.simulate_carnot_lift(alg, config).endpoints()
    ref = _c_order_lift(alg, config)
    assert ref.flags.c_contiguous
    assert np.ascontiguousarray(ends).tobytes() == ref.tobytes()

    g = dv.CarnotGroup(alg)
    rng = np.random.default_rng(13)
    x, y = rng.normal(size=(2, 25, alg.dim))
    f = g.bracket(np.asfortranarray(x), np.asfortranarray(y))
    c = g.bracket(np.ascontiguousarray(x), np.ascontiguousarray(y))
    assert f.flags.f_contiguous and g.embed(x[:, :alg.growth[0]]).flags.f_contiguous
    assert np.ascontiguousarray(f).tobytes() == np.ascontiguousarray(c).tobytes()


def _simulators():
    frame, st, gamma, q0 = sde_setup("contact-halfplane")
    heis = bi.algebra("heisenberg3")
    return {
        "carnot": lambda cfg, record: dv.simulate_carnot_lift(heis, cfg, record=record),
        "develop": lambda cfg, record: dv.develop_sde(frame, st, gamma, q0, cfg,
                                                       record=record),
        "popp": lambda cfg, record: dv.simulate_popp(frame, st, q0, cfg, record=record),
        "curve": lambda cfg, record: dv.develop_curve(frame, st, gamma,
                                                       ["cos(t)", "sin(t)"], q0,
                                                       cfg.dt, cfg.T, record=record),
    }


@pytest.mark.parametrize("name", ["carnot", "develop", "popp", "curve"])
def test_recording_full_and_endpoints_agree(name):
    simulate = _simulators()[name]
    config = dv.SDEConfig(dt=1e-2, T=0.3, seed=5, paths=4)
    full = simulate(config, "full")
    ends = simulate(config, "endpoints")
    assert np.array_equal(full.times, np.arange(config.steps + 1) * config.dt)
    assert np.array_equal(ends.times, np.array([0, config.steps]) * config.dt)
    assert ends.times[-1] == pytest.approx(config.T)
    assert full.points.shape[0] == config.steps + 1 and ends.points.shape[0] == 2
    assert np.array_equal(full.points[[0, -1]], ends.points)
    if full.frames is not None:
        assert np.array_equal(full.frames[[0, -1]], ends.frames)
        assert full.ortho_defect == ends.ortho_defect
    with pytest.raises(MalformedSpec):
        simulate(config, "last")


@pytest.mark.parametrize("name", ["develop", "popp"])
def test_recording_step_indices_are_rows_of_full(name):
    simulate = _simulators()[name]
    config = dv.SDEConfig(dt=1e-2, T=0.3, seed=5, paths=4)
    full = simulate(config, "full")
    for keep in ((0, 15, 30), (30, 7), (12,)):
        rows = sorted(keep)
        part = simulate(config, keep)
        assert np.array_equal(part.times, full.times[rows])
        assert np.array_equal(part.points, full.points[rows])
        if full.frames is not None:
            assert np.array_equal(part.frames, full.frames[rows])
        assert np.array_equal(part.left_chart, full.left_chart)
        assert part.ortho_defect == full.ortho_defect
    for bad in ((), (0, 31), (-1,), (1.5,)):
        with pytest.raises(MalformedSpec):
            simulate(config, bad)


@pytest.mark.parametrize("dt,T", [(3e-3, 0.01), (0.1, 0.04), (1e-2, 0.0), (0.0, 1.0)])
def test_horizon_must_be_whole_steps(dt, T):
    # a rounded step count would simulate a horizon other than T
    with pytest.raises(MalformedSpec):
        dv.SDEConfig(dt=dt, T=T)
    frame, st, gamma, q0 = sde_setup("contact-halfplane")
    with pytest.raises(MalformedSpec):
        dv.develop_curve(frame, st, gamma, ["cos(t)", "sin(t)"], q0, dt, T)


def test_path_csv_output(tmp_path):
    frame, st, gamma, q0 = sde_setup("heisenberg3")
    config = dv.SDEConfig(dt=1e-2, T=0.05, seed=4, paths=3)
    path = dv.develop_sde(frame, st, gamma, q0, config, record="full")
    ends = tmp_path / "ends.csv"
    with open(ends, "w") as f:
        path.write_endpoints_csv(f)
    lines = ends.read_text().strip().splitlines()
    assert lines[0].split(",") == ["path", "q1", "q2", "q3"]
    assert len(lines) == 4
