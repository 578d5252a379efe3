"""Tests for the group law, left-invariant fields, and development dynamics."""

import inspect
import math
import operator
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


class GroupLaw:
    """The truncated group law through step 4 on (..., dim) arrays, from the
    dense bracket: the oracle for CarnotGroup's left-invariant fields.
    x.y = x + y + [x,y]/2 + ([x,[x,y]] + [y,[y,x]])/12 - [y,[x,[x,y]]]/24"""

    def __init__(self, alg):
        self.step = alg.step
        self.terms = [(i, j, k, float(v))
                      for (i, j), row in alg.brackets.items() for k, v in row.items()]

    def bracket(self, x, y):
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        for i, j, k, v in self.terms:
            out[..., k] += v * (x[..., i] * y[..., j] - x[..., j] * y[..., i])
        return out

    def bch(self, x, y):
        b = self.bracket
        xy = b(x, y)
        out = x + y + xy / 2.0
        if self.step >= 3:
            out = out + (b(x, xy) + b(y, b(y, x))) / 12.0
        if self.step >= 4:
            out = out - b(y, b(x, xy)) / 24.0
        return out


def test_bch_heisenberg_product():
    alg = heisenberg()
    z = GroupLaw(alg).bch(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert np.allclose(z, [1.0, 1.0, 0.5])


def test_bch_identity_and_inverse():
    alg = bi.algebra("free23")
    rng = np.random.default_rng(0)
    x = rng.normal(size=5)
    e = np.zeros(5)
    g = GroupLaw(alg)
    assert np.allclose(g.bch(x, e), x)
    assert np.allclose(g.bch(e, x), x)
    assert np.allclose(g.bch(x, -x), e, atol=1e-14)


@pytest.mark.parametrize("name", ["heisenberg3", "free23", "free24"])
def test_bch_associativity(name):
    alg = bi.algebra(name)
    g = GroupLaw(alg)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        x, y, z = rng.normal(size=(3, alg.dim))
        lhs = g.bch(g.bch(x, y), z)
        rhs = g.bch(x, g.bch(y, z))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-12


def test_bch_rejects_step_five():
    # V(x, e) needs a [x, [x, [x, [x, e]]]] term at step 5
    with pytest.raises(StepTooLarge):
        dv.CarnotGroup(al.free_nilpotent(2, 5))


def test_bch_batched():
    alg = heisenberg()
    g = GroupLaw(alg)
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
    v = dv.CarnotGroup(alg)._field(x, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(v, [1.0, 0.0, -0.35])


@pytest.mark.parametrize("name", ["free23", "free24"])
def test_left_invariant_field_matches_group_law(name):
    # V(x, e) = d/ds bch(x, s e) at s = 0, by central differences
    alg = bi.algebra(name)
    g, law = dv.CarnotGroup(alg), GroupLaw(alg)
    rng = np.random.default_rng(3)
    x = rng.normal(size=alg.dim)
    s = 1e-5
    for i in range(alg.growth[0]):
        e = np.zeros(alg.dim)
        e[i] = 1.0
        fd = (law.bch(x, s * e) - law.bch(x, -s * e)) / (2 * s)
        assert np.allclose(g._field(x, e), fd, atol=1e-9)


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


# an offset Gamma^alpha_i with distinct entries: A(t) then changes direction
# in so(3) and stops commuting with the Cayley coordinates Omega
NONCOMMUTING = np.array([[0.3, -0.1, 0.2], [0.1, 0.4, -0.2], [-0.3, 0.2, 0.1]])


@pytest.mark.parametrize("name", ["contact-halfplane", "free32-model", "free32-model-noncommuting"])
def test_curve_rkmk4_order_and_defect(name):
    # RKMK4 in Cayley coordinates keeps order 4 on both Cayley branches:
    # halving dt cuts the endpoint error about 16x, and the frames stay
    # orthogonal. The affine field turns the frames; for k1 = 3 every stage
    # moves them by the traced Gauss-Jordan elimination
    frame, st, _, sym = ck.context(free32_model_frame() if name.startswith("free32") else name)
    offset = NONCOMMUTING if name.endswith("noncommuting") else 0.2
    gamma = mf.ChristoffelField(st, sym, np.full((sym.dimH * frame.k1, frame.k1), 0.1), offset)
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
    """StructureField.divergence of one point as row 0 of a two-row batch."""

    def __init__(self, structure):
        self.frame = structure.frame
        self.structure = structure

    def divergence(self, q):
        return self.structure.divergence(np.concatenate([q, q]))[:1]


def cayley_move(h, a):
    """h cay(A), cay(A) = (I - A/2)^-1 (I + A/2), for batches of frames and so(k) A:
    the array oracle of develop._frame_move.

    For k = 2, A = sigma J and cay(A) is _rotate's rotation: no solve.
    """
    if h.shape[-1] != 2:
        eye = np.eye(h.shape[-1])
        return h @ np.linalg.solve(eye - 0.5 * a, eye + 0.5 * a)
    return np.stack(dv._rotate(h.reshape(-1, 4).T, a[:, 1, 0]), axis=-1).reshape(h.shape)


def batch_flow(sys, q, h, u):
    """Increments (dq, A) of the development system for a batch of paths, on
    arrays: the oracle of the traced steps. dq = (u^T h~ X)(q) and
    A = sum_alpha (u^T h~ Gamma^alpha(q)) A_alpha, by einsum and by the BLAS
    products of ChristoffelField.at and s @ blocks. X comes from
    field_values, the drift from divergence."""
    frame = sys.structure.frame
    v = np.einsum("pji,pj->pi", h, u)                 # h~^T u
    x = mf.field_values(frame.fields[:frame.k1], frame.chart, q)
    dq = np.einsum("pdi,pi->pd", x, v)
    s = np.einsum("pai,pi->pa", sys.gamma.at(q, sys.structure.divergence(q)), v)
    return dq, (s @ sys.gamma.blocks).reshape(len(q), sys.k1, sys.k1)


def per_stage_curve(frame, st, gamma, u, q0, dt, T):
    """The RKMK4 curve loop with the control evaluated at every stage, on a
    Python float t, and the geometry, the batch flow and the Cayley moves on
    one-row arrays: the oracle for develop_curve. For k1 = 2, Omega = omega J
    and (I + Omega/2) A (I - Omega/2) = (1 + omega^2/4) A. Its state is one
    one-row column per coordinate and frame entry."""
    assert frame.k1 == 2
    sys = dv._DevelopSystem(frame, RowGeometry(st), gamma)
    control = ex.Compiled([ex.parse(c) for c in u])
    d = frame.chart.dim

    def flow(q, omega, t, h):
        u_t = np.array([[float(c) for c in control({"t": t})]])
        dq, a = batch_flow(sys, q, cayley_move(h, omega), u_t)
        w = omega[:, 1:, :1]
        return dq, a * (1.0 + 0.25 * w * w)

    def advance(s, state):
        t = s * dt
        q, h = np.stack(state[:d], axis=1), np.stack(state[d:], axis=1).reshape(1, 2, 2)
        y = (q, np.zeros_like(h))
        k1 = flow(*y, t, h)
        k2 = flow(*(x + 0.5 * dt * k for x, k in zip(y, k1)), t + 0.5 * dt, h)
        k3 = flow(*(x + 0.5 * dt * k for x, k in zip(y, k2)), t + 0.5 * dt, h)
        k4 = flow(*(x + dt * k for x, k in zip(y, k3)), t + dt, h)
        q, omega = (x + dt * (a + 2 * b + 2 * c + d) / 6.0
                    for x, a, b, c, d in zip(y, k1, k2, k3, k4))
        return [*q.T, *cayley_move(h, omega).reshape(1, 4).T]

    state = [np.array([c]) for c in [*q0, 1.0, 0.0, 0.0, 1.0]]
    return dv._integrate(advance, state, d, round(T / dt), dt, "full", chart=frame.chart)


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


def affine_curve_setup(name):
    frame = free32_model_frame() if name == "free32-model" else name
    frame, st, _, sym = ck.context(frame)
    gamma = mf.ChristoffelField(st, sym, np.full((sym.dimH * frame.k1, frame.k1), 0.1), 0.2)
    q0 = [0.5 * (lo + hi) for lo, hi in frame.chart.bounds()]
    return frame, st, gamma, q0


@pytest.mark.parametrize("name", ["contact-halfplane", "engel-halfplane", "free32-model"])
def test_compiled_step_equals_the_untraced_step(name):
    # the traced program is the step _rk4, point, move and velocity take on
    # plain values, output for output and byte for byte (for k1 = 3 too,
    # whose move and velocity are traced arithmetic like the rest)
    frame, st, gamma, q0 = affine_curve_setup(name)
    k1, d, dt = frame.k1, frame.chart.dim, 0.05
    step = dv._rkmk4_step(dv._DevelopSystem(frame, st, gamma), dt)
    program = ex.Compiled.trace(step, d + k1 * k1 + 3 * k1, "step")
    u = [ex.parse(c) for c in ["cos(t)", "sin(3*t) - 0.5", "0.5*cos(2*t)"][:k1]]
    control = dv._control_table(u, 20, dt).reshape(20, 3 * k1)
    q, h = np.array(q0), np.eye(k1).ravel().tolist()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in range(20):
            inputs = [*q, *h, *control[s].tolist()]
            got, want = program(inputs), step(inputs)
            assert [type(x) for x in got] == [type(x) for x in want]
            assert np.array(got).tobytes() == np.array(want).tobytes()
            q, h = np.array(got[:d]), np.array(got[d:d + k1 * k1]).tolist()
    assert np.abs(q - q0).max() > 0.1
    # engel-halfplane's h is 0, so only the other frames turn
    assert (np.abs(np.reshape(h, (k1, k1)) - np.eye(k1)).max() > 0.01) == (name != "engel-halfplane")


@pytest.mark.parametrize("name", ["contact-halfplane", "free32-model"])
def test_curve_traces_and_compiles_once_per_call(name, monkeypatch):
    # the four stages of one step are traced once, and the step and the
    # control table are the only programs compiled, however many steps run
    frame, st, gamma, q0 = affine_curve_setup(name)
    points, compiled = [], []
    point = dv._DevelopSystem.point

    def counting_point(self, *args):
        points.append(args)
        return point(self, *args)

    def counting_compile(*args):
        compiled.append(args[1])
        return compile(*args)

    st._horizontal                                  # built before counting
    monkeypatch.setattr(dv._DevelopSystem, "point", counting_point)
    monkeypatch.setattr(ex, "compile", counting_compile, raising=False)
    path = dv.develop_curve(frame, st, gamma, ["cos(t)", "sin(t)", "1"][:frame.k1],
                            q0, 1e-2, 0.5)
    assert len(path.times) == 51
    assert len(points) == 4 and len(compiled) == 2
    assert sum("develop_curve step" in f for f in compiled) == 1


@pytest.mark.parametrize("name", ["contact-halfplane", "exp-frame", "free32-model"])
def test_curve_program_runs_on_python_floats_with_unlowered_bits(name, monkeypatch):
    # the step program develop_curve runs is lowered to Python floats: at
    # 1000 random states (q, h~, u) it returns floats with the new state's
    # bits of the same RKMK4 step traced without lowering, run on np.float64
    # q (for k1 = 3 the frame move and the velocity are traced arithmetic)
    frame, st, gamma, q0 = affine_curve_setup(exp_frame() if name == "exp-frame" else name)
    k1, d, dt = frame.k1, frame.chart.dim, 1e-2
    programs, trace = [], ex.Compiled.trace
    monkeypatch.setattr(ex.Compiled, "trace",
                        lambda *args, **kw: programs.append(trace(*args, **kw)) or programs[-1])
    dv.develop_curve(frame, st, gamma, ["cos(t)", "sin(t)", "1"][:k1], q0, dt, 0.05)
    [program] = programs
    plain = trace(dv._rkmk4_step(dv._DevelopSystem(frame, st, gamma), dt),
                  d + k1 * k1 + 3 * k1, "unlowered step")
    rng = np.random.default_rng(29)
    for q in frame.chart.sample_points(1000, seed=29):
        h = np.linalg.qr(rng.normal(size=(k1, k1)))[0].ravel().tolist()
        u = rng.normal(size=3 * k1).tolist()
        got = program([*q.tolist(), *h, *u])
        want = plain([*q, *h, *u])[:d + k1 * k1]
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_curve_dividing_by_a_coordinate_raises_singular_frame():
    # X1 = (y/x) d/dx: at x = 0 a Python float division would raise
    # ZeroDivisionError; the lowered program gives numpy's inf, which the
    # stage check reports
    frame = mf.build_frame({"chart": {"coords": ["x", "y"], "box": [[0.5, 2.5], [0.5, 2.5]]},
                            "growth": [2], "frame": [["y/x", "0"], ["0", "y"]]})
    frame, st, _, sym = ck.context(frame)
    gamma = mf.ChristoffelField(st, sym)
    with pytest.raises(SingularFrame):
        dv.develop_curve(frame, st, gamma, ["cos(t)", "sin(t)"], [0.0, 1.0], 1e-2, 0.1)


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
    big = dv.increments(seed=42, dt=1e-3)(3, 64, 2)
    small = dv.increments(seed=42, dt=1e-3)(3, 16, 2)
    assert np.array_equal(big[:16], small)
    other = dv.increments(seed=42, dt=1e-3)(4, 16, 2)
    assert not np.array_equal(small, other)


def test_stream_draws_are_the_increments():
    # one run's stream resets its counter at every draw: steps out of order
    # and a draw of another width in between change no row
    draw = dv.increments(42, 1e-3)
    for step, paths, width in ((5, 64, 2), (0, 64, 2), (3, 16, 3), (5, 64, 2), (2, 7, 2)):
        want = dv.increments(seed=42, dt=1e-3)(step, paths, width)
        assert draw(step, paths, width).tobytes() == want.tobytes()


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
        draw = dv.increments(config.seed, config.dt)
        for s in range(config.steps):
            dw = draw(s, config.paths, k1)
            if h0 is not base_h0:
                dw = dw @ r.T
            # Lie-group Heun: h~ moves by Cayley transforms of so(2) increments
            dq1, a1 = batch_flow(sys, q, h, dw)
            dq2, a2 = batch_flow(sys, q + dq1, cayley_move(h, a1), dw)
            q = q + 0.5 * (dq1 + dq2)
            h = cayley_move(h, 0.5 * (a1 + a2))
            q[:, 2] %= mf.TAU                                  # t1 is periodic
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


def folded_drift_frame():
    """X1 = y d/dx, X2 = (1 + exp(-1/(y-1)^2)) d/dy: the drift's first
    component folds to the constant 0.0, and at y = 1, where det X = 1, its
    second is nan (0 * inf in the y-derivative)."""
    return mf.build_frame({"chart": {"coords": ["x", "y"]}, "growth": [2],
                           "frame": [["y", "0"], ["0", "1 + exp(-1/((y-1)*(y-1)))"]]})


# The child prints the message each simulator raised, so an assert stripped
# by -O cannot make it pass. The SDEs also run on two frames whose drift has
# a component that folds to a constant, which they check next to a column
SINGULAR_RUNS_UNDER_O = """
import sys
from cartandev import checks as ck, develop as dv, manifold as mf
import test_develop as td
frame, st, sym, gamma = ck.connection("contact-halfplane")
drifting = td.nan_drift_frame()
drifting_st = mf.StructureField(drifting)
cases = [(frame, st, gamma, [0.0, 0.0, 0.5]),
         (drifting, drifting_st, mf.ChristoffelField(drifting_st, sym, gamma.p), [0.0, 1.0, 0.5])]
folded = []
for f, q0 in (("hyperbolic-plane", [0.0, 0.0]), (td.folded_drift_frame(), [0.0, 1.0])):
    f, s, _, h = ck.context(f)
    folded.append((f, s, mf.ChristoffelField(s, h), q0))
config = dv.SDEConfig(dt=1e-2, T=0.1, seed=0, paths=4)
runs = [(lambda f, s, g, q0: dv.develop_curve(f, s, g, ["cos(t)", "sin(t)"], q0, 1e-2, 0.1),
         cases),
        (lambda f, s, g, q0: dv.develop_sde(f, s, g, q0, config), cases + folded),
        (lambda f, s, g, q0: dv.simulate_popp(f, s, q0, config), cases + folded)]
print(sys.flags.optimize)
for run, among in runs:
    for f, s, g, q0 in among:
        try:
            run(f, s, g, q0)
            print("no error")
        except Exception as e:
            print(type(e).__name__, e)
"""


def test_curve_raises_singular_frame_under_python_optimize():
    # the curve, the developed SDE and the Popp diffusion, at det X = 0 and
    # at a drift that is not finite
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    proc = subprocess.run([sys.executable, "-O", "-c", SINGULAR_RUNS_UNDER_O],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1"] + 5 * [
        "SingularFrame frame matrix singular at a sample point",
        "SingularFrame Popp drift not finite at a sample point"]


def test_constant_geometry_is_checked_while_tracing(monkeypatch):
    # heisenberg3's det X is 1 and its drift 0 everywhere: both fold to
    # constants, checked once while tracing, so no step program has an if
    frame, st, _, gamma = ck.connection("heisenberg3")
    programs, trace = [], ex.Compiled.trace
    monkeypatch.setattr(ex.Compiled, "trace",
                        lambda *args, **kw: programs.append(trace(*args, **kw)) or programs[-1])
    config = dv.SDEConfig(dt=1e-2, T=0.02, seed=0, paths=4)
    dv.develop_sde(frame, st, gamma, [0.1, 0.2, 0.3], config)
    dv.simulate_popp(frame, st, [0.1, 0.2, 0.3], config)
    dv.develop_curve(frame, st, gamma, ["cos(t)", "sin(t)"], [0.1, 0.2, 0.3], 1e-2, 0.02)
    assert [p.name for p in programs] == [
        "develop_sde step", "simulate_popp step", "develop_curve step"]
    for program in programs:
        lines = inspect.getsource(program._run).splitlines()
        assert not [line for line in lines if line.lstrip().startswith("if ")]


def test_constant_singular_frame_raises_while_tracing():
    # X1 = X2 = d/dx: det X folds to the constant 0, which every simulator
    # reports, at one path and at several
    frame = mf.build_frame({"chart": {"coords": ["x", "y"]}, "growth": [2],
                            "frame": [["1", "0"], ["1", "0"]]})
    st = mf.StructureField(frame)
    gamma = mf.ChristoffelField(st, ck.context("hyperbolic-plane")[3])
    for paths in (1, 4):
        config = dv.SDEConfig(dt=1e-2, T=0.1, seed=0, paths=paths)
        with pytest.raises(SingularFrame, match=f"^{mf.FRAME_SINGULAR}$"):
            dv.develop_sde(frame, st, gamma, [0.0, 0.0], config)
        with pytest.raises(SingularFrame, match=f"^{mf.FRAME_SINGULAR}$"):
            dv.simulate_popp(frame, st, [0.0, 0.0], config)
    with pytest.raises(SingularFrame, match=f"^{mf.FRAME_SINGULAR}$"):
        dv.develop_curve(frame, st, gamma, ["cos(t)", "sin(t)"], [0.0, 0.0], 1e-2, 0.1)


def exp_frame():
    """X1 = exp(y) d/dx, X2 = exp(x) d/dy: a Riemannian frame whose Popp
    drift, (-exp(y), -exp(x)), has two nonzero components everywhere."""
    return mf.build_frame({"chart": {"coords": ["x", "y"]}, "growth": [2],
                           "frame": [["exp(y)", "0"], ["0", "exp(x)"]]})


def test_sde_step_is_each_paths_scalar_step():
    # every path of a 64-path develop_sde step is the Heun step of point on
    # that path's scalars, byte for byte: each Gamma = div P^T + offset sums
    # two inexact products, which a BLAS product may fuse
    frame, st, _, sym = ck.context(exp_frame())
    gamma = mf.ChristoffelField(st, sym, np.array([[0.3, 0.7], [0.1, 0.9]]), 0.2)
    q0 = [0.1, -0.2]
    config = dv.SDEConfig(dt=0.01, T=0.01, seed=17, paths=64)
    path = dv.develop_sde(frame, st, gamma, q0, config, record="full")
    sys_ = dv._DevelopSystem(frame, st, gamma)
    dw = dv.increments(config.seed, config.dt)(0, config.paths, 2)

    def flow(q, h, u):
        dq, s = sys_.point(q, h.ravel().tolist(), u)
        sigma = sum(map(operator.mul, s, gamma.blocks[:, 2]))        # A[1, 0]
        return dq, np.array([[[0.0, -sigma], [sigma, 0.0]]])

    for p in range(config.paths):
        q, h, u = [np.float64(c) for c in q0], np.eye(2)[None], dw[p].tolist()
        dq1, a1 = flow(q, h, u)
        dq2, a2 = flow([x + k for x, k in zip(q, dq1)], cayley_move(h, a1), u)
        q = [x + 0.5 * (a + b) for x, a, b in zip(q, dq1, dq2)]
        h = cayley_move(h, 0.5 * (a1 + a2))
        assert path.points[1, p].tobytes() == np.array(q).tobytes()
        assert path.frames[1, p].tobytes() == h[0].tobytes()
    assert np.abs(path.frames[1] - np.eye(2)).max() > 1e-3


def _factor(rng, size):
    """A constant (0.0, -0.0, 1.0 or a normal) or a column with exact zeros of both signs."""
    kind = rng.integers(5)
    if kind < 4:
        return (0.0, -0.0, 1.0, float(rng.normal()))[kind]
    column = rng.normal(size=size)
    column[rng.random(size) < 0.3] = 0.0
    column[rng.random(size) < 0.15] = -0.0
    return column


@pytest.mark.parametrize("seed", range(4))
def test_dot_equals_the_zero_started_sum(seed):
    # _dot sums from its first term and leaves out the products with a
    # constant 0.0 factor; traced into a program, it equals 0.0 + a0 b0 +
    # a1 b1 + ... on columns everywhere, byte for byte wherever that is
    # nonzero (a zero one may have the other sign)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a, b = [_factor(rng, 16) for _ in range(n)], [_factor(rng, 16) for _ in range(n)]
        want = 0.0
        for x, y in zip(a, b):
            want = want + x * y
        columns = [x for x in a + b if isinstance(x, np.ndarray)]

        def fn(v):
            slots = iter(v)
            a_, b_ = ([next(slots) if isinstance(x, np.ndarray) else x for x in f] for f in (a, b))
            return [dv._dot(a_, b_)]

        got = np.broadcast_to(ex.Compiled.trace(fn, len(columns), "dot")(columns)[0], 16)
        want = np.broadcast_to(want, 16)
        assert np.array_equal(got, want)
        assert got[want != 0].tobytes() == want[want != 0].tobytes()
        assert np.array_equal(np.broadcast_to(dv._dot(a, b), 16), want)


def free32_drifting_frame():
    """free32_model_frame with X1's a component 1 + exp(-1/a^2): at a = 0
    det X is 1 and the drift nan (0 * inf in the a-derivative)."""
    spec = free32_model_frame().to_spec()
    spec["frame"][0][0] = "1 + exp(-1/(a*a))"
    return mf.build_frame(spec)


@pytest.mark.parametrize("name", ["contact-halfplane", "free32-model"])
def test_products_left_out_of_sums_with_the_drift_leave_its_check_first(name):
    # the zeros of P (Gamma = div P^T + offset), of the frame rows in
    # simulate_popp (w = dw + drift dt/2) and, through Gamma, of the so(k1)
    # blocks and of I + Omega/2 multiply the drift or values made from it:
    # at a nan drift every simulator still raises the drift check first
    if name == "contact-halfplane":
        _, _, sym, gamma = ck.connection(name)
        frame, p, q0 = nan_drift_frame(), gamma.p, [0.0, 1.0, 0.5]
    else:
        sym = ck.context(free32_model_frame())[3]
        frame, q0 = free32_drifting_frame(), [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        p = np.where(np.arange(sym.dimH * 9).reshape(-1, 3) % 2, 0.1, 0.0)
    st = mf.StructureField(frame)
    gamma = mf.ChristoffelField(st, sym, p, 0.2)
    k1 = frame.k1
    assert (gamma.p == 0).any() and (gamma.blocks == 0).any()
    assert any(ex._is_const(c, 0.0) for field in frame.fields[:k1] for c in field)
    message = f"^{mf.DRIFT_NOT_FINITE}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for paths in (1, 4):
            config = dv.SDEConfig(dt=1e-2, T=0.1, seed=0, paths=paths)
            with pytest.raises(SingularFrame, match=message):
                dv.develop_sde(frame, st, gamma, q0, config)
            with pytest.raises(SingularFrame, match=message):
                dv.simulate_popp(frame, st, q0, config)
        with pytest.raises(SingularFrame, match=message):
            dv.develop_curve(frame, st, gamma, ["cos(t)", "sin(t)", "1"][:k1], q0, 1e-2, 0.1)


@pytest.mark.parametrize("name", ["flat-plane", "heisenberg3", "free32-model"])
def test_products_left_out_of_sums_with_the_noise_leave_it_to_check_finite(name, monkeypatch):
    # in develop_sde the zeros of the frame rows multiply v = h~^T u, and
    # a constant-zero Gamma entry and the zeros of the so(k1) blocks values
    # made from v (each frame's drift is 0, so Gamma is its offset): an
    # infinite increment, which no draw is, still reaches the points
    # through the nonzero components of the same field, and check_finite
    # reports it
    frame, st, _, sym = ck.context(free32_model_frame() if name == "free32-model" else name)
    gamma = mf.ChristoffelField(st, sym, offset=np.linspace(0.0, 0.2, frame.k1))
    assert (gamma.blocks == 0).any()
    assert any(ex._is_const(c, 0.0) for field in frame.fields[:frame.k1] for c in field)
    q0 = [0.5 * (lo + hi) for lo, hi in frame.chart.bounds()]
    increments = dv.increments

    def poisoned(seed, dt):
        draw = increments(seed, dt)

        def poisoned_draw(step, paths, width):
            dw = draw(step, paths, width)
            if step == 2:
                dw[0, 0] = np.inf
            return dw
        return poisoned_draw

    monkeypatch.setattr(dv, "increments", poisoned)
    config = dv.SDEConfig(dt=1e-2, T=0.05, seed=0, paths=3)
    for run in (dv.develop_sde(frame, st, gamma, q0, config),
                dv.simulate_popp(frame, st, q0, config)):
        assert np.isfinite(run.points[:, 1:]).all()
        with pytest.raises(NonFinite, match="^simulation produced non-finite states$"):
            dv.check_finite(run)


def test_curve_rejects_a_nonfinite_h0():
    # an h0 with a nan or inf entry is not orthogonal, though its defect,
    # nan, compares False with any bound
    frame, st, gamma, q0 = sde_setup("flat-plane")
    for bad in (math.nan, math.inf):
        h0 = np.eye(2)
        h0[0, 0] = bad
        with pytest.raises(MalformedSpec, match="^h0 must be orthogonal$"):
            dv.develop_curve(frame, st, gamma, ["cos(t)", "sin(t)"], q0, 1e-2, 0.1, h0=h0)


# upper bounds of each step program's op count (contact-halfplane; the
# free24 lift), about a fifth below the 180, 404, 106 and 120 of the same
# steps traced without the tracer's unit identities and the first-term sums
OP_BOUNDS = {"develop_sde step": 150, "develop_curve step": 330,
             "simulate_popp step": 95, "simulate_carnot_lift step": 110}


def test_step_programs_do_no_unit_or_zero_work(monkeypatch):
    programs, trace = [], ex.Compiled.trace
    monkeypatch.setattr(ex.Compiled, "trace",
                        lambda *args, **kw: programs.append(trace(*args, **kw)) or programs[-1])
    frame, st, gamma, q0 = sde_setup("contact-halfplane")
    config = dv.SDEConfig(dt=1e-2, T=0.02, seed=0, paths=4)
    dv.develop_sde(frame, st, gamma, q0, config)
    dv.develop_curve(frame, st, gamma, ["cos(t)", "sin(t)"], q0, 1e-2, 0.02)
    dv.simulate_popp(frame, st, q0, config)
    dv.simulate_carnot_lift(bi.algebra("free24"), config)
    counts = {program.name: len(program.ops) for program in programs}
    assert counts.keys() == OP_BOUNDS.keys()
    assert all(counts[name] <= bound for name, bound in OP_BOUNDS.items()), counts


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


def _columns(x):
    """The row-major entries of a batch of k x k matrices, one column each."""
    return list(x.reshape(len(x), -1).T)


def test_cayley_closed_form_matches_solve():
    # _frame_move on columns is h~ cay(A) with cay(A) = (I - A/2)^-1 (I + A/2):
    # for k1 = 2 by the rotation formula, for k1 = 3, 4 by Gauss-Jordan
    # elimination
    rng = np.random.default_rng(8)
    for k, bound in ((2, 1e-15), (3, 1e-13), (4, 1e-13)):
        eye, move = np.eye(k), dv._frame_move(k)
        for scale in (0.03, 1.0, 10.0):
            a = _skew(rng, 500, k, scale)
            h = cayley_move(np.tile(eye, (500, 1, 1)), _skew(rng, 500, k, 1.0))
            want = h @ np.linalg.solve(eye - 0.5 * a, eye + 0.5 * a)
            got = move(_columns(h), [a[:, 1, 0]] if k == 2 else _columns(a))
            assert np.abs(np.stack(got, axis=-1).reshape(h.shape) - want).max() <= bound


def test_cayley_keeps_so3_frames_orthogonal():
    # the k1 > 2 move: 10^3 steps of random so(k) increments stay in O(k)
    rng = np.random.default_rng(9)
    for k in (3, 4):
        move = dv._frame_move(k)
        h = _columns(np.tile(np.eye(k), (64, 1, 1)))
        for _ in range(1000):
            h = move(h, _columns(_skew(rng, 64, k, 0.1)))
        h = np.stack(h, axis=-1).reshape(64, k, k)
        assert dv.ortho_defect(h) <= 1e-13
        assert np.abs(h - np.eye(k)).max() > 0.5        # the frames did move


def test_cayley_velocity_moves_the_frame_by_a():
    # h~ cay(Omega(t)) solves dh~ = h~ A when Omega' is the k1 > 2 velocity:
    # a central difference of cay(Omega) along it is cay(Omega) A
    rng = np.random.default_rng(10)
    for k in (3, 4):
        omega, a = _skew(rng, 200, k, 0.5), _skew(rng, 200, k, 1.0)
        v = dv._cayley_velocity(k)(_columns(omega), _columns(a))
        v = np.stack(v, axis=-1).reshape(omega.shape)
        eye, eps = np.tile(np.eye(k), (200, 1, 1)), 1e-6
        slope = (cayley_move(eye, omega + eps * v) - cayley_move(eye, omega - eps * v)) / (2 * eps)
        assert np.abs(slope - cayley_move(eye, omega) @ a).max() <= 1e-8


def test_sde_step_makes_no_linear_solve(monkeypatch):
    # the frame moves by closed-form rotations for k1 = 2 and by traced
    # Gauss-Jordan elimination for k1 = 3: no step makes an inverse or a solve
    setups = [sde_setup("contact-halfplane"), affine_curve_setup("free32-model")]
    config = dv.SDEConfig(dt=1e-3, T=0.05, seed=6, paths=32)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called in a step")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for frame, st, gamma, q0 in setups:
        k1 = frame.k1
        path = dv.develop_sde(frame, st, gamma, q0, config, record="full")
        assert path.ortho_defect < 1e-13
        assert np.abs(path.frames[-1] - np.eye(k1)).max() > 1e-3
        curve = dv.develop_curve(frame, st, gamma, ["cos(t)", "sin(t)", "1"][:k1], q0,
                                 1e-2, 0.5)
        assert curve.ortho_defect < 1e-13
        assert np.abs(curve.frames[-1] - np.eye(k1)).max() > 1e-3


def test_carnot_lift_runs_and_records():
    alg = bi.algebra("heisenberg3")
    config = dv.SDEConfig(dt=1e-3, T=0.1, seed=3, paths=100)
    path = dv.simulate_carnot_lift(alg, config, record="full")
    assert path.points.shape == (config.steps + 1, 100, 3)
    assert np.allclose(path.points[0], 0.0)
    dv.check_finite(path)


def _c_order_lift(alg, config):
    """Reference Heun lift on C-ordered arrays, V(x, e) written out over
    GroupLaw's dense bracket."""
    b = GroupLaw(alg).bracket
    k1 = alg.growth[0]

    def field(x, e):
        xe = b(x, e)
        out = e + xe / 2.0
        return out + b(x, xe) / 12.0 if alg.step >= 3 else out

    x = np.zeros((config.paths, alg.dim))
    draw = dv.increments(config.seed, config.dt)
    for s in range(config.steps):
        dw = np.zeros((config.paths, alg.dim))
        dw[:, :k1] = draw(s, config.paths, k1)
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


@pytest.mark.parametrize("name", ["carnot", "develop", "popp", "curve"])
def test_boolean_record_is_not_a_step_index(name):
    # a bool is an int, but True is no step index
    simulate = _simulators()[name]
    config = dv.SDEConfig(dt=1e-2, T=0.3, seed=5, paths=4)
    for bad in ([True, False], [True], (0, True), np.array([True])):
        with pytest.raises(MalformedSpec, match="^record must be 'full', 'endpoints' or step"):
            simulate(config, bad)


def test_periodic_coordinates_are_wrapped_at_every_step():
    # a periodic coordinate is reduced mod 2 pi after every step: paths
    # started just below 2 pi cross the seam, and every recorded value lies
    # in [0, 2 pi)
    frame, st, gamma, _ = sde_setup("contact-halfplane")
    sphere = bi.frame("sphere-patch")
    config = dv.SDEConfig(dt=1e-3, T=0.05, seed=3, paths=64)
    start = mf.TAU - 1e-2
    runs = {
        "popp": (dv.simulate_popp(sphere, mf.StructureField(sphere), [1.5, start], config,
                                  record="full"), 1),
        "develop": (dv.develop_sde(frame, st, gamma, [0.0, 1.5, start], config,
                                   record="full"), 2),
        # X1 = d/dt1 at h~ = I: the control (1, 0) moves the curve along t1
        "curve": (dv.develop_curve(frame, st, gamma, ["1", "0"], [0.0, 1.5, start],
                                   1e-2, 0.2), 2),
    }
    for name, (path, i) in runs.items():
        t = path.points[..., i]
        assert np.all(t[0] == start), name
        assert np.all((t >= 0.0) & (t < mf.TAU)), name
        assert (t < 1.0).any(), name                        # crossed the seam


def test_one_path_that_leaves_the_box_is_marked_and_still_recorded():
    # X1 = d/dx on y = 0 and the frames stay I: the control (1, 0) moves the
    # curve along x at unit speed, exactly, in steps of 1/8. At x = 2 it is
    # on the box's edge, still inside; past it the path is marked as having
    # left the chart, and every step after the exit is recorded as before
    frame, st, gamma, _ = sde_setup("heisenberg3")
    for T, left in ((2.0, False), (3.0, True)):
        path = dv.develop_curve(frame, st, gamma, ["1", "0"], [0.0, 0.0, 0.0], 0.125, T)
        assert path.left_chart.tolist() == [left]
        assert path.points.shape == (round(T / 0.125) + 1, 1, 3)
        assert path.points[:, 0, 0].tolist() == path.times.tolist()


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
