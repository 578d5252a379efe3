"""Deterministic and stochastic development, and the Carnot-group lift.

Each simulator is a flow (the right-hand side of its Stratonovich or
ordinary system) stepped by one time loop, ``_integrate``. The three SDEs
take Stratonovich-Heun steps, the developed one moving its frame h~ by
Cayley transforms of so(k1) increments; they are vectorized over paths.
Randomness comes from a counter-based Philox stream keyed by (seed, step),
with path p consuming row p of each step's draw, so a batch of P paths
reproduces the first P paths of any larger batch at the same seed.

A model curve is one path, stepped on scalars by RKMK4 in Cayley
coordinates (Munthe-Kaas 1999): classical RK4 on (q, Omega) with the frame
h~ cay(Omega), so h~ stays in O(k1) with no projection.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import expr as ex
from . import manifold as mf
from .errors import DimensionMismatch, MalformedSpec, NonFinite, StepTooLarge

# Dynkin coefficients of the group law through step 4:
# x.y = x + y + [x,y]/2 + ([x,[x,y]] + [y,[y,x]])/12 - [y,[x,[x,y]]]/24
MAX_STEP = 4


def _step_count(dt, T):
    """T/dt; MalformedSpec unless it is within 1e-9 relative of a positive integer.

    A rounded count would simulate a horizon other than the T that
    estimators divide by.
    """
    ratio = T / dt if dt > 0 else math.nan
    steps = round(ratio) if math.isfinite(ratio) else 0
    if steps < 1 or abs(ratio - steps) > 1e-9 * steps:
        raise MalformedSpec(
            f"T must be a positive whole number of steps dt, got dt={dt}, T={T}")
    return steps


@dataclass
class SDEConfig:
    dt: float = 1e-3
    T: float = 1.0
    seed: int = 0
    paths: int = 1
    # constants for reports: Heun for every SDE, Cayley moves of the frame h~
    scheme: ClassVar[str] = "heun"
    projection: ClassVar[str] = "cayley"

    def __post_init__(self):
        _step_count(self.dt, self.T)
        if self.paths < 1:
            raise MalformedSpec(f"need at least one path, got paths={self.paths}")

    @property
    def steps(self):
        return _step_count(self.dt, self.T)


@dataclass
class Path:
    """Simulation output: recorded times and per-path states.

    points has shape (len(times), paths, d); frames, when present, has shape
    (len(times), paths, k1, k1). left_chart marks paths that exited the
    chart's sampling box at some step (reported, not fatal). ortho_defect is
    max |h~^T h~ - I| over the final frames.
    """

    times: np.ndarray
    points: np.ndarray
    frames: np.ndarray = None
    left_chart: np.ndarray = None
    ortho_defect: float = 0.0

    def endpoints(self):
        return self.points[-1]

    def write_endpoints_csv(self, f):
        """Summary CSV: one row per path's endpoint."""
        w = csv.writer(f)
        d = self.points.shape[2]
        w.writerow(["path"] + [f"q{i + 1}" for i in range(d)])
        for p, q in enumerate(self.points[-1]):
            w.writerow([p] + [f"{v:.12g}" for v in q])


def increments(seed, step, paths, width, dt):
    """Gaussian increments of one time step: shape (paths, width), sd sqrt(dt).

    Row p depends only on (seed, step, p, width): the Philox counter encodes
    the step and the generator fills rows in order.
    """
    bits = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, step, 0]))
    return bits.standard_normal((paths, width)) * np.sqrt(dt)


# ---------------------------------------------------------------------------
# The time stepper
# ---------------------------------------------------------------------------

def _heun(flow, state, dw, moves=None):
    """Stratonovich-Heun step; flow(*state, dw) returns the increment tuple.

    moves[i](x, k) applies increment k to state component i (x + k by default).
    """
    moves = moves or (operator.add,) * len(state)
    k1 = flow(*state, dw)
    k2 = flow(*(m(x, k) for m, x, k in zip(moves, state, k1)), dw)
    return tuple(m(x, 0.5 * (a + b)) for m, x, a, b in zip(moves, state, k1, k2))


def _rk4(flow, state, u, dt):
    """Classical RK4 step; flow(state, c) returns the derivative list of the state list.

    u holds the control at the step's start, midpoint and end.
    """
    half = 0.5 * dt
    k1 = flow(state, u[0])
    k2 = flow([x + half * k for x, k in zip(state, k1)], u[1])
    k3 = flow([x + half * k for x, k in zip(state, k2)], u[1])
    k4 = flow([x + dt * k for x, k in zip(state, k3)], u[2])
    return [x + dt * (a + 2 * b + 2 * c + d) / 6.0 for x, a, b, c, d in zip(state, k1, k2, k3, k4)]


def _integrate(advance, state, steps, dt, record, chart=None):
    """Step state <- advance(s, state) for s < steps and return the Path.

    state is (points,) or (points, frames); advance keeps the frames
    orthogonal and the orthogonality defect of the final frames is reported.
    With a chart the points are wrapped after each step and paths that leave
    its box are marked. record is "full" (every step), "endpoints" (steps 0
    and steps) or the step indices to keep.
    """
    named = {"full": range(steps + 1), "endpoints": (0, steps)}
    keep = named.get(record) if isinstance(record, str) else sorted(set(record))
    if keep is None or not keep or not all(
            isinstance(s, (int, np.integer)) and 0 <= s <= steps for s in keep):
        raise MalformedSpec(
            f"record must be 'full', 'endpoints' or step indices in [0, {steps}], got {record!r}")
    out = [np.empty((len(keep),) + x.shape) for x in state]
    left = None
    if chart is not None:
        left = np.zeros(len(state[0]), dtype=bool)
        # a wrapped periodic coordinate is never outside: its box is unbounded
        box = np.array([(-np.inf, np.inf) if c in chart.periodic else b
                        for c, b in zip(chart.coords, chart.bounds())])
        lo, hi = box[:, 0], box[:, 1]
    row = 0                                 # keep is sorted: the next row to fill
    for s in range(steps + 1):
        if s:
            state = advance(s - 1, state)
            if chart is not None:
                state = (chart.wrap(state[0]),) + state[1:]
                left |= ((state[0] < lo) | (state[0] > hi)).any(axis=1)
        if row < len(keep) and keep[row] == s:
            for o, x in zip(out, state):
                o[row] = x
            row += 1
    return Path(times=np.array(keep, dtype=float) * dt, points=out[0],
                frames=out[1] if len(out) > 1 else None, left_chart=left,
                ortho_defect=ortho_defect(state[1]) if len(state) > 1 else 0.0)


# ---------------------------------------------------------------------------
# Carnot group law
# ---------------------------------------------------------------------------

class CarnotGroup:
    """Exponential coordinates of the first kind with the truncated group law.

    Brackets run through plans built once: a plan keeps, in order, the
    products of the sparse terms whose factors are not structurally zero
    for a known zero pattern of y. Skipping a product with a zero factor, or
    a multiplication by v = 1, leaves every bit of a finite result as it is.
    """

    def __init__(self, alg):
        if alg.step > MAX_STEP:
            raise StepTooLarge(
                f"group-law operations support step <= {MAX_STEP}, "
                f"algebra has step {alg.step}")
        self.alg = alg
        # sparse bracket terms (i < j): [x, y]_k += v (x_i y_j - x_j y_i)
        self._terms = [(i, j, k, float(v))
                       for (i, j), row in alg.brackets.items()
                       for k, v in row.items()]
        k1 = alg.growth[0]
        self._full = self._plan(())
        self._horizontal = self._plan(range(k1, alg.dim))   # [x, e], e horizontal
        self._vertical = self._plan(range(k1))              # [x, [x, e]]

    def _plan(self, zero):
        """Entries (k, v, pos, neg): [x, y]_k += v x_i y_j for pos = (i, j),
        -= v x_j y_i for neg = (j, i); a product is None where y is zero."""
        return [(k, v, (i, j) if j not in zero else None,
                 (j, i) if i not in zero else None)
                for i, j, k, v in self._terms if i not in zero or j not in zero]

    def _bracket(self, plan, x, y):
        # column-major: out[..., k], like each column of the lift's state, is contiguous
        out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)), order="F")
        for k, v, pos, neg in plan:
            a, b = pos or neg
            w = x[..., a] * y[..., b]
            if pos and neg:
                w -= x[..., neg[0]] * y[..., neg[1]]
            if v != 1.0:
                w *= v
            if pos:
                out[..., k] += w
            else:
                out[..., k] -= w
        return out

    def bracket(self, x, y):
        return self._bracket(self._full, x, y)

    def bch(self, x, y):
        """Truncated group product in the Lie algebra coordinates."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape[-1] != self.alg.dim or y.shape[-1] != self.alg.dim:
            raise DimensionMismatch(
                f"expected vectors of length {self.alg.dim}")
        b = self.bracket
        xy = b(x, y)
        out = x + y + xy / 2.0
        if self.alg.step >= 3:
            out = out + (b(x, xy) + b(y, b(y, x))) / 12.0
        if self.alg.step >= 4:
            out = out - b(y, b(x, xy)) / 24.0
        return out

    def left_invariant_field(self, x, e):
        """V(x, e): the left-invariant extension of a horizontal e in these coordinates.

        V(x, e) = e + [x, e]/2 + [x, [x, e]]/12; the step-4 term of the
        differential of left translation vanishes in this direction. e is
        zero beyond its first k1 columns (as embed pads it), so [x, e] has
        degree >= 2 and [x, [x, e]] degree >= 3: the first k1 columns of V
        are e itself.
        """
        k1 = self.alg.growth[0]
        e = np.asarray(e, dtype=float)
        out = self._bracket(self._horizontal, x, e)          # [x, e], then V
        xxe = self._bracket(self._vertical, x, out) if self.alg.step >= 3 else None
        out[..., :k1] = e[..., :k1]
        out[..., k1:] /= 2.0
        if xxe is not None:
            k2 = self.alg.growth[1]
            out[..., k2:] += xxe[..., k2:] / 12.0
        return out

    def embed(self, w):
        """Pad a horizontal k1-vector (or batch) with zeros to full dimension."""
        w = np.asarray(w, dtype=float)
        k1 = self.alg.growth[0]
        out = np.zeros(w.shape[:-1] + (self.alg.dim,), order="F")
        out[..., :k1] = w
        return out


def simulate_carnot_lift(alg, config, record="endpoints"):
    """Lift of Brownian motion on R^{k1} to the Carnot group (Heun scheme)."""
    group = CarnotGroup(alg)
    k1 = alg.growth[0]

    def flow(g, dw):
        return (group.left_invariant_field(g, dw),)

    def advance(s, state):
        dw = group.embed(increments(config.seed, s, config.paths, k1, config.dt))
        return _heun(flow, state, dw)

    return _integrate(advance, (np.zeros((config.paths, alg.dim), order="F"),),
                      config.steps, config.dt, record)


# ---------------------------------------------------------------------------
# Development on a chart
# ---------------------------------------------------------------------------

def _rotation(sigma):
    """Cosine and sine of cay(sigma J), J = [[0, -1], [1, 0]]: an array or a scalar sigma."""
    quarter = 0.25 * sigma * sigma
    return (1.0 - quarter) / (1.0 + quarter), sigma / (1.0 + quarter)


def cayley_move(h, a):
    """h cay(A), cay(A) = (I - A/2)^-1 (I + A/2), for batches of frames and so(k) A.

    For k = 2, A = sigma J and cay(A) is the rotation with cosine
    (1 - sigma^2/4)/(1 + sigma^2/4) and sine sigma/(1 + sigma^2/4): no solve.
    """
    if h.shape[-1] != 2:
        eye = np.eye(h.shape[-1])
        return h @ np.linalg.solve(eye - 0.5 * a, eye + 0.5 * a)
    c, s = (x[:, None] for x in _rotation(a[:, 1, 0]))
    h0, h1 = h[:, :, 0], h[:, :, 1]
    return np.stack((h0 * c + h1 * s, h1 * c - h0 * s), axis=-1)


def _cayley_coordinates(blocks, k1):
    """(zero, move, velocity) of one frame's Cayley coordinates Omega.

    h~ cay(Omega(t)) solves dh~ = h~ A for Omega(0) = 0 and Omega' =
    velocity(Omega, s) = (I + Omega/2) A (I - Omega/2), A = sum_alpha s_alpha
    A_alpha over the rows of blocks; move(h, Omega) is h~ cay(Omega) for a
    row-major sequence h. For k1 = 2, Omega = omega J is a scalar, the
    velocity is sigma (1 + omega^2/4) with sigma = A[1, 0], and cay(omega J)
    is cayley_move's rotation; otherwise Omega is a (k1, k1) array.
    """
    if k1 == 2:
        column = blocks[:, k1].tolist()                   # A_alpha[1, 0]

        def move(h, omega):
            c, s = _rotation(omega)
            return (h[0] * c + h[1] * s, h[1] * c - h[0] * s,
                    h[2] * c + h[3] * s, h[3] * c - h[2] * s)

        def velocity(omega, s):
            return sum(map(operator.mul, s, column)) * (1.0 + 0.25 * omega * omega)

        return 0.0, move, velocity
    eye = np.eye(k1)

    def move(h, omega):
        return tuple(cayley_move(np.reshape(h, (1, k1, k1)), omega[None]).ravel())

    def velocity(omega, s):
        a = (np.asarray(s, dtype=float) @ blocks).reshape(k1, k1)
        return (eye + 0.5 * omega) @ a @ (eye - 0.5 * omega)

    return np.zeros((k1, k1)), move, velocity


def ortho_defect(h):
    k = h.shape[-1]
    hth = np.swapaxes(h, -1, -2) @ h
    return float(np.abs(hth - np.eye(k)).max())


class _DevelopSystem:
    """Right-hand sides of the coupled (q, h~) development system.

    Gamma comes from the connection object, fed the Popp drift of the same
    compiled evaluation that gives the frame, so the flow evaluates the
    chart geometry once. ``flow`` takes a batch of paths on arrays, ``point``
    one path on scalars.
    """

    def __init__(self, frame, structure, gamma):
        self.structure = structure
        self.gamma = gamma
        self.k1 = frame.k1
        self.coords = frame.chart.coords
        # point's Gamma = div P^T + offset: the rows of P, one offset per (alpha, i)
        self._p = gamma.p.tolist()
        offset = np.broadcast_to(gamma.offset, (1, len(gamma.blocks), self.k1))
        self._offset = offset.ravel().tolist()

    def flow(self, q, h, u):
        """Increments (dq, A) for control increment u of shape (P, k1).

        dq = (u^T h~ X)(q): move along sum_i (h~^T u)_i X_i;
        A = sum_alpha (u^T h~ Gamma^alpha(q)) A_alpha in so(k1), so that
        dh~ = h~ A.
        """
        v = np.einsum("pji,pj->pi", h, u)                 # h~^T u
        x, div = self.structure.horizontal(q)
        dq = np.einsum("pdi,pi->pd", x, v)
        s = np.einsum("pai,pi->pa", self.gamma.at(q, div), v)   # one per generator
        return dq, (s @ self.gamma.blocks).reshape(len(q), self.k1, self.k1)

    def point(self, q, h, u):
        """flow at one point: dq and the coordinates s_alpha of A in the basis A_alpha.

        q (np.float64, as Chart.env needs), row-major h~ and u are sequences
        of scalars. The outputs of StructureField._horizontal are read as
        they come, so the caller suppresses floating-point warnings, as
        horizontal does; det X and the drift are checked. Each sum runs in
        the order of flow's einsum, so the bits are a one-row flow's except
        where BLAS fuses a multiply-add in div P^T, which needs two inexact
        terms in one sum.
        """
        k1, mul = self.k1, operator.mul
        v = [sum(map(mul, h[i::k1], u)) for i in range(k1)]          # h~^T u
        vals = self.structure._horizontal(dict(zip(self.coords, q)))
        dk = len(vals) - k1 - 1
        mf.check_horizontal(vals[-1], vals[dk:-1])
        div = [*map(float, vals[dk:-1])]    # Python floats: the same bits, cheaper
        dq = [sum(map(mul, vals[a:a + k1], v)) for a in range(0, dk, k1)]
        gamma = [sum(map(mul, div, p)) + c for p, c in zip(self._p, self._offset)]
        return dq, [sum(map(mul, gamma[a:a + k1], v)) for a in range(0, len(gamma), k1)]


def _prepare_h0(h0, k1, paths):
    if h0 is None:
        h0 = np.eye(k1)
    h0 = np.asarray(h0, dtype=float)
    if h0.shape != (k1, k1):
        raise MalformedSpec(f"h0 must be a {k1}x{k1} matrix, got {h0.shape}")
    if ortho_defect(h0[None]) > 1e-8:
        raise MalformedSpec("h0 must be orthogonal")
    return np.broadcast_to(h0, (paths, k1, k1)).copy()


def develop_sde(frame, structure, gamma, q0, config, record="endpoints"):
    """Stochastic development: Stratonovich-Heun for the (q, h~) system.

    h~ moves in the Lie group: predictor h~ cay(A_1), step h~ cay((A_1 + A_2)/2).
    """
    sys = _DevelopSystem(frame, structure, gamma)
    k1 = frame.k1

    def advance(s, state):
        dw = increments(config.seed, s, config.paths, k1, config.dt)
        return _heun(sys.flow, state, dw, (operator.add, cayley_move))

    state = (np.tile(np.asarray(q0, dtype=float), (config.paths, 1)),
             np.tile(np.eye(k1), (config.paths, 1, 1)))
    return _integrate(advance, state, config.steps, config.dt, record, chart=frame.chart)


def _control_table(u, steps, dt):
    """u at the RK4 times of every step, shape (steps, 3, k1).

    Step s holds u at s*dt, s*dt + 0.5*dt and s*dt + dt, the same float
    expressions a step forms ((s+1)*dt can differ from s*dt + dt in the last
    bit). Raises NonFinite at the first time where u is not finite.
    """
    start = np.arange(steps) * dt
    times = np.stack((start, start + 0.5 * dt, start + dt), axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = ex.Compiled(u)({"t": times})
    table = np.empty((steps, 3, len(u)))
    for i, v in enumerate(vals):
        table[:, :, i] = v
    bad = ~np.isfinite(table).all(axis=2)
    if bad.any():
        raise NonFinite(f"control not finite at t={float(times[bad][0])!r}")
    return table


def develop_curve(frame, structure, gamma, u, q0, dt, T, h0=None, record="full"):
    """Deterministic development of a model curve with control u(t).

    u is a sequence of k1 expressions in the single variable t. Each step is
    RKMK4 in Cayley coordinates: classical RK4 on (q, Omega) from Omega = 0,
    with dOmega/dt = (I + Omega/2) A (I - Omega/2) and the frame
    h~ cay(Omega) at every stage, then h~ <- h~ cay(Omega). The control is
    evaluated once per curve, at every RK4 time, before the first step. The
    one path is stepped on scalars (_DevelopSystem.point); only _integrate
    sees it as one-row arrays.
    """
    sys = _DevelopSystem(frame, structure, gamma)
    k1 = frame.k1
    u = [ex.parse(c) if isinstance(c, str) else c for c in u]
    if len(u) != k1:
        raise MalformedSpec(f"need {k1} control components, got {len(u)}")
    steps = _step_count(dt, T)
    control = _control_table(u, steps, dt)
    zero, move, velocity = _cayley_coordinates(gamma.blocks, k1)

    def advance(s, state):
        # h~ and u as Python floats (the same bits as np.float64, cheaper);
        # q stays np.float64, as the chart geometry needs
        h = state[1].ravel().tolist()

        def flow(y, c):                                 # y = [*q, omega]
            dq, gen = sys.point(y[:-1], move(h, y[-1]), c)
            dq.append(velocity(y[-1], gen))
            return dq

        y = _rk4(flow, [*state[0][0], zero], control[s].tolist(), dt)
        return np.array([y[:-1]]), np.array(move(h, y[-1])).reshape(1, k1, k1)

    state = (np.asarray(q0, dtype=float)[None, :].copy(), _prepare_h0(h0, k1, 1))
    # point's geometry may divide by zero at a singular point, which its checks report
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _integrate(advance, state, steps, dt, record, chart=frame.chart)


def simulate_popp(frame, structure, q0, config, record="endpoints"):
    """Direct diffusion with generator half the Popp sub-Laplacian.

    Stratonovich dq = sum_i X_i(q) o db^i + (1/2) sum_i d_i(q) X_i(q) dt
    with drift coefficients d_i = -sum_l c_il^l.
    """
    k1 = frame.k1

    def flow(q, dw):
        x, d = structure.horizontal(q)
        return (np.einsum("pdi,pi->pd", x, dw + 0.5 * d * config.dt),)

    def advance(s, state):
        return _heun(flow, state, increments(config.seed, s, config.paths, k1, config.dt))

    state = (np.tile(np.asarray(q0, dtype=float), (config.paths, 1)),)
    return _integrate(advance, state, config.steps, config.dt, record, chart=frame.chart)


def check_finite(path):
    if not np.all(np.isfinite(path.points)):
        raise NonFinite("simulation produced non-finite states")
    return path
