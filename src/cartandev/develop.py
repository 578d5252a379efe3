"""Deterministic and stochastic development, and the Carnot-group lift.

Every simulator runs through one driver, ``_run``: it traces the
simulator's step once into one expr.Compiled program and runs that program
at every step of one time loop, ``_integrate``, under one np.errstate; the
chart geometry of each stage checks itself where it is evaluated
(StructureField._horizontal_at). The state is a flat list of columns: one
(paths,) array per coordinate and frame entry, or, for the one path of a
model curve, one Python float, on which the program is lowered to Python
float arithmetic. The three SDEs take Stratonovich-Heun steps over path
columns (``_simulate``), the developed one moving its frame h~ by Cayley
transforms of so(k1) increments, traced as arithmetic on the k1^2 entries
like the rest of the step; every sum runs in a fixed order, so a path's
bits do not depend on the batch or the BLAS build. Their noise is
``increments(seed, dt)``, a run's draw function over one counter-based
Philox generator keyed by seed, whose counter is set to the step at every
draw; path p consumes row p of each step's draw, so a batch of P paths
reproduces the first P paths of any larger batch at the same seed.

A model curve is one path, stepped on scalars by RKMK4 in Cayley
coordinates (Munthe-Kaas 1999): classical RK4 on (q, Omega) with the frame
h~ cay(Omega), so h~ stays in O(k1) with no projection.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import expr as ex
from . import manifold as mf
from .errors import MalformedSpec, NonFinite, StepTooLarge

# V(x, e) = e + [x, e]/2 + [x, [x, e]]/12 is exact through step 4: the
# [x, [x, [x, e]]] term of the differential of left translation vanishes
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


def increments(seed, dt):
    """The Gaussian increments of one run: draw(step, paths, width) is one
    time step's, shape (paths, width), sd sqrt(dt).

    Row p depends only on (seed, step, p, width): the Philox counter encodes
    the step and the generator fills rows in order. A run keeps one
    generator, whose counter is reset at every draw.
    """
    bits = np.random.Philox(key=seed)
    normal = np.random.Generator(bits).standard_normal
    state = bits.state                  # a fresh generator's: no buffered output
    counter = state["state"]["counter"]
    scale = np.sqrt(dt)

    def draw(step, paths, width):
        counter[:] = (0, 0, step, 0)
        bits.state = state
        return normal((paths, width)) * scale
    return draw


# ---------------------------------------------------------------------------
# The time stepper
# ---------------------------------------------------------------------------

def _add(x, k):
    return [a + b for a, b in zip(x, k)]


def _zero(x):
    """Whether x is a Python float 0.0: in a traced step, a constant zero."""
    return type(x) is float and x == 0.0


def _plus(a, b):
    """a + b, or the other where one is _zero: bit for bit but a zero's sign."""
    return b if _zero(a) else a if _zero(b) else a + b


def _dot(a, b):
    """a_0 b_0 + a_1 b_1 + ... from its first term, one operation at a time
    in this order (sum() may compensate), so a path's scalars and its column
    get the same bits; a product with a _zero factor is left out."""
    out = 0.0
    for x, y in zip(a, b):
        if not (_zero(x) or _zero(y)):
            out = _plus(out, x * y)
    return out


def _heun(flow, move, x):
    """Stratonovich-Heun step of the value list x.

    flow(x) returns the increment list and move(x, k) applies increment k.
    """
    k1 = flow(x)
    k2 = flow(move(x, k1))
    return move(x, [0.5 * (a + b) for a, b in zip(k1, k2)])


def _rk4(flow, state, u, dt):
    """Classical RK4 step; flow(state, c) returns the derivative list of the state list.

    u holds the control at the step's start, midpoint and end.
    """
    half = 0.5 * dt
    k1 = flow(state, u[0])
    k2 = flow([_plus(x, half * k) for x, k in zip(state, k1)], u[1])
    k3 = flow([_plus(x, half * k) for x, k in zip(state, k2)], u[1])
    k4 = flow([_plus(x, dt * k) for x, k in zip(state, k3)], u[2])
    return [_plus(x, dt * (a + 2 * b + 2 * c + d) / 6.0)
            for x, a, b, c, d in zip(state, k1, k2, k3, k4)]


def _integrate(advance, state, d, steps, dt, record, chart=None):
    """Step state <- advance(s, state) for s < steps and return the Path.

    state is a flat list of columns: the d coordinates of the points, then
    the row-major entries of the frames h~ if there are any, each a
    (paths,) array or, for one path, a scalar. advance keeps the frames
    orthogonal and the orthogonality defect of the final frames is
    reported. With a chart the periodic coordinates are wrapped after each
    step and paths that leave its box are marked. record is "full" (every
    step), "endpoints" (steps 0 and steps) or the step indices to keep;
    they are written into one array allocated before the first step.
    """
    named = {"full": range(steps + 1), "endpoints": (0, steps)}
    keep = (named.get(record) if isinstance(record, str)
            else list(record) if np.iterable(record) else None)
    if not keep or not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool)
                           and 0 <= s <= steps for s in keep):
        raise MalformedSpec(
            f"record must be 'full', 'endpoints' or step indices in [0, {steps}], got {record!r}")
    keep = sorted(set(keep))
    batch, paths = np.ndim(state[0]) > 0, np.size(state[0])
    # each path's values in a row, as a (paths, d) array keeps them, so that
    # reductions over paths add in the same order
    out = np.empty((len(keep), paths, len(state)))
    rows = out.transpose(0, 2, 1) if batch else out[:, 0]     # a row takes the column list
    left, wrap, box = None, (), ()
    if chart is not None:
        left = np.zeros(paths, dtype=bool) if batch else False
        wrap = chart._periodic_cols
        # a wrapped periodic coordinate is never outside: it has no box
        box = [(i, lo, hi) for i, (lo, hi) in enumerate(chart.bounds()) if i not in wrap]
    row = 0                                 # keep is sorted: the next row to fill
    for s in range(steps + 1):
        if s:
            state = advance(s - 1, state)
            for i in wrap:
                state[i] = state[i] % mf.TAU
            for i, lo, hi in box:
                x = state[i]
                if batch:
                    left |= x < lo
                    left |= x > hi
                elif x < lo or x > hi:
                    left = True
        if row < len(keep) and keep[row] == s:
            rows[row] = state
            row += 1
    k1 = math.isqrt(len(state) - d)
    frames, defect = None, 0.0
    if k1:
        frames = out[..., d:].reshape(len(keep), paths, k1, k1)
        last = np.stack(np.broadcast_arrays(*state[d:]), axis=-1)
        defect = ortho_defect(last.reshape(-1, k1, k1))
    return Path(times=np.array(keep, dtype=float) * dt, points=out[..., :d],
                frames=frames, left_chart=None if left is None else np.atleast_1d(left),
                ortho_defect=defect)


def _run(step, width, inputs, state, d, steps, dt, record, name, chart=None):
    """Run the step function step over _integrate's column list state.

    step maps [*x, *w], x the state's values and w the width values
    inputs(s) gives for step s, to x'. It is traced once into an
    expr.Compiled program, on Python floats for one path's scalars, which
    every step runs, with the checks of the geometry it evaluates.
    """
    program = ex.Compiled.trace(step, len(state) + width, name, scalars=np.ndim(state[0]) == 0)
    # a stage may divide by zero at a singular point, which its check reports
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _integrate(lambda s, x: program([*x, *inputs(s)]), state, d, steps, dt,
                          record, chart)


def _simulate(flow, move, state, d, width, config, record, name, chart=None):
    """A Stratonovich-Heun run of flow on path columns, driven by increments.

    state is _integrate's column list and flow(x, dw) returns the increment
    of the value list x for the width noise columns dw; move(x, k) applies
    an increment. _run traces the step _heun takes.
    """
    n = len(state)

    def step(inputs):
        return _heun(lambda y: flow(y, inputs[n:]), move, inputs[:n])

    draw = increments(config.seed, config.dt)
    return _run(step, width, lambda s: draw(s, config.paths, width).T, state, d,
                config.steps, config.dt, record, name, chart)


# ---------------------------------------------------------------------------
# Carnot group lift
# ---------------------------------------------------------------------------

class CarnotGroup:
    """The left-invariant fields of a Carnot group of step <= 4 in
    exponential coordinates of the first kind, which its lift follows.

    A bracket sums each coordinate's sparse terms v (x_i y_j - x_j y_i) in
    order from the first (_plus), 0.0 where none lands, leaving out products
    with a _zero factor of y (e past its first k1, [x, e] below degree 2):
    no bit of a finite result changes but the sign of a zero one.
    """

    def __init__(self, alg):
        if alg.step > MAX_STEP:
            raise StepTooLarge(
                f"left-invariant fields support step <= {MAX_STEP}, "
                f"algebra has step {alg.step}")
        self.alg = alg
        # sparse bracket terms (i < j): [x, y]_k += v (x_i y_j - x_j y_i)
        self._terms = [(i, j, k, float(v)) for (i, j), row in alg.brackets.items()
                       for k, v in row.items()]

    def _bracket(self, x, y):
        """[x, y] on coordinate sequences (the columns of an array, or
        traced values): the list of its dim coordinates."""
        out = [0.0] * self.alg.dim
        for i, j, k, v in self._terms:
            pos, neg = not _zero(y[j]), not _zero(y[i])
            if pos or neg:
                w = x[i] * y[j] if pos else x[j] * y[i]
                if pos and neg:
                    w = w - x[j] * y[i]
                out[k] = _plus(out[k], w * v) if pos else out[k] - w * v
        return out

    def _field(self, x, e):
        """V(x, e) = e + [x, e]/2 + [x, [x, e]]/12, the left-invariant extension
        of a horizontal e, on coordinate sequences: x's dim and e's first k1,
        which are V's first k1 ([x, e] has degree >= 2, [x, [x, e]] >= 3)."""
        k1 = self.alg.growth[0]
        e = [*e[:k1], *[0.0] * (self.alg.dim - k1)]
        xe = self._bracket(x, e)
        out = [*e[:k1], *(c / 2.0 for c in xe[k1:])]
        if self.alg.step >= 3:
            k2 = self.alg.growth[1]
            xxe = self._bracket(x, xe)
            out[k2:] = [c + t / 12.0 for c, t in zip(out[k2:], xxe[k2:])]
        return out


def simulate_carnot_lift(alg, config, record="endpoints"):
    """Lift of Brownian motion on R^{k1} to the Carnot group (Heun scheme).

    The step is traced from the bracket terms on the dim coordinate columns,
    in their order, so each column gets the bits of the same arithmetic on
    (paths, dim) arrays.
    """
    group = CarnotGroup(alg)
    state = [np.zeros(config.paths)] * alg.dim
    return _simulate(group._field, _add, state, alg.dim, alg.growth[0], config, record,
                     "simulate_carnot_lift step")


# ---------------------------------------------------------------------------
# Development on a chart
# ---------------------------------------------------------------------------

def _rotate(h, sigma):
    """h~ cay(sigma J), J = [[0, -1], [1, 0]], for the row-major entries h of a
    2x2 h~: scalars, columns or traced values. cay(sigma J) is the rotation
    with cosine (1 - sigma^2/4)/(1 + sigma^2/4) and sine sigma/(1 + sigma^2/4)."""
    quarter = 0.25 * sigma * sigma
    c, s = (1.0 - quarter) / (1.0 + quarter), sigma / (1.0 + quarter)
    return (h[0] * c + h[1] * s, h[1] * c - h[0] * s,
            h[2] * c + h[3] * s, h[3] * c - h[2] * s)


def _generator_coordinates(blocks, k1):
    """coordinates(s) of A = sum_alpha s_alpha A_alpha in so(k1), each a sum
    in the order of the rows of blocks: [A[1, 0]] for k1 = 2, where A is
    A[1, 0] J, and A's row-major entries otherwise."""
    columns = blocks.T.tolist()[k1:k1 + 1] if k1 == 2 else blocks.T.tolist()
    return lambda s: [_dot(s, c) for c in columns]


def _eye_plus(k1, c, x):
    """The rows of I + c X, for the row-major entries x of a k1 x k1 matrix X."""
    return [[_plus(float(i == j), c * x[i * k1 + j]) for j in range(k1)] for i in range(k1)]


def _frame_move(k1):
    """move(h, a) = h~ cay(A) for the row-major entries h of h~ and the
    coordinates a of A (as _generator_coordinates lists them): scalars,
    columns or traced values. For k1 = 2 it is _rotate's rotation.
    Otherwise cay(A) = 2 (I - A/2)^-1 - I, and h~ (I - A/2)^-1 is the
    transpose of the solution Y of (I + A/2) Y = h~^T, which Gauss-Jordan
    elimination gives without pivoting: the leading minors of I + A/2 are
    det(I + S) >= 1 for skew S, so no pivot is zero."""
    if k1 == 2:
        return lambda h, a: _rotate(h, a[0])

    def move(h, a):
        # the rows of [I + A/2 | h~^T], reduced column by column to [I | Y]
        rows = [row + list(h[i::k1]) for i, row in enumerate(_eye_plus(k1, 0.5, a))]
        for j, pivot_row in enumerate(rows):
            pivot = pivot_row[j]
            pivot_row[j + 1:] = [x / pivot for x in pivot_row[j + 1:]]
            for row in rows:
                if row is not pivot_row:
                    f = row[j]
                    row[j + 1:] = [x - f * p for x, p in zip(row[j + 1:], pivot_row[j + 1:])]
        return [2.0 * rows[c][k1 + r] - h[r * k1 + c] for r in range(k1) for c in range(k1)]

    return move


def _cayley_velocity(k1):
    """velocity(Omega, a) of a curve's Cayley coordinates Omega, for the A whose
    coordinates are a, both listed as _generator_coordinates lists A's.

    h~ cay(Omega(t)) solves dh~ = h~ A for Omega(0) = 0 and Omega' =
    (I + Omega/2) A (I - Omega/2). For k1 = 2, Omega = omega J and omega' =
    sigma (1 + omega^2/4) with sigma = A[1, 0]; otherwise both products are
    _dot sums over the row-major entries.
    """
    if k1 == 2:
        return lambda omega, a: [a[0] * (1.0 + 0.25 * omega[0] * omega[0])]

    def velocity(omega, a):
        left = [[_dot(row, a[j::k1]) for j in range(k1)] for row in _eye_plus(k1, 0.5, omega)]
        right = list(zip(*_eye_plus(k1, -0.5, omega)))      # the columns of I - Omega/2
        return [_dot(row, column) for row in left for column in right]

    return velocity


def ortho_defect(h):
    k = h.shape[-1]
    hth = np.swapaxes(h, -1, -2) @ h
    return float(np.abs(hth - np.eye(k)).max())


class _DevelopSystem:
    """The right-hand side of the coupled (q, h~) development system at one
    point (``point``): a path's scalars, or traced values of every path's
    columns.

    Gamma comes from the connection object, fed the Popp drift of the same
    compiled evaluation that gives the frame, so the flow evaluates the
    chart geometry once.
    """

    def __init__(self, frame, structure, gamma):
        self.structure = structure
        self.gamma = gamma
        self.k1 = k1 = frame.k1
        self.coords = frame.chart.coords
        # Gamma = div P^T + offset: the rows of P, one offset per (alpha, i)
        self._p = gamma.p.tolist()
        self._offset = np.broadcast_to(gamma.offset, (1, len(gamma.blocks), k1)).ravel().tolist()

    def point(self, q, h, u):
        """dq and the coordinates s_alpha of A in the basis A_alpha for control
        increment u.

        dq = (u^T h~ X)(q): move along sum_i (h~^T u)_i X_i;
        A = sum_alpha (u^T h~ Gamma^alpha(q)) A_alpha in so(k1), so that
        dh~ = h~ A. q, row-major h~ and u are sequences of values (scalars
        or columns), or of values traced into a step. Each sum (_dot) runs
        in a fixed order, so a path's bits do not depend on how many paths
        run. The geometry (StructureField._horizontal_at) checks det X and
        the drift, which it may compute with a division by zero, so the
        caller suppresses floating-point warnings, as divergence does.
        """
        k1 = self.k1
        v = [_dot(h[i::k1], u) for i in range(k1)]                    # h~^T u
        rows, drift = self.structure._horizontal_at(dict(zip(self.coords, q)))
        dq = [_dot(row, v) for row in rows]
        gamma = [_plus(_dot(drift, p), c) for p, c in zip(self._p, self._offset)]
        gen = [_dot(gamma[a:a + k1], v) for a in range(0, len(gamma), k1)]
        return dq, gen


def _prepare_h0(h0, k1):
    h0 = np.asarray(np.eye(k1) if h0 is None else h0, dtype=float)
    if h0.shape != (k1, k1):
        raise MalformedSpec(f"h0 must be a {k1}x{k1} matrix, got {h0.shape}")
    if not np.isfinite(h0).all() or ortho_defect(h0[None]) > 1e-8:
        raise MalformedSpec("h0 must be orthogonal")
    return h0


def develop_sde(frame, structure, gamma, q0, config, record="endpoints"):
    """Stochastic development: Stratonovich-Heun for the (q, h~) system.

    h~ moves in the Lie group: predictor h~ cay(A_1), step h~ cay((A_1 + A_2)/2).
    The step, _DevelopSystem.point on every path's columns and the frame
    moves, is traced once per call into one program.
    """
    sys = _DevelopSystem(frame, structure, gamma)
    k1, d = frame.k1, frame.chart.dim
    coordinates, move = _generator_coordinates(gamma.blocks, k1), _frame_move(k1)

    def flow(x, dw):
        dq, gen = sys.point(x[:d], x[d:], dw)
        return [*dq, *coordinates(gen)]

    def step_move(x, k):
        return [*_add(x[:d], k[:d]), *move(x[d:], k[d:])]

    start = [*np.asarray(q0, dtype=float), *np.eye(k1).ravel()]
    state = [np.full(config.paths, c) for c in start]
    return _simulate(flow, step_move, state, d, k1, config, record, "develop_sde step",
                     frame.chart)


def _control_table(u, steps, dt):
    """u at the RK4 times of every step, shape (steps, 3, k1).

    Step s holds u at s*dt, s*dt + 0.5*dt and s*dt + dt, the same float
    expressions a step forms ((s+1)*dt can differ from s*dt + dt in the last
    bit). Raises NonFinite at the first time where u is not finite.
    """
    start = np.arange(steps) * dt
    times = np.stack((start, start + 0.5 * dt, start + dt), axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = ex.Compiled(u, "develop_curve control")({"t": times})
    table = np.stack(np.broadcast_arrays(times, *vals)[1:], axis=-1)
    bad = ~np.isfinite(table).all(axis=2)
    if bad.any():
        raise NonFinite(f"control not finite at t={float(times[bad][0])!r}")
    return table


def _rkmk4_step(sys, dt):
    """One RKMK4 step of a model curve, on flat lists: the function develop_curve traces.

    The input is [*q, *h~, *u], with h~ row-major and u the control at the
    step's start, midpoint and end; the output is [*q', *h~'].
    """
    k1, d = sys.k1, len(sys.coords)
    coordinates = _generator_coordinates(sys.gamma.blocks, k1)
    move, velocity = _frame_move(k1), _cayley_velocity(k1)
    zero = [0.0] * (1 if k1 == 2 else k1 * k1)           # Omega(0)

    def step(inputs):
        q, h, c = inputs[:d], inputs[d:d + k1 * k1], inputs[d + k1 * k1:]

        def flow(y, u):                                 # y = [*q, *Omega]
            # the first stage's Omega is the constant 0 and cay(0) = I
            frame = h if all(map(_zero, y[d:])) else move(h, y[d:])
            dq, gen = sys.point(y[:d], frame, u)
            return [*dq, *velocity(y[d:], coordinates(gen))]

        y = _rk4(flow, [*q, *zero], [c[:k1], c[k1:2 * k1], c[2 * k1:]], dt)
        return [*y[:d], *move(h, y[d:])]

    return step


def develop_curve(frame, structure, gamma, u, q0, dt, T, h0=None, record="full"):
    """Deterministic development of a model curve with control u(t).

    u is a sequence of k1 expressions in the single variable t. Each step is
    RKMK4 in Cayley coordinates: classical RK4 on (q, Omega) from Omega = 0,
    with dOmega/dt = (I + Omega/2) A (I - Omega/2) and the frame
    h~ cay(Omega) at every stage, then h~ <- h~ cay(Omega). The control is
    evaluated once per curve, at every RK4 time, before the first step. The
    step (_rkmk4_step over _DevelopSystem.point, the geometry program and
    the Cayley moves) is traced once per curve into one expr.Compiled
    program, which every step runs on the path's Python floats: no step
    makes a one-row array. Each stage checks its geometry, so the first
    singular one raises.
    """
    sys = _DevelopSystem(frame, structure, gamma)
    k1, d = frame.k1, frame.chart.dim
    u = [ex.parse(c) if isinstance(c, str) else c for c in u]
    if len(u) != k1:
        raise MalformedSpec(f"need {k1} control components, got {len(u)}")
    steps = _step_count(dt, T)
    control = _control_table(u, steps, dt).reshape(steps, 3 * k1)
    # Python floats: one path's step program is lowered to them
    state = [*np.asarray(q0, dtype=float).tolist(), *_prepare_h0(h0, k1).ravel().tolist()]
    return _run(_rkmk4_step(sys, dt), 3 * k1, lambda s: control[s].tolist(), state, d,
                steps, dt, record, "develop_curve step", frame.chart)


def simulate_popp(frame, structure, q0, config, record="endpoints"):
    """Direct diffusion with generator half the Popp sub-Laplacian.

    Stratonovich dq = sum_i X_i(q) o db^i + (1/2) sum_i d_i(q) X_i(q) dt
    with drift coefficients d_i = -sum_l c_il^l. The step, the geometry
    program on every path's columns, is traced once per call into one
    program.
    """
    k1, d = frame.k1, frame.chart.dim

    def flow(q, dw):
        rows, drift = structure._horizontal_at(dict(zip(frame.chart.coords, q)))
        w = [b + 0.5 * c * config.dt for b, c in zip(dw, drift)]
        return [_dot(row, w) for row in rows]

    state = [np.full(config.paths, c) for c in np.asarray(q0, dtype=float)]
    return _simulate(flow, _add, state, d, k1, config, record, "simulate_popp step",
                     frame.chart)


def check_finite(path):
    if not np.all(np.isfinite(path.points)):
        raise NonFinite("simulation produced non-finite states")
    return path
