"""Coordinate-chart machinery: frames, structure constants, sub-Laplacians.

A sub-Riemannian structure is described in a single chart by an adapted
frame (X_1, ..., X_n) with a declared growth vector; the first k_1 fields
are an orthonormal basis of the distribution. All pointwise computations
are vectorized over arrays of sample points.

Vector fields are evaluated on one path: their components are lowered into
one shared-subexpression ``expr.Compiled`` call (``field_values``). What the
simulators need at every step, the horizontal fields X_1..X_k1 and the Popp
drift div_i = sum_l c_li^l, is compiled once per StructureField (the drift
in the closed form d_a X_i^a - X_i(det X)/det X), and so are the frame
and its brackets. Where the drift is evaluated, in a step or in
``divergence``, det X and the drift are checked (``expr.check``).
The full structure functions c_ij^k come from a batched linear solve of
the evaluated brackets in the evaluated frame and serve the one-off checks:
growth, nilpotentization and model comparison.

The connection is affine in the drift, Gamma = div P^T + offset
(ChristoffelField). Development is feasible exactly when div annihilates
ker h; solve_christoffel alone decides this, and either sets P = pinv(m) or
raises Inconsistent with a witness direction of ker h.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from .algebra import whole_number
from .errors import (Inconsistent, MalformedSpec, ModelMismatch, RankDrop,
                     SingularFrame, UnknownIdentifier)

TAU = 2.0 * math.pi
# the SingularFrame messages of the checks on det X and the Popp drift
FRAME_SINGULAR = "frame matrix singular at a sample point"
DRIFT_NOT_FINITE = "Popp drift not finite at a sample point"


# ---------------------------------------------------------------------------
# Charts and frames
# ---------------------------------------------------------------------------

def _is_interval(bounds):
    """Whether bounds is a pair (lo, hi) of finite numbers with lo < hi."""
    try:
        lo, hi = map(float, bounds)
    except (TypeError, ValueError):
        return False
    return -math.inf < lo < hi < math.inf


@dataclass(frozen=True)
class Chart:
    """A single coordinate chart with a sampling box for numeric checks."""

    coords: tuple            # coordinate names
    periodic: tuple = ()     # subset of coords identified mod 2*pi
    box: tuple = None        # per-coordinate (lo, hi); defaults below

    def __post_init__(self):
        for p in self.periodic:
            if p not in self.coords:
                raise MalformedSpec(f"periodic coordinate {p!r} not in chart")
        if self.box is not None and (len(self.box) != len(self.coords)
                                     or not all(map(_is_interval, self.box))):
            raise MalformedSpec("box must give one (lo, hi) per coordinate, finite, lo < hi")
        object.__setattr__(self, "_periodic_cols", tuple(
            i for i, name in enumerate(self.coords) if name in self.periodic))

    @property
    def dim(self):
        return len(self.coords)

    def bounds(self):
        if self.box is not None:
            return tuple(tuple(map(float, b)) for b in self.box)
        return tuple((0.0, TAU) if c in self.periodic else (-1.0, 1.0)
                     for c in self.coords)

    def env(self, points):
        """Map coordinate names to the columns of a (P, d) point array."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return {name: points[:, i] for i, name in enumerate(self.coords)}

    def sample_points(self, count=100, seed=0):
        rng = np.random.default_rng(seed)
        b = np.array(self.bounds())
        return rng.uniform(b[:, 0], b[:, 1], size=(count, self.dim))


def parse_component(text, chart):
    """Parse one frame component and reject unknown identifiers early."""
    e = ex.parse(text)
    extra = e.variables() - set(chart.coords)
    if extra:
        raise UnknownIdentifier(
            f"expression uses {sorted(extra)} not in chart {chart.coords}")
    return e


def apply_field(field, f, chart):
    """Directional derivative X(f) as an Expr; field is a component tuple."""
    out = ex.Const(0.0)
    for comp, name in zip(field, chart.coords):
        out = ex.add(out, ex.mul(comp, f.diff(name)))
    return out


def lie_bracket(x, y, chart):
    """[X, Y]^b = sum_a (X^a d_a Y^b - Y^a d_a X^b), symbolically."""
    out = []
    for b in range(chart.dim):
        term = ex.sub(apply_field(x, y[b], chart), apply_field(y, x[b], chart))
        out.append(term)
    return tuple(out)


@dataclass(frozen=True)
class FrameField:
    """An adapted frame: n = dim M vector fields with a declared growth vector.

    fields[i] is the component tuple of X_{i+1}; growth is cumulative,
    growth[-1] == chart.dim, and X_1..X_{k_l} are declared to span the l-th
    filtration subspace.
    """

    chart: Chart
    fields: tuple            # n tuples of Expr, each of length chart.dim
    growth: tuple

    def __post_init__(self):
        if self.growth[-1] != self.chart.dim or len(self.fields) != self.chart.dim:
            raise MalformedSpec(
                f"need {self.chart.dim} fields and growth ending at the chart "
                f"dimension, got {len(self.fields)} fields, growth {self.growth}")
        if list(self.growth) != sorted(set(self.growth)):
            raise MalformedSpec(f"growth must be strictly increasing: {self.growth}")

    @property
    def n(self):
        return self.chart.dim

    @property
    def k1(self):
        return self.growth[0]

    def degree(self, i):
        """Layer (1-based) of frame index i (0-based)."""
        for l, k in enumerate(self.growth):
            if i < k:
                return l + 1
        raise IndexError(i)

    def to_spec(self):
        return {
            "chart": {
                "coords": list(self.chart.coords),
                "periodic": list(self.chart.periodic),
                "box": [list(b) for b in self.chart.bounds()],
            },
            "growth": list(self.growth),
            "frame": [[str(c) for c in field] for field in self.fields],
        }


def _components(fields):
    """Components of m fields in (P, d, m) order: row a, then column j."""
    return [field[a] for a in range(len(fields[0])) for field in fields]


def _evaluate(compiled, chart, points):
    """The outputs of compiled at points as one (outputs, P) array, written
    one contiguous row each (an output that folds to a constant fills its row)."""
    env = chart.env(points)
    vals = compiled(env)
    out = np.empty((len(vals), len(next(iter(env.values())))))
    for i, v in enumerate(vals):
        out[i] = v
    return out


def _field_array(program, chart, points):
    """The m fields compiled in program from _components at points: (P, d, m)."""
    vals = _evaluate(program, chart, points)
    return vals.T.reshape(-1, chart.dim, len(vals) // chart.dim)


def field_values(fields, chart, points):
    """Vector fields at points: shape (P, d, m), column j = fields[j].

    Every component of every field is lowered into one Compiled call, so a
    subtree shared between components is evaluated once.
    """
    return _field_array(ex.Compiled(_components(fields), "field_values"), chart, points)


def build_frame(spec):
    """Construct a FrameField from the JSON manifold description."""
    try:
        chart_spec = spec["chart"]
        coords = tuple(chart_spec["coords"])
        periodic = tuple(chart_spec.get("periodic", ()))
        box = tuple(map(tuple, chart_spec.get("box") or ())) or None
        growth = tuple(whole_number(k) for k in spec["growth"])
        rows = [list(row) for row in spec["frame"]]
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedSpec(f"manifold spec missing or invalid field: {e}") from None
    chart = Chart(coords=coords, periodic=periodic, box=box)
    fields = []
    for r, row in enumerate(rows):
        if len(row) != len(coords):
            raise MalformedSpec(
                f"frame row {r + 1} has {len(row)} components, chart has "
                f"{len(coords)} coordinates")
        if not all(isinstance(t, str) for t in row):
            raise MalformedSpec(f"frame row {r + 1}: components must be strings, got {row}")
        fields.append(tuple(parse_component(t, chart) for t in row))
    return FrameField(chart=chart, fields=tuple(fields), growth=growth)


# ---------------------------------------------------------------------------
# Structure constants
# ---------------------------------------------------------------------------

def _determinant(rows):
    """Cofactor expansion of a square matrix of Exprs along its first row."""
    if len(rows) == 1:
        return rows[0][0]
    out = ex.Const(0.0)
    for j, head in enumerate(rows[0]):
        term = ex.mul(head, _determinant([r[:j] + r[j + 1:] for r in rows[1:]]))
        out = ex.add(out, term) if j % 2 == 0 else ex.sub(out, term)
    return out


def _popp_divergence(frame):
    """div_i = sum_l c_li^l for i <= k1 as Exprs, and det X.

    div_i is the divergence of X_i with respect to |det X|^-1 dx, the volume
    on which the frame has unit volume: d_a X_i^a - X_i(det X) / det X.
    """
    chart = frame.chart
    det = _determinant(frame.fields)
    out = []
    for field in frame.fields[:frame.k1]:
        trace = ex.Const(0.0)
        for comp, name in zip(field, chart.coords):
            trace = ex.add(trace, comp.diff(name))
        out.append(ex.sub(trace, ex.div(apply_field(field, det, chart), det)))
    return out, det


class StructureField:
    """Pointwise structure functions c_ij^k with [X_i, X_j] = sum_k c_ij^k X_k.

    Every evaluation goes through programs compiled once, on first use. The
    horizontal fields and the Popp drift sum_l c_li^l, from the closed form
    of _popp_divergence, are one shared-subexpression evaluation
    (``_horizontal_at`` in a step, ``divergence`` on points). The full c_ij^k
    (``at``) evaluate the frame and the symbolic brackets in one more and
    expand the brackets in the frame by a batched linear solve at each point.
    """

    def __init__(self, frame):
        # a constant inf or nan can drop out of det X (0 * inf folds to 0),
        # so the per-point checks would not see it
        for i, field in enumerate(frame.fields):
            for coord, c in zip(frame.chart.coords, field):
                if isinstance(c, ex.Const) and not math.isfinite(c.value):
                    raise SingularFrame(f"X{i + 1} has the non-finite constant component "
                                        f"{coord} = {c.value}")
        self.frame = frame
        n = frame.n
        self._pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self._brackets = tuple(
            lie_bracket(frame.fields[i], frame.fields[j], frame.chart)
            for i, j in self._pairs)

    @functools.cached_property
    def _horizontal(self):
        # built on first use: checks that only call at / residual never need it
        div, det = _popp_divergence(self.frame)
        return ex.Compiled(_components(self.frame.fields[:self.frame.k1]) + div + [det],
                           "StructureField._horizontal")

    @functools.cached_property
    def _frame_and_brackets(self):
        return ex.Compiled(_components((*self.frame.fields, *self._brackets)),
                           "StructureField frame and brackets")

    def _horizontal_at(self, env):
        """The d rows of X_1..X_k1 at env (row a holds their a-th components)
        and the k1 drift values, from _horizontal. It checks det X nonzero
        and the drift finite with ex.check: on traced values the program
        raises SingularFrame, on any other at once."""
        vals = self._horizontal(env)
        k1 = self.frame.k1
        dk = len(vals) - k1 - 1
        ex.check("nonzero", vals[-1:], SingularFrame(FRAME_SINGULAR))
        ex.check("finite", vals[dk:-1], SingularFrame(DRIFT_NOT_FINITE))
        return [vals[a:a + k1] for a in range(0, dk, k1)], vals[dk:-1]

    def _solve(self, points):
        """Frame matrix X, bracket columns B (one per i < j) and X^-1 B at
        points; SingularFrame where X is singular or X^-1 B is not finite."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = _field_array(self._frame_and_brackets, self.frame.chart, points)
            frame_m, rhs = vals[:, :, :self.frame.n], vals[:, :, self.frame.n:]
            try:
                sol = np.linalg.solve(frame_m, rhs)
            except np.linalg.LinAlgError:
                raise SingularFrame(FRAME_SINGULAR) from None
        if not np.all(np.isfinite(sol)):
            raise SingularFrame("frame solve produced non-finite coefficients")
        return frame_m, rhs, sol

    def at(self, points):
        """c array of shape (P, n, n, n), antisymmetric in the first two."""
        sol = self._solve(points)[2]
        n = self.frame.n
        c = np.zeros((len(sol), n, n, n))
        for col, (i, j) in enumerate(self._pairs):
            c[:, i, j, :] = sol[:, :, col]
            c[:, j, i, :] = -sol[:, :, col]
        return c

    def residual(self, points):
        """Max relative residual of [X_i, X_j] = sum c_ij^k X_k at points."""
        frame_m, rhs, sol = self._solve(points)
        recon = frame_m @ sol
        scale = 1.0 + np.abs(rhs).max()
        return float(np.abs(recon - rhs).max() / scale)

    def divergence(self, points):
        """div_i = sum_l c_li^l for i <= k1 at points, shape (P, k1).

        Raises SingularFrame where det X vanishes or the drift is not finite.
        """
        dk = self.frame.chart.dim * self.frame.k1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = _evaluate(self._horizontal, self.frame.chart, points)
        ex.check("nonzero", vals[-1:], SingularFrame(FRAME_SINGULAR))
        ex.check("finite", vals[dk:-1], SingularFrame(DRIFT_NOT_FINITE))
        return np.ascontiguousarray(vals[dk:-1].T)


# ---------------------------------------------------------------------------
# Growth and equinilpotency
# ---------------------------------------------------------------------------

@dataclass
class GrowthReport:
    growth: tuple
    graded_constant: bool
    max_graded_variation: float


def _graded(frame):
    """Triples (i, j, k), i < j, with deg k = deg i + deg j: the graded c_ij^k."""
    n = frame.n
    return [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)
            if frame.degree(k) == frame.degree(i) + frame.degree(j)]


def _rank_range(m):
    """Least and greatest rank over the points of a (P, d, m) field stack."""
    r = np.linalg.matrix_rank(m, tol=1e-8)
    return int(r.min()), int(r.max())


def adapted_growth(frame, structure, points=None, tol=1e-9):
    """Verify filtration ranks and constancy of the graded structure functions.

    Raises RankDrop when the computed growth vector differs from the declared
    one at any sample point or varies across points.
    """
    if points is None:
        points = frame.chart.sample_points(40, seed=1)
    chart = frame.chart
    layers = [list(frame.fields[:frame.k1])]
    for _ in range(len(frame.growth) - 1):
        layers.append([lie_bracket(x, y, chart) for x in layers[0] for y in layers[-1]])
    cols = field_values([f for layer in layers for f in layer], chart, points)
    growth = []
    for c in np.cumsum([len(l) for l in layers]):
        lo, hi = _rank_range(cols[:, :, :c])
        if lo != hi:
            raise RankDrop(
                f"filtration rank varies across sample points at layer depth "
                f"{len(growth) + 1}: {lo}..{hi}")
        growth.append(lo)
    growth = tuple(dict.fromkeys(growth))
    if growth != frame.growth:
        raise RankDrop(
            f"computed growth {growth} differs from declared {frame.growth}")

    c = structure.at(points)
    max_var = max([0.0] + [float(np.ptp(c[:, i, j, k])) for i, j, k in _graded(frame)])
    return GrowthReport(growth=growth, graded_constant=max_var <= tol,
                        max_graded_variation=max_var)


def nilpotentization(frame, structure, points=None, tol=1e-9):
    """Extract the graded constants and build the nilpotent model algebra.

    The graded structure functions must be constant (use adapted_growth
    first); values are rationalized with bounded denominators.
    """
    from .algebra import GradedLieAlgebra, validate

    if points is None:
        points = frame.chart.sample_points(20, seed=2)
    c = structure.at(points)
    brackets = {}
    for i, j, k in _graded(frame):
        vals = c[:, i, j, k]
        if np.ptp(vals) > tol:
            raise RankDrop(
                f"graded constant c_{i+1}{j+1}^{k+1} varies across "
                f"sample points (spread {np.ptp(vals):.2e})")
        v = Fraction(float(vals.mean())).limit_denominator(10 ** 6)
        if v != 0:
            brackets.setdefault((i, j), {})[k] = v
    n = frame.n
    degree = tuple(frame.degree(i) for i in range(n))
    alg = GradedLieAlgebra(dim=n, step=len(frame.growth), growth=frame.growth,
                           degree=degree, brackets=brackets)
    validate(alg)
    return alg


# ---------------------------------------------------------------------------
# The second-order operator and the development condition
# ---------------------------------------------------------------------------

def second_order(frame, f, points, drift):
    """(sum_{i<=k1} X_i^2 f + drift_i X_i f) at points; f an Expr over the chart.

    drift, shape (P, k1), is the operator's first-order coefficient: the Popp
    drift div_i = sum_l c_li^l (StructureField.divergence) for the Popp
    sub-Laplacian, div + generator_defect for the generator of a connection.
    The 2*k1 trees X_i f and X_i(X_i f) are evaluated in one compiled call.
    """
    chart, k1 = frame.chart, frame.k1
    first = [apply_field(x, f, chart) for x in frame.fields[:k1]]
    second = [apply_field(x, xf, chart) for x, xf in zip(frame.fields, first)]
    vals = _evaluate(ex.Compiled(first + second, "second_order"), chart, points)
    out = np.zeros(len(drift))
    for i in range(k1):
        out += vals[k1 + i]
        out += drift[:, i] * vals[i]
    return out


@dataclass
class DevelopReport:
    feasible: bool
    witness_direction: tuple = None    # coefficients over X_1..X_{k1}
    witness_point: tuple = None
    witness_value: float = None
    max_violation: float = 0.0

    def to_dict(self):
        out = {"feasible": self.feasible, "max_violation": self.max_violation}
        if not self.feasible:
            out["witness_direction"] = list(self.witness_direction)
            out["witness_point"] = list(self.witness_point)
            out["witness_value"] = self.witness_value
        return out


def check_model(frame, structure, alg, points, tol=1e-9):
    """Graded structure functions must equal the model algebra's constants."""
    c = structure.at(points)
    worst = max([0.0] + [float(np.abs(c[:, i, j, k] - float(alg.c(i, j, k))).max())
                         for i, j, k in _graded(frame)])
    if worst > tol:
        raise ModelMismatch(
            f"graded structure functions deviate from the model constants by "
            f"{worst:.2e}")
    return worst


def develop_condition(frame, structure, alg, sym, points=None, tol=1e-9):
    """Feasibility of development: check_model, then solve_christoffel.

    An infeasible report carries the Inconsistent witness.
    """
    if points is None:
        points = frame.chart.sample_points(60, seed=3)
    check_model(frame, structure, alg, points, tol=tol)
    try:
        gamma = solve_christoffel(frame, structure, sym, points, tol=tol)
    except Inconsistent as e:
        return DevelopReport(False, *e.witness, max_violation=abs(e.witness[2]))
    return DevelopReport(feasible=True, max_violation=gamma.residual)


# ---------------------------------------------------------------------------
# Christoffel symbols and the generator defect
# ---------------------------------------------------------------------------

class ChristoffelField:
    """Gamma^alpha_i (alpha over symmetry generators, i <= k1): div P^T + offset.

    blocks: the layer-1 blocks A_alpha, row-major, one row per generator;
    m[i, alpha*k1+j] = (A_alpha)^j_i: the same numbers as the matrix of the
    divergence system Gamma m^T = div. P = 0 (the default) is the zero
    connection. Components with frame index > k1 are identically zero.
    """

    residual = None    # largest |div.v| over ker h, set by solve_christoffel

    def __init__(self, structure, sym, p=None, offset=0.0):
        self.structure = structure
        self.sym = sym
        self.k1 = k1 = structure.frame.k1
        self.blocks = np.array([[float(a[j][i]) for j in range(k1) for i in range(k1)]
                                for a in sym.basis]).reshape(sym.dimH, k1 * k1)
        self.m = self.blocks.reshape(sym.dimH, k1, k1).transpose(2, 0, 1).reshape(k1, -1)
        self.p = np.zeros((sym.dimH * k1, k1)) if p is None else p
        self.offset = offset

    def at(self, points, div=None):
        """Gamma values of shape (P, dimH, k1).

        div, when given, is the Popp drift at points (StructureField.divergence
        of the same frame), so a caller that has it is spared its evaluation.
        """
        if div is None:
            div = self.structure.divergence(points)  # (P, k1)
        return (div @ self.p.T).reshape(len(div), self.sym.dimH, self.k1) + self.offset

    def perturbed(self, delta):
        """The same field with a constant offset added (negative-control tool)."""
        return ChristoffelField(self.structure, self.sym, self.p,
                                self.offset + np.asarray(delta, dtype=float))


def solve_christoffel(frame, structure, sym, points=None, tol=1e-9):
    """Minimum-norm Christoffel symbols, P = pinv(m), or Inconsistent with a witness.

    Gamma m^T = div is solvable exactly when div is orthogonal to
    ker m^T = ker h: div.v = 0 at every point for each rational basis
    direction v of ker h. The field carries residual, the largest |div.v|.
    """
    if points is None:
        points = frame.chart.sample_points(60, seed=4)
    points = np.atleast_2d(points)
    div = structure.divergence(points)
    residual = 0.0
    for v in sym.kerH:
        vv = np.array([float(x) for x in v])
        contr = div @ vv
        bad = int(np.abs(contr).argmax())
        residual = max(residual, float(abs(contr[bad])))
        if abs(contr[bad]) > tol:
            index = int(np.abs(vv).argmax()) + 1
            raise Inconsistent(
                f"no Christoffel symbols solve the divergence system at frame "
                f"index {index} (residual {abs(contr[bad]):.2e})", index=index,
                witness=(tuple(vv.tolist()), tuple(points[bad].tolist()),
                         float(contr[bad])))
    gamma = ChristoffelField(structure, sym)
    gamma.p = np.linalg.pinv(gamma.m)
    gamma.residual = residual
    return gamma


def generator_defect(gamma, points):
    """defect_i(q) = sum_{alpha,j} Gamma^alpha_j (A_alpha)^j_i - sum_l c_li^l.

    The operator built from Gamma differs from the Popp sub-Laplacian by
    sum_i defect_i X_i: its second_order drift is div + defect.
    """
    div = gamma.structure.divergence(points)
    return gamma.at(points, div).reshape(len(div), -1) @ gamma.m.T - div


# ---------------------------------------------------------------------------
# Riemannian cross-check
# ---------------------------------------------------------------------------

def levi_civita_check(frame, structure, points=None):
    """Compare the connection-drift and divergence-drift pipelines.

    Riemannian case (growth (n,)): the orthonormal-frame Christoffel symbols
    G^k_ij = (c^k_ij - c^i_jk + c^j_ki)/2 give drift_i = sum_j G^j_ji, which
    must match the structure-constant drift sum_l c_li^l. Returns the
    largest difference of the two drifts over the points.
    """
    if len(frame.growth) != 1:
        raise ModelMismatch("the Riemannian cross-check needs growth (n,)")
    if points is None:
        points = frame.chart.sample_points(60, seed=5)
    c = structure.at(points)
    # G[p, i, j, k] = Gamma^k_{ij} with nabla_{X_i} X_j = Gamma^k_{ij} X_k
    g = 0.5 * (c - np.einsum("pbca->pabc", c) + np.einsum("pcab->pabc", c))
    drift1 = np.einsum("pjij->pi", g)
    return float(np.abs(drift1 - structure.divergence(points)).max())


# ---------------------------------------------------------------------------
# Prolongation
# ---------------------------------------------------------------------------

def prolong(frame):
    """Prolong two horizontal fields by an angle coordinate.

    Produces Y_1 = d/d(angle), Y_2 = cos(angle) X_1 + sin(angle) X_2 on
    chart x S^1 and completes to an adapted frame by iterated brackets,
    adding each bracket that raises the pointwise rank at 40 sample points.
    The angle is the first of t1, t2, ... not in the chart.
    """
    chart = frame.chart
    k = 1
    while f"t{k}" in chart.coords:
        k += 1
    angle = f"t{k}"
    new_chart = Chart(coords=chart.coords + (angle,),
                      periodic=chart.periodic + (angle,),
                      box=chart.bounds() + ((0.0, TAU),))
    zero = ex.Const(0.0)
    cos_a, sin_a = ex.Call("cos", ex.Var(angle)), ex.Call("sin", ex.Var(angle))

    def lift(field):
        return tuple(field) + (zero,)

    y1 = tuple(zero for _ in chart.coords) + (ex.Const(1.0),)
    x1, x2 = (lift(frame.fields[0]), lift(frame.fields[1]))
    y2 = tuple(ex.add(ex.mul(cos_a, a), ex.mul(sin_a, b))
               for a, b in zip(x1, x2))

    points = new_chart.sample_points(40, seed=6)
    fields = [y1, y2]
    growth = [2]
    frontier = [y1, y2]
    while len(fields) < new_chart.dim:
        added = []
        for base in (y1, y2):
            for f in frontier:
                cand = lie_bracket(base, f, new_chart)
                lo, hi = _rank_range(field_values(fields + [cand], new_chart, points))
                if lo != hi:
                    raise RankDrop("prolonged frame rank varies across samples")
                if lo > len(fields):
                    fields.append(cand)
                    added.append(cand)
        if not added:
            raise RankDrop(
                f"brackets stopped raising the rank at {len(fields)} < "
                f"{new_chart.dim}")
        growth.append(len(fields))
        frontier = added
    lo, hi = _rank_range(field_values(fields, new_chart, points))
    if lo != new_chart.dim:
        raise RankDrop("prolonged frame does not reach full rank")
    return FrameField(chart=new_chart, fields=tuple(fields),
                      growth=tuple(growth))

