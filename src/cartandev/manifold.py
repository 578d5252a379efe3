"""Coordinate-chart machinery: frames, structure constants, sub-Laplacians.

A sub-Riemannian structure is described in a single chart by an adapted
frame (X_1, ..., X_n) with a declared growth vector; the first k_1 fields
are an orthonormal basis of the distribution. All pointwise computations
are vectorized over arrays of sample points.

Vector fields are evaluated on one path: their components are lowered into
one shared-subexpression ``expr.Compiled`` call (``field_values``). What the
simulators need at every step, the horizontal fields X_1..X_k1 and the Popp
drift div_i = sum_l c_li^l, is compiled once per StructureField (the drift
in the closed form d_a X_i^a - X_i(det X)/det X). The full structure
functions c_ij^k come from a batched linear solve of the evaluated brackets
in the evaluated frame and serve the one-off checks: growth,
nilpotentization, model comparison and the Levy form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from .errors import (Inconsistent, KernelNotOneDimensional, MalformedSpec,
                     ModelMismatch, RankDrop, SingularFrame, UnknownIdentifier)

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Charts and frames
# ---------------------------------------------------------------------------

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
        if self.box is not None and len(self.box) != len(self.coords):
            raise MalformedSpec("box must give one (lo, hi) per coordinate")
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

    def wrap(self, points):
        """Reduce periodic coordinates mod 2*pi (in place on a copy)."""
        points = np.array(points, dtype=float)
        for i in self._periodic_cols:
            points[..., i] %= TAU
        return points

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

    @property
    def step(self):
        return len(self.growth)

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


def _columns(vals, p, d, m):
    """(P, d, m) array from m*d field-major values: column j, row a = vals[j*d + a]."""
    out = np.empty((p, d, m))
    for j in range(m):
        for a in range(d):
            out[:, a, j] = vals[j * d + a]
    return out


def field_values(fields, chart, points):
    """Vector fields at points: shape (P, d, m), column j = fields[j].

    Every component of every field is lowered into one Compiled call, so a
    subtree shared between components is evaluated once.
    """
    env = chart.env(points)
    vals = ex.Compiled([comp for field in fields for comp in field])(env)
    return _columns(vals, len(next(iter(env.values()))), chart.dim, len(fields))


def build_frame(spec):
    """Construct a FrameField from the JSON manifold description."""
    try:
        chart_spec = spec["chart"]
        coords = tuple(chart_spec["coords"])
        periodic = tuple(chart_spec.get("periodic", ()))
        box = chart_spec.get("box")
        growth = tuple(int(k) for k in spec["growth"])
        rows = spec["frame"]
    except (KeyError, TypeError) as e:
        raise MalformedSpec(f"manifold spec missing field: {e}") from None
    chart = Chart(coords=coords, periodic=periodic,
                  box=tuple(tuple(b) for b in box) if box else None)
    fields = []
    for r, row in enumerate(rows):
        if len(row) != len(coords):
            raise MalformedSpec(
                f"frame row {r + 1} has {len(row)} components, chart has "
                f"{len(coords)} coordinates")
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

    Every evaluation goes through compiled trees. The horizontal fields and
    the Popp drift sum_l c_li^l are compiled once, on first use, from the
    closed form of _popp_divergence, into one shared-subexpression evaluation
    (``horizontal``). The full c_ij^k (``at``) evaluate the frame and the
    symbolic brackets in one field_values call and expand the brackets in
    the frame by a batched linear solve at each point.
    """

    def __init__(self, frame):
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
        return ex.Compiled(
            [c for field in self.frame.fields[:self.frame.k1] for c in field] + div + [det])

    def horizontal(self, points):
        """X_1..X_k1 and the Popp drift at points: shapes (P, d, k1), (P, k1).

        Raises SingularFrame where det X vanishes or the drift is not finite.
        """
        d, k1 = self.frame.chart.dim, self.frame.k1
        env = self.frame.chart.env(points)
        p = len(next(iter(env.values())))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = self._horizontal(env)
        x = _columns(vals, p, d, k1)
        div = np.empty((p, k1))
        for i in range(k1):
            div[:, i] = vals[k1 * d + i]
        if not np.all(vals[-1] != 0):
            raise SingularFrame("frame matrix singular at a sample point")
        if not np.isfinite(div).all():
            raise SingularFrame("Popp drift not finite at a sample point")
        return x, div

    def _solve(self, points):
        """Frame matrix X, bracket columns B (one per i < j) and X^-1 B at points."""
        vals = field_values((*self.frame.fields, *self._brackets), self.frame.chart, points)
        frame_m, rhs = vals[:, :, :self.frame.n], vals[:, :, self.frame.n:]
        try:
            return frame_m, rhs, np.linalg.solve(frame_m, rhs)
        except np.linalg.LinAlgError:
            raise SingularFrame("frame matrix singular at a sample point") from None

    def at(self, points):
        """c array of shape (P, n, n, n), antisymmetric in the first two."""
        sol = self._solve(points)[2]
        if not np.all(np.isfinite(sol)):
            raise SingularFrame("frame solve produced non-finite coefficients")
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
        """div_i = sum_l c_li^l for i <= k1, shape (P, k1)."""
        return self.horizontal(points)[1]


# ---------------------------------------------------------------------------
# Growth and equinilpotency
# ---------------------------------------------------------------------------

@dataclass
class GrowthReport:
    growth: tuple
    declared: tuple
    graded_constant: bool
    max_graded_variation: float

    @property
    def ok(self):
        return self.growth == self.declared and self.graded_constant


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
    return GrowthReport(growth=growth, declared=frame.growth,
                        graded_constant=max_var <= tol,
                        max_graded_variation=max_var)


def nilpotentization(frame, structure, points=None, tol=1e-9, max_den=10 ** 6):
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
        v = Fraction(float(vals.mean())).limit_denominator(max_den)
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
    drift div_i = sum_l c_li^l (StructureField.horizontal) for the Popp
    sub-Laplacian, div + generator_defect for the generator of a connection.
    The 2*k1 trees X_i f and X_i(X_i f) are evaluated in one compiled call.
    """
    chart, k1 = frame.chart, frame.k1
    first = [apply_field(x, f, chart) for x in frame.fields[:k1]]
    second = [apply_field(x, xf, chart) for x, xf in zip(frame.fields, first)]
    vals = ex.Compiled(first + second)(chart.env(points))
    p = len(drift)
    out = np.zeros(p)
    for i in range(k1):
        out += np.broadcast_to(vals[k1 + i], (p,))
        out += drift[:, i] * np.broadcast_to(vals[i], (p,))
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
    """Feasibility of development: directions in ker h must be divergence-free.

    For each rational basis direction v of ker h the contraction
    sum_i v_i sum_l c_li^l must vanish at every sample point.
    """
    if points is None:
        points = frame.chart.sample_points(60, seed=3)
    check_model(frame, structure, alg, points, tol=tol)
    if not sym.kerH:
        return DevelopReport(feasible=True)
    div = structure.divergence(points)          # (P, k1)
    worst = 0.0
    for v in sym.kerH:
        vv = np.array([float(x) for x in v])
        contr = div @ vv
        bad = int(np.abs(contr).argmax())
        worst = max(worst, float(np.abs(contr[bad])))
        if abs(contr[bad]) > tol:
            return DevelopReport(
                feasible=False,
                witness_direction=tuple(float(x) for x in v),
                witness_point=tuple(float(x) for x in np.atleast_2d(points)[bad]),
                witness_value=float(contr[bad]),
                max_violation=worst)
    return DevelopReport(feasible=True, max_violation=worst)


# ---------------------------------------------------------------------------
# Christoffel symbols and the generator defect
# ---------------------------------------------------------------------------

class ChristoffelField:
    """Gamma^alpha_i (alpha over symmetry generators, i <= k1) as functions.

    Built as the minimum-norm solution of
        sum_{alpha, j<=k1} Gamma^alpha_j (A_alpha)^j_i = sum_l c_li^l(q)
    at each point; components with frame index > k1 are identically zero.
    """

    def __init__(self, sym, k1, structure=None, pinv=None, constant=None):
        self.sym = sym
        self.k1 = k1
        self.structure = structure
        self._pinv = pinv
        self._constant = constant

    @classmethod
    def zero(cls, sym, k1):
        return cls(sym, k1, constant=np.zeros((max(sym.dimH, 0), k1)))

    def at(self, points, div=None):
        """Gamma values of shape (P, dimH, k1).

        div, when given, is the Popp drift at points (StructureField.horizontal
        of the same frame), so a caller that has it is spared its evaluation.
        """
        points = np.atleast_2d(points)
        p = len(points)
        if self._constant is not None:
            return np.broadcast_to(self._constant, (p,) + self._constant.shape)
        if div is None:
            div = self.structure.divergence(points)  # (P, k1)
        flat = div @ self._pinv.T                    # (P, dimH*k1)
        return flat.reshape(p, self.sym.dimH, self.k1)

    def perturbed(self, delta):
        """A new field with a constant offset added (negative-control tool)."""
        parent = self

        class _Perturbed(ChristoffelField):
            def at(self, points, div=None):
                return parent.at(points, div) + np.asarray(delta, dtype=float)

        return _Perturbed(self.sym, self.k1)


def christoffel_matrix(sym, k1):
    """Constant matrix M[i, alpha*k1+j] = (A_alpha)^j_i of the linear system."""
    m = np.zeros((k1, sym.dimH * k1))
    for alpha, a in enumerate(sym.basis):
        for j in range(k1):
            for i in range(k1):
                m[i, alpha * k1 + j] = float(a[j][i])
    return m


def solve_christoffel(frame, structure, sym, points=None, tol=1e-9):
    """Minimum-norm Christoffel symbols; Inconsistent if no exact solution."""
    if points is None:
        points = frame.chart.sample_points(60, seed=4)
    k1 = frame.k1
    m = christoffel_matrix(sym, k1)
    pinv = np.linalg.pinv(m) if sym.dimH else np.zeros((0, k1))
    div = structure.divergence(points)
    resid = div @ (m @ pinv).T - div if sym.dimH else -div
    if np.abs(resid).max() > tol:
        p, i = np.unravel_index(np.abs(resid).argmax(), resid.shape)
        raise Inconsistent(
            f"no Christoffel symbols solve the divergence system at frame "
            f"index {i + 1} (residual {abs(resid[p, i]):.2e})",
            index=int(i) + 1)
    return ChristoffelField(sym, k1, structure=structure, pinv=pinv)


def generator_defect(structure, sym, gamma, points):
    """defect_i(q) = sum_{alpha,j} Gamma^alpha_j (A_alpha)^j_i - sum_l c_li^l.

    The operator built from Gamma differs from the Popp sub-Laplacian by
    sum_i defect_i X_i: its second_order drift is div + defect.
    """
    points = np.atleast_2d(points)
    k1 = structure.frame.k1
    div = structure.divergence(points)
    if sym.dimH:
        m = christoffel_matrix(sym, k1)
        g = gamma.at(points).reshape(len(points), -1)
        lhs = g @ m.T
    else:
        lhs = np.zeros_like(div)
    return lhs - div


# ---------------------------------------------------------------------------
# Riemannian cross-check
# ---------------------------------------------------------------------------

@dataclass
class LeviCivitaReport:
    max_difference: float
    drift_connection: np.ndarray
    drift_divergence: np.ndarray


def levi_civita_check(frame, structure, points=None):
    """Compare the connection-drift and divergence-drift pipelines.

    Riemannian case (growth (n,)): the orthonormal-frame Christoffel symbols
    G^k_ij = (c^k_ij - c^i_jk + c^j_ki)/2 give drift_i = sum_j G^j_ji, which
    must match the structure-constant drift sum_l c_li^l.
    """
    if len(frame.growth) != 1:
        raise ModelMismatch("the Riemannian cross-check needs growth (n,)")
    if points is None:
        points = frame.chart.sample_points(60, seed=5)
    c = structure.at(points)
    # G[p, i, j, k] = Gamma^k_{ij} with nabla_{X_i} X_j = Gamma^k_{ij} X_k
    g = 0.5 * (c - np.einsum("pbca->pabc", c) + np.einsum("pcab->pabc", c))
    drift1 = np.einsum("pjij->pi", g)
    drift2 = structure.divergence(points)
    diff = float(np.abs(drift1 - drift2).max())
    return LeviCivitaReport(max_difference=diff,
                            drift_connection=drift1,
                            drift_divergence=drift2)


# ---------------------------------------------------------------------------
# Prolongation and the Levy form
# ---------------------------------------------------------------------------

def prolong(frame, angle=None, points=None):
    """Prolong two horizontal fields by an angle coordinate.

    Produces Y_1 = d/d(angle), Y_2 = cos(angle) X_1 + sin(angle) X_2 on
    chart x S^1 and completes to an adapted frame by iterated brackets,
    adding each bracket that raises the pointwise rank.
    """
    chart = frame.chart
    if angle is None:
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

    if points is None:
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
