"""Exact-arithmetic graded nilpotent Lie algebras and their symmetries.

All structural data is kept as ``Fraction``; floating point never enters
this module. Basis indices are 0-based internally; the JSON interchange
format is 1-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import ratlinalg as rl
from .errors import (ClosureFailure, GradingViolation, JacobiViolation,
                     MalformedSpec, NotBracketGenerating, SurjectivityFailure)

ZERO = Fraction(0)


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise MalformedSpec(f"not a rational coefficient: {x!r}")


def whole_number(x):
    """x as an int; a float that is not a whole number raises ValueError,
    where int() would truncate it."""
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"not a whole number: {x!r}")
    return int(x)


class _SparseBrackets:
    """Basis brackets read from ``brackets``, which holds c_ij^k for i < j."""

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a sparse {index: coeff} map."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -v for k, v in self.brackets.get((j, i), {}).items()}


@dataclass(frozen=True)
class GradedLieAlgebra(_SparseBrackets):
    """A stratified nilpotent Lie algebra with exact structure constants.

    growth is cumulative: growth[i-1] = dim of the sum of the first i layers,
    so growth[-1] == dim. degree[k] is the layer (1-based) of basis vector k.
    brackets stores c_ij^k for i < j only; antisymmetry is implied.
    """

    dim: int
    step: int
    growth: tuple
    degree: tuple
    brackets: dict = field(hash=False)

    def layer(self, l):
        """Indices of the basis vectors spanning layer l (1-based)."""
        lo = 0 if l == 1 else self.growth[l - 2]
        return range(lo, self.growth[l - 1])

    def c(self, i, j, k):
        if i == j:
            return ZERO
        if i < j:
            return self.brackets.get((i, j), {}).get(k, ZERO)
        return -self.brackets.get((j, i), {}).get(k, ZERO)

    def to_spec(self):
        """The JSON-interchange dict (1-based indices, rationals as strings)."""
        br = {}
        for (i, j), row in sorted(self.brackets.items()):
            entry = {}
            for k, v in sorted(row.items()):
                entry[str(k + 1)] = str(v) if v.denominator != 1 else int(v)
            if entry:
                br[f"{i + 1},{j + 1}"] = entry
        return {"dim": self.dim, "growth": list(self.growth), "brackets": br}


def _degrees_from_growth(growth):
    degree = []
    prev = 0
    for layer, g in enumerate(growth, start=1):
        if g <= prev:
            raise MalformedSpec(f"growth vector {growth} is not strictly increasing")
        degree.extend([layer] * (g - prev))
        prev = g
    return tuple(degree)


def _check_jacobi(alg):
    """Jacobi identity on every basis triple of a graded or ambient algebra."""
    n = alg.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = [ZERO] * n
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, v in alg.bracket_basis(b, c).items():
                        for m, w in alg.bracket_basis(a, l).items():
                            acc[m] += v * w
                if any(x != 0 for x in acc):
                    raise JacobiViolation(
                        f"Jacobi identity fails on basis triple (e{i+1}, e{j+1}, e{k+1})")


def _check_grading(alg):
    for (i, j), row in alg.brackets.items():
        want = alg.degree[i] + alg.degree[j]
        for k, v in row.items():
            if v != 0 and alg.degree[k] != want:
                raise GradingViolation(
                    f"[e{i+1}, e{j+1}] has a component on e{k+1} of layer "
                    f"{alg.degree[k]}, expected layer {want}")


def _check_bracket_generating(alg):
    for l in range(2, alg.step + 1):
        rows = [alg.bracket_basis(i, j) for i in alg.layer(1) for j in alg.layer(l - 1)]
        if len(rl.echelon(rows)) != len(alg.layer(l)):
            raise NotBracketGenerating(
                f"layer-1 brackets with layer {l-1} do not span layer {l}")


def validate(alg):
    """Run all structural invariants; raises on the first violation."""
    if alg.growth[-1] != alg.dim:
        raise MalformedSpec(f"growth {alg.growth} does not end at dim {alg.dim}")
    _check_grading(alg)
    _check_jacobi(alg)
    _check_bracket_generating(alg)
    return alg


def build_algebra(spec):
    """Build and validate a GradedLieAlgebra from an interchange dict.

    spec: {"dim": n, "growth": [...], "brackets": {"i,j": {"k": coeff}}}
    with 1-based indices, i < j, coefficients int or "p/q" strings.
    """
    try:
        dim = whole_number(spec["dim"])
        growth = tuple(whole_number(g) for g in spec["growth"])
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedSpec(f"missing or invalid dim/growth: {e}") from e
    if dim < 1 or not growth:
        raise MalformedSpec("dim and growth must be positive")
    degree = _degrees_from_growth(growth)
    if len(degree) != dim:
        raise MalformedSpec(f"growth {growth} incompatible with dim {dim}")
    brackets = {}
    for key, row in spec.get("brackets", {}).items():
        try:
            si, sj = key.split(",")
            i, j = int(si) - 1, int(sj) - 1
        except ValueError as e:
            raise MalformedSpec(f"bad bracket key {key!r}") from e
        if not (0 <= i < j < dim):
            raise MalformedSpec(f"bracket key {key!r} must satisfy 1 <= i < j <= dim")
        entry = {}
        for sk, coeff in row.items():
            try:
                k = int(sk) - 1
            except ValueError:
                raise MalformedSpec(f"bad bracket target {sk!r} in {key!r}") from None
            if not 0 <= k < dim:
                raise MalformedSpec(f"bracket target {sk} out of range in {key!r}")
            v = _frac(coeff)
            if v != 0:
                entry[k] = v
        if entry:
            brackets[(i, j)] = entry
    alg = GradedLieAlgebra(dim=dim, step=len(growth), growth=growth,
                           degree=degree, brackets=brackets)
    return validate(alg)


# ---------------------------------------------------------------------------
# Free nilpotent algebras via Hall bases
# ---------------------------------------------------------------------------

class _HallBasis:
    """Hall basis of the free Lie algebra, truncated at a given step.

    Elements are indices into self.elems; generators come first. A pair
    (u, v) with u < v is a Hall element iff v is a generator or
    v = [a, b] with a <= u. Ordering is degree-major, then creation order,
    which reproduces the labelling e3=[e1,e2], e4=[e1,e3], e5=[e2,e3].
    """

    def __init__(self, generators, step):
        self.step = step
        self.deg = [1] * generators
        self.parts = [None] * generators          # None marks a generator
        self.index_of = {}
        count = generators
        by_degree = {1: list(range(generators))}
        for d in range(2, step + 1):
            created = []
            for v in range(count):
                if self.deg[v] >= d:
                    continue
                for u in range(v):
                    if self.deg[u] + self.deg[v] != d:
                        continue
                    if self._is_hall_pair(u, v):
                        self.index_of[(u, v)] = len(self.deg)
                        self.deg.append(d)
                        self.parts.append((u, v))
                        created.append(len(self.deg) - 1)
            by_degree[d] = created
            count = len(self.deg)
        self.by_degree = by_degree
        self._memo = {}

    def _is_hall_pair(self, u, v):
        if not u < v:
            return False
        pv = self.parts[v]
        return pv is None or pv[0] <= u

    def expand(self, u, v):
        """[e_u, e_v] as a sparse {index: Fraction} over the Hall basis."""
        if u == v:
            return {}
        if u > v:
            return {k: -c for k, c in self.expand(v, u).items()}
        key = (u, v)
        if key in self._memo:
            return dict(self._memo[key])
        if self.deg[u] + self.deg[v] > self.step:
            result = {}
        elif key in self.index_of:
            result = {self.index_of[key]: Fraction(1)}
        else:
            # v = [a, b] with u < a; Jacobi: [u,[a,b]] = [[u,a],b] + [a,[u,b]]
            a, b = self.parts[v]
            result = {}
            for k, c in self.expand(u, a).items():
                for m, w in self.expand(k, b).items():
                    result[m] = result.get(m, ZERO) + c * w
            for k, c in self.expand(u, b).items():
                for m, w in self.expand(a, k).items():
                    result[m] = result.get(m, ZERO) + c * w
            result = {m: c for m, c in result.items() if c != 0}
        self._memo[key] = result
        return dict(result)


def free_nilpotent(generators, step):
    """Free nilpotent Lie algebra on the given generators, truncated at step."""
    if generators < 2:
        raise MalformedSpec("need at least two generators")
    if step < 1:
        raise MalformedSpec("step must be >= 1")
    hall = _HallBasis(generators, step)
    n = len(hall.deg)
    growth = []
    total = 0
    for d in range(1, step + 1):
        total += len(hall.by_degree[d])
        growth.append(total)
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = hall.expand(i, j)
            if row:
                brackets[(i, j)] = row
    alg = GradedLieAlgebra(dim=n, step=step, growth=tuple(growth),
                           degree=tuple(hall.deg), brackets=brackets)
    return validate(alg)


# ---------------------------------------------------------------------------
# Extended metric
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedMetric:
    """Block-diagonal Gram matrix of the canonical metric on the algebra.

    Each layer l carries the metric transported from the orthogonal
    complement of ker pi_l inside the l-fold tensor power of layer 1; on
    layer 1, pi_1 is the identity (the generators are orthonormal).
    """

    blocks: tuple        # one rational Gram matrix per layer

    @property
    def dual_blocks(self):
        """The Gram blocks of the dual metric on n*: each block's inverse."""
        return [rl.invert(b) for b in self.blocks]


def extend_metric(alg):
    """Extended metric from least-norm preimages of iterated brackets.

    For layer l, the Gram matrix equals (P P^T)^-1 where P is the matrix of
    pi_l on degree-1 tensor monomials: its columns are the left-nested
    brackets, which lie in layer l.
    """
    k1 = alg.growth[0]
    blocks = []
    for l in range(1, alg.step + 1):
        lo, dim = alg.layer(l).start, len(alg.layer(l))
        cols = []
        for tup in itertools.product(range(k1), repeat=l):
            # left-nested bracket [e_{t0}, [e_{t1}, ... [e_{t_{l-2}}, e_{t_{l-1}}]]],
            # one ad e_idx at a time: vec times the rows [e_idx, e_j] for j in vec
            vec = {tup[-1]: Fraction(1)}
            for idx in reversed(tup[:-1]):
                vec = rl.product([vec], {j: alg.bracket_basis(idx, j) for j in vec})[0]
            cols.append({k - lo: x for k, x in vec.items()})
        ppt = rl.product(rl.columns(cols, dim), cols)
        try:
            blocks.append(rl.invert(rl.dense(ppt, dim)))
        except ValueError as e:
            raise SurjectivityFailure(
                f"pi_{l} is not onto layer {l} (bracket-generating violated)") from e
    return ExtendedMetric(blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# Symmetry algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryAlgebra:
    """Basis of the metric-preserving derivations, with its layer-1 kernel."""

    basis: tuple         # n x n rational matrices
    kerH: tuple          # rational basis vectors of ker h inside layer 1 (length k1)
    k1: int

    @property
    def dimH(self):
        return len(self.basis)

    @property
    def k0(self):
        return self.k1 - len(self.kerH)


def symmetry_algebra(alg, metric=None):
    """Solve for all grading-preserving skew derivations of the algebra.

    Unknowns are the per-layer blocks of an n x n matrix A; constraints are
    skewness of the layer-1 block and the derivation identity on all basis
    pairs. Returns a canonical (echelonized) basis of the solution space.
    Skewness is for the identity Gram matrix on layer 1, so a metric whose
    layer-1 block is not the identity is rejected with MalformedSpec.
    """
    k1 = alg.growth[0]
    if metric is not None and [list(r) for r in metric.blocks[0]] != [
            [int(r == c) for c in range(k1)] for r in range(k1)]:
        raise MalformedSpec(
            "symmetry_algebra needs a metric with an orthonormal layer 1 "
            "(identity layer-1 block)")
    n = alg.dim
    # unknown slots: entries (r, c) within a common layer
    slots = [(r, c) for r in range(n) for c in range(n)
             if alg.degree[r] == alg.degree[c]]
    slot_id = {rc: i for i, rc in enumerate(slots)}
    rows = []

    def add_row(coeffs):
        if not coeffs.keys() <= slot_id.keys():
            raise AssertionError("constraint touches a non-slot entry")
        rows.append({slot_id[rc]: v for rc, v in coeffs.items()})

    # skewness of the layer-1 block: A_rc + A_cr = 0
    for r in range(k1):
        for c in range(r, k1):
            add_row({(r, c): Fraction(1), (c, r): Fraction(1)}
                    if r != c else {(r, c): Fraction(2)})
    # derivation identity on all pairs i < j, per output coordinate k:
    # sum_l c_ij^l A_kl - sum_l A_li c_lj^k - sum_l A_lj c_il^k = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                coeffs = {}
                for l, v in alg.bracket_basis(i, j).items():
                    if alg.degree[k] == alg.degree[l]:
                        coeffs[(k, l)] = coeffs.get((k, l), ZERO) + v
                for l in range(n):
                    if alg.degree[l] == alg.degree[i]:
                        v = alg.c(l, j, k)
                        if v != 0:
                            coeffs[(l, i)] = coeffs.get((l, i), ZERO) - v
                    if alg.degree[l] == alg.degree[j]:
                        v = alg.c(i, l, k)
                        if v != 0:
                            coeffs[(l, j)] = coeffs.get((l, j), ZERO) - v
                coeffs = {rc: v for rc, v in coeffs.items() if v != 0}
                if coeffs:
                    add_row(coeffs)

    basis = []
    for sol in rl.kernel(rows, len(slots)).values():
        a = [[ZERO] * n for _ in range(n)]
        for i, x in sol.items():
            r, c = slots[i]
            a[r][c] = x
        basis.append(tuple(tuple(row) for row in a))

    # stack the layer-1 actions: v in ker h iff A_alpha v = 0 for all alpha
    action = [{c: x for c, x in enumerate(a[r][:k1]) if x} for a in basis for r in range(k1)]
    kerH = rl.dense(rl.kernel(action, k1).values(), k1)
    return SymmetryAlgebra(basis=tuple(basis), kerH=tuple(map(tuple, kerH)), k1=k1)


# ---------------------------------------------------------------------------
# Ambient algebra g = n  (semidirect) h
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmbientAlgebra(_SparseBrackets):
    """The pair (nilpotent algebra, symmetry algebra) with assembled brackets.

    Basis: e_1..e_n from the nilpotent part, then one element per symmetry
    generator, all of degree 0.
    """

    nil: GradedLieAlgebra
    sym: SymmetryAlgebra
    brackets: dict = field(hash=False)   # (i, j) i<j over the full basis

    @property
    def dim(self):
        return self.nil.dim + self.sym.dimH

    def degree_of(self, a):
        """Signed degree: -layer for nilpotent basis vectors, 0 for symmetries."""
        return -self.nil.degree[a] if a < self.nil.dim else 0


def ambient(alg, sym):
    """Assemble g = n + h with [h, n] the matrix action and [h, h] commutators."""
    n = alg.dim
    dimh = sym.dimH
    brackets = {k: dict(v) for k, v in alg.brackets.items()}
    mats = [rl.sparse(m) for m in sym.basis]
    # [e_i, e_{n+a}] = -A_a e_i, minus column i of A_a
    for a, m in enumerate(mats):
        for i, col in enumerate(rl.columns(m, n)):
            if col:
                brackets[(i, n + a)] = {r: -x for r, x in col.items()}
    # Gauss-Jordan on the flattened A_g, each tagged with a unit column
    # n^2 + g: a commutator's residual against it is 0 below n^2 exactly when
    # the commutator lies in the span, and minus its tag part is the
    # coefficients; the basis need not be in reduced echelon form
    nn = n * n

    def flat(rows):
        return {r * n + c: x for r, row in enumerate(rows) for c, x in row.items()}

    tagged = rl.echelon([{**flat(m), nn + g: Fraction(1)} for g, m in enumerate(mats)])
    for a in range(dimh):
        for b in range(a + 1, dimh):
            comm = flat(rl.product(mats[a], mats[b]))
            rl.eliminate(comm, 1, flat(rl.product(mats[b], mats[a])))
            res = rl.residual(tagged, comm)
            if any(c < nn for c in res):
                raise ClosureFailure(
                    f"[A_{a+1}, A_{b+1}] is outside the span of the symmetry basis")
            if res:
                brackets[(n + a, n + b)] = {n + c - nn: -x for c, x in sorted(res.items())}
    amb = AmbientAlgebra(nil=alg, sym=sym, brackets=brackets)
    _check_jacobi(amb)
    return amb
