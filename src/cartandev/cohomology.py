"""Lie algebra cohomology machinery for the ambient algebra g = n + h.

Implements the Chevalley-Eilenberg differential on hom(^k n, g), its
Gram-adjoint, and the two normal-module constructions, all in exact rational
arithmetic: Morimoto's N_Morimoto = ker d* = (im d+)^perp, and the Popp
module N = S^perp meet (S + N_Morimoto), orthogonal to the trace module S.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import ratlinalg as rl
from .errors import ClosureFailure, DimensionMismatch, IntersectionNonTrivial

ZERO = rl.ZERO
ONE = rl.ONE


def _sort_sign(t):
    """Sort a tuple of indices, returning (sorted tuple, permutation sign).

    Returns sign 0 when the tuple has a repeated index.
    """
    t = list(t)
    sign = 1
    for i in range(1, len(t)):
        j = i
        while j > 0 and t[j - 1] > t[j]:
            t[j - 1], t[j] = t[j], t[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(t, t[1:]):
        if a == b:
            return tuple(t), 0
    return tuple(t), sign


def _column_index(monos):
    """Map each monomial of a coordinate order to its column."""
    return {m: i for i, m in enumerate(monos)}


@dataclass(frozen=True)
class HomElement:
    """An element of hom(^k n, g) with rational coefficients.

    coeffs maps (a, (j_1 < ... < j_k)) to the coefficient of the basis
    monomial e_a (x) e^{j_1} ^ ... ^ e^{j_k}. Zero coefficients are never
    stored.
    """

    arity: int
    coeffs: dict = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           {m: c for m, c in self.coeffs.items() if c != 0})

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, ZERO) + c
        return HomElement(self.arity, out)

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, f):
        return HomElement(self.arity, {m: f * c for m, c in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, HomElement) and self.arity == other.arity
                and self.coeffs == other.coeffs)

    def serialize(self):
        """Monomial -> "p/q" map with 1-based indices, keys sorted."""
        out = {}
        for (a, js), c in self.coeffs.items():
            key = f"{a + 1}:" + ",".join(str(j + 1) for j in js)
            out[key] = str(c)
        return dict(sorted(out.items()))


def hom_element(arity, terms):
    """Build a HomElement from (a, js, coeff) triples, normalizing the wedge."""
    coeffs = {}
    for a, js, c in terms:
        js, sign = _sort_sign(tuple(js))
        if sign == 0:
            continue
        m = (a, js)
        coeffs[m] = coeffs.get(m, ZERO) + sign * Fraction(c)
    return HomElement(arity, coeffs)


@dataclass
class HomSubspace:
    """A subspace of positive-degree hom(^k n, g), with an echelon certificate."""

    arity: int
    elements: list                 # HomElements (echelonized basis)
    matrix: list                   # rows over the positive-monomial coordinates
    monomials: list                # the positive-monomial coordinate order

    @property
    def dim(self):
        return len(self.elements)


class Cohomology:
    """All cohomological operations for one ambient algebra with its metric.

    Caches monomial enumerations, Gram matrices, monomial differentials, im d+
    and its orthocomplement (the Morimoto module); callers share the latter
    two HomSubspaces and must not modify them.
    """

    def __init__(self, amb, metric):
        self.amb = amb
        self.metric = metric
        self.n = amb.nil.dim
        self.N = amb.dim
        self._monomials = {}
        self._gram_g = None
        self._gram_n_dual = None
        self._grams = {}
        self._mono_diff = {}
        self._im = None
        self._morimoto = None

    # -- bookkeeping --------------------------------------------------------

    def degree_of_monomial(self, m):
        a, js = m
        return self.amb.degree_of(a) + sum(self.amb.nil.degree[j] for j in js)

    def monomials(self, arity):
        """All basis monomials of hom(^arity n, g), in canonical order."""
        if arity not in self._monomials:
            self._monomials[arity] = [
                (a, js) for a in range(self.N)
                for js in itertools.combinations(range(self.n), arity)]
        return self._monomials[arity]

    def positive_monomials(self, arity):
        return [m for m in self.monomials(arity) if self.degree_of_monomial(m) > 0]

    # -- metric -------------------------------------------------------------

    def gram_g(self):
        """Gram matrix on g: extended metric on n, identity on h."""
        if self._gram_g is None:
            g = self.metric.gram()
            N = self.N
            full = [[ZERO] * N for _ in range(N)]
            for i in range(self.n):
                for j in range(self.n):
                    full[i][j] = g[i][j]
            for i in range(self.n, N):
                full[i][i] = ONE
            self._gram_g = full
        return self._gram_g

    def gram_n_dual(self):
        """Gram matrix on n*: blockwise inverse of the metric on n."""
        if self._gram_n_dual is None:
            n = self.n
            full = [[ZERO] * n for _ in range(n)]
            off = 0
            for b in self.metric.blocks:
                inv = rl.invert([list(r) for r in b])
                for i, row in enumerate(inv):
                    for j, v in enumerate(row):
                        full[off + i][off + j] = v
                off += len(b)
            self._gram_n_dual = full
        return self._gram_n_dual

    def wedge_gram(self, js, ks):
        """<e^{j_1}^...^e^{j_k}, e^{k_1}^...^e^{k_k}> = det(g^{j_r k_s}) / k!"""
        gd = self.gram_n_dual()
        k = len(js)
        if k == 0:
            return ONE
        if k == 1:
            return gd[js[0]][ks[0]]
        if k == 2:
            return Fraction(1, 2) * (gd[js[0]][ks[0]] * gd[js[1]][ks[1]]
                                     - gd[js[0]][ks[1]] * gd[js[1]][ks[0]])
        total = ZERO
        for perm in itertools.permutations(range(k)):
            _, sign = _sort_sign(perm)
            term = ONE
            for r in range(k):
                term *= gd[js[r]][ks[perm[r]]]
            total += sign * term
        fact = 1
        for i in range(2, k + 1):
            fact *= i
        return total / fact

    def inner(self, x, y):
        """Exact inner product of two HomElements of equal arity."""
        if x.arity != y.arity:
            raise DimensionMismatch(f"inner product of arities {x.arity} and {y.arity}")
        gg = self.gram_g()
        total = ZERO
        for (a, js), cx in x.coeffs.items():
            for (b, ks), cy in y.coeffs.items():
                if gg[a][b] == 0:
                    continue
                w = self.wedge_gram(js, ks)
                if w != 0:
                    total += cx * cy * gg[a][b] * w
        return total

    def _block_key(self, m):
        a, js = m
        alayer = self.amb.nil.degree[a] if a < self.n else 0
        return (alayer, tuple(sorted(self.amb.nil.degree[j] for j in js)))

    # -- differential and adjoint -------------------------------------------

    def identity_hom(self):
        """The identity of n as an arity-1 element: sum_j e_j (x) e^j."""
        return HomElement(1, {(j, (j,)): ONE for j in range(self.n)})

    def evaluate(self, elem, args):
        """elem evaluated on a tuple of n-basis indices; a sparse g-vector."""
        js, sign = _sort_sign(args)
        if sign == 0:
            return {}
        out = {}
        for (a, ks), c in elem.coeffs.items():
            if ks == js:
                out[a] = out.get(a, ZERO) + sign * c
        return out

    def differential(self, elem):
        """Chevalley-Eilenberg differential hom(^k n, g) -> hom(^{k+1} n, g)."""
        k = elem.arity
        amb = self.amb
        out = {}
        for tup in itertools.combinations(range(self.n), k + 1):
            val = {}
            for i in range(k + 1):
                rest = tup[:i] + tup[i + 1:]
                inner_val = self.evaluate(elem, rest)
                if not inner_val:
                    continue
                s = ONE if i % 2 == 0 else -ONE
                for a, c in inner_val.items():
                    for b, w in amb.bracket_basis(tup[i], a).items():
                        val[b] = val.get(b, ZERO) + s * c * w
            for i in range(k + 1):
                for j in range(i + 1, k + 1):
                    rest = tup[:i] + tup[i + 1:j] + tup[j + 1:]
                    s = -ONE if (i + j) % 2 == 1 else ONE
                    for l, c in amb.nil.bracket_basis(tup[i], tup[j]).items():
                        for a, w in self.evaluate(elem, (l,) + rest).items():
                            val[a] = val.get(a, ZERO) + s * c * w
            for a, c in val.items():
                if c != 0:
                    out[(a, tup)] = c
        return HomElement(k + 1, out)

    def _monomial_differential(self, arity, m):
        key = (arity, m)
        if key not in self._mono_diff:
            self._mono_diff[key] = self.differential(HomElement(arity, {m: ONE}))
        return self._mono_diff[key]

    def codifferential(self, beta):
        """Gram-adjoint of the differential: <d a, b> = <a, d* b> exactly."""
        k = beta.arity - 1
        monos = self.monomials(k)
        y = [self.inner(self._monomial_differential(k, m), beta) for m in monos]
        return self._from_coords(k, rl.solve(self._gram_restricted(monos), y), monos)

    # -- subspaces of positive-degree hom(^2 n, g) ---------------------------

    def _coords(self, elem, monos, index=None):
        """Dense coordinates of elem over monos; index is _column_index(monos)."""
        if index is None:
            index = _column_index(monos)
        row = [ZERO] * len(monos)
        for m, c in elem.coeffs.items():
            if m not in index:
                raise ValueError(f"element not supported on the expected monomials: {m}")
            row[index[m]] = c
        return row

    def _from_coords(self, arity, row, monos):
        return HomElement(arity, {m: c for m, c in zip(monos, row) if c is not ZERO and c})

    def _subspace(self, arity, rows, monos):
        basis = rl.row_basis(rows)
        elems = [self._from_coords(arity, r, monos) for r in basis]
        return HomSubspace(arity=arity, elements=elems, matrix=basis, monomials=monos)

    def _gram_restricted(self, monos):
        """Gram matrix of monos, all of one arity; entries across _block_key
        blocks are zero."""
        key = tuple(monos)
        if key not in self._grams:
            arity = len(monos[0][1])
            groups = {}
            for i, m in enumerate(monos):
                groups.setdefault(self._block_key(m), []).append(i)
            gram = [[ZERO] * len(monos) for _ in monos]
            for ids in groups.values():
                for i in ids:
                    x = HomElement(arity, {monos[i]: ONE})
                    for j in ids:
                        gram[i][j] = self.inner(x, HomElement(arity, {monos[j]: ONE}))
            self._grams[key] = gram
        return self._grams[key]

    def _ortho_complement(self, rows, monos):
        """Orthocomplement of a row span within the span of monos."""
        if not rows:
            return rl.identity(len(monos))
        g = self._gram_restricted(monos)
        return rl.nullspace(rl.matmul(rows, g))

    def image_partial_plus(self):
        """Basis of the differential's image of positive-degree hom(n, g)."""
        if self._im is None:
            monos = self.positive_monomials(2)
            index = _column_index(monos)
            rows = []
            for m in self.positive_monomials(1):
                d = self._monomial_differential(1, m)
                if not d.is_zero():
                    rows.append(self._coords(d, monos, index))
            self._im = self._subspace(2, rows, monos)
        return self._im

    def s_module(self):
        """The trace module S spanned by id ^ phi over covectors phi of (ker h)-perp."""
        monos = self.positive_monomials(2)
        sym = self.amb.sym
        k1 = sym.k1
        if sym.kerH:
            phis = rl.nullspace([list(v) for v in sym.kerH])
        else:
            phis = rl.identity(k1)
        index = _column_index(monos)
        rows = []
        for phi in phis:
            terms = []
            for j in range(self.n):
                for i in range(k1):
                    if phi[i] != 0 and i != j:
                        terms.append((j, (j, i), phi[i]))
            elem = hom_element(2, terms)
            rows.append(self._coords(elem, monos, index))
        return self._subspace(2, rows, monos)

    def h_action(self, alpha, elem):
        """Induced symmetry action on hom(^2 n, g):
        (A.f)(v, w) = A f(v, w) - f(Av, w) - f(v, Aw). As e^i o A = sum_p A[i][p] e^p,
        a coefficient c of e_a (x) e^i ^ e^j goes to [e_{n+alpha}, e_a] at (i, j),
        to -A[i][p] c at (p, j) and to -A[j][p] c at (i, p)."""
        amb = self.amb
        mat = amb.sym.basis[alpha]
        ea = self.n + alpha
        terms = []
        for (a, (i, j)), c in elem.coeffs.items():
            terms.extend((b, (i, j), c * w) for b, w in amb.bracket_basis(ea, a).items())
            for p in range(self.n):
                if mat[i][p]:
                    terms.append((a, (p, j), -mat[i][p] * c))
                if mat[j][p]:
                    terms.append((a, (i, p), -mat[j][p] * c))
        return hom_element(2, terms)

    def _check_h_invariant(self, rows, monos):
        """Whether the span of rows is h-invariant; rows must be independent
        (an echelon basis), since their rank is taken to be len(rows)."""
        index = _column_index(monos)
        acted = [self._coords(self.h_action(alpha, self._from_coords(2, r, monos)),
                              monos, index)
                 for alpha in range(self.amb.sym.dimH) for r in rows]
        return rl.rank(rows + acted) == len(rows)

    def _complements(self, rows, im, monos):
        """Whether rows are independent and span a complement of im within hom_+."""
        return len(rows) + im.dim == len(monos) == rl.rank(rows + im.matrix)

    def normal_module_popp(self):
        """Normal module orthogonal to the trace module S:
        N = S^perp meet (S + N_Morimoto).

        Its elements are the combinations of the rows of S and of the
        Morimoto module O that are Gram-orthogonal to S, the kernel of a
        |S| x (|S| + |O|) system; with S = 0 it is O. Returns the
        HomSubspace. Raises IntersectionNonTrivial with a witness when S meets
        O, the orthocomplement of the differential's image.
        """
        monos = self.positive_monomials(2)
        im = self.image_partial_plus()
        s = self.s_module().matrix
        operp = self.normal_module_morimoto().matrix
        sg = rl.matmul(s, self._gram_restricted(monos))
        # combinations of S orthogonal to im d+: an |im| x |S| kernel
        meet = rl.nullspace(rl.matmul(im.matrix, rl.transpose(sg)))
        if meet:
            witness = self._from_coords(2, rl.row_basis(rl.matmul(meet, s))[0], monos)
            raise IntersectionNonTrivial(
                "the trace module meets the orthocomplement of im d+", witness)
        both = s + operp
        rows = (rl.matmul(rl.nullspace(rl.transpose(rl.matmul(both, rl.transpose(sg)))), both)
                if s else operp)
        module = self._subspace(2, rows, monos)
        # exact verification on the echelon basis: N + im d+ = hom_+, N is h-invariant
        if (not self._complements(module.matrix, im, monos)
                or not self._check_h_invariant(module.matrix, monos)):
            raise ClosureFailure("the Popp normal module is not an h-invariant complement")
        return module

    def normal_module_morimoto(self):
        """Morimoto's normal module: ker d* in positive degree.

        Equals the orthocomplement of im d+ within hom_+ because the metric
        blocks are degree-homogeneous. The Popp module starts from it.
        """
        if self._morimoto is None:
            monos = self.positive_monomials(2)
            im = self.image_partial_plus()
            module = self._subspace(2, self._ortho_complement(im.matrix, monos), monos)
            if not self._complements(module.matrix, im, monos):
                raise ClosureFailure("the Morimoto normal module is not a complement of im d+")
            self._morimoto = module
        return self._morimoto

    def morimoto_popp_obstruction(self, i):
        """The arity-3 element d(sum_j e_j (x) e^j) ^ e^i for a generator index i.

        A zero return is the necessary condition for Morimoto's normalisation
        to reproduce the Popp development in direction i (0-based).
        """
        d = self.differential(self.identity_hom())
        terms = []
        for (a, js), c in d.coeffs.items():
            terms.append((a, js + (i,), c))
        return hom_element(3, terms)
