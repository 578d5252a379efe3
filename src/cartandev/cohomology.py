"""Lie algebra cohomology machinery for the ambient algebra g = n + h.

Implements the Chevalley-Eilenberg differential on hom(^k n, g), its Gram
form for k = 1, 2, and the two normal-module constructions, all in exact
rational arithmetic: Morimoto's N_Morimoto = ker d* = (im d+)^perp, and the
Popp module N = S^perp meet (S + N_Morimoto), orthogonal to the trace module S.

Subspaces of hom(^2 n, g) are sparse rows over the positive monomials
(``ratlinalg``'s {column: Fraction} dicts) from the image of the
differential to the finished modules, and each HomSubspace keeps its
reduced echelon basis; dense rows and HomElements are views of it.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from . import ratlinalg as rl
from .errors import ClosureFailure, IntersectionNonTrivial

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


def _coords(coeffs, index):
    """Sparse coordinates {column: coefficient} of a {monomial: coefficient}
    map over the columns index (_column_index of the monomials)."""
    if not coeffs.keys() <= index.keys():
        missing = next(m for m in coeffs if m not in index)
        raise ValueError(f"element not supported on the expected monomials: {missing}")
    return {index[m]: c for m, c in coeffs.items()}


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
    """A subspace of positive-degree hom(^k n, g), kept as its reduced echelon
    basis over the positive-monomial coordinates."""

    arity: int
    echelon: dict                  # {pivot column: sparse row}, ratlinalg.echelon
    monomials: list                # the positive-monomial coordinate order

    @property
    def dim(self):
        return len(self.echelon)

    @functools.cached_property
    def matrix(self):
        """The echelon basis as dense rows over the monomials."""
        return rl.dense(self.echelon.values(), len(self.monomials))

    @functools.cached_property
    def elements(self):
        """The echelon basis as HomElements."""
        return [HomElement(self.arity, {self.monomials[c]: x for c, x in r.items()})
                for r in self.echelon.values()]


class Cohomology:
    """All cohomological operations for one ambient algebra with its metric.

    Caches monomial enumerations, Gram matrices, monomial differentials, im d+
    and its orthocomplement (the Morimoto module), and d of the identity;
    callers share the two HomSubspaces and must not modify them.
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
            self._gram_g = rl.block_diagonal([*self.metric.blocks, rl.identity(self.N - self.n)])
        return self._gram_g

    def gram_n_dual(self):
        """Gram matrix on n*: blockwise inverse of the metric on n."""
        if self._gram_n_dual is None:
            self._gram_n_dual = rl.block_diagonal([rl.invert(b) for b in self.metric.blocks])
        return self._gram_n_dual

    def wedge_gram(self, js, ks):
        """<e^{j_1}^...^e^{j_k}, e^{k_1}^...^e^{k_k}> = det(g^{j_r k_s}) / k!
        at arity k = 1 or 2, the arities of hom(n, g) and hom(^2 n, g) whose
        Gram forms are taken; any other arity raises ValueError."""
        gd = self.gram_n_dual()
        if len(js) == 1:
            return gd[js[0]][ks[0]]
        (j1, j2), (k1, k2) = js, ks
        return Fraction(1, 2) * (gd[j1][k1] * gd[j2][k2] - gd[j1][k2] * gd[j2][k1])

    def _block_key(self, m):
        a, js = m
        alayer = self.amb.nil.degree[a] if a < self.n else 0
        return (alayer, tuple(sorted(self.amb.nil.degree[j] for j in js)))

    # -- the differential ---------------------------------------------------

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

    @functools.cached_property
    def _bracket_preimage(self):
        """l -> the pairs i < j of n-basis indices whose bracket has an e_l term."""
        out = {}
        for (i, j), row in self.amb.nil.brackets.items():
            if i < j:
                for l in row:
                    out.setdefault(l, []).append((i, j))
        return out

    def _support(self, elem):
        """The sorted (k+1)-tuples on which d(elem) can be nonzero.

        A term of d(elem) on a tuple evaluates elem either on the tuple less
        one index or on (l, rest), where e_l is a term of the bracket of two
        indices of the tuple and rest is the tuple less those two. So the
        tuple contains the index set of one of elem's monomials, or is that
        set less l together with a pair whose bracket has an e_l term.
        """
        out = set()
        for _, ks in elem.coeffs:
            out.update(tuple(sorted(ks + (x,))) for x in range(self.n) if x not in ks)
            for l in ks:
                rest = tuple(j for j in ks if j != l)
                out.update(tuple(sorted(rest + pair))
                           for pair in self._bracket_preimage.get(l, ())
                           if pair[0] not in rest and pair[1] not in rest)
        return sorted(out)

    def differential(self, elem):
        """Chevalley-Eilenberg differential hom(^k n, g) -> hom(^{k+1} n, g).

        Only the tuples of _support are evaluated, in the order of
        itertools.combinations, so the result is the one a sweep over every
        (k+1)-tuple gives, term for term.
        """
        k = elem.arity
        amb = self.amb
        out = {}
        for tup in self._support(elem):
            val = {}
            for i in range(k + 1):
                rest = tup[:i] + tup[i + 1:]
                inner_val = self.evaluate(elem, rest)
                if not inner_val:
                    continue
                # the sign (-1)^i by adding or subtracting: one product a term
                sign = operator.add if i % 2 == 0 else operator.sub
                for a, c in inner_val.items():
                    for b, w in amb.bracket_basis(tup[i], a).items():
                        val[b] = sign(val.get(b, ZERO), c * w)
            for i in range(k + 1):
                for j in range(i + 1, k + 1):
                    rest = tup[:i] + tup[i + 1:j] + tup[j + 1:]
                    sign = operator.sub if (i + j) % 2 == 1 else operator.add
                    for l, c in amb.nil.bracket_basis(tup[i], tup[j]).items():
                        for a, w in self.evaluate(elem, (l,) + rest).items():
                            val[a] = sign(val.get(a, ZERO), c * w)
            for a, c in val.items():
                if c != 0:
                    out[(a, tup)] = c
        return HomElement(k + 1, out)

    def _monomial_differential(self, arity, m):
        key = (arity, m)
        if key not in self._mono_diff:
            self._mono_diff[key] = self.differential(HomElement(arity, {m: ONE}))
        return self._mono_diff[key]

    # -- subspaces of positive-degree hom(^2 n, g) ---------------------------

    def _subspace(self, arity, rows, monos):
        """The span of sparse rows over monos, by its reduced echelon basis."""
        return HomSubspace(arity=arity, echelon=rl.echelon(rows), monomials=monos)

    def _gram_restricted(self, monos):
        """Sparse rows of the Gram matrix of monos, all of one arity.

        <e_a (x) e^J, e_b (x) e^K> = g(a, b) wedge_gram(J, K): a product of a
        nonzero of gram_g and a wedge Gram entry, computed once per (J, K)
        pair in this call. Entries across _block_key blocks are zero.
        """
        key = tuple(monos)
        if key not in self._grams:
            gg = self.gram_g()
            blocks = {}                # block key -> {a: [(column, J)]}
            for i, m in enumerate(monos):
                blocks.setdefault(self._block_key(m), {}).setdefault(m[0], []).append((i, m[1]))
            wedge = {}
            gram = []
            for m in monos:
                a, js = m
                row = {}
                for b, cols in blocks[self._block_key(m)].items():
                    g = gg[a][b]
                    if not g:
                        continue
                    for j, ks in cols:
                        w = wedge.get((js, ks))
                        if w is None:
                            w = wedge[js, ks] = self.wedge_gram(js, ks)
                        if w:
                            row[j] = g * w
                gram.append(row)
            self._grams[key] = gram
        return self._grams[key]

    def _ortho_complement(self, rows, monos):
        """Orthocomplement of the span of sparse rows within the span of monos,
        as sparse rows."""
        return rl.kernel(rl.product(rows, self._gram_restricted(monos)), len(monos))

    def image_partial_plus(self):
        """Basis of the differential's image of positive-degree hom(n, g)."""
        if self._im is None:
            monos = self.positive_monomials(2)
            index = _column_index(monos)
            rows = [_coords(self._monomial_differential(1, m).coeffs, index)
                    for m in self.positive_monomials(1)]
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
            rows.append(_coords(hom_element(2, terms).coeffs, index))
        return self._subspace(2, rows, monos)

    def _act(self, alpha, m):
        """The induced symmetry action on one monomial of hom(^2 n, g), as
        {monomial: coefficient}: (A.f)(v, w) = A f(v, w) - f(Av, w) - f(v, Aw).
        As e^i o A = sum_p A[i][p] e^p, e_a (x) e^i ^ e^j goes to
        [e_{n+alpha}, e_a] at (i, j), to -A[i][p] at (p, j) and to -A[j][p]
        at (i, p)."""
        amb = self.amb
        mat = amb.sym.basis[alpha]
        a, (i, j) = m
        # the wedge e^q ^ e^r with q > r is -e^r ^ e^q, and 0 when q = r
        terms = [((b, (i, j)), w) for b, w in amb.bracket_basis(self.n + alpha, a).items()]
        terms += [((a, (p, j)), -x) if p < j else ((a, (j, p)), x)
                  for p, x in enumerate(mat[i]) if x and p != j]
        terms += [((a, (i, p)), -x) if i < p else ((a, (p, i)), x)
                  for p, x in enumerate(mat[j]) if x and p != i]
        out = {}
        for key, x in terms:
            out[key] = out[key] + x if key in out else x
        return {key: x for key, x in out.items() if x}

    def _check_h_invariant(self, rows, monos):
        """Whether the span of sparse rows over monos is h-invariant.

        Each symmetry generator acts as a sparse map from every monomial column
        to its image; the image of every row of the span's reduced echelon
        basis must reduce to 0 against that basis (ratlinalg.residual).
        """
        basis = rl.echelon(rows)
        index = _column_index(monos)
        for alpha in range(self.amb.sym.dimH):
            images = [_coords(self._act(alpha, m), index) for m in monos]
            if any(rl.residual(basis, r) for r in rl.product(basis.values(), images)):
                return False
        return True

    def _complements(self, rows, im, monos):
        """Whether sparse rows are independent and span a complement of im
        within hom_+: |rows| + dim im = |monos|, the echelon basis of rows
        keeps every row, and the residuals of im's rows against it are
        independent, so that rank(rows + im) = |monos|."""
        if len(rows) + im.dim != len(monos):
            return False
        basis = rl.echelon(rows)
        residuals = [rl.residual(basis, r) for r in im.echelon.values()]
        return len(basis) == len(rows) and len(rl.echelon(residuals)) == im.dim

    def normal_module_popp(self):
        """Normal module orthogonal to the trace module S:
        N = S^perp meet (S + N_Morimoto).

        Its elements are the combinations of the rows of S and of the
        Morimoto module O that are Gram-orthogonal to S. S G S^T is
        invertible (G is positive definite), so there is one per row O[f]:
        O[f] - c_f S with c_f = (S G S^T)^-1 S G O[f]^T; with S = 0 it is O.
        Returns the HomSubspace. Raises IntersectionNonTrivial with a witness
        when S meets O, the orthocomplement of the differential's image.
        """
        monos = self.positive_monomials(2)
        im = self.image_partial_plus()
        s = list(self.s_module().echelon.values())
        rows = [dict(r) for r in self.normal_module_morimoto().echelon.values()]
        sg = rl.product(s, self._gram_restricted(monos))
        # combinations of S orthogonal to im d+: an |im| x |S| kernel
        pairings = [{i: x for i, a in enumerate(sg) if (x := rl.dot(r, a))}
                    for r in im.echelon.values()]
        meet = rl.kernel(pairings, len(s))
        if meet:
            witness = self._subspace(2, rl.product(meet, s), monos).elements[0]
            raise IntersectionNonTrivial(
                "the trace module meets the orthocomplement of im d+", witness)
        if s:
            # O[f] - sum_i (S G O[f]^T)_i t_i, t = (S G S^T)^-T S: over S's nonzeros only
            k = rl.invert([[rl.dot(a, b) for b in s] for a in sg])
            t = rl.product(rl.sparse(rl.transpose(k)), s)
            for row in rows:
                for y, ti in zip([rl.dot(row, a) for a in sg], t):
                    if y:
                        rl.eliminate(row, y, ti)
        module = self._subspace(2, rows, monos)
        # exact verification on the echelon basis: N + im d+ = hom_+, N is h-invariant
        basis = module.echelon.values()
        if (not self._complements(basis, im, monos)
                or not self._check_h_invariant(basis, monos)):
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
            module = self._subspace(2, self._ortho_complement(im.echelon.values(), monos), monos)
            if not self._complements(module.echelon.values(), im, monos):
                raise ClosureFailure("the Morimoto normal module is not a complement of im d+")
            self._morimoto = module
        return self._morimoto

    def morimoto_popp_obstruction(self, i):
        """The arity-3 element d(sum_j e_j (x) e^j) ^ e^i for a generator index i.

        A zero return is the necessary condition for Morimoto's normalisation
        to reproduce the Popp development in direction i (0-based).
        """
        terms = []
        for (a, js), c in self._d_identity.coeffs.items():
            terms.append((a, js + (i,), c))
        return hom_element(3, terms)

    @functools.cached_property
    def _d_identity(self):
        """d(sum_j e_j (x) e^j), computed once for every generator's obstruction."""
        return self.differential(self.identity_hom())
