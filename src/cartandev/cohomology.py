"""Lie algebra cohomology machinery for the ambient algebra g = n + h.

Implements the Chevalley-Eilenberg differential on hom(^k n, g), which
pushes each term of an element to the entries it reaches, its Gram form for
k = 1, 2, and the two normal modules, all in exact rational arithmetic:
Morimoto's N_Morimoto = ker d* = (im d+)^perp, and the Popp module
N = S^perp meet (S + N_Morimoto), orthogonal to the trace module S. Both are
built one way, as the kernel {x : B G x = 0} of an annihilator B of
dim im d+ rows and the Gram matrix G, and certified on B.

Subspaces of hom(^2 n, g) are sparse rows over the positive monomials
(``ratlinalg``'s {column: Fraction} dicts) from the image of the
differential to the finished modules, and each HomSubspace keeps its
reduced echelon basis; dense rows and HomElements are views of it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
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


def _block_rows(blocks):
    """The block-diagonal matrix of square blocks, as sparse rows."""
    rows = []
    for b in blocks:
        rows += [{len(rows) + c: x for c, x in enumerate(r) if x} for r in b]
    return rows


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

    Caches monomial enumerations, Gram matrices, im d+, the symmetry
    actions on hom_+ and d of the identity; callers share im d+ and must not
    modify it.
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
        self._im = None

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
        """Gram matrix on g, as sparse rows: extended metric on n, identity on h."""
        if self._gram_g is None:
            self._gram_g = _block_rows(list(self.metric.blocks) + [[[ONE]]] * (self.N - self.n))
        return self._gram_g

    def gram_n_dual(self):
        """Gram matrix on n*, as sparse rows: blockwise inverse of the metric on n."""
        if self._gram_n_dual is None:
            self._gram_n_dual = _block_rows(self.metric.dual_blocks)
        return self._gram_n_dual

    def wedge_gram(self, js, ks):
        """<e^{j_1}^...^e^{j_k}, e^{k_1}^...^e^{k_k}> = det(g^{j_r k_s}) / k!
        at arity k = 1 or 2, the arities of hom(n, g) and hom(^2 n, g) whose
        Gram forms are taken; any other arity raises ValueError."""
        gd = self.gram_n_dual()
        if len(js) == 1:
            return gd[js[0]].get(ks[0], ZERO)
        (j1, j2), (k1, k2) = js, ks
        return Fraction(1, 2) * (gd[j1].get(k1, ZERO) * gd[j2].get(k2, ZERO)
                                 - gd[j1].get(k2, ZERO) * gd[j2].get(k1, ZERO))

    def _block_key(self, m):
        a, js = m
        alayer = self.amb.nil.degree[a] if a < self.n else 0
        return (alayer, tuple(sorted(self.amb.nil.degree[j] for j in js)))

    # -- the differential ---------------------------------------------------

    def identity_hom(self):
        """The identity of n as an arity-1 element: sum_j e_j (x) e^j."""
        return HomElement(1, {(j, (j,)): ONE for j in range(self.n)})

    @functools.cached_property
    def _bracket_preimage(self):
        """l -> the pairs i < j of n-basis indices whose bracket has an e_l term."""
        out = {}
        for (i, j), row in self.amb.nil.brackets.items():
            if i < j:
                for l in row:
                    out.setdefault(l, []).append((i, j))
        return out

    def differential(self, elem):
        """Chevalley-Eilenberg differential hom(^k n, g) -> hom(^{k+1} n, g):
        df(x_0..x_k) = sum_i (-1)^i [x_i, f(..^x_i..)]
                       + sum_{i<j} (-1)^{i+j} f([x_i, x_j], ..^x_i..^x_j..).

        Each term c e_a (x) e^J of f is pushed to the entries of df it
        reaches. In the first sum f is evaluated on J: each x not in J, at
        position i of J + {x}, adds (-1)^i c [e_x, e_a] there. In the second,
        f(e_l, J - l) = (-1)^p c e_a for l at position p of J: each pair
        x_i < x_j outside J - l whose bracket has an e_l term adds
        (-1)^{i+j+p} c_{x_i x_j}^l c e_a on (J - l) + {x_i, x_j}, at its
        positions i and j. The terms come sorted by (index tuple, a), an
        order that does not depend on the order of f's terms.
        """
        amb, brackets = self.amb, self.amb.nil.brackets
        out = {}
        for (a, js), c in elem.coeffs.items():
            for x in range(self.n):
                if x not in js:
                    i = bisect.bisect(js, x)
                    tup = js[:i] + (x,) + js[i:]
                    s = c if i % 2 == 0 else -c
                    for b, w in amb.bracket_basis(x, a).items():
                        out[tup, b] = out.get((tup, b), ZERO) + s * w
            for p, l in enumerate(js):
                rest = js[:p] + js[p + 1:]
                for xi, xj in self._bracket_preimage.get(l, ()):
                    if xi not in rest and xj not in rest:
                        tup = tuple(sorted(rest + (xi, xj)))
                        s = c if (tup.index(xi) + tup.index(xj) + p) % 2 == 0 else -c
                        out[tup, a] = out.get((tup, a), ZERO) + s * brackets[xi, xj][l]
        return HomElement(elem.arity + 1, {(a, tup): out[tup, a] for tup, a in sorted(out)})

    def _monomial_differential(self, arity, m):
        return self.differential(HomElement(arity, {m: ONE}))

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
                    g = gg[a].get(b)
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
        phis = rl.kernel(rl.sparse(sym.kerH), sym.k1).values()
        index = _column_index(monos)
        rows = []
        for phi in phis:
            terms = []
            for j in range(self.n):
                for i, x in sorted(phi.items()):
                    if i != j:
                        terms.append((j, (j, i), x))
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

    @functools.cached_property
    def _actions(self):
        """Each symmetry generator's action A on hom_+ as sparse rows over the
        positive monomials: column m of A is _act of m."""
        monos = self.positive_monomials(2)
        index = _column_index(monos)
        return [rl.columns([_coords(self._act(alpha, m), index) for m in monos], len(monos))
                for alpha in range(self.amb.sym.dimH)]

    def _check_h_invariant(self, bg):
        """Whether ker(B G) is h-invariant, for the sparse rows bg = B G over
        the positive monomials: whether, for each generator A, every row of
        B G A reduces to 0 against echelon(B G) (ratlinalg.residual)."""
        basis = rl.echelon(bg)
        return not any(rl.residual(basis, r) for a in self._actions for r in rl.product(bg, a))

    def _complements(self, bg, im):
        """Whether ker(B G) complements im d+ within hom_+, for the sparse rows
        bg = B G: |B| = dim im and B G im^T is nonsingular. Then B G has rank
        dim im, so ker(B G) has dimension |hom_+| - dim im, and no nonzero
        combination of im's rows lies in it."""
        imt = rl.columns(im.echelon.values(), len(im.monomials))
        return len(bg) == im.dim and len(rl.echelon(rl.product(bg, imt))) == im.dim

    def _module(self, annihilator, monos):
        """The normal module {x : B G x = 0} for the annihilator B (sparse
        rows over monos), by the reduced echelon basis rl.kernel gives.

        Raises ClosureFailure unless it is an h-invariant complement of im d+.
        """
        bg = rl.product(annihilator, self._gram_restricted(monos))
        if not self._complements(bg, self.image_partial_plus()) or not self._check_h_invariant(bg):
            raise ClosureFailure("the normal module is not an h-invariant complement of im d+")
        return HomSubspace(arity=2, echelon=rl.kernel(bg, len(monos)), monomials=monos)

    def normal_module_popp(self):
        """Normal module orthogonal to the trace module S:
        N = S^perp meet (S + N_Morimoto).

        S + N_Morimoto is the orthocomplement of T = S^perp meet im d+, so N
        is the kernel of B G for the annihilator B = S + T. T is spanned by
        the combinations c of im's rows with c im G S^T = 0: the kernel of
        the transposed pairings. Returns the HomSubspace. Raises
        IntersectionNonTrivial with a witness when S meets N_Morimoto, the
        orthocomplement of the differential's image.
        """
        monos = self.positive_monomials(2)
        im = list(self.image_partial_plus().echelon.values())
        s = list(self.s_module().echelon.values())
        sg = rl.product(s, self._gram_restricted(monos))
        # combinations of S orthogonal to im d+: an |im| x |S| kernel
        pairings = [{i: x for i, a in enumerate(sg) if (x := rl.dot(r, a))} for r in im]
        meet = rl.kernel(pairings, len(s))
        if meet:
            witness = self._subspace(2, rl.product(meet.values(), s), monos).elements[0]
            raise IntersectionNonTrivial(
                "the trace module meets the orthocomplement of im d+", witness)
        t = rl.product(rl.kernel(rl.columns(pairings, len(s)), len(im)).values(), im)
        return self._module(s + t, monos)

    def normal_module_morimoto(self):
        """Morimoto's normal module: ker d* in positive degree.

        Equals the orthocomplement of im d+ within hom_+, the kernel of
        im G, because the metric blocks are degree-homogeneous.
        """
        return self._module(list(self.image_partial_plus().echelon.values()),
                            self.positive_monomials(2))

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
