"""Rational reference builders of the Gram form and the symmetry actions on
hom(^k n, g), in ``Fraction`` arithmetic, monomial by monomial: the oracles
that ``Cohomology._gram`` and ``Cohomology._actions``, which build the same
matrices as integer rows, are checked against."""

from fractions import Fraction

ZERO = Fraction(0)


def wedge_gram(co, js, ks):
    """<e^{j_1}^...^e^{j_k}, e^{k_1}^...^e^{k_k}> = det(g^{j_r k_s}) / k!
    at arity k = 1 or 2, the arities of hom(n, g) and hom(^2 n, g) whose
    Gram forms are taken; any other arity raises ValueError."""
    gd = co.gram_n_dual()
    if len(js) == 1:
        return gd[js[0]].get(ks[0], ZERO)
    (j1, j2), (k1, k2) = js, ks
    return Fraction(1, 2) * (gd[j1].get(k1, ZERO) * gd[j2].get(k2, ZERO)
                             - gd[j1].get(k2, ZERO) * gd[j2].get(k1, ZERO))


def gram_restricted(co, monos):
    """Sparse rows of the Gram matrix of monos, all of one arity.

    <e_a (x) e^J, e_b (x) e^K> = g(a, b) wedge_gram(J, K): a product of a
    nonzero of gram_g and a wedge Gram entry, computed once per (J, K)
    pair in this call. Entries across _block_key blocks are zero.
    """
    gg = co.gram_g()
    blocks = {}                # block key -> {a: [(column, J)]}
    for i, m in enumerate(monos):
        blocks.setdefault(co._block_key(m), {}).setdefault(m[0], []).append((i, m[1]))
    wedge = {}
    gram = []
    for m in monos:
        a, js = m
        row = {}
        for b, cols in blocks[co._block_key(m)].items():
            g = gg[a].get(b)
            if not g:
                continue
            for j, ks in cols:
                w = wedge.get((js, ks))
                if w is None:
                    w = wedge[js, ks] = wedge_gram(co, js, ks)
                if w:
                    row[j] = g * w
        gram.append(row)
    return gram


def act(co, alpha, m):
    """The induced symmetry action on one monomial of hom(^2 n, g), as
    {monomial: coefficient}: (A.f)(v, w) = A f(v, w) - f(Av, w) - f(v, Aw).
    As e^i o A = sum_p A[i][p] e^p, e_a (x) e^i ^ e^j goes to
    [e_{n+alpha}, e_a] at (i, j), to -A[i][p] at (p, j) and to -A[j][p]
    at (i, p)."""
    amb = co.amb
    mat = amb.sym.basis[alpha]
    a, (i, j) = m
    # the wedge e^q ^ e^r with q > r is -e^r ^ e^q, and 0 when q = r
    terms = [((b, (i, j)), w) for b, w in amb.bracket_basis(co.n + alpha, a).items()]
    terms += [((a, (p, j)), -x) if p < j else ((a, (j, p)), x)
              for p, x in enumerate(mat[i]) if x and p != j]
    terms += [((a, (i, p)), -x) if i < p else ((a, (p, i)), x)
              for p, x in enumerate(mat[j]) if x and p != i]
    out = {}
    for key, x in terms:
        out[key] = out[key] + x if key in out else x
    return {key: x for key, x in out.items() if x}
