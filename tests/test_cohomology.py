"""Tests for hom-valued forms, the graded differential, and normal modules."""

from fractions import Fraction

import pytest

from cartandev import algebra as al
from cartandev import cohomology as ch
from cartandev import ratlinalg as rl
from cartandev.builtins import algebra as builtin_algebra
from cartandev.errors import ClosureFailure, DimensionMismatch, IntersectionNonTrivial


def make_cohomology(name):
    return cohomology_of(builtin_algebra(name))


def cohomology_of(alg):
    metric = al.extend_metric(alg)
    sym = al.symmetry_algebra(alg, metric)
    amb = al.ambient(alg, sym)
    return ch.Cohomology(amb, metric)


# -- basic wedge bookkeeping -------------------------------------------------


def test_sort_sign():
    assert ch._sort_sign((0, 1)) == ((0, 1), 1)
    assert ch._sort_sign((1, 0)) == ((0, 1), -1)
    assert ch._sort_sign((2, 0, 1)) == ((0, 1, 2), 1)
    assert ch._sort_sign((1, 1)) == ((1, 1), 0)


def test_hom_element_normalizes_wedge():
    e = ch.hom_element(2, [(0, (1, 0), 1)])
    assert e.coeffs == {(0, (0, 1)): Fraction(-1)}
    z = ch.hom_element(2, [(0, (1, 1), 1)])
    assert z.is_zero()
    # cancellation of opposite orderings
    c = ch.hom_element(2, [(0, (0, 1), 1), (0, (1, 0), 1)])
    assert c.is_zero()


def test_hom_element_arithmetic():
    a = ch.hom_element(1, [(0, (0,), 1)])
    b = ch.hom_element(1, [(0, (0,), 2), (1, (1,), 3)])
    assert (a + a) == ch.hom_element(1, [(0, (0,), 2)])
    assert (b - a).serialize() == {"1:1": "1", "2:2": "3"}
    assert a.scale(Fraction(1, 2)).serialize() == {"1:1": "1/2"}


# -- frozen degree-one differentials on the free rank-2 step-3 algebra -------

FREE23_DIFFERENTIALS = {
    (1, 1): {"3:1,2": "1", "4:1,3": "1"},
    (1, 2): {"4:2,3": "1"},
    (1, 3): {"1:1,2": "-1", "3:2,3": "-1"},
    (2, 1): {"5:1,3": "1"},
    (2, 2): {"3:1,2": "1", "5:2,3": "1"},
    (2, 3): {"2:1,2": "-1", "3:1,3": "1"},
}


def test_free23_degree_one_differentials():
    co = make_cohomology("free23")
    for (a, j), expected in FREE23_DIFFERENTIALS.items():
        e = ch.hom_element(1, [(a - 1, (j - 1,), 1)])
        assert co.differential(e).serialize() == expected


@pytest.mark.parametrize("name", ["heisenberg3", "free23", "free24"])
def test_differential_squares_to_zero(name):
    co = make_cohomology(name)
    for m in co.monomials(1):
        d = co._monomial_differential(1, m)
        dd = co.differential(d)
        assert dd.is_zero(), (m, dd.serialize())


@pytest.mark.parametrize("name", ["heisenberg3", "free23"])
def test_codifferential_adjointness(name):
    # <d a, b> == <a, d* b> for every basis pair in positive degree
    co = make_cohomology(name)
    ones = co.positive_monomials(1)
    twos = co.positive_monomials(2)
    betas = [ch.HomElement(2, {m: Fraction(1)}) for m in twos]
    dstars = [co.codifferential(b) for b in betas]
    for m in ones:
        a = ch.HomElement(1, {m: Fraction(1)})
        da = co.differential(a)
        for b, db in zip(betas, dstars):
            assert co.inner(da, b) == co.inner(a, db)


# free(2,3) with e5 = [e1, e3] + [e2, e3] in place of [e2, e3]: its layer-3
# metric is not diagonal, so the hom Gram has nonzeros off the diagonal
# inside its blocks
SKEWED_FREE23_SPEC = {
    "dim": 5,
    "growth": [2, 3, 5],
    "brackets": {"1,2": {"3": "1"}, "1,3": {"4": "1"}, "2,3": {"4": "-1", "5": "1"}},
}


SMALL_ALGEBRAS = pytest.mark.parametrize(
    "alg", [builtin_algebra("heisenberg3"), builtin_algebra("free23"), builtin_algebra("engel"),
            al.free_nilpotent(3, 2), al.build_algebra(SKEWED_FREE23_SPEC)],
    ids=["heisenberg3", "free23", "engel", "free32", "skewed-free23"])


@SMALL_ALGEBRAS
def test_gram_restricted_equals_pairwise_inner(alg):
    # the block-wise Gram skips pairs across blocks; a nonzero there would fail here
    co = cohomology_of(alg)
    monos = co.positive_monomials(2)
    units = [ch.HomElement(2, {m: Fraction(1)}) for m in monos]
    assert co._gram_restricted(monos) == [[co.inner(x, y) for y in units] for x in units]


# -- inner products of the trace module --------------------------------------


def test_h3_trace_module_inner_products():
    # pairing of a trace generator against any one of its monomials
    # e_k (x) e^k ^ e^i equals 1/2
    co = make_cohomology("heisenberg3")
    assert co.s_module().dim == 2
    for i in range(2):
        gen = ch.hom_element(
            2, [(j, (j, i), 1) for j in range(co.n) if j != i])
        for k in range(co.n):
            if k == i:
                continue
            probe = ch.hom_element(2, [(k, (k, i), 1)])
            assert co.inner(gen, probe) == Fraction(1, 2)


def test_inner_rejects_mixed_arities():
    co = make_cohomology("heisenberg3")
    with pytest.raises(DimensionMismatch):
        co.inner(ch.hom_element(1, [(2, (0,), 1)]), ch.hom_element(2, [(2, (0, 1), 1)]))


# -- obstruction elements -----------------------------------------------------


def test_h3_obstruction_vanishes():
    co = make_cohomology("heisenberg3")
    assert co.morimoto_popp_obstruction(0).is_zero()
    assert co.morimoto_popp_obstruction(1).is_zero()


def test_free23_obstruction_values():
    co = make_cohomology("free23")
    assert co.morimoto_popp_obstruction(0).serialize() == {"5:1,2,3": "1"}
    assert co.morimoto_popp_obstruction(1).serialize() == {"4:1,2,3": "-1"}


# -- normal modules -----------------------------------------------------------


@pytest.mark.parametrize(
    "name,dims",
    [("heisenberg3", (11, 5, 6)), ("free23", (53, 13, 40))],
)
def test_module_dimensions(name, dims):
    co = make_cohomology(name)
    assert len(co.positive_monomials(2)) == dims[0]
    assert co.image_partial_plus().dim == dims[1]
    # feasible: the Popp module raises IntersectionNonTrivial otherwise
    assert co.normal_module_popp().dim == dims[2]


@pytest.mark.parametrize("name", ["heisenberg3", "free23"])
def test_popp_normal_module_complements_image(name):
    co = make_cohomology(name)
    n = co.normal_module_popp()
    im = co.image_partial_plus()
    monos = co.positive_monomials(2)
    assert n.dim + im.dim == len(monos)
    assert not rl.span_intersection(n.matrix, im.matrix)
    # invariance under the metric-preserving symmetries
    assert co._check_h_invariant(n.matrix, monos)


@pytest.mark.parametrize("name", ["heisenberg3", "free23"])
def test_morimoto_normal_module_complements_image(name):
    co = make_cohomology(name)
    n = co.normal_module_morimoto()
    im = co.image_partial_plus()
    monos = co.positive_monomials(2)
    assert n.dim + im.dim == len(monos)
    assert not rl.span_intersection(n.matrix, im.matrix)


@pytest.mark.parametrize("name", ["heisenberg3", "free23"])
def test_morimoto_module_is_the_kernel_of_the_codifferential(name):
    co = make_cohomology(name)
    for e in co.normal_module_morimoto().elements:
        assert co.codifferential(e).is_zero()
    # im d+ meets ker d* trivially, so the check above is not vacuous
    assert not co.codifferential(co.image_partial_plus().elements[0]).is_zero()


def reference_popp(co):
    """N = (S + (S + O)^perp)^perp by two orthocomplements over hom_+, O the
    Morimoto module: the reference for normal_module_popp."""
    monos = co.positive_monomials(2)
    s = co.s_module().matrix
    operp = co.normal_module_morimoto().matrix
    tperp = co._ortho_complement(s + operp, monos)
    return rl.row_basis(co._ortho_complement(s + tperp, monos))


def reference_h_action(co, alpha, elem):
    """(A.f)(e_p, e_q) = [e_{n+alpha}, f(e_p, e_q)] - f(A e_p, e_q) - f(e_p, A e_q)
    evaluated pair by pair: the reference for h_action."""
    amb = co.amb
    mat = amb.sym.basis[alpha]
    ea = co.n + alpha
    out = {}
    for p in range(co.n):
        for q in range(p + 1, co.n):
            val = {}
            for a, c in co.evaluate(elem, (p, q)).items():
                for b, w in amb.bracket_basis(ea, a).items():
                    val[b] = val.get(b, 0) + c * w
            for r in range(co.n):
                for a, c in co.evaluate(elem, (r, q)).items():
                    val[a] = val.get(a, 0) - mat[r][p] * c
                for a, c in co.evaluate(elem, (p, r)).items():
                    val[a] = val.get(a, 0) - mat[r][q] * c
            out.update(((a, (p, q)), c) for a, c in val.items())
    return ch.HomElement(2, out)


@SMALL_ALGEBRAS
def test_popp_module_equals_the_two_orthocomplements(alg):
    co = cohomology_of(alg)
    assert co.normal_module_popp().matrix == reference_popp(co)


@SMALL_ALGEBRAS
def test_h_action_equals_the_pairwise_evaluation(alg):
    co = cohomology_of(alg)
    monos = co.positive_monomials(2)
    elems = ([ch.HomElement(2, {m: Fraction(1)}) for m in monos]
             + co.normal_module_morimoto().elements + co.normal_module_popp().elements)
    for alpha in range(co.amb.sym.dimH):
        for e in elems:
            assert co.h_action(alpha, e) == reference_h_action(co, alpha, e)


@pytest.mark.parametrize("name", ["heisenberg3", "free23"])
def test_popp_witness_is_the_first_row_of_the_intersection(name, monkeypatch):
    # a trace module that meets the Morimoto module O in one line
    co = make_cohomology(name)
    monos = co.positive_monomials(2)
    operp = co.normal_module_morimoto().matrix
    s = co._subspace(2, co.s_module().matrix[:1] + [operp[3]], monos)
    monkeypatch.setattr(co, "s_module", lambda: s)
    with pytest.raises(IntersectionNonTrivial) as raised:
        co.normal_module_popp()
    expected = rl.span_intersection(s.matrix, operp)
    assert len(expected) == 1
    assert raised.value.witness == co._from_coords(2, expected[0], monos)


def test_free25_morimoto_module_is_a_complement():
    # 1247 positive monomials counted from the degrees, and a rank 85 of the
    # degree-one differentials in floating point and mod 1000003; the module
    # raises ClosureFailure unless it complements im d+
    co = cohomology_of(al.free_nilpotent(2, 5))
    n = co.normal_module_morimoto()
    assert (len(n.monomials), co.image_partial_plus().dim, n.dim) == (1247, 85, 1162)


def test_popp_certificate_raises_when_not_h_invariant(monkeypatch):
    # the exact certificates are checks that raise, so they hold under python -O
    co = make_cohomology("heisenberg3")
    monkeypatch.setattr(ch.Cohomology, "_check_h_invariant", lambda self, rows, monos: False)
    with pytest.raises(ClosureFailure):
        co.normal_module_popp()


def test_morimoto_certificate_raises_when_meeting_image(monkeypatch):
    co = make_cohomology("heisenberg3")
    monkeypatch.setattr(ch.Cohomology, "_complements", lambda self, rows, im, monos: False)
    with pytest.raises(ClosureFailure):
        co.normal_module_morimoto()


@pytest.mark.parametrize("name", ["heisenberg3", "free23"])
def test_complements_rejects_non_complements(name):
    co = make_cohomology(name)
    rows = co.normal_module_popp().matrix
    im = co.image_partial_plus()
    monos = co.positive_monomials(2)
    assert co._complements(rows, im, monos)
    # right count, but one row now lies in im d+
    assert not co._complements(rows[:-1] + [im.matrix[0]], im, monos)
    # right count, but dependent rows
    assert not co._complements(rows[:-1] + [rows[0]], im, monos)
    # independent and meeting im d+ trivially, but one dimension short
    assert not co._complements(rows[:-1], im, monos)


@pytest.mark.parametrize("name", ["heisenberg3", "free23"])
def test_check_h_invariant_rejects_a_monomial_line(name):
    co = make_cohomology(name)
    monos = co.positive_monomials(2)
    line = [Fraction(int(m == (0, (0, 1)))) for m in monos]
    assert sum(line) == 1
    assert not co._check_h_invariant([line], monos)


def test_h3_degree_one_differential_bijective():
    # on the 3-dimensional Heisenberg algebra, the differential restricted to
    # positive-degree hom(n, g) is injective onto its image of equal dimension
    co = make_cohomology("heisenberg3")
    monos2 = co.positive_monomials(2)
    rows = []
    for m in co.positive_monomials(1):
        rows.append(co._coords(co._monomial_differential(1, m), monos2))
    assert rl.rank(rows) == len(co.positive_monomials(1))


def test_evaluate_matches_coefficients():
    co = make_cohomology("free23")
    e = ch.hom_element(2, [(4, (0, 1), 3), (2, (0, 2), -2)])
    assert co.evaluate(e, (0, 1)) == {4: Fraction(3)}
    assert co.evaluate(e, (1, 0)) == {4: Fraction(-3)}
    assert co.evaluate(e, (2, 0)) == {2: Fraction(2)}
    assert co.evaluate(e, (1, 2)) == {}
