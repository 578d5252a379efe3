"""Tests for hom-valued forms, the graded differential, and normal modules."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cartandev import algebra as al
from cartandev import cohomology as ch
from cartandev import ratlinalg as rl
from cartandev.builtins import algebra as builtin_algebra
from cartandev.checks import cohomology_for
from cartandev.errors import ClosureFailure, IntersectionNonTrivial


def inner(co, x, y):
    """<x, y> = sum of cx cy g(a, b) wedge_gram(J, K) over every pair of
    monomials e_a (x) e^J of x and e_b (x) e^K of y: the Gram oracle."""
    gg = co.gram_g()
    return sum((cx * cy * gg[a][b] * co.wedge_gram(js, ks)
                for (a, js), cx in x.coeffs.items() for (b, ks), cy in y.coeffs.items()),
               Fraction(0))


def evaluate(elem, args):
    """elem evaluated on a tuple of n-basis indices; a sparse g-vector."""
    js, sign = ch._sort_sign(args)
    if sign == 0:
        return {}
    out = {}
    for (a, ks), c in elem.coeffs.items():
        if ks == js:
            out[a] = out.get(a, Fraction(0)) + sign * c
    return out


def codifferential(co, beta):
    """Gram-adjoint of the differential: <d a, b> = <a, d* b> exactly."""
    k = beta.arity - 1
    monos = co.monomials(k)
    y = [inner(co, co._monomial_differential(k, m), beta) for m in monos]
    gram = rl.dense(co._gram_restricted(monos), len(monos))
    return ch.HomElement(k, dict(zip(monos, rl.solve(gram, y))))


FREE_ALGEBRAS = {"free32": (3, 2), "free25": (2, 5), "free33": (3, 3)}     # (generators, step)


def make_cohomology(name):
    """The Cohomology of a builtin algebra or of a free one of FREE_ALGEBRAS."""
    free = FREE_ALGEBRAS.get(name)
    return cohomology_for(al.free_nilpotent(*free) if free else builtin_algebra(name))


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


def swept_differential(co, elem):
    """The differential by a sweep over every (k+1)-tuple, evaluating elem on
    each: the oracle of the differential, which pushes elem's terms forward."""
    k, amb, out = elem.arity, co.amb, {}
    for tup in itertools.combinations(range(co.n), k + 1):
        val = {}
        for i in range(k + 1):
            s = Fraction(1 if i % 2 == 0 else -1)
            for a, c in evaluate(elem, tup[:i] + tup[i + 1:]).items():
                for b, w in amb.bracket_basis(tup[i], a).items():
                    val[b] = val.get(b, Fraction(0)) + s * c * w
        for i, j in itertools.combinations(range(k + 1), 2):
            rest = tup[:i] + tup[i + 1:j] + tup[j + 1:]
            s = Fraction(-1 if (i + j) % 2 == 1 else 1)
            for l, c in amb.nil.bracket_basis(tup[i], tup[j]).items():
                for a, w in evaluate(elem, (l,) + rest).items():
                    val[a] = val.get(a, Fraction(0)) + s * c * w
        out.update(((a, tup), c) for a, c in val.items() if c != 0)
    return out


@pytest.mark.parametrize("name", ["heisenberg3", "engel", "free23", "free32"])
def test_differential_equals_the_full_sweep(name):
    # term for term and in the same order, on every monomial of arity 0 to 2
    # and on the identity of n
    co = cohomology_for(al.free_nilpotent(3, 2)) if name == "free32" else make_cohomology(name)
    elems = [ch.HomElement(k, {m: Fraction(1)}) for k in range(3) for m in co.monomials(k)]
    for e in elems + [co.identity_hom()]:
        assert list(co.differential(e).coeffs.items()) == list(swept_differential(co, e).items())


def random_elements(co, rng, k, count):
    """count elements of arity k, each of 2 to 6 terms (at most every monomial
    of arity k) with coefficients p/q, 0 < |p| <= 9 and q <= 7. Where another
    monomial's differential shares an entry with the first term's, the second
    term is that monomial, with the coefficient that cancels the two on the
    entry; each such pair is returned with its entry."""
    monos = co.monomials(k)
    swept = {m: swept_differential(co, ch.HomElement(k, {m: Fraction(1)})) for m in monos}
    elems, pairs = [], []
    for _ in range(count):
        first = rng.choice(monos)
        terms = {first: Fraction(rng.choice([-9, -5, -2, -1, 1, 3, 4, 7]), rng.randint(1, 7))}
        entry = rng.choice(sorted(swept[first])) if swept[first] else None
        partners = [m for m in monos if m != first and entry in swept[m]]
        if partners:
            m = rng.choice(partners)
            terms[m] = -terms[first] * swept[first][entry] / swept[m][entry]
            pairs.append((ch.HomElement(k, dict(terms)), entry))
        size = min(rng.randint(2, 6), len(monos))
        while len(terms) < size:
            c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
            terms.setdefault(rng.choice(monos), c)
        elems.append(ch.HomElement(k, terms))
    return elems, pairs


PUSH_FORWARD_CASES = {"engel": 11, "free24": 12, "free32": 13}     # algebra: seed


@pytest.mark.parametrize("name", sorted(PUSH_FORWARD_CASES))
def test_differential_of_sums_equals_the_full_sweep(name):
    # 20 elements of each arity 0 to 2: the term maps agree with the sweep's,
    # and the term order is (index tuple, a) whatever the order of the terms
    co = make_cohomology(name)
    rng = random.Random(PUSH_FORWARD_CASES[name])
    for k in range(3):
        elems, pairs = random_elements(co, rng, k, 20)
        # at arity 0 no sampled entry is shared by two differentials
        assert len(pairs) >= (5 if k else 0)
        for pair, entry in pairs:
            assert entry not in co.differential(pair).coeffs
        for e in elems + [pair for pair, _ in pairs]:
            d = co.differential(e)
            assert dict(d.coeffs) == swept_differential(co, e)
            assert list(d.coeffs) == sorted(d.coeffs, key=lambda m: (m[1], m[0]))
            items = list(e.coeffs.items())
            rng.shuffle(items)
            for reordered in (items, items[::-1]):
                assert list(co.differential(ch.HomElement(k, dict(reordered))).coeffs.items()) \
                    == list(d.coeffs.items())
            if k:
                assert co.differential(d).is_zero()


@pytest.mark.parametrize("name", ["heisenberg3", "free23"])
def test_codifferential_adjointness(name):
    # <d a, b> == <a, d* b> for every basis pair in positive degree
    co = make_cohomology(name)
    ones = co.positive_monomials(1)
    twos = co.positive_monomials(2)
    betas = [ch.HomElement(2, {m: Fraction(1)}) for m in twos]
    dstars = [codifferential(co, b) for b in betas]
    for m in ones:
        a = ch.HomElement(1, {m: Fraction(1)})
        da = co.differential(a)
        for b, db in zip(betas, dstars):
            assert inner(co, da, b) == inner(co, a, db)


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
def test_gram_g_and_its_dual(alg):
    # g: the extended metric on n, then the identity on h; n*: its inverse
    co = cohomology_for(alg)
    g, gg, gd = rl.block_diagonal(co.metric.blocks), co.gram_g(), co.gram_n_dual()
    n, N = co.n, co.N
    assert [row[:n] for row in gg[:n]] == g
    assert [row[n:] for row in gg[n:]] == rl.identity(N - n)
    assert all(not x for row in gg[:n] for x in row[n:])
    assert all(not x for row in gg[n:] for x in row[:n])
    assert rl.matmul(gd, g) == rl.identity(n)


@SMALL_ALGEBRAS
def test_gram_restricted_equals_pairwise_inner(alg):
    # the block-wise Gram skips pairs across blocks; a nonzero there would fail here
    co = cohomology_for(alg)
    monos = co.positive_monomials(2)
    units = [ch.HomElement(2, {m: Fraction(1)}) for m in monos]
    gram = rl.dense(co._gram_restricted(monos), len(monos))
    assert gram == [[inner(co, x, y) for y in units] for x in units]


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
            assert inner(co, gen, probe) == Fraction(1, 2)


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
    assert co._check_h_invariant(list(n.echelon.values()), monos)


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
        assert codifferential(co, e).is_zero()
    # im d+ meets ker d* trivially, so the check above is not vacuous
    assert not codifferential(co, co.image_partial_plus().elements[0]).is_zero()


def reference_popp(co):
    """N = (S + (S + O)^perp)^perp by two orthocomplements over hom_+, O the
    Morimoto module: the reference for normal_module_popp."""
    monos = co.positive_monomials(2)
    s = list(co.s_module().echelon.values())
    operp = list(co.normal_module_morimoto().echelon.values())
    tperp = co._ortho_complement(s + operp, monos)
    return rl.row_basis(rl.dense(co._ortho_complement(s + tperp, monos), len(monos)))


def h_action(co, alpha, elem):
    """The induced symmetry action on hom(^2 n, g), monomial by monomial
    through Cohomology._act, the map _check_h_invariant applies."""
    return ch.hom_element(2, [(b, js, c * w) for m, c in elem.coeffs.items()
                              for (b, js), w in co._act(alpha, m).items()])


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
            for a, c in evaluate(elem, (p, q)).items():
                for b, w in amb.bracket_basis(ea, a).items():
                    val[b] = val.get(b, 0) + c * w
            for r in range(co.n):
                for a, c in evaluate(elem, (r, q)).items():
                    val[a] = val.get(a, 0) - mat[r][p] * c
                for a, c in evaluate(elem, (p, r)).items():
                    val[a] = val.get(a, 0) - mat[r][q] * c
            out.update(((a, (p, q)), c) for a, c in val.items())
    return ch.HomElement(2, out)


@SMALL_ALGEBRAS
def test_popp_module_equals_the_two_orthocomplements(alg):
    co = cohomology_for(alg)
    assert co.normal_module_popp().matrix == reference_popp(co)


@SMALL_ALGEBRAS
def test_h_action_equals_the_pairwise_evaluation(alg):
    co = cohomology_for(alg)
    monos = co.positive_monomials(2)
    elems = ([ch.HomElement(2, {m: Fraction(1)}) for m in monos]
             + co.normal_module_morimoto().elements + co.normal_module_popp().elements)
    for alpha in range(co.amb.sym.dimH):
        for e in elems:
            assert h_action(co, alpha, e) == reference_h_action(co, alpha, e)


@pytest.mark.parametrize("name", ["heisenberg3", "free23"])
def test_popp_witness_is_the_first_row_of_the_intersection(name, monkeypatch):
    # a trace module that meets the Morimoto module O in one line
    co = make_cohomology(name)
    monos = co.positive_monomials(2)
    operp = co.normal_module_morimoto().matrix
    s = co._subspace(2, rl.sparse(co.s_module().matrix[:1] + [operp[3]]), monos)
    monkeypatch.setattr(co, "s_module", lambda: s)
    with pytest.raises(IntersectionNonTrivial) as raised:
        co.normal_module_popp()
    expected = rl.span_intersection(s.matrix, operp)
    assert len(expected) == 1
    assert raised.value.witness == ch.HomElement(2, dict(zip(monos, expected[0])))


def matrix_digest(matrix):
    """sha256 of dense rows written one line each, entries by str, comma-separated."""
    h = hashlib.sha256()
    for row in matrix:
        h.update((",".join(str(x) for x in row) + "\n").encode())
    return h.hexdigest()


# sha256 of the matrix rows of im d+, N_Morimoto and N_Popp, recorded before
# the exact path moved to sparse rows; every later engine must give these bytes
PINNED_DIGESTS = {
    "heisenberg3": ("fc7edb55f38b0db612f0e4f2748df0ea76278636b08b12806a857d3268e720c9",
                    "9182b3aad100b2cfece8075290b885410beb425c5ddb6b7dc196836ea8a7e511",
                    "9182b3aad100b2cfece8075290b885410beb425c5ddb6b7dc196836ea8a7e511"),
    "engel": ("4d921dcdac004695f5dc3ce3e4851fa33b48598a06d0b52cbe462f940797a09f",
              "5430d769bff76b6bd1ade953fdcd4e3d892dc35b83d319541191c92a05205ec9",
              "5430d769bff76b6bd1ade953fdcd4e3d892dc35b83d319541191c92a05205ec9"),
    "free23": ("e2d085a927ca686a41b8437aebb8ce1169cee5c6f96c9d8166964961db95eb97",
               "d584b44caaa7dedccd98d4f10d75fa2aec78b395a9f6d89ddae411891569defe",
               "b0140538fc01abc72d537e71f3c689a65e0a54eccfb71d0ec94194af95397752"),
    "free24": ("bb23acaa6f1ec003ba3f2059e50dc7949022c3306d303370c46477a5e12ac8a7",
               "a67641f7fe2a3daa4ade3da5ce1347368a56b78d7525e382330e68bf5cdf1860",
               "2546f57594f64d747567e8faad1c8ab8099b98db7f7fe05eae564d5696af0a6a"),
    "free32": ("2cbf725f9fd70913d2095538abf4a30605286d17a4da25ca70d2d4c96588bdab",
               "25530780d94cc919e99ab99a5f1a4395bc7d2dfce04990d0b67d320cf6336385",
               "b96319a8dccd057af5bc7a071e0dab4fa7d91283235f79924a51ec3a482a4b59"),
}
FREE25_MORIMOTO_DIGEST = "d0a9d5e4f6cf1e7151831226bc063ffb5656b73cb1b1b00f5f0231e855af6702"


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_module_bytes_are_pinned(name):
    alg = al.free_nilpotent(3, 2) if name == "free32" else builtin_algebra(name)
    co = cohomology_for(alg)
    modules = (co.image_partial_plus(), co.normal_module_morimoto(), co.normal_module_popp())
    assert tuple(matrix_digest(m.matrix) for m in modules) == PINNED_DIGESTS[name]


def test_free25_morimoto_module_is_a_complement():
    # 1247 positive monomials counted from the degrees, and a rank 85 of the
    # degree-one differentials in floating point and mod 1000003; the module
    # raises ClosureFailure unless it complements im d+
    co = cohomology_for(al.free_nilpotent(2, 5))
    n = co.normal_module_morimoto()
    assert (len(n.monomials), co.image_partial_plus().dim, n.dim) == (1247, 85, 1162)
    assert matrix_digest(n.matrix) == FREE25_MORIMOTO_DIGEST


PRIME = 2 ** 61 - 1


def rank_mod_p(rows):
    """Rank mod PRIME of sparse rows {column: Fraction}, by forward elimination
    on the lowest column in plain int arithmetic. It bounds the rank over the
    rationals from below, so a full rank mod PRIME certifies a full rank."""
    pivots = {}
    for row in rows:
        r = {c: x.numerator * pow(x.denominator, -1, PRIME) % PRIME for c, x in row.items()}
        r = {c: x for c, x in r.items() if x}
        while r:
            c = min(r)
            if c not in pivots:
                inv = pow(r[c], -1, PRIME)
                pivots[c] = {j: x * inv % PRIME for j, x in r.items()}
                break
            f = r[c]
            for j, x in pivots[c].items():
                y = (r.get(j, 0) - f * x) % PRIME
                if y:
                    r[j] = y
                else:
                    r.pop(j, None)
    return len(pivots)


@pytest.mark.parametrize("name", ["heisenberg3", "engel", "free23", "free24", *FREE_ALGEBRAS])
def test_dimensions_equal_the_ranks_mod_a_prime(name):
    # im d+ from the sweep oracle's rows, reduced mod PRIME: shares no code with
    # the differential or ratlinalg; each module and im d+ together span hom_+
    co = make_cohomology(name)
    monos = co.positive_monomials(2)
    index = {m: i for i, m in enumerate(monos)}
    units = [ch.HomElement(1, {m: Fraction(1)}) for m in co.positive_monomials(1)]
    image = [{index[t]: c for t, c in swept_differential(co, u).items()} for u in units]
    assert rank_mod_p(image) == co.image_partial_plus().dim
    for module in (co.normal_module_popp(), co.normal_module_morimoto()):
        assert module.monomials == monos
        rows = list(module.echelon.values())
        assert rank_mod_p(rows) == module.dim
        assert rank_mod_p(image + rows) == len(monos)


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


# Asserts are stripped under -O, so the child reports what the certificates
# returned and the test compares it
CERTIFICATES_UNDER_O = """
import json, sys
from fractions import Fraction
from cartandev import builtins as bi, checks as ck
out = {"optimize": sys.flags.optimize}
for name in ("heisenberg3", "free23"):
    co = ck.cohomology_for(bi.algebra(name))
    monos = co.positive_monomials(2)
    rows = list(co.normal_module_popp().echelon.values())
    im = co.image_partial_plus()
    line = {monos.index((0, (0, 1))): Fraction(1)}
    out[name] = [co._check_h_invariant(rows, monos), co._check_h_invariant([line], monos),
                 co._complements(rows, im, monos),
                 co._complements(rows[:-1] + [next(iter(im.echelon.values()))], im, monos)]
print(json.dumps(out))
"""


def test_certificates_reject_under_python_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", CERTIFICATES_UNDER_O],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"optimize": 1, "heisenberg3": [True, False, True, False],
                                       "free23": [True, False, True, False]}


@pytest.mark.parametrize("name", ["heisenberg3", "free23"])
def test_complements_rejects_non_complements(name):
    co = make_cohomology(name)
    rows = list(co.normal_module_popp().echelon.values())
    im = co.image_partial_plus()
    monos = co.positive_monomials(2)
    assert co._complements(rows, im, monos)
    # right count, but one row now lies in im d+
    assert not co._complements(rows[:-1] + [next(iter(im.echelon.values()))], im, monos)
    # right count, but dependent rows
    assert not co._complements(rows[:-1] + [rows[0]], im, monos)
    # independent and meeting im d+ trivially, but one dimension short
    assert not co._complements(rows[:-1], im, monos)


@pytest.mark.parametrize("name", ["heisenberg3", "free23"])
def test_check_h_invariant_rejects_a_monomial_line(name):
    co = make_cohomology(name)
    monos = co.positive_monomials(2)
    line = {monos.index((0, (0, 1))): Fraction(1)}
    assert not co._check_h_invariant([line], monos)


def test_h3_degree_one_differential_bijective():
    # on the 3-dimensional Heisenberg algebra, the differential restricted to
    # positive-degree hom(n, g) is injective onto its image of equal dimension
    co = make_cohomology("heisenberg3")
    index = ch._column_index(co.positive_monomials(2))
    rows = [ch._coords(co._monomial_differential(1, m).coeffs, index)
            for m in co.positive_monomials(1)]
    assert len(rl.echelon(rows)) == len(co.positive_monomials(1))


def test_evaluate_matches_coefficients():
    e = ch.hom_element(2, [(4, (0, 1), 3), (2, (0, 2), -2)])
    assert evaluate(e, (0, 1)) == {4: Fraction(3)}
    assert evaluate(e, (1, 0)) == {4: Fraction(-3)}
    assert evaluate(e, (2, 0)) == {2: Fraction(2)}
    assert evaluate(e, (1, 2)) == {}
