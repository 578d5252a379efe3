import json
from fractions import Fraction

import pytest

from cartandev import algebra as al
from cartandev import ratlinalg as rl
from cartandev.errors import (GradingViolation, JacobiViolation, MalformedSpec,
                              NotBracketGenerating)

H3 = {"dim": 3, "growth": [2, 3], "brackets": {"1,2": {"3": "1"}}}


def test_build_and_validate_h3():
    alg = al.build_algebra(H3)
    al.validate(alg)
    assert alg.dim == 3
    assert alg.step == 2
    assert alg.degree == (1, 1, 2)
    assert alg.c(0, 1, 2) == 1
    assert alg.c(1, 0, 2) == -1


def test_bracket_of_vectors():
    alg = al.build_algebra(H3)
    x = [Fraction(2), Fraction(0), Fraction(0)]
    y = [Fraction(0), Fraction(3), Fraction(0)]
    assert alg.bracket(x, y) == [0, 0, 6]


def test_spec_round_trip():
    alg = al.build_algebra(H3)
    again = al.build_algebra(json.loads(alg.to_json()))
    assert again == alg


def test_malformed_specs_rejected():
    with pytest.raises(MalformedSpec):
        al.build_algebra({"dim": 3, "growth": [2], "brackets": {}})
    with pytest.raises(MalformedSpec):
        al.build_algebra({"dim": 3, "growth": [2, 3],
                          "brackets": {"bogus": {"3": "1"}}})
    with pytest.raises(MalformedSpec):
        al.build_algebra({"dim": 3, "growth": [2, 3],
                          "brackets": {"1,2": {"9": "1"}}})


def test_jacobi_violation_detected():
    # Jacobi on (e1, e2, e3) sums to [e3, [e1, e2]] = e6 != 0
    bad = {"dim": 6, "growth": [3, 5, 6],
           "brackets": {"1,2": {"4": "1"}, "1,3": {"5": "1"},
                        "3,4": {"6": "1"}}}
    with pytest.raises(JacobiViolation):
        al.validate(al.build_algebra(bad))


def test_grading_violation():
    spec = {"dim": 3, "growth": [2, 3], "brackets": {"1,3": {"2": "1"}}}
    with pytest.raises(GradingViolation):
        al.validate(al.build_algebra(spec))


def test_not_bracket_generating():
    spec = {"dim": 3, "growth": [2, 3], "brackets": {}}
    with pytest.raises(NotBracketGenerating):
        al.validate(al.build_algebra(spec))


def test_free23_table():
    alg = al.free_nilpotent(2, 3)
    assert alg.growth == (2, 3, 5)
    assert alg.brackets == {
        (0, 1): {2: Fraction(1)},
        (0, 2): {3: Fraction(1)},
        (1, 2): {4: Fraction(1)},
    }
    al.validate(alg)


def test_free_growth_matches_necklace_oracle():
    for gens, step in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        alg = al.free_nilpotent(gens, step)
        assert alg.layer_dims() == al.free_layer_dims_oracle(gens, step)
        al.validate(alg)


def test_extended_metric_h3():
    alg = al.build_algebra(H3)
    m = al.extend_metric(alg)
    assert [list(r) for r in m.blocks[0]] == [[1, 0], [0, 1]]
    assert [list(r) for r in m.blocks[1]] == [[Fraction(1, 2)]]


def test_extended_metric_free23():
    m = al.extend_metric(al.free_nilpotent(2, 3))
    assert [list(r) for r in m.blocks[1]] == [[Fraction(1, 2)]]
    assert [list(r) for r in m.blocks[2]] == [
        [Fraction(1, 2), 0], [0, Fraction(1, 2)]]


def test_symmetry_h3():
    alg = al.build_algebra(H3)
    sym = al.symmetry_algebra(alg)
    assert sym.dimH == 1
    assert sym.kerH == ()
    assert sym.k0 == 2
    a = sym.basis[0]
    # the generator acts as the standard rotation on the first layer
    assert [[int(v) for v in row] for row in a] == [
        [0, 1, 0], [-1, 0, 0], [0, 0, 0]]


def test_symmetry_free23():
    sym = al.symmetry_algebra(al.free_nilpotent(2, 3))
    assert sym.dimH == 1
    a = sym.basis[0]
    # rotation on the generators induces a rotation on the third layer
    assert a[0][1] == 1 and a[1][0] == -1
    assert a[3][4] == 1 and a[4][3] == -1
    assert a[2][2] == 0


def test_symmetry_engel_trivial():
    spec = {"dim": 4, "growth": [2, 3, 4],
            "brackets": {"1,2": {"3": "1"}, "2,3": {"4": "1"}}}
    sym = al.symmetry_algebra(al.build_algebra(spec))
    assert sym.dimH == 0
    # with no symmetries the whole first layer is in the kernel
    assert rl.rank([list(v) for v in sym.kerH]) == 2


def test_symmetries_preserve_metric():
    for alg in (al.build_algebra(H3), al.free_nilpotent(2, 3),
                al.free_nilpotent(2, 4)):
        m = al.extend_metric(alg)
        sym = al.symmetry_algebra(alg)
        assert al.check_metric_preservation(sym, m)


def test_symmetry_algebra_needs_an_orthonormal_layer_one():
    alg = al.build_algebra(H3)
    good = al.extend_metric(alg)
    skewed = al.ExtendedMetric(
        blocks=(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))),)
        + good.blocks[1:])
    with pytest.raises(MalformedSpec):
        al.symmetry_algebra(alg, skewed)
    assert al.symmetry_algebra(alg, good) == al.symmetry_algebra(alg)


def test_ambient_h3():
    alg = al.build_algebra(H3)
    amb = al.ambient(alg, al.symmetry_algebra(alg))
    assert amb.dim == 4
    assert amb.bracket_basis(0, 1) == {2: Fraction(1)}
    # [e1, e4] = e2 and [e2, e4] = -e1: the rotation action
    assert amb.bracket_basis(0, 3) == {1: Fraction(1)}
    assert amb.bracket_basis(1, 3) == {0: Fraction(-1)}
    assert amb.degree_of(0) == -1
    assert amb.degree_of(2) == -2
    assert amb.degree_of(3) == 0


def test_ambient_free23_relations():
    alg = al.free_nilpotent(2, 3)
    amb = al.ambient(alg, al.symmetry_algebra(alg))
    assert amb.dim == 6
    assert amb.bracket_basis(0, 5) == {1: Fraction(1)}     # [e1, e0] = e2
    assert amb.bracket_basis(1, 5) == {0: Fraction(-1)}    # [e2, e0] = -e1
    assert amb.bracket_basis(3, 5) == {4: Fraction(1)}     # [e4, e0] = e5
    assert amb.bracket_basis(4, 5) == {3: Fraction(-1)}    # [e5, e0] = e4
