"""Tests for the exact rational linear algebra under every exact certificate."""

from fractions import Fraction

import pytest

from cartandev import ratlinalg as rl


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


# rank 2 in Q^4: the third row is the sum of the first two
A = F([[1, 2, 0, 3],
       [0, 1, 1, -1],
       [1, 3, 1, 2]])


def test_rref_of_a_known_matrix():
    r, pivots = rl.rref(A)
    assert pivots == [0, 1]
    assert r == F([[1, 0, -2, 5], [0, 1, 1, -1], [0, 0, 0, 0]])


def test_rref_is_canonical_for_the_row_space():
    # permuted, rescaled and duplicated rows span the same space
    variants = [
        [A[2], A[0], A[1]],
        [[Fraction(-3) * x for x in A[0]], A[1], [Fraction(1, 7) * x for x in A[2]]],
        A + [A[1], A[0]],
    ]
    for b in variants:
        assert rl.row_basis(b) == rl.row_basis(A)
        assert rl.rref(b)[1] == rl.rref(A)[1]


def test_rref_does_not_mutate_its_input():
    b = [list(row) for row in A]
    rl.rref(b)
    assert b == A


def test_rank():
    assert rl.rank(A) == 2
    assert rl.rank(rl.identity(3)) == 3
    assert rl.rank(F([[0, 0], [0, 0]])) == 0
    assert rl.rank([]) == 0


def test_nullspace_is_the_kernel():
    ker = rl.nullspace(A)
    assert len(ker) == len(A[0]) - rl.rank(A)
    assert rl.rank(ker) == len(ker)
    for x in ker:
        assert rl.matvec(A, x) == [0, 0, 0]


def test_nullspace_depends_only_on_the_row_space():
    assert rl.nullspace(A) == rl.nullspace(rl.row_basis(A))
    assert rl.nullspace(A + [A[0]]) == rl.nullspace(A)


def test_invert():
    m = F([[2, 1], [1, 1]])
    assert rl.matmul(m, rl.invert(m)) == rl.identity(2)
    with pytest.raises(ValueError):
        rl.invert(F([[1, 2], [2, 4]]))


def test_solve():
    x = rl.solve(A, F([[3, 0, 3]])[0])
    assert rl.matvec(A, x) == F([[3, 0, 3]])[0]
    # inconsistent: the third equation must be the sum of the first two
    assert rl.solve(A, F([[1, 1, 1]])[0]) is None


def test_span_intersection_and_equality():
    # c1 e1 + c2 e2 = d1 (e2 + e3) + d2 (e1 + e2 + e3) forces d1 = -d2, c1 = d2
    # and c2 = 0, so span{e1, e2} meets span{e2 + e3, e1 + e2 + e3} in the e1 line
    a = F([[1, 0, 0], [0, 1, 0]])
    b = F([[0, 1, 1], [1, 1, 1]])
    assert rl.span_intersection(a, b) == F([[1, 0, 0]])
    assert rl.span_intersection(a, F([[0, 0, 1]])) == []
    assert rl.span_intersection([], b) == []
    assert rl.spans_equal(a, F([[1, 1, 0], [1, -1, 0]]))
    assert not rl.spans_equal(a, b)
