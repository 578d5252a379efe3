"""Tests for the exact rational linear algebra under every exact certificate."""

import random
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
        assert rl.matmul([x], rl.transpose(A))[0] == [0, 0, 0]


def test_nullspace_depends_only_on_the_row_space():
    assert rl.nullspace(A) == rl.nullspace(rl.row_basis(A))
    assert rl.nullspace(A + [A[0]]) == rl.nullspace(A)


def test_invert():
    m = F([[2, 1], [1, 1]])
    assert rl.matmul(m, rl.invert(m)) == rl.identity(2)
    with pytest.raises(ValueError):
        rl.invert(F([[1, 2], [2, 4]]))


def test_block_diagonal():
    a, b = F([[1, 2], [3, 4]]), F([[5]])
    assert rl.block_diagonal([a, b]) == F([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
    assert rl.block_diagonal([]) == []
    # the zero cells are the shared ZERO, which the sparse rows skip by identity
    assert rl.block_diagonal([a, b])[0][2] is rl.ZERO


def test_solve():
    x = rl.solve(A, F([[3, 0, 3]])[0])
    assert rl.matmul([x], rl.transpose(A))[0] == F([[3, 0, 3]])[0]
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


# -- the sparse engine against the dense Gauss-Jordan loop --------------------


def dense_rref(m):
    """The dense Gauss-Jordan loop over every cell: the reference for rref."""
    r = [list(row) for row in m]
    if not r:
        return r, []
    rows, cols = len(r), len(r[0])
    pivots = []
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        src = next((i for i in range(lead, rows) if r[i][col] != 0), None)
        if src is None:
            continue
        r[lead], r[src] = r[src], r[lead]
        inv = Fraction(1) / r[lead][col]
        r[lead] = [x * inv for x in r[lead]]
        for i in range(rows):
            if i != lead and r[i][col] != 0:
                f = r[i][col]
                r[i] = [a - f * b for a, b in zip(r[i], r[lead])]
        pivots.append(col)
        lead += 1
    return r, pivots


def dense_matmul(a, b):
    return [[sum((a[i][j] * b[j][c] for j in range(len(b))), Fraction(0))
             for c in range(len(b[0]))] for i in range(len(a))]


def random_sparse(rng, rows, cols, density):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density
             else Fraction(0) for _ in range(cols)] for _ in range(rows)]


def sparse_cases(seed):
    rng = random.Random(seed)
    tall = random_sparse(rng, 12, 5, 0.3)
    wide = random_sparse(rng, 4, 15, 0.25)
    square = random_sparse(rng, 9, 9, 0.2)
    # zero rows and zero columns, then duplicated rows
    holes = random_sparse(rng, 8, 10, 0.4)
    for row in holes:
        row[3] = row[7] = Fraction(0)
    holes[2] = [Fraction(0)] * 10
    holes[5] = [Fraction(0)] * 10
    dupes = square[:4] + [square[1], square[3], square[1]]
    low_rank = rl.matmul(random_sparse(rng, 10, 3, 0.6), random_sparse(rng, 3, 8, 0.6))
    return [tall, wide, square, holes, dupes, low_rank,
            [], [[Fraction(0)] * 6 for _ in range(4)], [[Fraction(0)]], [[]]]


@pytest.mark.parametrize("seed", range(6))
def test_rref_equals_the_dense_reference(seed):
    for m in sparse_cases(seed):
        before = [list(row) for row in m]
        assert rl.rref(m) == dense_rref(m)
        assert m == before


def test_rref_of_empty_and_zero_inputs():
    assert rl.rref([]) == ([], [])
    zero = F([[0, 0, 0], [0, 0, 0]])
    assert rl.rref(zero) == (zero, [])
    assert rl.nullspace(zero) == rl.identity(3)


@pytest.mark.parametrize("seed", range(6))
def test_matmul_equals_the_triple_loop(seed):
    rng = random.Random(100 + seed)
    for n, k, m in [(5, 7, 3), (1, 4, 9), (8, 2, 6), (3, 3, 3)]:
        a = random_sparse(rng, n, k, 0.4)
        b = random_sparse(rng, k, m, 0.4)
        a_before, b_before = [list(r) for r in a], [list(r) for r in b]
        assert rl.matmul(a, b) == dense_matmul(a, b)
        assert (a, b) == (a_before, b_before)
