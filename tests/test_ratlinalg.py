"""Tests for the exact rational linear algebra under every exact certificate."""

import random
from fractions import Fraction

import pytest
from dense_reference import (column_rref, dense_matmul, identity, oracle_nullspace,
                             oracle_row_basis, oracle_solve, transpose)

from cartandev import cohomology as ch
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
        assert rl.echelon(rl.sparse(b)) == rl.echelon(rl.sparse(A))
        assert rl.rref(b)[1] == rl.rref(A)[1]


def test_rref_does_not_mutate_its_input():
    b = [list(row) for row in A]
    rl.rref(b)
    assert b == A


def test_rank():
    assert rl.rank(A) == 2
    assert rl.rank(identity(3)) == 3
    assert rl.rank(F([[0, 0], [0, 0]])) == 0
    assert rl.rank([]) == 0


def test_nullspace_is_the_kernel():
    ker = list(rl.kernel(rl.sparse(A), 4).values())
    assert len(ker) == len(A[0]) - rl.rank(A)
    assert len(rl.echelon(ker)) == len(ker)
    for x in ker:
        assert rl.dense(rl.product([x], rl.columns(rl.sparse(A), 4)), 3)[0] == [0, 0, 0]


def test_nullspace_depends_only_on_the_row_space():
    ker = rl.kernel(rl.sparse(A), 4)
    assert rl.kernel(list(rl.echelon(rl.sparse(A)).values()), 4) == ker
    assert rl.kernel(rl.sparse(A + [A[0]]), 4) == ker


def test_kernel_of_no_equations_is_the_unit_rows():
    units = {f: {f: 1} for f in range(3)}
    assert rl.kernel([], 3) == rl.kernel([{}], 3) == units


def test_invert():
    m = F([[2, 1], [1, 1]])
    assert dense_matmul(m, rl.invert(m)) == identity(2)
    with pytest.raises(ValueError):
        rl.invert(F([[1, 2], [2, 4]]))


def test_block_diagonal():
    # the block-diagonal Gram matrices of cohomology, as sparse rows
    a, b = F([[1, 2], [3, 4]]), F([[5]])
    assert rl.dense(ch._block_rows([a, b]), 3) == F([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
    assert ch._block_rows([]) == []
    # zero cells are not stored, inside a block or outside
    assert ch._block_rows([F([[1, 0], [0, 2]]), b]) == [{0: 1}, {1: 2}, {2: 5}]


def tagged_solve(a, b):
    """One solution x of a x = b, or None, by Gauss-Jordan on the columns of
    a, each tagged with a unit column as algebra.ambient solves for the
    [h, h] coefficients: b's residual is 0 on the first len(a) columns
    exactly when there is a solution, and minus its tag part is one."""
    n, cols = len(a), len(a[0])
    basis = rl.echelon([{**col, n + j: Fraction(1)}
                        for j, col in enumerate(rl.columns(rl.sparse(a), cols))])
    res = rl.residual(basis, rl.sparse([b])[0])
    if any(c < n for c in res):
        return None
    return [-res.get(n + j, 0) for j in range(cols)]


def test_solve():
    x = tagged_solve(A, F([[3, 0, 3]])[0])
    assert dense_matmul([x], transpose(A))[0] == F([[3, 0, 3]])[0]
    # inconsistent: the third equation must be the sum of the first two
    assert tagged_solve(A, F([[1, 1, 1]])[0]) is None


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
    low_rank = dense_matmul(random_sparse(rng, 10, 3, 0.6), random_sparse(rng, 3, 8, 0.6))
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
    assert rl.dense(rl.kernel(rl.sparse(zero), 3).values(), 3) == identity(3)


@pytest.mark.parametrize("seed", range(6))
def test_matmul_equals_the_triple_loop(seed):
    rng = random.Random(100 + seed)
    for n, k, m in [(5, 7, 3), (1, 4, 9), (8, 2, 6), (3, 3, 3)]:
        a = random_sparse(rng, n, k, 0.4)
        b = random_sparse(rng, k, m, 0.4)
        a_before, b_before = [list(r) for r in a], [list(r) for r in b]
        assert rl.dense(rl.product(rl.sparse(a), rl.sparse(b)), m) == dense_matmul(a, b)
        assert (a, b) == (a_before, b_before)


# -- every public function against one column-by-column oracle -----------------


def oracle_invert(m):
    n = len(m)
    r, pivots = column_rref([row + [Fraction(int(i == j)) for j in range(n)]
                             for i, row in enumerate(m)])
    return [row[n:] for row in r[:n]] if pivots[:n] == list(range(n)) else None


def oracle_span_intersection(a, b):
    kernel = oracle_nullspace([list(col) for col in zip(*(a + b))])
    return oracle_row_basis(dense_matmul([v[:len(a)] for v in kernel], a)) if kernel else []


def oracle_residual(m, v):
    r, pivots = column_rref(m)
    out = list(v)
    for row, p in zip(r, pivots):
        f = v[p]
        out = [x - f * y for x, y in zip(out, row)]
    return out


def check_invert(square):
    """Whether rl.invert equals the oracle: the inverse, or ValueError."""
    expected = oracle_invert(square)
    if expected is None:
        with pytest.raises(ValueError):
            rl.invert(square)
    else:
        assert rl.invert(square) == expected
    return expected is not None


@pytest.mark.parametrize("seed", range(6))
def test_every_public_function_equals_the_column_oracle(seed):
    rng = random.Random(200 + seed)
    # the cases below are mostly singular, so add dense squares
    assert sum(check_invert(random_sparse(rng, n, n, 0.8)) for n in (1, 2, 3, 5)) >= 2
    for m in sparse_cases(seed):
        r, pivots = column_rref(m)
        assert rl.rref(m) == (r, pivots)
        assert rl.rank(m) == len(pivots)
        rows = rl.sparse(m)
        assert rl.echelon(rows) == dict(zip(pivots, rl.sparse(oracle_row_basis(m))))
        if not m or not m[0]:
            continue
        cols = len(m[0])
        assert rl.dense(rows, cols) == m
        # the kernel comes as its reduced echelon basis, unique for the span
        kernel_basis = oracle_row_basis(oracle_nullspace(m))
        kernel = rl.kernel(rows, cols)
        assert list(kernel.values()) == rl.sparse(kernel_basis)
        assert rl.echelon(kernel.values()) == kernel
        assert rl.columns(rows, cols) == rl.sparse(transpose(m))
        assert rl.product(rows, rl.columns(rows, cols)) == rl.sparse(
            dense_matmul(m, transpose(m)))
        probe = random_sparse(rng, 1, cols, 0.5)[0]
        assert rl.residual(rl.echelon(rows), rl.sparse([probe])[0]) == rl.sparse(
            [oracle_residual(m, probe)])[0]
        assert rl.dot(rows[0], rl.sparse([probe])[0]) == sum(
            (x * y for x, y in zip(m[0], probe)), Fraction(0))
        # a consistent right-hand side, then one that is inconsistent unless m has full row rank
        weights = random_sparse(rng, 1, len(m), 0.7)[0]
        b = [sum((w * x for w, x in zip(weights, col)), Fraction(0)) for col in zip(*m)]
        x = tagged_solve(transpose(m), b)
        assert oracle_solve(transpose(m), b) is not None and dense_matmul([x], m)[0] == b
        b = random_sparse(rng, 1, len(m), 0.7)[0]
        x = tagged_solve(m, b)
        assert (x is None) == (oracle_solve(m, b) is None)
        assert x is None or dense_matmul([x], transpose(m))[0] == b
        k = min(len(m), cols)
        check_invert([row[:k] for row in m[:k]])
        top, bottom = m[:len(m) // 2 + 1], m[len(m) // 2:]
        assert rl.span_intersection(top, bottom) == oracle_span_intersection(top, bottom)
        assert rl.spans_equal(top, bottom) == (oracle_row_basis(top) == oracle_row_basis(bottom))
        assert rl.spans_equal(m, r)
