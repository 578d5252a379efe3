"""Exact linear algebra over the rationals.

Matrices are lists of rows, each row a list of ``fractions.Fraction``.
Row reduction uses deterministic pivoting: first nonzero column, smallest
row index. Everything returns fresh lists; inputs are never mutated.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _copy(m):
    return [list(row) for row in m]


def rref(m):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots is the list of pivot column indices.
    """
    r = _copy(m)
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
        inv = ONE / r[lead][col]
        r[lead] = [x * inv for x in r[lead]]
        for i in range(rows):
            if i != lead and r[i][col] != 0:
                f = r[i][col]
                r[i] = [a - f * b for a, b in zip(r[i], r[lead])]
        pivots.append(col)
        lead += 1
    return r, pivots


def rank(m):
    return len(rref(m)[1])


def row_basis(m):
    """Basis of the row space, in reduced echelon form (zero rows dropped)."""
    r, pivots = rref(m)
    return [r[i] for i in range(len(pivots))]


def nullspace(m):
    """Basis of the right kernel {x : m x = 0}."""
    if not m:
        return []
    cols = len(m[0])
    r, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def matmul(a, b):
    if not a or not b:
        return []
    n, k, mcols = len(a), len(b), len(b[0])
    out = [[ZERO] * mcols for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for j in range(k):
            x = ai[j]
            if x == 0:
                continue
            bj = b[j]
            for c in range(mcols):
                if bj[c] != 0:
                    oi[c] += x * bj[c]
    return out


def matvec(a, v):
    return [sum((x * y for x, y in zip(row, v) if x != 0), ZERO) for row in a]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def invert(m):
    """Inverse of a square rational matrix via Gauss-Jordan.

    Raises ValueError on singular input.
    """
    n = len(m)
    aug = [list(row) + ident_row for row, ident_row in zip(m, identity(n))]
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r[:n]]


def solve(a, b):
    """One exact solution x of a x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    if not a:
        return None
    cols = len(a[0])
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for i, p in enumerate(pivots):
        x[p] = r[i][cols]
    return x


def span_intersection(a, b):
    """Basis of the intersection of two row spans."""
    if not a or not b:
        return []
    p, q = len(a), len(b)
    cols = len(a[0])
    # x = c.a = d.b  <=>  [c d] in ker of the stacked coefficient matrix.
    constraint = [[a[i][j] for i in range(p)] + [-b[k][j] for k in range(q)]
                  for j in range(cols)]
    inter = []
    for cd in nullspace(constraint):
        v = [sum((cd[i] * a[i][j] for i in range(p)), ZERO) for j in range(cols)]
        inter.append(v)
    return row_basis(inter)


def spans_equal(a, b):
    ra = row_basis(a)
    rb = row_basis(b)
    return ra == rb
