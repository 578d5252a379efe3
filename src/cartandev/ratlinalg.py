"""Exact linear algebra over the rationals.

Matrices are lists of rows, each row a list of ``fractions.Fraction``, at
every function's interface. Inside, row reduction and products keep only the
nonzero entries of each row, so their cost follows the number of nonzeros,
not the matrix size. Row reduction uses deterministic pivoting: first
nonzero column, smallest row index. Everything returns fresh lists; inputs
are never mutated.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _nonzeros(row):
    """(column, entry) pairs of a row's nonzeros; the shared ZERO that fills
    the zero cells of rows built here is skipped without a Fraction test."""
    return [(c, x) for c, x in enumerate(row) if x is not ZERO and x]


def _eliminate(row, f, pivot):
    """row -= f * pivot over the pivot's nonzeros, dropping entries that cancel."""
    for c, x in pivot.items():
        v = row.get(c, ZERO) - f * x
        if v:
            row[c] = v
        else:
            del row[c]


def rref(m):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots is the list of pivot column indices.
    """
    if not m:
        return [], []
    cols = len(m[0])
    rest = [dict(_nonzeros(row)) for row in m]
    done = []                      # reduced pivot rows, in pivot order
    pivots = []
    for col in range(cols):
        if not rest:
            break
        hits = [r for r in rest if col in r]
        if not hits:
            continue
        src = hits[0]
        inv = ONE / src[col]
        lead = {c: x * inv for c, x in src.items()}
        for r in hits[1:]:
            _eliminate(r, r[col], lead)
        for r in done:
            if col in r:
                _eliminate(r, r[col], lead)
        rest = [r for r in rest if r and r is not src]
        done.append(lead)
        pivots.append(col)
    out = []
    for r in done:
        row = [ZERO] * cols
        for c, x in r.items():
            row[c] = x
        out.append(row)
    out.extend([ZERO] * cols for _ in range(len(m) - len(done)))
    return out, pivots


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
    pivot_set = set(pivots)
    basis = {f: [ZERO] * cols for f in range(cols) if f not in pivot_set}
    for f, v in basis.items():
        v[f] = ONE
    # a reduced pivot row is 1 at its pivot and 0 at every other pivot
    for row, p in zip(r, pivots):
        for f, x in _nonzeros(row):
            if f != p:
                basis[f][p] = -x
    return list(basis.values())


def matmul(a, b):
    if not a or not b:
        return []
    mcols = len(b[0])
    bnz = [_nonzeros(row) for row in b]
    out = []
    for ai in a:
        oi = [ZERO] * mcols
        for j, x in _nonzeros(ai):
            for c, y in bnz[j]:
                oi[c] += x * y
        out.append(oi)
    return out


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
    # x = c.a = d.b  <=>  (c, -d) is in the kernel of the transposed stack
    kernel = nullspace(transpose(a + b))
    return row_basis(matmul([v[:len(a)] for v in kernel], a))


def spans_equal(a, b):
    ra = row_basis(a)
    rb = row_basis(b)
    return ra == rb
