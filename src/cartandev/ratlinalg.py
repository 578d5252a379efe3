"""Exact linear algebra over the rationals.

One sparse core does the work: a row is a ``{column: Fraction}`` dict of its
nonzeros, and ``echelon`` keeps the reduced row echelon basis of a span as
``{pivot: row}``. Each row is reduced against the basis built so far
(``residual``) and, if anything is left, becomes a new pivot row that is
eliminated from the earlier ones, so the cost follows the nonzeros, not the
matrix size. A reduced echelon basis is unique for its span, so every result
is independent of the order of elimination. ``eliminate``, ``dot``,
``product``, ``columns`` and ``kernel`` work on the same rows, and
``sparse`` / ``dense`` convert. ``kernel`` eliminates with the columns
reversed, which yields the kernel's reduced echelon basis directly.

The few dense functions left take and return lists of rows, each a list of
``fractions.Fraction``, and are thin wrappers over the core. ``invert``
inverts the extended metric's Gram blocks in ``algebra``. ``rref``, ``rank``,
``span_intersection`` and ``spans_equal`` have no caller in the package:
the benchmark's normal-module check and span recorder and the tests read
them. Except for ``eliminate``, which updates its row in place, everything
returns fresh lists and dicts; inputs are never mutated.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# -- the sparse core ------------------------------------------------------------

def sparse(m):
    """The rows of a dense matrix as {column: entry} dicts of their nonzeros;
    the shared ZERO that fills the zero cells of rows built here is skipped
    without a Fraction test."""
    return [{c: x for c, x in enumerate(row) if x is not ZERO and x} for row in m]


def dense(rows, cols):
    """Sparse rows as dense rows of length cols, ZERO in every other cell."""
    out = []
    for r in rows:
        row = [ZERO] * cols
        for c, x in r.items():
            row[c] = x
        out.append(row)
    return out


def eliminate(row, f, pivot):
    """row -= f * pivot in place, over the pivot's nonzeros; entries that
    cancel are dropped."""
    for c, x in pivot.items():
        v = row[c] - f * x if c in row else -(f * x)
        if v:
            row[c] = v
        else:
            del row[c]


def residual(basis, v):
    """v - sum_p v[p] * basis[p] over the pivots of a reduced echelon basis.

    A pivot row is 1 at its pivot and 0 at every other pivot, so one pass
    clears every pivot column: the result is {} exactly when v lies in the
    span, and two rows have equal residuals exactly when they are equal
    modulo the span.
    """
    out = dict(v)
    for p in [p for p in v if p in basis]:
        eliminate(out, v[p], basis[p])
    return out


def echelon(rows):
    """The reduced row echelon basis of the span of sparse rows, {pivot: row}
    in increasing pivot order; rows that reduce to 0 add nothing."""
    basis = {}
    for v in rows:
        v = residual(basis, v)
        if not v:
            continue
        p = min(v)
        if v[p] != 1:
            inv = ONE / v[p]
            v = {c: x * inv for c, x in v.items()}
        for r in basis.values():
            if p in r:
                eliminate(r, r[p], v)
        basis[p] = v
    return dict(sorted(basis.items()))


def dot(u, v):
    """The sum of u[c] * v[c] over the columns of u."""
    return sum((x * v[c] for c, x in u.items() if c in v), ZERO)


def product(rows, m):
    """Sparse rows times the matrix whose rows are the sparse rows m."""
    out = []
    for r in rows:
        acc = {}
        for j, x in r.items():
            for c, y in m[j].items():
                acc[c] = acc[c] + x * y if c in acc else x * y
        out.append({c: v for c, v in acc.items() if v})
    return out


def columns(rows, cols):
    """The transpose of sparse rows in Q^cols, as sparse rows."""
    out = [{} for _ in range(cols)]
    for i, r in enumerate(rows):
        for c, x in r.items():
            out[c][i] = x
    return out


def kernel(rows, cols):
    """The reduced echelon basis {f: v_f} of the right kernel {x : rows x = 0}
    in Q^cols. With the columns reversed, echelon makes each pivot p the last
    column of its row R[p]; v_f, for each non-pivot f, is 1 at f and -R[p][f]
    at each pivot p > f, so it is 0 at every other non-pivot f'."""
    last = cols - 1
    basis = echelon([{last - c: x for c, x in r.items()} for r in rows])
    out = {f: {f: ONE} for f in range(cols) if last - f not in basis}
    for q, r in basis.items():
        for c, x in r.items():
            if c != q:
                out[last - c][last - q] = -x
    return out


# -- the dense interface ----------------------------------------------------------

def rref(m):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots is the list of pivot column indices.
    """
    if not m:
        return [], []
    basis = echelon(sparse(m))
    cols = len(m[0])
    out = dense(basis.values(), cols)
    out.extend([ZERO] * cols for _ in range(len(m) - len(basis)))
    return out, list(basis)


def rank(m):
    return len(rref(m)[1])


def invert(m):
    """Inverse of a square rational matrix via Gauss-Jordan.

    Raises ValueError on singular input.
    """
    n = len(m)
    basis = echelon([{**r, n + i: ONE} for i, r in enumerate(sparse(m))])
    if list(basis)[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[r.get(n + c, ZERO) for c in range(n)] for r in basis.values()]


def span_intersection(a, b):
    """Basis of the intersection of two row spans."""
    if not a or not b:
        return []
    # x = c.a = d.b  <=>  (c, -d) is in the kernel of the transposed stack
    k = kernel(columns(sparse(a + b), len(a[0])), len(a) + len(b)).values()
    rows = echelon(product([{i: x for i, x in v.items() if i < len(a)} for v in k], sparse(a)))
    return dense(rows.values(), len(a[0]))


def spans_equal(a, b):
    return echelon(sparse(a)) == echelon(sparse(b))
