"""Exact linear algebra over the rationals, eliminated on integer rows.

A row is a ``{column: entry}`` dict of its nonzeros. ``basis`` keeps a span
as its primitive integer echelon basis ``{pivot: row}``: int rows of gcd 1,
positive at their pivot and 0 at every other pivot, unique for the span, and
over their pivots the reduced echelon basis (``rational``). Each incoming row
is scaled once to its primitive integer multiple; elimination cross-multiplies,
then divides by the gcd, so no ``Fraction`` arithmetic runs. ``Fraction``s are
made only for rational results: ``echelon``, ``kernel``, ``residual`` and the
dense functions (``invert`` for ``algebra``'s Gram blocks; ``rref``, ``rank``,
``span_intersection``, ``spans_equal`` for the benchmark and the tests).
Inputs are never mutated.
"""

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)


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


def integral(rows):
    """Rational rows times the lcm of all their denominators: integer rows,
    one positive multiple of the matrix."""
    d = lcm(*(x.denominator for r in rows for x in r.values()))
    return [{c: x.numerator * (d // x.denominator) for c, x in r.items()} for r in rows]


def _eliminate(row, pivot, p):
    """row <- (a * row - b * pivot) / gcd in place, for integer rows with
    pivot[p] : row[p] = a : b in lowest terms; entries that cancel are dropped."""
    g = gcd(pivot[p], row[p])
    a, b = pivot[p] // g, row[p] // g
    if a != 1:
        row.update({c: a * x for c, x in row.items()})
    for c, x in pivot.items():
        v = row.get(c, 0) - b * x
        if v:
            row[c] = v
        else:
            del row[c]
    if (g := gcd(*row.values())) > 1:
        row.update({c: x // g for c, x in row.items()})


def reduce(basis, v):
    """A positive primitive integer multiple of v's residual modulo the span of
    a primitive echelon basis (of v for basis {}); {} exactly when v is in it."""
    if not all(type(x) is int for x in v.values()):
        v = integral([v])[0]
    g = gcd(*v.values())
    out = {c: x // g for c, x in v.items()}
    for p in [p for p in out if p in basis]:
        _eliminate(out, basis[p], p)
    return out


def basis(rows):
    """The primitive integer echelon basis {pivot: row} of the rows' span, by pivot."""
    out = {}
    for v in rows:
        v = reduce(out, v)
        if not v:
            continue
        p = min(v)
        if v[p] < 0:
            v = {c: -x for c, x in v.items()}
        for r in out.values():
            if p in r:
                _eliminate(r, v, p)
        out[p] = v
    return dict(sorted(out.items()))


def rational(basis):
    """Each row of an echelon basis over its pivot, Fractions in column order."""
    return {p: {c: Fraction(x, r[p]) for c, x in sorted(r.items())} for p, r in basis.items()}


def echelon(rows):
    """The reduced row echelon basis {pivot: row} of the span of sparse rows."""
    return rational(basis(rows))


def residual(basis, v):
    """The exact residual of v modulo the span of a primitive or reduced
    echelon basis: reduce's row, whose tag column -1 (1 in v) carries its
    scale, over that scale."""
    out = reduce({p: reduce({}, basis[p]) for p in v if p in basis}, {-1: 1, **v})
    return {c: Fraction(x, out[-1]) for c, x in out.items() if c != -1}


def dot(u, v):
    """The sum of u[c] * v[c] over the columns of u."""
    return sum(x * v[c] for c, x in u.items() if c in v)


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


def null_basis(rows, cols):
    """The primitive echelon basis {f: v_f} of {x in Q^cols : rows x = 0}. With
    the columns reversed, each pivot p is the last column of its row R[p], and
    v_f is a multiple of e_f - sum_p R[p][f] / R[p][p] e_p, 0 at other f'."""
    last = cols - 1
    rev = basis([{last - c: x for c, x in r.items()} for r in rows])
    terms = {f: [] for f in range(cols) if last - f not in rev}
    for q, r in rev.items():
        for c, x in r.items():
            if c != q:
                terms[last - c].append((last - q, x, r[q]))
    out = {}
    for f, ts in terms.items():
        m = lcm(*(d for _, _, d in ts))
        out[f] = reduce({}, {f: m, **{p: -x * (m // d) for p, x, d in ts}})
    return out


def kernel(rows, cols):
    """The reduced echelon basis {f: v_f} of {x in Q^cols : rows x = 0}."""
    return rational(null_basis(rows, cols))


# -- the dense interface ----------------------------------------------------------

def rref(m):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots is the list of pivot column indices.
    """
    if not m:
        return [], []
    ech = echelon(sparse(m))
    cols = len(m[0])
    out = dense(ech.values(), cols)
    out.extend([ZERO] * cols for _ in range(len(m) - len(ech)))
    return out, list(ech)


def rank(m):
    return len(rref(m)[1])


def invert(m):
    """Inverse of a square rational matrix via Gauss-Jordan.

    Raises ValueError on singular input.
    """
    n = len(m)
    ech = basis([{**r, n + i: 1} for i, r in enumerate(sparse(m))])
    if list(ech)[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(r.get(n + c, 0), r[p]) for c in range(n)] for p, r in ech.items()]


def span_intersection(a, b):
    """Basis of the intersection of two row spans."""
    if not a or not b:
        return []
    # x = c.a = d.b  <=>  (c, -d) is in the kernel of the transposed stack
    k = null_basis(columns(sparse(a + b), len(a[0])), len(a) + len(b)).values()
    rows = echelon(product([{i: x for i, x in v.items() if i < len(a)} for v in k], sparse(a)))
    return dense(rows.values(), len(a[0]))


def spans_equal(a, b):
    return basis(sparse(a)) == basis(sparse(b))
