"""Dense reference functions for the tests: plain loops over lists of
``Fraction`` rows, written independently of ``cartandev.ratlinalg``'s sparse
core, against which the core and its callers are checked."""

from fractions import Fraction


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def block_diagonal(blocks):
    """The square matrix with the square blocks down its diagonal, 0 elsewhere."""
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(b)] = row
        off += len(b)
    return out


def dense_matmul(a, b):
    return [[sum((a[i][j] * b[j][c] for j in range(len(b))), Fraction(0))
             for c in range(len(b[0]))] for i in range(len(a))]


def column_rref(m):
    """Column-by-column Gauss-Jordan over {column: entry} rows: each column's
    pivot row is its first unreduced row, which then clears the column from
    every other row. The oracle the other oracles are derived from."""
    if not m:
        return [], []
    cols = len(m[0])
    rest = [{c: x for c, x in enumerate(row) if x} for row in m]
    done, pivots = [], []
    for col in range(cols):
        hits = [r for r in rest if col in r]
        if not hits:
            continue
        src = hits[0]
        lead = {c: x / src[col] for c, x in src.items()}
        for r in hits[1:] + [r for r in done if col in r]:
            f = r[col]
            for c, x in lead.items():
                r[c] = r.get(c, 0) - f * x
                if not r[c]:
                    del r[c]
        rest = [r for r in rest if r and r is not src]
        done.append(lead)
        pivots.append(col)
    out = [[Fraction(r.get(c, 0)) for c in range(cols)] for r in done]
    return out + [[Fraction(0)] * cols for _ in range(len(m) - len(done))], pivots


def oracle_row_basis(m):
    r, pivots = column_rref(m)
    return r[:len(pivots)]


def oracle_nullspace(m):
    r, pivots = column_rref(m)
    out = []
    for f in range(len(m[0])):
        if f not in pivots:
            v = [Fraction(0)] * len(m[0])
            v[f] = Fraction(1)
            for row, p in zip(r, pivots):
                v[p] = -row[f]
            out.append(v)
    return out


def oracle_solve(a, b):
    """One solution x of a x = b with every free variable 0, or None if
    there is none."""
    cols = len(a[0])
    r, pivots = column_rref([row + [bv] for row, bv in zip(a, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row, p in zip(r, pivots):
        x[p] = row[cols]
    return x
