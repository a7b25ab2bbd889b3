"""Dense exact linear algebra over a field object.

Matrices are lists of row lists of field elements.  Everything here is
Gaussian elimination at heart; sizes in this project stay well below a
hundred, so no care beyond exactness is needed.
"""

from .unipoly import UniPoly


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)]
            for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def rref(field, mat):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in mat]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != field.zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != field.zero:
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(field, mat):
    if not mat:
        return 0
    return len(rref(field, mat)[1])


def nullspace(field, mat):
    """Basis of the right kernel, as a list of column vectors."""
    if not mat:
        return []
    ncols = len(mat[0])
    rows, pivots = rref(field, mat)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [field.zero] * ncols
        v[j] = field.one
        for r, c in enumerate(pivots):
            v[c] = field.neg(rows[r][j])
        basis.append(v)
    return basis


def charpoly(field, mat):
    """Monic characteristic polynomial via Hessenberg reduction, O(n^3)."""
    n = len(mat)
    h = [list(r) for r in mat]
    for c in range(n - 2):
        pivot = None
        for i in range(c + 1, n):
            if h[i][c] != field.zero:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != c + 1:
            h[c + 1], h[pivot] = h[pivot], h[c + 1]
            for row in h:
                row[c + 1], row[pivot] = row[pivot], row[c + 1]
        inv = field.inv(h[c + 1][c])
        for i in range(c + 2, n):
            f = h[i][c]
            if f != field.zero:
                f = field.mul(f, inv)
                # similarity: row_i -= f*row_{c+1}, then col_{c+1} += f*col_i
                h[i] = [field.sub(x, field.mul(f, y))
                        for x, y in zip(h[i], h[c + 1])]
                for row in h:
                    row[c + 1] = field.add(row[c + 1], field.mul(f, row[i]))
    return _hessenberg_charpoly(field, h)


def _hessenberg_charpoly(field, h):
    n = len(h)
    x = UniPoly.x(field)
    polys = [UniPoly.constant(field, field.one)]
    for i in range(1, n + 1):
        term = (x - UniPoly.constant(field, h[i - 1][i - 1])) * polys[i - 1]
        prod = field.one
        for m in range(1, i):
            prod = field.mul(prod, h[i - m][i - m - 1])
            coeff = field.mul(h[i - 1 - m][i - 1], prod)
            if coeff != field.zero:
                term = term - polys[i - 1 - m].scale(coeff)
        polys.append(term)
    return polys[n]
