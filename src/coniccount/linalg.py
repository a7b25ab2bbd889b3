"""Dense exact linear algebra over a field object.

Matrices are lists of row lists of field elements.  Everything here is
Gaussian elimination at heart.  The largest matrices are the quotient
algebras' multiplication matrices, of the Bezout size: 72 for (4,) and
(3,3), 144 for (2,4).

Over GF(p) the work runs on int64 numpy arrays, reduced mod p after
every product sum, whenever ``fields.int64_modulus`` allows (a sum of the
needed number of products below p stays under 2^63):

- ``rref``, and with it ``rank`` and ``nullspace``, by whole-matrix row
  updates, one per pivot, when 2 * p^2 < 2^63: every prime below 2^31;
- ``charpoly`` by Hessenberg reduction when (n + 1) * p^2 < 2^63: at
  n = 144, every prime below 2.5e8.

Over GF(p^k), when 2k * p^2 < 2^63, ``rank`` runs on the same kernel
through the regular representation: each entry a becomes the k x k GF(p)
matrix of multiplication by a, and the GF(p)-rank of the result is k
times the rank, since the image is a GF(p^k)-subspace.  ``rref`` and ``nullspace``
over GF(p^k) need their results in GF(p^k) coordinates and stay in
field operations, as do QQ, larger primes and ``charpoly`` over GF(p^k).
The pure-Python code is the oracle in the tests.
"""

import numpy as np

from .fields import ExtensionField, PrimeField, int64_modulus
from .unipoly import UniPoly


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)]
            for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def rref(field, mat):
    """Reduced row echelon form; returns (rows, pivot column list): on
    int64 arrays over GF(p) when ``int64_modulus`` allows, else in field
    ops."""
    p = int64_modulus(field, 2)
    if p is not None:
        return _rref_int64(mat, p)
    return _rref_python(field, mat)


def _rref_python(field, mat):
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
    if not mat or not mat[0]:
        return 0
    if isinstance(field, ExtensionField):
        # the image is a GF(p^k)-subspace: its GF(p)-dimension is k * rank;
        # a coordinate of the regular representation sums k products
        p = int64_modulus(PrimeField(field.p), 2 * field.degree)
        if p is not None:
            regular = _regular_representation(field, mat)
            return len(_rref_int64(regular, p)[1]) // field.degree
    return len(rref(field, mat)[1])


def _rref_int64(mat, p):
    """``rref`` over GF(p) on an int64 array: per pivot, one outer-product
    update of every row, so each entry is x - f*y with x, f, y below p."""
    if not len(mat):
        return [], []
    a = np.array(mat, dtype=np.int64)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        nonzero = np.flatnonzero(a[r:, c])
        if not len(nonzero):
            continue
        pivot = r + int(nonzero[0])
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        # columns left of c vanish in rows r onwards
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        f = a[:, c].copy()
        f[r] = 0
        a[:, c:] -= np.outer(f, a[r, c:])
        a[:, c:] %= p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a.tolist(), pivots


def generator_powers(field, n):
    """(n, k) int64 array over GF(p^k): row l holds the coordinates of t^l
    modulo the field's modulus."""
    p, k, m = field.p, field.degree, field.modulus
    powers = [[1] + [0] * (k - 1)]
    for _ in range(n - 1):
        prev = powers[-1]
        # t * prev, with t^k = -(m_0 + ... + m_{k-1} t^{k-1})
        top = prev[-1]
        powers.append([(lo - top * mj) % p
                       for lo, mj in zip([0] + prev[:-1], m)])
    return np.array(powers, dtype=np.int64)


def _power_table(field):
    """(k, k, k) int64 array: [l, j, i] is the t^i coefficient of t^(l+j)
    modulo the field's modulus."""
    k = field.degree
    return generator_powers(field, 2 * k - 1)[np.add.outer(np.arange(k), np.arange(k))]


def _regular_representation(field, mat):
    """The GF(p) matrix of ``mat`` over GF(p^k): entry (r, c) becomes the
    k x k block whose column j holds the coordinates of a_rc * t^j.  Each
    coordinate is a sum of k products below p."""
    p, k = field.p, field.degree
    coeffs = np.array(mat, dtype=np.int64).reshape(len(mat), -1, k)
    blocks = np.einsum("rcl,lji->rcij", coeffs, _power_table(field)) % p
    nrows, ncols = coeffs.shape[:2]
    return blocks.transpose(0, 2, 1, 3).reshape(nrows * k, ncols * k)


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
    """Monic characteristic polynomial via Hessenberg reduction, O(n^3):
    on int64 arrays when ``int64_modulus`` allows, else in field ops."""
    p = int64_modulus(field, len(mat) + 1)
    if p is not None:
        return UniPoly(field, _charpoly_int64(mat, p))
    return _charpoly_python(field, mat)


def _charpoly_python(field, mat):
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


def _charpoly_int64(mat, p):
    """Coefficients of the characteristic polynomial of a matrix over GF(p),
    low degree first, by ``charpoly``'s reduction and recurrence on int64
    arrays.  Every sum below has at most n + 1 terms under p^2."""
    n = len(mat)
    h = np.array(mat, dtype=np.int64).reshape(n, n)
    for c in range(n - 2):
        nonzero = np.flatnonzero(h[c + 1:, c])
        if not len(nonzero):
            continue
        pivot = c + 1 + int(nonzero[0])
        if pivot != c + 1:
            h[[c + 1, pivot]] = h[[pivot, c + 1]]
            h[:, [c + 1, pivot]] = h[:, [pivot, c + 1]]
        f = h[c + 2:, c] * pow(int(h[c + 1, c]), p - 2, p) % p
        if f.any():
            # one similarity for the whole column: the row operations
            # row_i -= f_i*row_{c+1} commute, and so do their inverses
            h[c + 2:] = (h[c + 2:] - np.outer(f, h[c + 1])) % p
            h[:, c + 1] = (h[:, c + 1] + h[:, c + 2:] @ f) % p
    # polys[i] = x*polys[i-1] - sum_r h[r][i-1] * q[r] * polys[r], r < i,
    # with q[r] the product of the subdiagonal entries h[j][j-1], r < j < i
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    q = np.ones(1, dtype=np.int64)
    for i in range(1, n + 1):
        coeff = h[:i, i - 1] * q % p
        polys[i, 1:i + 1] = polys[i - 1, :i]
        polys[i, :i + 1] = (polys[i, :i + 1] - coeff @ polys[:i, :i + 1]) % p
        if i < n:
            q = np.append(q * h[i, i - 1] % p, 1)
    return polys[n].tolist()
