"""Sylvester resultants for eliminating one variable from a pair of forms.

The matrix entries are polynomials in the remaining variables; the
determinant is expanded by fraction-free Bareiss elimination, which stays
inside the polynomial ring thanks to exact division.  For a pair of binary
forms the entries are scalars and the result is the classical resultant
constant.
"""

from .multipoly import MultiPoly, PolyRing
from .unipoly import BinaryForm


def _coeff_polys(f, var, ring_out, keep):
    """Coefficient list of f seen as univariate in ``var``; entries are
    polynomials in the remaining variables, low degree first."""
    deg = max((m[var] for m in f.terms), default=0)
    out = [dict() for _ in range(deg + 1)]
    for m, c in f.terms.items():
        rest = tuple(m[i] for i in keep)
        out[m[var]][rest] = c
    return [MultiPoly(ring_out, d) for d in out]


def _det_bareiss(ring, mat):
    """Determinant over a polynomial ring by Bareiss elimination."""
    n = len(mat)
    a = [row[:] for row in mat]
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return ring.zero()
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num if k == 0 else num.exact_div(prev)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    if sign < 0:
        det = -det
    return det


def sylvester_matrix(f, g, var):
    """Sylvester matrix of f and g with respect to one variable.

    Entries are polynomials in the remaining variables.  When both inputs
    are homogeneous binary forms the coefficient vectors are taken along
    the full degree, so the determinant is the classical scalar resultant
    (zero exactly at a common projective root, the point at infinity
    included).
    """
    if not f or not g:
        raise ValueError("resultant of a zero polynomial")
    ring = f.ring
    if g.ring != ring:
        raise ValueError("operands live in different rings")
    keep = [i for i in range(ring.nvars) if i != var]
    ring_out = PolyRing(ring.field, len(keep), tuple(ring.names[i] for i in keep))
    if ring.nvars == 2 and f.is_homogeneous() and g.is_homogeneous():
        fc = [ring_out.constant(c) for c in BinaryForm.from_multipoly(f, var).coeffs]
        gc = [ring_out.constant(c) for c in BinaryForm.from_multipoly(g, var).coeffs]
    else:
        fc = _coeff_polys(f, var, ring_out, keep)
        gc = _coeff_polys(g, var, ring_out, keep)
    m, n = len(fc) - 1, len(gc) - 1
    if m == 0 and n == 0:
        raise ValueError("neither operand involves the eliminated variable")
    size = m + n
    rows = []
    # deg(g) shifted copies of f's coefficients, then deg(f) copies of g's
    for coeffs, copies in ((fc, n), (gc, m)):
        for i in range(copies):
            row = [ring_out.zero()] * size
            row[i:i + len(coeffs)] = reversed(coeffs)
            rows.append(row)
    return rows, ring_out


def sylvester_resultant(f, g, var):
    """Resultant of f and g eliminating x_var.

    For jointly homogeneous inputs in v variables the result is a form of
    degree deg(f)*deg(g) in the remaining v-1 variables; it vanishes
    identically exactly when f and g share a factor involving x_var, and
    its roots are the projections of the common projective roots.
    """
    rows, ring_out = sylvester_matrix(f, g, var)
    return _det_bareiss(ring_out, rows)
