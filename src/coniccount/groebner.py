"""Buchberger Groebner bases over a field, plus the zero-dimensional
toolkit: standard monomials, multiplication matrices, eliminants and
point extraction through eigenvectors.

The systems handled here are small (quotient dimension below a hundred),
so plain Buchberger with the product and chain criteria is enough; no
staircase tricks or F4-style batching.
"""

import itertools

from .multipoly import MultiPoly, MONOMIAL_ORDERS, grevlex_key
from .unipoly import is_squarefree, factor_squarefree, irreducible_root
from . import linalg

INFINITE = "infinite"


class PositiveDimensional(ValueError):
    """Raised where a zero-dimensional ideal was required."""


def _monomial_div(m, d):
    out = []
    for a, b in zip(m, d):
        if a < b:
            return None
        out.append(a - b)
    return tuple(out)


def _monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(poly, basis, key=grevlex_key):
    """Full remainder of poly under division by the basis."""
    F = poly.ring.field
    lead = [(g.leading(key)) for g in basis]
    rem = {}
    work = dict(poly.terms)
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for g, (gm, gc) in zip(basis, lead):
            q = _monomial_div(m, gm)
            if q is not None:
                factor = F.div(c, gc)
                for m2, c2 in g.terms.items():
                    if m2 == gm:
                        continue
                    mm = tuple(i + j for i, j in zip(q, m2))
                    s = F.sub(work.get(mm, F.zero), F.mul(factor, c2))
                    if s == F.zero:
                        work.pop(mm, None)
                    else:
                        work[mm] = s
                break
        else:
            rem[m] = c
    return MultiPoly(poly.ring, rem)


def _spoly(f, g, key):
    F = f.ring.field
    fm, fc = f.leading(key)
    gm, gc = g.leading(key)
    lcm = _monomial_lcm(fm, gm)
    mf = tuple(a - b for a, b in zip(lcm, fm))
    mg = tuple(a - b for a, b in zip(lcm, gm))
    tf = MultiPoly(f.ring, {mf: F.inv(fc)})
    tg = MultiPoly(g.ring, {mg: F.inv(gc)})
    return tf * f - tg * g


def groebner_basis(system, order="grevlex"):
    """Reduced Groebner basis of the ideal generated by ``system``.

    The result is monic, autoreduced and sorted, hence canonical for the
    order: running the function on its own output returns it unchanged.
    """
    key = MONOMIAL_ORDERS[order] if isinstance(order, str) else order
    polys = [p for p in system if p]
    if not polys:
        return []
    ring = polys[0].ring
    basis = []
    for p in polys:
        if p.ring != ring:
            raise ValueError("generators live in different rings")
        basis.append(p.scale(ring.field.inv(p.leading(key)[1])))

    pairs = set()
    for i in range(len(basis)):
        for j in range(i):
            pairs.add((j, i))

    def lt(i):
        return basis[i].leading(key)[0]

    while pairs:
        # normal selection: smallest lcm in the order
        i, j = min(pairs, key=lambda ij: key(_monomial_lcm(lt(ij[0]), lt(ij[1]))))
        pairs.discard((i, j))
        lcm = _monomial_lcm(lt(i), lt(j))
        # product criterion
        if all(a + b == c for a, b, c in zip(lt(i), lt(j), lcm)):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _monomial_div(lcm, lt(k)) is not None \
                    and (min(i, k), max(i, k)) not in pairs \
                    and (min(j, k), max(j, k)) not in pairs:
                skip = True
                break
        if skip:
            continue
        rem = normal_form(_spoly(basis[i], basis[j], key), basis, key)
        if rem:
            rem = rem.scale(ring.field.inv(rem.leading(key)[1]))
            t = len(basis)
            basis.append(rem)
            for k in range(t):
                pairs.add((k, t))

    # prune generators whose leading term another one divides
    lead = [g.leading(key)[0] for g in basis]
    keep = []
    for i, m in enumerate(lead):
        if not any(j != i and _monomial_div(m, lead[j]) is not None
                   and (lead[j] != m or j < i) for j in range(len(basis))):
            keep.append(i)
    basis = [basis[i] for i in keep]
    # reduce tails
    reduced = []
    for i, g in enumerate(basis):
        others = basis[:i] + basis[i + 1:]
        h = normal_form(g, others, key) if others else g
        reduced.append(h.scale(ring.field.inv(h.leading(key)[1])))
    reduced.sort(key=lambda g: key(g.leading(key)[0]))
    return reduced


def standard_monomials(basis, order="grevlex"):
    """Monomials outside the leading term ideal, or None if infinite."""
    if not basis:
        return None
    ring = basis[0].ring
    n = ring.nvars
    key = MONOMIAL_ORDERS[order] if isinstance(order, str) else order
    lead = [g.leading(key)[0] for g in basis]
    if any(all(e == 0 for e in m) for m in lead):
        return []
    # finiteness: every variable needs a pure power among the leading terms
    caps = []
    for v in range(n):
        cap = None
        for m in lead:
            if m[v] > 0 and all(m[w] == 0 for w in range(n) if w != v):
                cap = m[v] if cap is None else min(cap, m[v])
        if cap is None:
            return None
        caps.append(cap)
    out = []
    for exps in itertools.product(*(range(c) for c in caps)):
        if not any(_monomial_div(exps, m) is not None for m in lead):
            out.append(exps)
    out.sort(key=grevlex_key)
    return out


def quotient_count(basis, order="grevlex"):
    """Dimension of the quotient algebra, or the string "infinite"."""
    sm = standard_monomials(basis, order)
    return INFINITE if sm is None else len(sm)


def multiplication_matrix(basis, var, monomials):
    """Matrix of multiplication by x_var on the standard monomials of a
    grevlex basis."""
    ring = basis[0].ring
    F = ring.field
    index = {m: i for i, m in enumerate(monomials)}
    cols = []
    for m in monomials:
        shifted = list(m)
        shifted[var] += 1
        nf = normal_form(MultiPoly(ring, {tuple(shifted): F.one}), basis)
        col = [F.zero] * len(monomials)
        for mm, c in nf.terms.items():
            col[index[mm]] = c
        cols.append(col)
    # cols are images; transpose into a conventional matrix
    return linalg.transpose(cols)


class QuotientAlgebra:
    """The quotient algebra of a zero-dimensional ideal, built once from
    its grevlex Groebner basis: the standard monomials and the matrix of
    multiplication by each variable on them."""

    def __init__(self, basis):
        monomials = standard_monomials(basis)
        if monomials is None:
            raise PositiveDimensional("quotient is infinite dimensional")
        self.field = basis[0].ring.field
        self.monomials = monomials
        self.mats = [multiplication_matrix(basis, v, monomials)
                     for v in range(basis[0].ring.nvars)]

    def linear_form_matrix(self, lam):
        """Matrix of multiplication by the linear form sum lam[v] x_v."""
        F = self.field
        n = len(self.monomials)
        total = [[F.zero] * n for _ in range(n)]
        for mat, c in zip(self.mats, lam):
            if c == F.zero:
                continue
            for i in range(n):
                row, out = mat[i], total[i]
                for j in range(n):
                    if row[j] != F.zero:
                        out[j] = F.add(out[j], F.mul(c, row[j]))
        return total


def eliminant_of_linear_form(algebra, lam):
    """Characteristic polynomial of multiplication by the linear form
    with coefficient vector ``lam`` on the quotient algebra."""
    return linalg.charpoly(algebra.field, algebra.linear_form_matrix(lam))


def solve_zero_dimensional(algebra, rng, max_ext_degree=6):
    """Points of a zero-dimensional radical system over a finite field.

    Returns (points, eliminant) where each point is (coords, field, degree):
    coords lie in GF(p) when degree == 1 and otherwise in an explicit
    GF(p^degree) built from an irreducible factor of the eliminant.
    Extension points are reported once per Galois orbit, and only for
    orbits of degree at most ``max_ext_degree``: the degrees of the
    returned points sum to the number of solutions only when no orbit is
    larger.

    Requires the eliminant of a random linear form to be squarefree, which
    certifies that all solutions are simple and separated.
    """
    F = algebra.field
    n = len(algebra.mats)
    lam = [F.random_element(rng) for _ in range(n)]
    total = algebra.linear_form_matrix(lam)
    chi = linalg.charpoly(F, total)
    if not is_squarefree(chi):
        raise ValueError("eliminant is not squarefree; points are not simple")
    one_index = algebra.monomials.index((0,) * n)
    # coordinate x_v at a point is the eigenvector paired with the normal
    # form of x_v, which is the column of the constant monomial
    normal_forms = [[row[one_index] for row in mat] for mat in algebra.mats]
    points = []
    for factor in factor_squarefree(chi, rng):
        k = factor.degree
        if k > max_ext_degree:
            continue
        eigval, L = irreducible_root(factor)
        embed = L.from_base if k > 1 else (lambda c: c)
        tL = [[embed(c) for c in row] for row in total]
        for i in range(len(tL)):
            tL[i][i] = L.sub(tL[i][i], eigval)
        # left eigenvector: kernel of the transpose
        kern = linalg.nullspace(L, linalg.transpose(tL))
        if len(kern) != 1:
            raise ValueError("eigenspace is not one dimensional")
        v = kern[0]
        if v[one_index] == L.zero:
            raise ValueError("eigenvector does not evaluate the constant 1")
        scale = L.inv(v[one_index])
        v = [L.mul(x, scale) for x in v]
        coords = []
        for col in normal_forms:
            acc = L.zero
            for x, y in zip(v, col):
                acc = L.add(acc, L.mul(x, embed(y)))
            coords.append(acc)
        points.append((tuple(coords), L, k))
    return points, chi
