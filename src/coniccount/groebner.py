"""Groebner bases in grevlex order over a field, by F4 over GF(p) and
Buchberger's reduction otherwise, plus the zero-dimensional toolkit:
standard monomials, multiplication matrices, eliminants, and points
through a rational univariate representation: every coordinate is a
polynomial in one separating linear form, so the points of a Galois orbit
are remainders modulo one irreducible factor of its eliminant, with no
linear algebra over an extension field.

Inside this module a monomial is one Python int (``_Packing``): the top
field holds the total degree, the fields below it the complemented
exponents, the last variable highest.  Int comparison is then the grevlex
order, a product is one addition and a divisibility test one addition
and one mask.  The basis keeps each element once, packed and monic.
Pairs are selected by the degree of their lcm, cached when the pair is
made, and all pairs of the lowest degree are taken at once through the
product and chain criteria (Faugere 1999, JPAA 139).  Over GF(p) with
p < 2^31, a batch of at least ``F4_MIN_BATCH`` S-polynomials is reduced
as one int64 matrix (``_Packed.reduce_rows``): symbolic preprocessing
picks one reducer per monomial that a lead divides, the reducers are
applied in decreasing order of their leads, and the rows left over are
put in reduced row echelon form.  Smaller batches, and every batch over
QQ or a larger prime, are reduced one S-polynomial at a time by
``normal_form``, which takes the remainder off a max-heap of the terms
still to reduce; coefficients there are plain scalars (``Fraction`` or
int) combined with ``+`` and ``*``, and over GF(p) each is brought into
[0, p) once, when its monomial comes off the heap.  Both paths divide a
monomial by the first element whose lead divides it, and the final tails
of the reduced basis always go through ``normal_form``.  The reduced
basis is canonical, so the path taken does not change it.

Multiplication matrices are read off the normal forms of the border
monomials x_v m (m standard), computed once each in increasing grevlex
order: a standard monomial is a unit vector, a leading term minus its
stored tail, and any other border monomial b is x_u w for an earlier
border monomial w, so NF(b) is the sum of c_s NF(x_u s) over
NF(w) = sum c_s s, a combination of normal forms already known (the
FGLM order of Faugere, Gianni, Lazard and Mora).
The public functions take and return ``MultiPoly`` objects.
"""

from heapq import heapify, heappop, heappush

import numpy as np

from .fields import int64_modulus
from .multipoly import MultiPoly
from .unipoly import UniPoly, is_squarefree, factor_squarefree, irreducible_root
from . import linalg

INFINITE = "infinite"

MIN_FIELD_BITS = 8

# an S-polynomial batch smaller than this is reduced one polynomial at a
# time by normal_form, a larger one over GF(p) as one matrix.  Timed on the
# chart systems of (2,3), (2,2,3) and (4,): (2,3), whose batches are all
# smaller than 6, takes about 15% longer at 4, and (2,2,3) and (4,) are
# fastest from 1 to 6 and slower from 12 on
F4_MIN_BATCH = 6


class PositiveDimensional(ValueError):
    """Raised where a zero-dimensional ideal was required."""


class _Packing:
    """Grevlex monomials in ``nvars`` variables, of total degree at most
    ``top``, packed into ints.

    Exponent field v (bits v*bits and up) holds top - e_v; its high bit is
    a guard, clear in every packed monomial.  The degree sits above the
    exponent fields.  ``one`` packs the constant monomial, so the product
    of packed a and b is a + b - one, and a is divisible by b exactly when
    q = a + (one - b) has no guard bit set; q is then the packed quotient.
    (No guard bit set means every exponent of a is at least that of b, so
    the degree field of q, and q itself, is nonnegative as well.)
    """

    def __init__(self, nvars, degree):
        bits = max(MIN_FIELD_BITS, degree.bit_length() + 1)
        self.nvars = nvars
        self.bits = bits
        self.top = (1 << (bits - 1)) - 1
        self.shift = nvars * bits
        self.one = sum(self.top << (v * bits) for v in range(nvars))
        self.guard = sum(1 << (v * bits + bits - 1) for v in range(nvars))
        # x_v packed, minus one: adding e of them raises the degree by e
        # and lowers field v by e
        self.units = [(1 << self.shift) - (1 << (v * bits)) for v in range(nvars)]

    def pack(self, exps):
        m = self.one
        for e, unit in zip(exps, self.units):
            m += e * unit
        return m

    def unpack(self, m):
        top, bits, mask = self.top, self.bits, (1 << self.bits) - 1
        return tuple(top - ((m >> (v * bits)) & mask) for v in range(self.nvars))


class _Packed:
    """Monic polynomials of one ring over one packing.

    Each element is stored once as (lead, one - lead, tail items): adding
    the second entry to a multiple of the lead gives the cofactor, and the
    tail items carry negated coefficients, so they are the normal form of
    the lead when the basis is reduced."""

    def __init__(self, ring, polys=(), degree=0):
        if isinstance(ring.field.zero, tuple):
            # + on GF(p^k) elements would concatenate their tuples
            raise ValueError(f"packed reduction needs scalar coefficients, not {ring.field!r}")
        self.ring = ring
        self.field = ring.field
        # 0 over QQ, where coefficients are exact as they are
        self.modulus = ring.field.characteristic
        self.packing = _Packing(ring.nvars, max([degree] + [p.degree() for p in polys]))
        self.elements = []
        # packed monomial -> index of the first element whose lead divides
        # it, or ~n when none of the first n elements does; elements are
        # only appended, so an entry holds until widen or replace
        self.divisors = {}
        for p in polys:
            self.append(self.pack(p))

    def pack(self, poly):
        pack = self.packing.pack
        return {pack(m): c for m, c in poly.terms.items()}

    def unpack(self, terms):
        unpack = self.packing.unpack
        return MultiPoly(self.ring, {unpack(m): c for m, c in terms.items()})

    def append(self, terms):
        """Store the monic multiple of the nonzero packed polynomial ``terms``."""
        F = self.field
        lead = max(terms)
        scale = F.neg(F.inv(terms[lead]))
        tail = [(m, F.mul(c, scale)) for m, c in terms.items() if m != lead]
        self.elements.append((lead, self.packing.one - lead, tail))

    def widen(self, degree):
        """Repack so that monomials of total degree ``degree`` fit; returns
        the old packing, or None when they fit already."""
        old = self.packing
        if degree <= old.top:
            return None
        new = self.packing = _Packing(old.nvars, degree)
        repack = lambda m: new.pack(old.unpack(m))
        self.divisors = {}
        # in place: groebner_basis holds on to the list
        self.elements[:] = [(repack(lead), new.one - repack(lead),
                             [(repack(m), c) for m, c in tail])
                            for lead, _, tail in self.elements]
        return old

    def __len__(self):
        return len(self.elements)

    def replace(self, elements):
        """Put ``elements`` in place of the elements."""
        self.elements[:] = elements
        self.divisors = {}

    def first_divisor(self, m):
        """Index of the first element whose lead divides the packed
        monomial m, or None, through the cache ``divisors``."""
        elements, guard = self.elements, self.packing.guard
        n = len(elements)
        k = self.divisors.get(m, -1)
        if k >= 0:
            return k
        for k in range(~k, n):
            if not (m + elements[k][1]) & guard:
                self.divisors[m] = k
                return k
        self.divisors[m] = ~n
        return None

    def spoly(self, lcm, i, j):
        """The S-polynomial of elements i and j, whose leads have the
        packed lcm ``lcm``, from their tails, coefficients unreduced."""
        one = self.packing.one
        _, inv_i, tail_i = self.elements[i]
        _, inv_j, tail_j = self.elements[j]
        qi, qj = lcm + inv_i - one, lcm + inv_j - one
        work = {m + qj: c for m, c in tail_j}
        for m, c in tail_i:
            m += qi
            work[m] = work.get(m, 0) - c
        return work

    def reduce_rows(self, works):
        """F4 reduction over GF(p), p < 2^31, of the packed polynomials
        ``works`` at once: the nonzero rows of the reduced row echelon form
        of their remainders, monic, whose monomials no lead divides.

        Symbolic preprocessing gives every monomial that a lead divides
        one reducer row x^q g, g its ``first_divisor``, as ``reduce``
        chooses.  The reducers are applied to the works in decreasing
        order of their leads, without being reduced among themselves
        (Faugere-Lachartre), and what is left is put in reduced row
        echelon form.  An entry is reduced mod p after every update, so it
        stays below p + p^2, or, where a sum of one product per reducer
        fits in int64, only when it is read."""
        p = self.modulus
        elements, divisor = self.elements, self.divisors.get
        one = self.packing.one
        # the matrix is stored transposed: row r holds monomial monos[r]
        # in every work, rows numbered as the monomials are found
        row, monos = {}, []
        cells = ([], [], [])
        for s, work in enumerate(works):
            for m, c in work.items():
                r = row.get(m)
                if r is None:
                    r = row[m] = len(monos)
                    monos.append(m)
                cells[0].append(r)
                cells[1].append(s)
                cells[2].append(c)
        # symbolic preprocessing, which also visits the monomials that the
        # reducers bring in; reducer i has lead row r and element k, and
        # its tail covers rows[start:end]
        reducers, rows = [], []
        for r, m in enumerate(monos):
            k = divisor(m, -1)
            if k < 0:
                k = self.first_divisor(m)
                if k is None:
                    continue
            _, inv, tail = elements[k]
            q = m + inv - one
            start = len(rows)
            for tm, _ in tail:
                tm += q
                t = row.get(tm)
                if t is None:
                    t = row[tm] = len(monos)
                    monos.append(tm)
                rows.append(t)
            reducers.append((m, r, k, start, len(rows)))
        rows = np.array(rows, dtype=np.intp)
        a = np.zeros((len(monos), len(works)), dtype=np.int64)
        a[cells[0], cells[1]] = cells[2]
        a %= p
        lazy = int64_modulus(self.field, len(reducers) + 1) is not None
        coeffs = {}     # the tail coefficients of element k, as an array
        reducers.sort(reverse=True)
        for _, r, k, start, end in reducers:
            f = a[r] % p if lazy else a[r]
            if f.any():
                tc = coeffs.get(k)
                if tc is None:
                    tc = coeffs[k] = np.array([c for _, c in elements[k][2]], dtype=np.int64)
                tail = rows[start:end]
                if lazy:
                    a[tail] += np.multiply.outer(tc, f)
                else:
                    a[tail] = (a[tail] + np.multiply.outer(tc, f)) % p
        done = {r for _, r, _, _, _ in reducers}
        free = sorted(((m, r) for r, m in enumerate(monos) if r not in done), reverse=True)
        echelon, pivots = linalg._rref_int64(a[[r for _, r in free]].T % p, p)
        return [{free[c][0]: x for c, x in enumerate(row) if x}
                for row in echelon[:len(pivots)]]

    def reduce(self, work):
        """Full remainder of the packed polynomial ``work`` (a dict, which
        is consumed) under division by the elements, tried in order: each
        monomial is divided by its ``first_divisor``.

        Coefficients in ``work`` may lie outside [0, p): each is reduced
        when its monomial comes off the heap, and skipped if it is zero
        then.  Every term a division adds is below the monomial divided,
        so no monomial enters the heap twice."""
        elements = self.elements
        p = self.modulus
        one = self.packing.one
        divisor = self.divisors.get
        get = work.get
        heap = [-m for m in work]
        heapify(heap)
        rem = {}
        while heap:
            m = -heappop(heap)
            c = work.pop(m)
            if p:
                c %= p
            if not c:
                continue
            k = divisor(m, -1)
            if k < 0:
                k = self.first_divisor(m)
                if k is None:
                    rem[m] = c
                    continue
            _, inv, tail = elements[k]
            q = m + inv - one
            for tm, tc in tail:
                mm = tm + q
                old = get(mm)
                if old is None:
                    work[mm] = c * tc
                    heappush(heap, -mm)
                else:
                    work[mm] = old + c * tc
        return rem


def normal_form(poly, basis):
    """Full remainder of poly under division by the basis, tried in order:
    a polynomial under a list of polynomials, or a packed polynomial (a
    dict, which is consumed) under a ``_Packed`` basis, which is how
    ``groebner_basis`` reduces its final tails and every S-polynomial off
    the matrix path."""
    if isinstance(basis, _Packed):
        return basis.reduce(poly)
    basis = _Packed(poly.ring, basis, poly.degree())
    return basis.unpack(basis.reduce(basis.pack(poly)))


def groebner_basis(system):
    """Reduced grevlex Groebner basis of the ideal generated by ``system``.

    The result is monic, autoreduced and sorted by leading monomial, hence
    canonical: running the function on its own output returns it unchanged.
    """
    polys = [p for p in system if p]
    if not polys:
        return []
    ring = polys[0].ring
    if any(p.ring != ring for p in polys):
        raise ValueError("generators live in different rings")
    F = ring.field
    basis = _Packed(ring, polys)
    elements = basis.elements
    exps = [basis.packing.unpack(lead) for lead, _, _ in elements]
    pairs = []          # heap of (lcm, i, j) with i < j
    pending = set()     # the (i, j) still in the heap
    # the pairs of one lcm degree that pass the criteria; they are out of
    # pending, since they are reduced before any later pair
    batch = []
    # reduce_rows needs two products below p to fit in int64
    matrix = int64_modulus(F, 2) is not None

    def add_pairs(t):
        lcms = [tuple(map(max, exps[k], exps[t])) for k in range(t)]
        # an S-polynomial has the degree of its lcm, and reduction never
        # raises the degree: widen here, and nothing can overflow
        old = basis.widen(max(map(sum, lcms), default=0))
        pack = basis.packing.pack
        if old is not None:
            # the repacking keeps the order, so the heap stays a heap
            for queue in (pairs, batch):
                queue[:] = [(pack(old.unpack(lcm)), i, j) for lcm, i, j in queue]
        for k, lcm in enumerate(lcms):
            heappush(pairs, (pack(lcm), k, t))
            pending.add((k, t))

    def extend(rows):
        start = len(elements)
        for terms in rows:
            basis.append(terms)
            exps.append(basis.packing.unpack(elements[-1][0]))
        for t in range(start, len(elements)):
            add_pairs(t)

    for t in range(len(elements)):
        add_pairs(t)
    while pairs:
        guard, one, shift = basis.packing.guard, basis.packing.one, basis.packing.shift
        degree = pairs[0][0] >> shift
        batch.clear()
        while pairs and pairs[0][0] >> shift == degree:
            lcm, i, j = heappop(pairs)
            pending.discard((i, j))
            lead_i, lead_j = elements[i][0], elements[j][0]
            # product criterion
            if lcm == lead_i + lead_j - one:
                continue
            # chain criterion
            if any(not (lcm + inv) & guard and k != i and k != j
                   and ((k, i) if k < i else (i, k)) not in pending
                   and ((k, j) if k < j else (j, k)) not in pending
                   for k, (_, inv, _) in enumerate(elements)):
                continue
            batch.append((lcm, i, j))
        if matrix and len(batch) >= F4_MIN_BATCH:
            extend(basis.reduce_rows([basis.spoly(*pair) for pair in batch]))
            continue
        # one at a time, each against the elements the earlier ones added;
        # an append may widen the packing, which repacks the batch
        for n in range(len(batch)):
            rem = normal_form(basis.spoly(*batch[n]), basis)
            if rem:
                extend([rem])

    # keep one element per minimal leading monomial
    guard, one = basis.packing.guard, basis.packing.one
    minimal = [el for i, el in enumerate(elements)
               if not any(j != i and not (el[0] + inv) & guard
                          and (lead != el[0] or j < i)
                          for j, (lead, inv, _) in enumerate(elements))]
    # reduce the tails; the leads stay, since none divides another.  A
    # lead divides no monomial below it, so each tail can be reduced
    # against all of them, itself included; a lone tail is reduced already
    basis.replace(minimal)
    reduced = []
    for lead, _, tail in minimal:
        rem = {m: F.neg(c) for m, c in tail}
        if len(minimal) > 1:
            rem = normal_form(rem, basis)
        rem[lead] = F.one
        reduced.append((lead, rem))
    reduced.sort(key=lambda el: el[0])
    # the tails share most of their monomials: unpack each one once
    unpack = basis.packing.unpack
    monomials = {m: unpack(m) for m in set().union(*(terms for _, terms in reduced))}
    return [MultiPoly(ring, {monomials[m]: c for m, c in terms.items()})
            for _, terms in reduced]


def standard_monomials(basis):
    """Monomials outside the leading term ideal, grevlex-sorted, or None
    if there are infinitely many."""
    if not basis:
        return None
    n = basis[0].ring.nvars
    lead = [g.leading()[0] for g in basis]
    if any(not any(m) for m in lead):
        return []
    # finiteness: every variable needs a pure power among the leading terms
    caps = []
    for v in range(n):
        pure = [m[v] for m in lead if m[v] > 0 and m[v] == sum(m)]
        if not pure:
            return None
        caps.append(min(pure))
    # the standard monomials are closed under division: walk up from 1
    packing = _Packing(n, max([sum(caps)] + [sum(m) for m in lead]))
    guard = packing.guard
    invs = [packing.one - packing.pack(m) for m in lead]
    found = {packing.one}
    stack = [packing.one]
    while stack:
        m = stack.pop()
        for unit in packing.units:
            s = m + unit
            if s not in found and all((s + inv) & guard for inv in invs):
                found.add(s)
                stack.append(s)
    return [packing.unpack(m) for m in sorted(found)]


def quotient_count(basis):
    """Dimension of the quotient algebra, or the string "infinite"."""
    sm = standard_monomials(basis)
    return INFINITE if sm is None else len(sm)


def multiplication_matrix(basis, monomials):
    """Matrices of multiplication by each variable on the standard
    monomials of a reduced grevlex basis: entry v is the matrix of x_v,
    whose column m is the normal form of x_v m."""
    # the packed basis is gone once the table is returned, before the
    # lists are made; the matrices share the int objects of its rows
    table, shifts = _border_normal_forms(basis, monomials)
    if isinstance(table, np.ndarray):
        table, shifts = table.tolist(), shifts.tolist()
    return [linalg.transpose([table[s] for s in rows]) for rows in shifts]


def _border_normal_forms(basis, monomials):
    """The normal forms of the standard and border monomials, one row
    each, and shifts[u][s], the row of x_u times standard monomial s.

    The border monomials x_v m that are not standard are reduced once
    each, in increasing order.  A leading term reduces to minus its tail.
    Any other border monomial b is divisible by a leading term L with
    b != L, so b = x_u w for a variable x_u dividing b / L; w is then a
    smaller border monomial outside the standard ones, and with
    NF(w) = sum c_s s, NF(b) = sum c_s NF(x_u s), where every x_u s is
    standard or a border monomial below b."""
    ring = basis[0].ring
    F = ring.field
    packed = _Packed(ring, basis, max(map(sum, monomials), default=0) + 1)
    units = packed.packing.units
    tails = {lead: tail for lead, _, tail in packed.elements}
    D = len(monomials)
    standard = [packed.packing.pack(m) for m in monomials]
    border = sorted({m + unit for m in standard for unit in units}.difference(standard))
    # row r of the table is the normal form of monomial r: the standard
    # monomials first, then the border ones in increasing order
    row = {m: r for r, m in enumerate(standard + border)}
    # shifts[u][s]: the row of x_u times standard monomial s
    shifts = [[row[m + unit] for m in standard] for unit in units]
    p = int64_modulus(F, D)
    if p is None:
        table = [[F.one if i == j else F.zero for j in range(D)] for i in range(D)]
        table += [[F.zero] * D for _ in border]
    else:
        table = np.zeros((D + len(border), D), dtype=np.int64)
        table[range(D), range(D)] = 1
        shifts = np.array(shifts, dtype=np.intp)
    for r, b in enumerate(border, D):
        tail = tails.get(b)
        if tail is not None:
            for m, c in tail:
                table[r][row[m]] = c
            continue
        # a quotient by x_u that is not a packed monomial has a guard bit
        # set, so it is in no row
        u = next(u for u, unit in enumerate(units) if row.get(b - unit, 0) >= D)
        nf = table[row[b - units[u]]]
        if p is None:
            out = table[r]
            for c, s in zip(nf, shifts[u]):
                if c != F.zero:
                    for j, x in enumerate(table[s]):
                        out[j] = F.add(out[j], F.mul(c, x))
        else:
            nz = np.flatnonzero(nf)
            table[r] = nf[nz] @ table[shifts[u][nz]] % p
    return table, shifts


class QuotientAlgebra:
    """The quotient algebra of a zero-dimensional ideal, built once from
    its reduced grevlex Groebner basis: the standard monomials and the
    matrix of multiplication by each variable on them."""

    def __init__(self, basis):
        monomials = standard_monomials(basis)
        if monomials is None:
            raise PositiveDimensional("quotient is infinite dimensional")
        self.field = basis[0].ring.field
        self.monomials = monomials
        self.mats = multiplication_matrix(basis, monomials)

    def linear_form_matrix(self, lam):
        """Matrix of multiplication by the linear form sum lam[v] x_v."""
        F = self.field
        p = int64_modulus(F, len(lam))
        if p is not None and lam:
            return (sum(c * np.array(m, dtype=np.int64)
                        for c, m in zip(lam, self.mats)) % p).tolist()
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


def solve_zero_dimensional(algebra, rng):
    """Points of a zero-dimensional radical system over GF(p), through a
    rational univariate representation.

    Returns (points, eliminant) with one point (coords, field, degree) per
    Galois orbit, so the degrees sum to the number of solutions: coords
    lie in GF(p) when degree == 1 and otherwise in an explicit
    GF(p^degree) built from an irreducible factor of the eliminant.

    Requires the eliminant chi of a random linear form lambda to be
    squarefree, which certifies that all solutions are simple and
    separated.  Then 1, lambda, ..., lambda^(D-1) are a basis of the
    quotient algebra (the shape lemma), one GF(p) solve writes every
    coordinate as x_v = g_v(lambda), and at the roots of an irreducible
    factor f of chi the coordinates are g_v mod f in GF(p)[t]/(f).
    """
    F = algebra.field
    n = len(algebra.mats)
    lam = [F.random_element(rng) for _ in range(n)]
    total = algebra.linear_form_matrix(lam)
    chi = linalg.charpoly(F, total)
    if not is_squarefree(chi):
        raise ValueError("eliminant is not squarefree; points are not simple")
    D = len(total)
    one = algebra.monomials.index((0,) * n)
    # Krylov vectors lambda^j * 1, on Python ints where a sum of D
    # products would overflow int64
    mat = np.array(total, dtype=np.int64 if int64_modulus(F, D) else object)
    columns = [np.zeros(D, dtype=mat.dtype)]
    columns[0][one] = 1
    for _ in range(D - 1):
        columns.append(mat @ columns[-1] % F.p)
    # right-hand sides: the normal form of x_v is the column of 1 in M_v
    columns += [[row[one] for row in m] for m in algebra.mats]
    rows, pivots = linalg.rref(F, np.column_stack(columns).tolist())
    if pivots != list(range(D)):
        raise ValueError("powers of the linear form do not span the quotient")
    shape = [UniPoly(F, [row[D + v] for row in rows]) for v in range(n)]
    points = []
    for factor in factor_squarefree(chi, rng):
        k = factor.degree
        # L is GF(p)[t]/(factor), t standing for lambda
        _, L = irreducible_root(factor)
        residues = [list((g % factor).coeffs) + [F.zero] * k for g in shape]
        coords = tuple(r[0] if k == 1 else tuple(r[:k]) for r in residues)
        points.append((coords, L, k))
    return points, chi
