"""Exact multivariate polynomials over a field object from ``fields``.

Terms live in a dict mapping exponent tuples to nonzero coefficients, so
equality is order-independent; every textual or JSON serialization sorts
terms by graded reverse-lexicographic order, which keeps all outputs
byte-stable.  Instances are treated as immutable.

A linear change of variables of a form over GF(p) runs on int64 numpy
arrays when ``fields.int64_modulus`` allows it: the coefficients go into
a degree-d tensor, each axis is contracted with the matrix, and the
result is folded back into monomials.  Otherwise it is a ``substitute``.
"""

from functools import lru_cache

import numpy as np

from .fields import field_pow, int64_modulus


def grevlex_key(mon):
    """Sort key: ascending graded reverse-lexicographic order."""
    return (sum(mon), tuple(-e for e in reversed(mon)))


class RingMismatch(ValueError):
    pass


class NotDivisible(ArithmeticError):
    pass


class PolyRing:
    """A polynomial ring: a field plus a fixed number of named variables."""

    __slots__ = ("field", "nvars", "names")

    def __init__(self, field, nvars, names=None):
        if names is None:
            names = tuple(f"x{i}" for i in range(nvars))
        if len(names) != nvars:
            raise ValueError("one name per variable")
        self.field = field
        self.nvars = nvars
        self.names = tuple(names)

    def zero(self):
        return MultiPoly(self, {})

    def one(self):
        return self.constant(self.field.one)

    def constant(self, c):
        if c == self.field.zero:
            return self.zero()
        return MultiPoly(self, {(0,) * self.nvars: c})

    def gen(self, i):
        mon = [0] * self.nvars
        mon[i] = 1
        return MultiPoly(self, {tuple(mon): self.field.one})

    def from_dict(self, terms):
        zero = self.field.zero
        return MultiPoly(self, {tuple(m): c for m, c in terms.items() if c != zero})

    def monomials_of_degree(self, d):
        """All exponent tuples of total degree d, grevlex-sorted."""
        if self.nvars == 0:
            return [()] if d == 0 else []
        # the first nvars - 1 exponents, one variable at a time; the last
        # takes what is left of d
        out = [()]
        for _ in range(self.nvars - 1):
            out = [m + (e,) for m in out for e in range(d - sum(m) + 1)]
        out = [m + (d - sum(m),) for m in out]
        out.sort(key=grevlex_key)
        return out

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.field == self.field
                and other.nvars == self.nvars)

    def __hash__(self):
        return hash((self.field, self.nvars))

    def __repr__(self):
        return f"{self.field!r}[{','.join(self.names)}]"


class MultiPoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        self._check(other)
        F = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = F.add(out.get(m, F.zero), c)
            if s == F.zero:
                out.pop(m, None)
            else:
                out[m] = s
        return MultiPoly(self.ring, out)

    def __neg__(self):
        F = self.ring.field
        return MultiPoly(self.ring, {m: F.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check(other)
        F = self.ring.field
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        zero = F.zero
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(i + j for i, j in zip(m1, m2))
                s = F.add(out.get(m, zero), F.mul(c1, c2))
                if s == zero:
                    out.pop(m, None)
                else:
                    out[m] = s
        return MultiPoly(self.ring, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        """Multiply by a field element."""
        F = self.ring.field
        if c == F.zero:
            return self.ring.zero()
        return MultiPoly(self.ring, {m: F.mul(co, c) for m, co in self.terms.items()})

    def __pow__(self, n):
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def coefficient(self, mon):
        return self.terms.get(tuple(mon), self.ring.field.zero)

    def leading(self):
        """(monomial, coefficient) maximal in grevlex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=grevlex_key)
        return m, self.terms[m]

    def sorted_terms(self):
        """Terms sorted descending by grevlex; the canonical presentation."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def evaluate(self, values):
        """Evaluate at a point given as a list of field elements."""
        F = self.ring.field
        acc = F.zero
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                if e:
                    v = F.mul(v, field_pow(F, values[i], e))
            acc = F.add(acc, v)
        return acc

    def substitute(self, ring, images):
        """Ring map sending variable i to images[i] (MultiPolys in ``ring``)."""
        F = ring.field
        out = ring.zero()
        cache = [dict() for _ in range(self.ring.nvars)]
        for m, c in self.terms.items():
            term = ring.constant(c)
            for i, e in enumerate(m):
                if e:
                    powd = cache[i]
                    if e not in powd:
                        powd[e] = images[i] ** e
                    term = term * powd[e]
            out = out + term
        return out

    def linear_substitute(self, ring, mat, affine=False):
        """The ring map sending variable i to the linear form
        sum_j mat[i][j] y_j of ``ring``, as ``linear_images`` builds it;
        with ``affine`` the last y is 1, so the last column is constant."""
        d = self.degree()
        p = int64_modulus(ring.field, self.ring.nvars)
        if p is None or d < 1 or not mat[0] or not self.is_homogeneous():
            return self.substitute(ring, linear_images(ring, mat, affine))
        terms = _linear_change_int64(self.terms, d, mat, p)
        if affine:
            # a form of degree d: the last exponent is d minus the others
            terms = {m[:-1]: c for m, c in terms.items()}
        return MultiPoly(ring, terms)

    def map_coefficients(self, func, new_field):
        """Apply ``func`` to every coefficient, landing in ``new_field``."""
        ring = PolyRing(new_field, self.ring.nvars, self.ring.names)
        out = {}
        for m, c in self.terms.items():
            v = func(c)
            if v != new_field.zero:
                out[m] = v
        return MultiPoly(ring, out)

    def derivative(self, i):
        F = self.ring.field
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                dm = list(m)
                dm[i] = e - 1
                co = F.mul(c, F.from_int(e))
                if co != F.zero:
                    out[tuple(dm)] = co
        return MultiPoly(self.ring, out)

    def exact_div(self, g):
        """Exact quotient self/g; raises NotDivisible on nonzero remainder."""
        self._check(g)
        if not g.terms:
            raise ZeroDivisionError("division by zero polynomial")
        F = self.ring.field
        gm, gc = g.leading()
        gc_inv = F.inv(gc)
        rem = dict(self.terms)
        quot = {}
        while rem:
            m = max(rem, key=grevlex_key)
            c = rem[m]
            qm = tuple(i - j for i, j in zip(m, gm))
            if any(e < 0 for e in qm):
                raise NotDivisible("nonzero remainder in exact division")
            qc = F.mul(c, gc_inv)
            quot[qm] = qc
            for m2, c2 in g.terms.items():
                mm = tuple(i + j for i, j in zip(qm, m2))
                s = F.sub(rem.get(mm, F.zero), F.mul(qc, c2))
                if s == F.zero:
                    rem.pop(mm, None)
                else:
                    rem[mm] = s
        return MultiPoly(self.ring, quot)

    def divides(self, other):
        try:
            other.exact_div(self)
            return True
        except NotDivisible:
            return False

    def to_json(self):
        F = self.ring.field
        return [[list(m), F.element_to_json(c)] for m, c in self.sorted_terms()]

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        parts = []
        for m, c in self.sorted_terms():
            mon = "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                           for i, e in enumerate(m) if e)
            parts.append(f"({c})" + (f"*{mon}" if mon else ""))
        return " + ".join(parts)


def linear_images(ring, mat, affine=False):
    """The linear forms sum_j row[j] y_j of ``ring``, one per row of
    ``mat``; with ``affine`` the last column is the constant term."""
    n = ring.nvars
    mons = [tuple(int(i == j) for i in range(n)) for j in range(n + affine)]
    return [ring.from_dict(dict(zip(mons, row))) for row in mat]


def _linear_change_int64(terms, d, mat, p):
    """The terms of f(A y) for a form f of degree d >= 1 with the given
    terms, A = mat (k x m) over GF(p), as exponent tuple -> int."""
    k, m = len(mat), len(mat[0])
    tensor = np.zeros((k,) * d, dtype=np.int64)
    for mon, c in terms.items():
        # x^e is the entry at the sorted index tuple with e_i copies of i
        tensor[sum(((i,) * e for i, e in enumerate(mon)), ())] = c
    a = np.array(mat, dtype=np.int64)
    for _ in range(d):
        # each pass replaces the leading axis by a trailing one of length m
        tensor = np.tensordot(tensor, a, axes=(0, 0)) % p
    positions, monomials = _fold(m, d)
    coeffs = np.zeros(len(monomials), dtype=np.int64)
    np.add.at(coeffs, positions, tensor.ravel())
    coeffs %= p
    nonzero = np.flatnonzero(coeffs)
    return dict(zip([monomials[i] for i in nonzero.tolist()],
                    coeffs[nonzero].tolist()))


@lru_cache(maxsize=None)
def _fold(m, d):
    """For the m^d entries of a degree-d tensor on m variables, in C
    order, the position of their monomial in the returned list of the
    distinct exponent tuples."""
    index = np.indices((m,) * d).reshape(d, -1)
    exps = np.stack([(index == j).sum(axis=0) for j in range(m)], axis=1)
    monomials, positions = np.unique(exps, axis=0, return_inverse=True)
    return positions.reshape(-1), [tuple(e) for e in monomials.tolist()]
