"""Univariate polynomials over an exact field: gcd, squarefree data,
and factorization over prime fields; and binary forms, kept as a
univariate polynomial plus a degree.

Coefficients are stored dense, low degree first, with no trailing zeros.
Factorization (distinct-degree + equal-degree splitting) is only needed
over GF(p); everything else is generic in the field object.
"""

from .fields import PrimeField, ExtensionField


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        while coeffs and coeffs[-1] == field.zero:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def constant(cls, field, c):
        return cls(field, [c])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [F.zero] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = F.add(a[i], c)
        return UniPoly(F, a)

    def __neg__(self):
        F = self.field
        return UniPoly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero(F)
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a != F.zero:
                for j, b in enumerate(other.coeffs):
                    if b != F.zero:
                        out[i + j] = F.add(out[i + j], F.mul(a, b))
        return UniPoly(F, out)

    def __pow__(self, n):
        result = UniPoly.constant(self.field, self.field.one)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c):
        F = self.field
        return UniPoly(F, [F.mul(a, c) for a in self.coeffs])

    def monic(self):
        if not self.coeffs:
            return self
        return self.scale(self.field.inv(self.lc()))

    def __divmod__(self, other):
        F = self.field
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly.zero(F), UniPoly(F, rem)
        inv_lead = F.inv(other.lc())
        quot = [F.zero] * (dq + 1)
        for i in range(dq, -1, -1):
            c = F.mul(rem[i + other.degree], inv_lead)
            if c != F.zero:
                quot[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = F.sub(rem[i + j], F.mul(c, b))
        return UniPoly(F, quot), UniPoly(F, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def gcd(self, other):
        """Monic greatest common divisor."""
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic() if a else a

    def derivative(self):
        F = self.field
        return UniPoly(F, [F.mul(c, F.from_int(i))
                           for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        F = self.field
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def pow_mod(self, n, modulus):
        """self**n mod modulus, by square and multiply."""
        result = UniPoly.constant(self.field, self.field.one)
        base = self % modulus
        while n:
            if n & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            n >>= 1
        return result

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*t^{i}" if i else f"({c})"
                          for i, c in enumerate(self.coeffs) if c != self.field.zero)


def squarefree_part(f):
    """f divided by gcd(f, f'); its degree counts the distinct roots when
    the characteristic is 0 or exceeds ``f.degree``."""
    if not f:
        raise ValueError("zero polynomial")
    g = f.gcd(f.derivative())
    if g.degree == 0:
        return f.monic()
    return (f // g).monic()


def squarefree_root_count(f):
    """Number of distinct roots of f in an algebraic closure, provided the
    characteristic is 0 or exceeds ``f.degree``, as ``counting.MIN_PRIME``
    ensures in the pipeline.  In any characteristic it is ``f.degree``
    exactly when ``is_squarefree(f)``.

    Below that, a root whose multiplicity the characteristic divides
    divides gcd(f, f') to its full power, so the count misses it: over
    GF(5), x^6 - x^5 has the roots 0 and 1, and the count is 1."""
    return squarefree_part(f).degree


def is_squarefree(f):
    return f.gcd(f.derivative()).degree == 0


def _field_order(field):
    if isinstance(field, PrimeField):
        return field.p
    if isinstance(field, ExtensionField):
        return field.p ** field.degree
    raise TypeError("factorization needs a finite field")


def distinct_degree_factorization(f):
    """Split a squarefree monic f over a finite field into products of
    irreducibles of equal degree; yields (degree, factor) pairs."""
    q = _field_order(f.field)
    x = UniPoly.x(f.field)
    h = x
    rest = f
    d = 0
    while rest.degree > 2 * (d + 1) - 1 and rest.degree > 0:
        d += 1
        h = h.pow_mod(q, rest)
        g = rest.gcd(h - x)
        if g.degree > 0:
            yield d, g
            rest = rest // g
            h = h % rest
    if rest.degree > 0:
        yield rest.degree, rest


def equal_degree_factorization(f, d, rng):
    """Cantor-Zassenhaus split of f into its degree-d irreducible factors."""
    F = f.field
    if f.degree == d:
        return [f]
    q = _field_order(F)
    exponent = (q ** d - 1) // 2
    while True:
        r = UniPoly(F, [F.random_element(rng) for _ in range(f.degree)])
        if r.degree < 1:
            continue
        g = f.gcd(r)
        if 0 < g.degree < f.degree:
            pieces = [g, f // g]
        else:
            h = r.pow_mod(exponent, f) - UniPoly.constant(F, F.one)
            g = f.gcd(h)
            if g.degree == 0 or g.degree == f.degree:
                continue
            pieces = [g, f // g]
        out = []
        for piece in pieces:
            out.extend(equal_degree_factorization(piece.monic(), d, rng))
        return out


def factor_squarefree(f, rng):
    """Irreducible factors of a squarefree f over a finite field."""
    f = f.monic()
    out = []
    for d, g in distinct_degree_factorization(f):
        out.extend(equal_degree_factorization(g, d, rng))
    out.sort(key=lambda h: (h.degree, h.coeffs))
    return out


def irreducible_root(f):
    """(root, field) of an irreducible f over GF(p): the root lies in
    GF(p) when f is linear, else it is the class of t in GF(p)[t]/(f)."""
    F = f.field
    if f.degree == 1:
        return F.neg(F.div(f.coeffs[0], f.coeffs[1])), F
    L = ExtensionField(F.p, list(f.monic().coeffs))
    return L.generator(), L


def roots_in_field(f, rng):
    """Roots of f lying in its own coefficient field."""
    F = f.field
    q = _field_order(F)
    x = UniPoly.x(F)
    g = f.gcd(x.pow_mod(q, f) - x)
    if g.degree == 0:
        return []
    roots = []
    for h in equal_degree_factorization(g.monic(), 1, rng):
        roots.append(F.neg(h.coeffs[0]))
    roots.sort()
    return roots


class BinaryForm:
    """Homogeneous form of degree ``degree`` in (u, v), stored as its
    dehomogenization ``poly`` in t = v/u; ``coeffs[j]`` multiplies
    u^(degree-j) v^j.  The root at infinity, [u:v] = [0:1], has
    multiplicity ``degree - poly.degree``."""

    __slots__ = ("poly", "degree")

    def __init__(self, field, degree, coeffs):
        if len(coeffs) != degree + 1:
            raise ValueError("coefficient list does not match the degree")
        self.poly = UniPoly(field, list(coeffs))
        self.degree = degree

    @classmethod
    def from_poly(cls, poly, degree):
        """The form of the given degree whose dehomogenization is poly."""
        form = cls.__new__(cls)
        form.poly = poly
        form.degree = degree
        return form

    @classmethod
    def zero(cls, field, degree):
        return cls.from_poly(UniPoly.zero(field), degree)

    @classmethod
    def from_multipoly(cls, f, var=0):
        """A homogeneous MultiPoly in two variables as a binary form, with
        v = x_var and u the other variable."""
        F = f.ring.field
        deg = f.degree()
        coeffs = [F.zero] * (deg + 1)
        for mon, c in f.terms.items():
            coeffs[mon[var]] = c
        return cls(F, deg, coeffs)

    @property
    def field(self):
        return self.poly.field

    @property
    def coeffs(self):
        return self.poly.coeffs + (self.field.zero,) * (self.degree - self.poly.degree)

    @property
    def infinity_multiplicity(self):
        return self.degree - self.poly.degree

    def __bool__(self):
        return bool(self.poly)

    def __eq__(self, other):
        return (isinstance(other, BinaryForm) and other.degree == self.degree
                and other.poly == self.poly)

    def __add__(self, other):
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return BinaryForm.from_poly(self.poly + other.poly, self.degree)

    def __neg__(self):
        return BinaryForm.from_poly(-self.poly, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return BinaryForm.from_poly(self.poly * other.poly, self.degree + other.degree)

    def scale(self, c):
        return BinaryForm.from_poly(self.poly.scale(c), self.degree)

    def gcd(self, other):
        """Monic greatest common divisor of two nonzero forms."""
        h = self.poly.gcd(other.poly)
        inf = min(self.infinity_multiplicity, other.infinity_multiplicity)
        return BinaryForm.from_poly(h, h.degree + inf)

    def distinct_roots(self):
        """(number of distinct projective roots, squarefree flag) of a
        nonzero form; the flag covers the root at infinity too."""
        inf = self.infinity_multiplicity
        finite = squarefree_root_count(self.poly)
        return finite + (1 if inf else 0), finite == self.poly.degree and inf <= 1

    def factors(self, rng):
        """Irreducible factors of a squarefree form over a finite field:
        u first when the root at infinity is present, then the monic
        factors of poly in factor_squarefree's order."""
        F = self.field
        out = [BinaryForm(F, 1, [F.one, F.zero])] if self.infinity_multiplicity else []
        return out + [BinaryForm.from_poly(h, h.degree)
                      for h in factor_squarefree(self.poly, rng)]

    def root(self):
        """(u, v) of one root of an irreducible form over GF(p), and the
        field it lies in, as for irreducible_root."""
        F = self.field
        if self.infinity_multiplicity:
            return (F.zero, F.one), F
        v, L = irreducible_root(self.poly)
        return (L.one, v), L

    def __repr__(self):
        parts = [f"({c})*u^{self.degree - j}v^{j}"
                 for j, c in enumerate(self.poly.coeffs) if c != self.field.zero]
        return " + ".join(parts) or "0"


def binary_forms_common_root(forms):
    """Whether a list of binary forms has a common projective root (in the
    algebraic closure).  Zero forms are ignored; an all-zero list does."""
    g = None
    for f in forms:
        if f:
            g = f if g is None else g.gcd(f)
            if g.degree == 0:
                return False
    return True
