"""Exact scalar arithmetic: rationals, prime fields and their extensions.

A field object carries the operations; the elements themselves stay plain
Python data (``Fraction`` for the rationals, ``int`` in ``[0, p)`` for GF(p),
tuple of ints for GF(p^k)).  Keeping elements unboxed avoids per-element
object overhead in the polynomial layer, where millions of coefficient
operations happen.

Division by zero raises ``ZeroDivisionError`` always; there is no silent
NaN-like value anywhere.
"""

from fractions import Fraction

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond the moduli used here."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rationals with arbitrary-precision arithmetic."""

    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in QQ")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return a / b

    def from_int(self, n):
        return Fraction(n)

    def random_element(self, rng, bound=100):
        return Fraction(rng.randrange(-bound, bound + 1))

    def element_to_json(self, a):
        return str(a)

    def element_from_json(self, s):
        return Fraction(s)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) with elements stored as ints in [0, p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        c = a + b
        return c - self.p if c >= self.p else c

    def sub(self, a, b):
        c = a - b
        return c + self.p if c < 0 else c

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return self.p - a if a else 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return a * pow(b, self.p - 2, self.p) % self.p

    def from_int(self, n):
        return n % self.p

    def random_element(self, rng):
        return rng.randrange(self.p)

    def element_to_json(self, a):
        return a

    def element_from_json(self, s):
        return int(s) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod_p(a, b, p):
    # dense coefficient lists over GF(p), low degree first
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], p - 2, p)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return q, _poly_trim(a)


class ExtensionField:
    """GF(p^k) as GF(p)[t] modulo an explicit irreducible polynomial.

    Elements are coefficient tuples of length k (degree < k, low degree
    first).  The modulus is given low-first as well and must be monic.
    """

    def __init__(self, p, modulus):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) < 3 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 2")
        self.p = p
        self.characteristic = p
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.zero = (0,) * self.degree
        self.one = (1,) + (0,) * (self.degree - 1)

    def from_base(self, a):
        """Embed a GF(p) element (plain int)."""
        return (a % self.p,) + (0,) * (self.degree - 1)

    def generator(self):
        """The class of t, a root of the modulus."""
        e = [0] * self.degree
        e[1] = 1
        return tuple(e)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.degree
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        # reduce modulo the defining polynomial
        m = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % p
            if c:
                for j in range(k):
                    prod[i - k + j] -= c * m[j]
            prod[i] = 0
        return tuple(c % p for c in prod[:k])

    def inv(self, a):
        if all(x == 0 for x in a):
            raise ZeroDivisionError(f"inverse of zero in GF({self.p}^{self.degree})")
        # extended Euclid in GF(p)[t]
        p = self.p
        r0, r1 = list(self.modulus), _poly_trim(list(a))
        s0, s1 = [0], [1]
        while len(r1) > 1:
            q, r = _poly_divmod_p(r0, r1, p)
            r0, r1 = r1, r
            qs = [0] * (len(q) + len(s1) - 1)
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        qs[i + j] = (qs[i + j] + qi * sj) % p
            s = [(x - y) % p for x, y in
                 zip(s0 + [0] * max(0, len(qs) - len(s0)),
                     qs + [0] * max(0, len(s0) - len(qs)))]
            s0, s1 = s1, _poly_trim(s) or [0]
        c = pow(r1[0], p - 2, p)
        out = [x * c % p for x in s1]
        out += [0] * (self.degree - len(out))
        return tuple(out[: self.degree])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n):
        return self.from_base(n % self.p)

    def random_element(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.degree))

    def element_to_json(self, a):
        return list(a)

    def element_from_json(self, s):
        return tuple(int(c) % self.p for c in s)

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.p == self.p
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("GFext", self.p, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.degree})"


def int64_modulus(field, length):
    """p when ``field`` is GF(p) and a sum of ``length`` products of field
    elements stays below 2^63, so numpy arithmetic reduced mod p after each
    such sum is exact; None otherwise (QQ, GF(p^k), or p too large), where
    the pure-Python code must run."""
    if isinstance(field, PrimeField) and length * field.p ** 2 < 2 ** 63:
        return field.p
    return None


def field_to_json(field):
    if isinstance(field, RationalField):
        return {"type": "rational"}
    if isinstance(field, PrimeField):
        return {"type": "prime", "p": field.p}
    if isinstance(field, ExtensionField):
        return {"type": "extension", "p": field.p, "modulus": list(field.modulus)}
    raise TypeError(f"unknown field {field!r}")


def field_from_json(data):
    kind = data["type"]
    if kind == "rational":
        return QQ
    if kind == "prime":
        return PrimeField(data["p"])
    if kind == "extension":
        return ExtensionField(data["p"], list(data["modulus"]))
    raise ValueError(f"unknown field type {kind!r}")


def field_pow(field, a, n):
    """a**n by square and multiply, n >= 0."""
    if n < 0:
        return field_pow(field, field.inv(a), -n)
    result = field.one
    base = a
    while n:
        if n & 1:
            result = field.mul(result, base)
        base = field.mul(base, base)
        n >>= 1
    return result


QQ = RationalField()
