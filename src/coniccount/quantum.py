"""Closed-form conic counts for hypersurfaces of degree n in P^n and the
quantum-cohomology structure constants they come from.

Everything is exact: the polynomials in w are coefficient lists of ints,
low degree first.  The degree-2 constants have denominators dividing
2^(n-2), so they are computed scaled by 2^(n-2) and divided exactly at the
end, into Fractions.  The count of conics through a general point admits
two independent computations, a closed form and a three-point-invariant
route, and their agreement is the module's main identity.
"""

import math
from dataclasses import dataclass
from fractions import Fraction


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_eval(a, w):
    acc = 0
    for c in reversed(a):
        acc = acc * w + c
    return acc


@dataclass
class StructureConstants:
    """Degree-1 or degree-2 structure constants of the small quantum ring
    of a degree-n hypersurface in P^n, as exact coefficients indexed by m."""

    n: int
    level: int
    coefficients: list

    def __getitem__(self, m):
        return self.coefficients[m]

    def as_integers(self):
        """The coefficients as ints; raises when one is not integral."""
        out = []
        for c in self.coefficients:
            if c.denominator != 1:
                raise ValueError(f"non-integer structure constant {c}")
            out.append(int(c))
        return out

    def to_json(self):
        return {"n": self.n, "level": self.level,
                "coefficients": [str(c) for c in self.coefficients]}


def _degree_one(n):
    """n * prod_(j=1..n-1) (j*w + (n-j)) as ints, length n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    poly = [n]
    for j in range(1, n):
        poly = _poly_mul(poly, [n - j, j])
    return poly


def _degree_two_scaled(l1):
    """2^(n-2) times the degree-2 constants, as ints, from the degree-1
    list l1 of length n; see structure_constants_d2.

    The j0 sum is 1 + w + ... + w^j1, and 2^(n-2) * ((1+w)/2)^e is
    sum_i C(e,i) 2^(n-2-e) w^i.  Grouping by e = j2 - j1, the sum over j1
    of L1[j1] * L1[j1+e+1] * (1 + ... + w^j1) has as coefficient of w^i
    the tail sum of those products over j1 >= i."""
    n = len(l1)
    total = [0] * (n - 1)
    for e in range(n - 1):
        tails = []
        tail = 0
        for j1 in reversed(range(n - 1 - e)):
            tail += l1[j1] * l1[j1 + e + 1]
            tails.append(tail)
        tails.reverse()
        binomial = [math.comb(e, i) << (n - 2 - e) for i in range(e + 1)]
        for i, t in enumerate(tails):
            for k, c in enumerate(binomial):
                total[i + k] += t * c
    return total


def structure_constants_d1(n):
    """Coefficient list of n * prod_(j=1..n-1) (j*w + (n-j)), length n."""
    return StructureConstants(n, 1, [Fraction(c) for c in _degree_one(n)])


def structure_constants_d2(n):
    """Degree-2 constants via the triple sum

        sum_(j2=0..n-2) sum_(j1=0..j2) sum_(j0=0..j1)
            L1[j1] * L1[j2+1] * w^(j1-j0) * ((1+w)/2)^(j2-j1);

    the halves cancel and the coefficient list has length n-1."""
    scaled = _degree_two_scaled(_degree_one(n))
    return StructureConstants(n, 2, [Fraction(c, 1 << (n - 2)) for c in scaled])


def conic_count_closed_form(n):
    """(2n)! / 2^(n+1) - (n!)^2 / 2, as an exact integer."""
    if n < 2:
        raise ValueError("n must be at least 2")
    a = Fraction(math.factorial(2 * n), 2 ** (n + 1))
    b = Fraction(math.factorial(n) ** 2, 2)
    value = a - b
    assert value.denominator == 1
    return int(value)


def _count_via(n, l2_scaled):
    if n < 3:
        raise ValueError("n must be at least 3")
    return Fraction(l2_scaled[n - 2], 4 << (n - 2))


def conic_count_via_structure_constants(n):
    """The three-point route: the top degree-2 constant divided by four.

    Setting m = n-2 in the bracket relation identifies L2[n-2] with the
    invariant counting conics through a point and two hyperplane-like
    conditions, up to the factor 4 from the two degree-1 insertions."""
    if n < 3:
        raise ValueError("n must be at least 3")
    return _count_via(n, _degree_two_scaled(_degree_one(n)))


def _w_equals_two(n, l1, l2_scaled):
    scale = 1 << (n - 2)
    return {
        "d1_at_w2": str(_poly_eval(l1, 2)),
        "d2_at_w2": str(Fraction(_poly_eval(l2_scaled, 2), scale)),
        "d1_top_coefficient": str(l1[n - 1]),
        "d2_top_coefficient": str(Fraction(l2_scaled[n - 2], scale)),
    }


def w_equals_two_evaluations(n):
    """Raw data for the derivation sketch: both generating polynomials
    evaluated at w = 2, next to the coefficients the sketch names."""
    l1 = _degree_one(n)
    return _w_equals_two(n, l1, _degree_two_scaled(l1))


def formulas_table(n_min=3, n_max=10):
    """Per-n comparison of the two conic counts, with the match flag."""
    rows = []
    for n in range(n_min, n_max + 1):
        l1 = _degree_one(n)
        l2 = _degree_two_scaled(l1)
        closed = conic_count_closed_form(n)
        via = _count_via(n, l2)
        rows.append({
            "n": n,
            "L1": [str(c) for c in l1],
            "L2": [str(Fraction(c, 1 << (n - 2))) for c in l2],
            "closed_form": closed,
            "via_structure_constants": str(via),
            "match": via == closed,
            "w_equals_two": _w_equals_two(n, l1, l2),
        })
    return rows
