import gc
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from coniccount.fields import QQ, PrimeField
from coniccount.multipoly import PolyRing, NotDivisible, RingMismatch, grevlex_key


def _random_poly(ring, rng, max_degree=3, terms=5):
    out = ring.zero()
    for _ in range(terms):
        mon = tuple(rng.randrange(max_degree + 1) for _ in range(ring.nvars))
        out = out + ring.from_dict({mon: ring.field.random_element(rng)})
    return out


def test_difference_of_squares():
    R = PolyRing(QQ, 2, ("x", "y"))
    x, y = R.gen(0), R.gen(1)
    assert (x + y) * (x - y) == x * x - y * y


def test_multiplication_by_zero():
    R = PolyRing(QQ, 2)
    p = R.gen(0) + R.one()
    assert (p * R.zero()).is_zero()


def test_mod_five_coefficients():
    F = PrimeField(5)
    R = PolyRing(F, 1, ("x",))
    x = R.gen(0)
    # (2x) * (3x) = 6 x^2 = x^2 over GF(5)
    assert x.scale(2) * x.scale(3) == x * x


def test_ring_mismatch():
    R1 = PolyRing(QQ, 2)
    R2 = PolyRing(QQ, 3)
    with pytest.raises(RingMismatch):
        R1.one() + R2.one()


def test_degree_of_product():
    rng = random.Random(7)
    R = PolyRing(QQ, 3)
    for _ in range(30):
        p, q = _random_poly(R, rng), _random_poly(R, rng)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).degree() == p.degree() + q.degree()


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_ring_axioms_on_random_polys(sa, sb, sc):
    F = PrimeField(10007)
    R = PolyRing(F, 2)
    a = _random_poly(R, random.Random(sa))
    b = _random_poly(R, random.Random(sb))
    c = _random_poly(R, random.Random(sc))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


def test_homogeneous_flag():
    R = PolyRing(QQ, 2, ("x", "y"))
    x, y = R.gen(0), R.gen(1)
    assert (x * x + x * y).is_homogeneous()
    assert not (x * x + y).is_homogeneous()
    assert R.zero().is_homogeneous()


@pytest.mark.parametrize("nvars", [1, 2, 3, 5])
def test_monomials_of_degree_lists_every_exponent_tuple(nvars):
    R = PolyRing(QQ, nvars)
    for d in range(6):
        every = [m for m in product(range(d + 1), repeat=nvars) if sum(m) == d]
        assert R.monomials_of_degree(d) == sorted(every, key=grevlex_key)


def test_monomials_of_degree_leaves_no_cyclic_garbage():
    # cyclic garbage lives until a full collection, so a benchmark that
    # runs more rounds would read a higher peak resident set
    R = PolyRing(PrimeField(10007), 4)
    gc.collect()
    for d in range(5):
        R.monomials_of_degree(d)
    assert gc.collect() == 0


def test_grevlex_order_on_classic_example():
    # x^2 z beats x y^2 in grevlex at equal degree
    a, b = (2, 0, 1), (1, 2, 0)
    assert grevlex_key(a) < grevlex_key(b)


def test_exact_division():
    R = PolyRing(QQ, 2, ("x", "y"))
    x, y = R.gen(0), R.gen(1)
    p = (x + y) * (x - y)
    assert p.exact_div(x + y) == x - y
    with pytest.raises(NotDivisible):
        (p + R.one()).exact_div(x + y)


def test_substitute_and_evaluate():
    R = PolyRing(QQ, 2, ("x", "y"))
    x, y = R.gen(0), R.gen(1)
    S = PolyRing(QQ, 1, ("t",))
    t = S.gen(0)
    p = x * x + y
    q = p.substitute(S, [t, t * t])
    assert q == t * t + t * t
    assert p.evaluate([Fraction(2), Fraction(3)]) == Fraction(7)


def test_canonical_serialization_is_stable():
    F = PrimeField(10007)
    R = PolyRing(F, 2)
    p = R.from_dict({(1, 0): 3, (0, 2): 5, (0, 0): 7})
    q = R.from_dict({(0, 0): 7, (0, 2): 5, (1, 0): 3})
    assert p.to_json() == q.to_json()
    assert p == q


def test_derivative():
    R = PolyRing(QQ, 2, ("x", "y"))
    x, y = R.gen(0), R.gen(1)
    p = x * x * y + y
    assert p.derivative(0) == x.scale(Fraction(2)) * y
    assert p.derivative(1) == x * x + R.one()
