import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coniccount.fields import QQ, PrimeField, ExtensionField
from coniccount.multipoly import PolyRing
from coniccount.unipoly import (UniPoly, BinaryForm, squarefree_root_count,
                                is_squarefree, squarefree_part, factor_squarefree,
                                roots_in_field, binary_forms_common_root)


def _from_roots(field, roots):
    out = UniPoly.constant(field, field.one)
    for r in roots:
        out = out * UniPoly(field, [field.neg(r), field.one])
    return out


def test_divmod_round_trip():
    rng = random.Random(3)
    F = PrimeField(10007)
    for _ in range(40):
        a = UniPoly(F, [F.random_element(rng) for _ in range(rng.randrange(1, 9))])
        b = UniPoly(F, [F.random_element(rng) for _ in range(rng.randrange(1, 6))])
        if not b:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_squarefree_root_count_examples():
    one = UniPoly.constant(QQ, Fraction(1))
    t = UniPoly.x(QQ)
    # (x-1)^2 (x-2) has two distinct roots
    f = (t - one) ** 2 * (t - one - one)
    assert squarefree_root_count(f) == 2
    # x^6 - 1 is separable over QQ
    g = t ** 6 - one
    assert squarefree_root_count(g) == 6
    # x^p - x over GF(p) has all p field elements as roots
    p = 10007
    F = PrimeField(p)
    h = UniPoly(F, [0, F.p - 1] + [0] * (p - 2) + [1])
    assert squarefree_root_count(h) == p


def test_squarefree_root_count_needs_the_characteristic_above_the_degree():
    # x^6 - x^5 = x^5 (x - 1): the root 0 has multiplicity 5, so over GF(5)
    # f' = x^5 and f / gcd(f, f') = x - 1 loses it
    F5 = PrimeField(5)
    f = UniPoly(F5, [0, 0, 0, 0, 0, 4, 1])
    assert sorted(x for x in range(5) if f.evaluate(x) == 0) == [0, 1]
    assert squarefree_root_count(f) == 1
    # over GF(7) > deg f both roots count
    assert squarefree_root_count(UniPoly(PrimeField(7), [0, 0, 0, 0, 0, 6, 1])) == 2


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        squarefree_root_count(UniPoly.zero(QQ))


def test_gcd_monic():
    F = PrimeField(10007)
    f = _from_roots(F, [1, 2, 3]).scale(17)
    g = _from_roots(F, [2, 3, 5]).scale(29)
    assert f.gcd(g) == _from_roots(F, [2, 3])


def test_factor_squarefree_round_trip():
    rng = random.Random(11)
    F = PrimeField(10007)
    for _ in range(10):
        roots = list({F.random_element(rng) for _ in range(4)})
        f = _from_roots(F, roots)
        factors = factor_squarefree(f, rng)
        assert all(h.degree == 1 for h in factors)
        prod = UniPoly.constant(F, F.one)
        for h in factors:
            prod = prod * h
        assert prod == f


def test_factor_finds_extension_orbits():
    rng = random.Random(5)
    F = PrimeField(10007)
    t = UniPoly.x(F)
    # t^2 + 5 stays irreducible iff -5 is a nonsquare; build a nonsquare case
    c = next(c for c in range(2, 100)
             if pow(c, (F.p - 1) // 2, F.p) == F.p - 1)
    f = t * t - UniPoly.constant(F, c)
    factors = factor_squarefree(f, rng)
    assert [h.degree for h in factors] == [2]
    E = ExtensionField(F.p, list(factors[0].coeffs))
    root = E.generator()
    assert E.mul(root, root) == E.from_base(c)


def test_roots_in_field():
    rng = random.Random(1)
    F = PrimeField(31013)
    f = _from_roots(F, [10, 20]) * UniPoly(F, [7, 0, 1])  # two rational roots
    if pow(31013 - 7, (F.p - 1) // 2, F.p) == F.p - 1:
        assert roots_in_field(f, rng) == [10, 20]


def test_squarefree_part_over_extension():
    E = ExtensionField(10007, [5, 0, 1])
    t = UniPoly.x(E)
    a = UniPoly.constant(E, E.generator())
    f = (t - a) * (t - a)
    assert squarefree_part(f) == (t - a)
    assert not is_squarefree(f)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([5, 10007]), st.booleans(), st.data())
def test_squarefree_flag_is_the_root_count_at_full_degree(p, in_fifth_powers, data):
    # callers read is_squarefree(f) off squarefree_root_count(f) == deg f;
    # f = g(x^5) over GF(5) has f' = 0
    F = PrimeField(p)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8)
                       .filter(any))
    if in_fifth_powers and p == 5:
        spread = [0] * (5 * len(coeffs) - 4)
        spread[::5] = coeffs
        coeffs = spread
    f = UniPoly(F, coeffs)
    assert is_squarefree(f) == (squarefree_root_count(f) == f.degree)


# binary forms: coeffs[j] multiplies u^(deg-j) v^j; infinity is [u:v] = [0:1]

BF = PrimeField(10007)
U = BinaryForm(BF, 1, [1, 0])
V = BinaryForm(BF, 1, [0, 1])


def _linear(r):
    """v - r*u, vanishing at [u:v] = [1:r]."""
    return V - U.scale(r)


def _nonsquare(F):
    return next(c for c in range(2, 100) if pow(c, (F.p - 1) // 2, F.p) == F.p - 1)


def test_binary_form_keeps_degree_and_coefficients():
    f = U * U * V
    assert f.degree == 3 and f.coeffs == (0, 1, 0, 0)
    assert f.infinity_multiplicity == 2 and f.poly.degree == 1
    assert BinaryForm.zero(BF, 2).coeffs == (0, 0, 0) and not BinaryForm.zero(BF, 2)
    assert U + V == BinaryForm(BF, 1, [1, 1])
    with pytest.raises(ValueError):
        U + U * V
    with pytest.raises(ValueError):
        BinaryForm(BF, 2, [1, 0])


@pytest.mark.parametrize("inf_mult", [0, 1, 2])
def test_binary_form_roots_with_root_at_infinity(inf_mult):
    rng = random.Random(inf_mult)
    c = _nonsquare(BF)
    quad = V * V - (U * U).scale(c)           # irreducible over GF(p)
    f = _linear(2) * _linear(3) * quad
    for _ in range(inf_mult):
        f = f * U
    assert f.infinity_multiplicity == inf_mult
    distinct, squarefree = f.distinct_roots()
    assert distinct == 4 + (1 if inf_mult else 0)
    assert squarefree == (inf_mult <= 1)
    factors = f.factors(rng)
    # finite factors come monic, sorted by degree, then coefficients
    expected = [U] * (1 if inf_mult else 0) + [_linear(3), _linear(2), quad]
    assert factors == expected
    for factor in factors:
        (u, v), L = factor.root()
        if factor == U:
            assert (u, v) == (0, 1) and L == BF
        elif factor.degree == 1:
            assert L == BF and u == 1 and factor.poly.evaluate(v) == 0
        else:
            assert L.degree == 2 and L.mul(v, v) == L.from_base(c)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_binary_form_with_a_factor_v_power(k):
    f = _linear(5) * U
    for _ in range(k):
        f = f * V
    # roots [1:0] (v^k), [1:5] and [0:1]
    assert f.distinct_roots() == (3, k == 1)
    if k == 1:
        assert f.factors(random.Random(0)) == [U, V, _linear(5)]
    g = U * U * _linear(7)
    for _ in range(k + 1):
        g = g * V
    h = f.gcd(g)
    assert h.degree == k + 1 and h.infinity_multiplicity == 1
    assert binary_forms_common_root([f, g])
    assert not binary_forms_common_root([_linear(5), _linear(7), f])


def test_binary_form_from_multipoly():
    R = PolyRing(BF, 2, ("x", "y"))
    x, y = R.gen(0), R.gen(1)
    f = x * x * y + (y * y * y).scale(4)
    # v = x: coefficients along x, low degree first
    assert BinaryForm.from_multipoly(f).coeffs == (4, 0, 1, 0)
    assert BinaryForm.from_multipoly(f, 1).coeffs == (0, 1, 0, 4)
    # y (x^2 + 4 y^2): simple roots, one of them at infinity
    assert BinaryForm.from_multipoly(f).distinct_roots() == (3, True)
    assert BinaryForm.from_multipoly(x * x * y).distinct_roots() == (2, False)
