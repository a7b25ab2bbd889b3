import random
from fractions import Fraction
from itertools import permutations

import pytest

from coniccount.fields import QQ, PrimeField
from coniccount.multipoly import PolyRing
from coniccount.groebner import (groebner_basis, quotient_count, INFINITE,
                                 eliminant_of_linear_form,
                                 solve_zero_dimensional, normal_form,
                                 PositiveDimensional, QuotientAlgebra)


def _circle_line(field):
    R = PolyRing(field, 2, ("x", "y"))
    x, y = R.gen(0), R.gen(1)
    return R, [x * x + y * y - R.one(), x - y]


def test_already_reduced_basis():
    R = PolyRing(QQ, 2, ("x", "y"))
    x, y = R.gen(0), R.gen(1)
    gens = [x - R.one(), y - R.constant(Fraction(2))]
    gb = groebner_basis(gens)
    assert gb == groebner_basis(gens[::-1])
    assert quotient_count(gb) == 1


def test_ideal_membership_prunes():
    R = PolyRing(QQ, 2, ("x", "y"))
    x = R.gen(0)
    gb = groebner_basis([x * x, x])
    assert gb == [x]


def test_circle_line_quotient():
    R, gens = _circle_line(QQ)
    gb = groebner_basis(gens)
    # substituting x = y leaves 2 y^2 = 1, two points
    assert quotient_count(gb) == 2


def test_idempotent():
    R, gens = _circle_line(QQ)
    gb = groebner_basis(gens)
    assert groebner_basis(gb) == gb


def test_quotient_count_infinite():
    R = PolyRing(QQ, 2)
    x = R.gen(0)
    assert quotient_count(groebner_basis([x * x])) == INFINITE


def test_quotient_count_invariance():
    # permutation of generators and order change leave the count alone
    F = PrimeField(10007)
    R = PolyRing(F, 3, ("x", "y", "z"))
    x, y, z = R.gen(0), R.gen(1), R.gen(2)
    gens = [x * x + y - R.one(), y * y + z - R.one(), z * z + x - R.one()]
    counts = set()
    for perm in permutations(gens):
        counts.add(quotient_count(groebner_basis(list(perm))))
    counts.add(quotient_count(groebner_basis(gens, order="lex"), order="lex"))
    assert counts == {8}


def test_eliminant_single_point():
    R = PolyRing(QQ, 2, ("x", "y"))
    x, y = R.gen(0), R.gen(1)
    gb = groebner_basis([x - R.one(), y - R.constant(Fraction(2))])
    el = eliminant_of_linear_form(QuotientAlgebra(gb), [Fraction(1), Fraction(1)])
    # single eigenvalue 3: t - 3
    assert el.coeffs == (Fraction(-3), Fraction(1))


def test_eliminant_two_points():
    R = PolyRing(QQ, 2, ("x", "y"))
    x, y = R.gen(0), R.gen(1)
    gb = groebner_basis([x * x - R.one(), y])
    el = eliminant_of_linear_form(QuotientAlgebra(gb), [Fraction(1), Fraction(0)])
    assert el.coeffs == (Fraction(-1), Fraction(0), Fraction(1))


def test_eliminant_circle_line():
    R, gens = _circle_line(QQ)
    gb = groebner_basis(gens)
    el = eliminant_of_linear_form(QuotientAlgebra(gb), [Fraction(1), Fraction(0)])
    # roots x = +-1/sqrt(2): t^2 - 1/2
    assert el.coeffs == (Fraction(-1, 2), Fraction(0), Fraction(1))


def test_eliminant_degree_matches_quotient():
    rng = random.Random(2)
    F = PrimeField(31013)
    R = PolyRing(F, 2, ("x", "y"))
    for _ in range(5):
        gens = [R.from_dict({m: F.random_element(rng)
                             for m in R.monomials_of_degree(d)}
                            | {(0, 0): F.random_element(rng)})
                for d in (2, 3)]
        gb = groebner_basis(gens)
        qc = quotient_count(gb)
        if qc == INFINITE:
            continue
        lam = [F.random_element(rng) for _ in range(2)]
        assert eliminant_of_linear_form(QuotientAlgebra(gb), lam).degree == qc


def test_eliminant_requires_zero_dimensional():
    R = PolyRing(QQ, 2)
    gb = groebner_basis([R.gen(0) ** 2])
    with pytest.raises(PositiveDimensional):
        eliminant_of_linear_form(QuotientAlgebra(gb), [Fraction(1), Fraction(1)])


def test_normal_form_is_zero_on_ideal_members():
    R, gens = _circle_line(PrimeField(10007))
    gb = groebner_basis(gens)
    combo = gens[0] * gens[1] + gens[1]
    assert normal_form(combo, gb).is_zero()


def test_buchberger_property_on_random_systems():
    # the defining property is the oracle: every S-polynomial of the
    # output reduces to zero, and every generator lies in the ideal
    from coniccount.groebner import _spoly
    from coniccount.multipoly import grevlex_key
    rng = random.Random(17)
    F = PrimeField(10007)
    for nvars, degs in [(2, (2, 2)), (3, (2, 2, 2)), (3, (1, 2, 3)), (4, (2, 3))]:
        R = PolyRing(F, nvars)
        gens = []
        for d in degs:
            terms = {}
            for dd in range(d + 1):
                for m in R.monomials_of_degree(dd):
                    if rng.random() < 0.6:
                        terms[m] = F.random_element(rng)
            p = R.from_dict(terms)
            if p:
                gens.append(p)
        gb = groebner_basis(gens)
        for g in gens:
            assert normal_form(g, gb).is_zero()
        for i in range(len(gb)):
            for j in range(i):
                s = _spoly(gb[i], gb[j], grevlex_key)
                assert normal_form(s, gb).is_zero()
        assert groebner_basis(gb) == gb


def test_solve_zero_dimensional_back_substitutes():
    F = PrimeField(10007)
    R = PolyRing(F, 2, ("x", "y"))
    x, y = R.gen(0), R.gen(1)
    gens = [x * x + y * y - R.constant(5), x - y - R.one()]
    gb = groebner_basis(gens)
    pts, chi = solve_zero_dimensional(QuotientAlgebra(gb), random.Random(0))
    assert chi.degree == 2
    found = set()
    for coords, L, k in pts:
        assert k == 1
        for g in gens:
            assert g.evaluate(list(coords)) == F.zero
        found.add(coords)
    assert found == {(2, 1), (F.p - 1, F.p - 2)}
