import math
from fractions import Fraction

import pytest

from coniccount.quantum import (structure_constants_d1, structure_constants_d2,
                                conic_count_closed_form,
                                conic_count_via_structure_constants,
                                formulas_table, w_equals_two_evaluations)


def test_degree_one_anchors():
    assert structure_constants_d1(3).as_integers() == [6, 15, 6]
    # n = 2: expand 2(w+1)
    assert structure_constants_d1(2).as_integers() == [2, 2]


def test_degree_one_structure():
    for n in range(2, 21):
        c = structure_constants_d1(n).as_integers()
        assert len(c) == n
        assert c == c[::-1]               # factor-reversal palindrome
        assert c[0] == math.factorial(n)  # value at w = 0 is n * (n-1)!


def test_degree_two_anchors():
    assert structure_constants_d2(3).as_integers() == [198, 108]
    # n = 2: the single j2 = 0 term L0 * L1 = 4
    assert structure_constants_d2(2).as_integers() == [4]


def test_degree_two_shape_and_integrality():
    for n in range(2, 13):
        sc = structure_constants_d2(n)
        assert len(sc.coefficients) == n - 1
        ints = sc.as_integers()           # halves must cancel
        assert all(c >= 0 for c in ints)


def test_closed_form_values():
    assert conic_count_closed_form(3) == 27     # 720/16 - 36/2
    assert conic_count_closed_form(4) == 972    # 1260 - 288
    assert conic_count_closed_form(2) == 1      # 24/8 - 4/2
    with pytest.raises(ValueError):
        conic_count_closed_form(1)


def test_bracket_route_matches_closed_form():
    assert conic_count_via_structure_constants(3) == Fraction(27)
    for n in range(3, 11):
        assert conic_count_via_structure_constants(n) == conic_count_closed_form(n)


def test_formulas_table():
    rows = formulas_table(3, 6)
    assert [r["n"] for r in rows] == [3, 4, 5, 6]
    assert all(r["match"] for r in rows)
    assert rows[0]["closed_form"] == 27


def test_w_two_evaluations_exposed():
    data = w_equals_two_evaluations(3)
    assert data["d2_top_coefficient"] == "108"
    assert data["d1_top_coefficient"] == "6"


def _degree_two_by_triple_sum(n):
    """Reference: the triple sum of structure_constants_d2 term by term,
    in Fractions."""
    l1 = structure_constants_d1(n).coefficients
    half = [Fraction(1, 2), Fraction(1, 2)]
    total = [Fraction(0)] * (n - 1)
    for j2 in range(n - 1):
        for j1 in range(j2 + 1):
            power = [Fraction(1)]
            for _ in range(j2 - j1):
                power = [a + b for a, b in zip(power + [0], [0] + power)]
                power = [c * half[0] for c in power]
            for j0 in range(j1 + 1):
                for i, c in enumerate(power):
                    total[j1 - j0 + i] += l1[j1] * l1[j2 + 1] * c
    return total


def test_degree_two_matches_the_triple_sum():
    for n in range(2, 12):
        assert structure_constants_d2(n).coefficients == _degree_two_by_triple_sum(n)
