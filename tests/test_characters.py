from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from coniccount.characters import (Character3, symmetric_power_char, E_CHAR,
                                   wedge_char, sym_char,
                                   schur_decompose, schur_char, weyl_dim,
                                   check_star_star, bott_nonvanishing_case,
                                   vanishing_verdict, vanishing_grid, rank_q,
                                   VanishingGrid, NotACharacter,
                                   CoefficientOverflow)


def test_symmetric_power_ranks():
    assert symmetric_power_char(0).rank() == 1
    assert symmetric_power_char(1).rank() == 3
    assert symmetric_power_char(2).rank() == 6
    with pytest.raises(ValueError):
        symmetric_power_char(-1)


def _char_from_monomial_list(monomials):
    terms = {}
    for m in monomials:
        terms[m] = terms.get(m, 0) + 1
    return Character3.from_terms(terms)


def _sum_monomials(combo):
    if not combo:
        return (0, 0, 0)
    return tuple(sum(e) for e in zip(*combo))


def _brute_force_sym(base_monomials, m):
    """Oracle: S^m of a representation with the given weight list, by
    direct enumeration of multisets."""
    out = [_sum_monomials(c)
           for c in combinations_with_replacement(base_monomials, m)]
    return _char_from_monomial_list(out)


def _brute_force_wedge(base_monomials, k):
    out = [_sum_monomials([base_monomials[i] for i in combo])
           for combo in combinations(range(len(base_monomials)), k)]
    return _char_from_monomial_list(out)


def _monomials_of(char):
    out = []
    for m, c in char.terms().items():
        out.extend([m] * c)
    return out


def test_wedge_against_brute_force():
    e_mons = _monomials_of(E_CHAR)
    for k in range(4):
        assert wedge_char(E_CHAR, k) == _brute_force_wedge(e_mons, k)
    s2_mons = _monomials_of(symmetric_power_char(2))
    for k in range(3):
        assert wedge_char(symmetric_power_char(2), k) == _brute_force_wedge(s2_mons, k)


def test_sym_against_brute_force():
    s2 = symmetric_power_char(2)
    s2_mons = _monomials_of(s2)
    for m in range(4):
        assert sym_char(s2, m) == _brute_force_sym(s2_mons, m)


def test_wedge_examples():
    assert schur_decompose(wedge_char(E_CHAR, 2)) == [((1, 1, 0), 1)]
    assert wedge_char(E_CHAR, 2).rank() == 3
    top = wedge_char(E_CHAR, 3)
    assert top == Character3.from_terms({(1, 1, 1): 1})
    assert wedge_char(E_CHAR, 4).is_zero()


def test_sym_of_sym_example():
    dec = schur_decompose(sym_char(symmetric_power_char(2), 2))
    assert sorted(dec) == [((2, 2, 0), 1), ((4, 0, 0), 1)]
    assert weyl_dim((4, 0, 0)) + weyl_dim((2, 2, 0)) == 15 + 6 == 21


def test_schur_decompose_examples():
    assert schur_decompose(schur_char((2, 1, 0))) == [((2, 1, 0), 1)]
    sq = E_CHAR * E_CHAR
    assert sorted(schur_decompose(sq)) == [((1, 1, 0), 1), ((2, 0, 0), 1)]


def test_schur_decompose_rejects_non_characters():
    not_char = Character3.from_terms({(1, 0, 0): 1})   # not symmetric
    with pytest.raises(NotACharacter):
        schur_decompose(not_char)
    negative = Character3.from_terms(
        {(1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1})
    with pytest.raises(NotACharacter):
        schur_decompose(negative)


def test_schur_decompose_rejects_alternant_outside_the_box():
    # the alternant of x1^3 + x1^2 x2 has leading terms (5,1,0) and
    # (3,2,1), both positive, but not the permutation (1,5,0) of the first:
    # its stored box is only 4 wide in e2
    not_char = Character3.from_terms({(3, 0, 0): 1, (2, 1, 0): 1})
    with pytest.raises(NotACharacter, match="does not rebuild"):
        schur_decompose(not_char)


def test_decompose_round_trip():
    # sum of Schur characters decomposes back to the same multiset
    triples = [((3, 1, 0), 2), ((2, 2, 1), 1), ((5, 0, 0), 3)]
    total = Character3.zero()
    for b, m in triples:
        total = total + schur_char(b).scale(m)
    assert sorted(schur_decompose(total)) == sorted(triples)


def test_rank_bookkeeping_via_weyl_dimension():
    grid = VanishingGrid(5, (4,))
    char = grid.wedge(3) * grid.sym(2)
    dec = schur_decompose(char)
    assert sum(weyl_dim(b) * m for b, m in dec) == char.rank()


def test_check_star_star_examples():
    assert check_star_star((5, 0, 0), 4, 1, 5) is False
    assert check_star_star((3, 3, 3), 4, 1, 5) is True
    # k <= r: first inequality vacuous, second decides
    assert check_star_star((1, 0, 0), 1, 1, 5) is True


def test_bott_case_examples():
    assert bott_nonvanishing_case((7, 0, 0), 4, 5, 1) == 1
    assert bott_nonvanishing_case((7, 1, 0), 4, 5, 1) == 2
    assert bott_nonvanishing_case((7, 1, 1), 4, 5, 1) == 3
    assert bott_nonvanishing_case((2, 1, 0), 1, 5, 1) is None
    assert bott_nonvanishing_case((9, 9, 0), 8, 5, 1) == 4
    assert bott_nonvanishing_case((9, 9, 9), 12, 5, 1) == 5
    assert bott_nonvanishing_case((9, 9, 9), 11, 5, 1) is None


def test_rank_q_identity():
    for n, degrees in [(5, (4,)), (5, (3, 2)), (5, (2, 2, 2)),
                       (7, (5,)), (7, (4, 2)), (7, (3, 3)), (9, (6,))]:
        assert rank_q(n, degrees) == n + 1 + 3 * len(degrees)


def test_parameter_validation():
    with pytest.raises(ValueError):
        vanishing_verdict(4, (4,), 1, 1)        # even n
    with pytest.raises(ValueError):
        vanishing_verdict(5, (3,), 1, 1)        # wrong boundary relation
    with pytest.raises(ValueError):
        vanishing_verdict(5, (4,), 10, 1)       # j above the rank
    with pytest.raises(ValueError):
        vanishing_verdict(5, (4,), 2, 3)        # k above j


def test_single_verdicts():
    v = vanishing_verdict(5, (4,), 1, 1)
    assert v.verdict == "vanishes"
    v = vanishing_verdict(5, (4,), 9, 9)
    assert v.verdict == "vanishes"
    assert all(f.satisfies_star_star for f in v.factors)


def test_full_grid_quartic():
    verdicts, all_vanish = vanishing_grid(5, (4,))
    assert all_vanish and len(verdicts) == 54
    assert all(f.satisfies_star_star
               for v in verdicts.values() for f in v.factors)
    grid = VanishingGrid(5, (4,))
    ineqs = grid.exclusion_inequalities()
    assert all(entry["holds"] for entry in ineqs.values())


def test_verdict_json():
    v = vanishing_verdict(5, (3, 2), 2, 1)
    data = v.to_json()
    assert data["verdict"] == "vanishes"
    assert data["n"] == 5 and data["degrees"] == [3, 2]
    assert all("triple" in f for f in data["factors"])


# mixed-degree characters: sums of scaled Schur characters of different
# degrees, so the degree axis has more than one plane
_triples = st.tuples(st.integers(0, 4), st.integers(0, 3),
                     st.integers(0, 2)).map(lambda t: (t[0] + t[1] + t[2],
                                                       t[1] + t[2], t[2]))
_pieces = st.lists(st.tuples(_triples, st.integers(1, 5)), min_size=1,
                   max_size=4)


def _character(pieces):
    total = Character3.zero()
    for b, m in pieces:
        total = total + schur_char(b).scale(m)
    return total


def _dict_product(p, q):
    """Oracle: the product as a convolution of term dicts."""
    out = {}
    for (a1, a2, a3), x in p.items():
        for (b1, b2, b3), y in q.items():
            m = (a1 + b1, a2 + b2, a3 + b3)
            out[m] = out.get(m, 0) + x * y
    return {m: c for m, c in out.items() if c}


def _merged(pieces):
    out = {}
    for b, m in pieces:
        out[b] = out.get(b, 0) + m
    return sorted(out.items(), reverse=True)


@settings(max_examples=40, deadline=None)
@given(_pieces, _pieces, _pieces)
def test_products_commute_associate_and_match_dict_convolution(p, q, r):
    a, b, c = _character(p), _character(q), _character(r)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a * b).terms() == _dict_product(a.terms(), b.terms())


@settings(max_examples=40, deadline=None)
@given(_pieces, _pieces)
def test_sums_and_differences_across_degree_ranges(p, q):
    a, b = _character(p), _character(q)
    ta, tb = a.terms(), b.terms()
    added = {m: ta.get(m, 0) + tb.get(m, 0) for m in set(ta) | set(tb)}
    subtracted = {m: ta.get(m, 0) - tb.get(m, 0) for m in set(ta) | set(tb)}
    assert (a + b).terms() == {m: c for m, c in added.items() if c}
    assert (a - b).terms() == {m: c for m, c in subtracted.items() if c}
    assert (a - a).is_zero() and a - a == Character3.zero()
    assert a + Character3.zero() == a == Character3.zero() + a
    assert (a + b) - b == a


def test_sum_of_disjoint_degree_ranges():
    low, high = symmetric_power_char(1), symmetric_power_char(6)
    total = low + high
    assert total.terms() == {**low.terms(), **high.terms()}
    assert total - high == low and total - low == high
    assert total.rank() == 3 + 28


@settings(max_examples=40, deadline=None)
@given(_pieces, st.integers(1, 3))
def test_adams(p, t):
    a = _character(p)
    assert a.adams(t).terms() == {(t * e1, t * e2, t * e3): c
                                  for (e1, e2, e3), c in a.terms().items()}
    assert a.adams(t).rank() == a.rank()


@settings(max_examples=40, deadline=None)
@given(_pieces)
def test_decomposition_round_trips(p):
    assert schur_decompose(_character(p)) == _merged(p)


def test_product_overflow_is_raised():
    a = Character3.from_terms({(1, 0, 0): 2 ** 31, (0, 1, 0): 1})
    b = a.scale(2 ** 31)
    assert (a * a).terms()[(2, 0, 0)] == 2 ** 62
    assert (b + a).terms()[(1, 0, 0)] == 2 ** 62 + 2 ** 31
    with pytest.raises(CoefficientOverflow, match="int64 overflow"):
        a * a.scale(2)
    with pytest.raises(CoefficientOverflow, match="int64 overflow"):
        b + b
    with pytest.raises(CoefficientOverflow, match="int64 overflow"):
        b - b.scale(-1)
    with pytest.raises(CoefficientOverflow, match="int64 overflow"):
        b.scale(2)


def test_grid_beyond_int64_is_refused():
    # (13, (8,)) wraps int64 in its Newton sums
    with pytest.raises(CoefficientOverflow, match="int64 overflow"):
        VanishingGrid(13, (8,))
