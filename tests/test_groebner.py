import math
import random
import re
from fractions import Fraction
from itertools import permutations, product

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from coniccount.conic_system import dimension_from_degrees
from coniccount.counting import run_trial
from coniccount.fields import QQ, ExtensionField, PrimeField, int64_modulus
from coniccount.multipoly import PolyRing, grevlex_key
from coniccount import groebner
from coniccount.groebner import (groebner_basis, quotient_count, INFINITE,
                                 eliminant_of_linear_form,
                                 solve_zero_dimensional, normal_form,
                                 PositiveDimensional, QuotientAlgebra,
                                 _Packing)


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
    # permutation of generators and order change leave the count alone;
    # the lex count comes from sympy's lex basis
    F = PrimeField(10007)
    R = PolyRing(F, 3, ("x", "y", "z"))
    x, y, z = R.gen(0), R.gen(1), R.gen(2)
    gens = [x * x + y - R.one(), y * y + z - R.one(), z * z + x - R.one()]
    counts = set()
    for perm in permutations(gens):
        counts.add(quotient_count(groebner_basis(list(perm))))
    counts.add(_lex_standard_monomial_count(gens))
    assert counts == {8}


def _lex_standard_monomial_count(gens):
    """Monomials outside the lex leading term ideal of sympy's lex basis
    of a zero-dimensional ideal."""
    syms = sympy.symbols(f"x0:{gens[0].ring.nvars}")
    polys = [sympy.Poly.from_dict(g.terms, *syms, modulus=g.ring.field.p) for g in gens]
    # a Poly lists its terms in lex order, the leading one first
    leads = [p.monoms()[0] for p in sympy.groebner(polys, *syms, order="lex",
                                                   modulus=gens[0].ring.field.p).polys]
    caps = [min(m[v] for m in leads if m[v] and sum(m) == m[v])
            for v in range(len(syms))]
    return sum(1 for exps in product(*(range(c) for c in caps))
               if not any(all(e >= l for e, l in zip(exps, m)) for m in leads))


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
                s = _spoly(gb[i], gb[j])
                assert normal_form(s, gb).is_zero()
        assert groebner_basis(gb) == gb


def _spoly(f, g):
    """lcm/lt(f) * f - lcm/lt(g) * g, each term divided by its coefficient."""
    F = f.ring.field
    (fm, fc), (gm, gc) = f.leading(), g.leading()
    lcm = tuple(map(max, fm, gm))
    tf = f.ring.from_dict({tuple(a - b for a, b in zip(lcm, fm)): F.inv(fc)})
    tg = g.ring.from_dict({tuple(a - b for a, b in zip(lcm, gm)): F.inv(gc)})
    return tf * f - tg * g


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


@pytest.mark.parametrize("p", [10007, 2 ** 61 - 1])
def test_solve_zero_dimensional_builds_an_extension_orbit(p):
    # p = 3 mod 4, so x^2 + 1 is irreducible: one orbit of degree 2; at
    # 2^61 - 1 the solve runs on Python ints instead of int64
    F = PrimeField(p)
    R = PolyRing(F, 2, ("x", "y"))
    x, y = R.gen(0), R.gen(1)
    gens = [x * x + R.one(), y - x]
    pts, chi = solve_zero_dimensional(QuotientAlgebra(groebner_basis(gens)),
                                      random.Random(0))
    assert chi.degree == 2
    ((coords, L, k),) = pts
    assert k == 2 and L.degree == 2
    for g in gens:
        assert g.map_coefficients(L.from_base, L).evaluate(list(coords)) == L.zero


# -- independent oracle: sympy's reduced grevlex basis -----------------------


def _random_system(rng, R, draw, max_degree):
    """Sparse random generators of degree at most max_degree, mostly as
    many as variables (a finite quotient), sometimes one fewer."""
    gens = []
    count = max(rng.choice([R.nvars - 1, R.nvars, R.nvars]), 1)
    while len(gens) < count:
        terms = {}
        for d in range(rng.randrange(1, max_degree + 1) + 1):
            for m in R.monomials_of_degree(d):
                if rng.random() < 0.4:
                    terms[m] = draw()
        p = R.from_dict(terms)
        if p.degree() > 0:
            gens.append(p)
    return gens


def _sympy_basis(gens):
    """sympy's reduced basis, each element divided by its coefficient at
    the grevlex leading monomial (sympy's own ``monic`` divides by the
    lex one), as lists of (monomial, coefficient) sorted by monomial."""
    R = gens[0].ring
    F = R.field
    syms = sympy.symbols(f"x0:{R.nvars}")
    if F == QQ:
        opts = {"domain": "QQ"}
        to_sympy = lambda c: sympy.Rational(c.numerator, c.denominator)
        from_sympy = lambda c: Fraction(int(c.p), int(c.q))
    else:
        opts = {"modulus": F.p}
        to_sympy = int
        from_sympy = lambda c: int(c) % F.p
    polys = [sympy.Poly.from_dict({m: to_sympy(c) for m, c in g.terms.items()},
                                  *syms, **opts) for g in gens]
    out = []
    for poly in sympy.groebner(polys, *syms, order="grevlex", **opts).polys:
        terms = {m: from_sympy(c) for m, c in poly.terms()}
        lc_inv = F.inv(terms[max(terms, key=grevlex_key)])
        out.append(sorted((m, F.mul(c, lc_inv)) for m, c in terms.items()))
    return out


def _as_lists(basis):
    return [sorted(g.terms.items()) for g in basis]


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_basis_matches_sympy_over_a_prime_field(nvars):
    rng = random.Random(f"oracle:{nvars}")
    F = PrimeField(10007)
    R = PolyRing(F, nvars)
    for _ in range(14 if nvars < 4 else 12):
        gens = _random_system(rng, R, lambda: F.random_element(rng),
                              3 if nvars < 4 else 2)
        ours = _as_lists(groebner_basis(gens))
        assert sorted(ours) == sorted(_sympy_basis(gens))
        # sorted ascending by leading monomial
        leads = [max((m for m, _ in g), key=grevlex_key) for g in ours]
        assert leads == sorted(leads, key=grevlex_key)


def test_basis_matches_sympy_over_the_rationals():
    rng = random.Random("oracle:QQ")
    R = PolyRing(QQ, 3)
    for _ in range(8):
        gens = _random_system(rng, R, lambda: Fraction(rng.randrange(-9, 10)), 2)
        assert sorted(_as_lists(groebner_basis(gens))) == sorted(_sympy_basis(gens))


@pytest.mark.parametrize("degrees", [(3,), (2, 2), (2, 3)])
def test_derived_system_count_and_eliminant_match_sympy(degrees):
    # the Groebner route on a derived system: its quotient dimension and
    # the eliminant of a fixed linear form, against sympy's lex bases
    p = 10007
    F = PrimeField(p)
    md = dimension_from_degrees(degrees)
    *_, solver, _ = run_trial(md, "secant", p, 0, method="groebner")
    assert solver.route == "groebner"
    chart_eqs, _, chart = solver._affine_chart()
    basis = groebner_basis(chart_eqs)
    lam = [F.from_int(3 + 7 * v) for v in range(chart.nvars)]
    elim = eliminant_of_linear_form(QuotientAlgebra(basis), lam)
    assert quotient_count(basis) == _lex_standard_monomial_count(chart_eqs)
    assert quotient_count(basis) == solver.bezout == elim.degree
    w = sympy.symbols(f"w0:{chart.nvars}")
    t = sympy.Symbol("t")
    polys = [sympy.Poly.from_dict(eq.terms, *w, modulus=p).as_expr()
             for eq in chart_eqs]
    form = t - sum(c * x for c, x in zip(lam, w))
    last = sympy.groebner([*polys, form], *w, t, order="lex", modulus=p).exprs[-1]
    ref = [int(c) % p for c in sympy.Poly(last, t, modulus=p).all_coeffs()[::-1]]
    assert list(elim.coeffs) == [F.div(c, ref[-1]) for c in ref]


# -- the packed monomials ----------------------------------------------------

# pairs of exponent vectors in one to five variables; exponents up to 300
# make the packings range over several field widths
_exponent_pairs = st.integers(1, 5).flatmap(lambda n: st.tuples(
    *[st.lists(st.integers(0, 300), min_size=n, max_size=n).map(tuple)] * 2))


@settings(max_examples=300, deadline=None)
@given(_exponent_pairs)
def test_packing_is_an_order_isomorphism_onto_grevlex(pair):
    a, b = pair
    P = _Packing(len(a), max(sum(a), sum(b)))
    assert P.unpack(P.pack(a)) == a
    assert (P.pack(a) < P.pack(b)) == (grevlex_key(a) < grevlex_key(b))
    assert (P.pack(a) == P.pack(b)) == (a == b)


@settings(max_examples=300, deadline=None)
@given(_exponent_pairs)
def test_packed_product_is_the_packed_sum_of_exponents(pair):
    a, b = pair
    total = tuple(x + y for x, y in zip(a, b))
    P = _Packing(len(a), sum(total))
    assert P.pack(a) + P.pack(b) - P.one == P.pack(total)


@settings(max_examples=300, deadline=None)
@given(_exponent_pairs, st.booleans())
def test_packed_divisibility_is_componentwise_comparison(pair, make_divisible):
    a, b = pair
    if make_divisible:
        a = tuple(x + y for x, y in zip(a, b))
    P = _Packing(len(a), max(sum(a), sum(b)))
    q = P.pack(a) + (P.one - P.pack(b))
    divisible = all(x >= y for x, y in zip(a, b))
    assert (not q & P.guard) == divisible
    if divisible:
        assert q == P.pack(tuple(x - y for x, y in zip(a, b)))


def test_input_wider_than_the_initial_field_width():
    # degree 300 needs wider fields than the minimum; a wrapped exponent
    # would corrupt the basis
    F = PrimeField(10007)
    R = PolyRing(F, 2)
    x, y = R.gen(0), R.gen(1)
    gens = [x ** 300 - R.one(), y - x * x]
    assert _Packing(2, 0).top < 300
    gb = groebner_basis(gens)
    assert sorted(_as_lists(gb)) == sorted(_sympy_basis(gens))
    assert gb == [x * x - y, y ** 150 - R.one()]
    assert quotient_count(gb) == 300
    assert normal_form(x ** 301, gb) == x


def test_pair_lcm_wider_than_the_input():
    # the inputs have degree 100, within the first width; the lcm of their
    # leading terms x^70 y^70 has degree 140, and their S-polynomial
    # x^40 - y^140 an exponent that only a wider packing holds
    F = PrimeField(10007)
    R = PolyRing(F, 2)
    x, y = R.gen(0), R.gen(1)
    gens = [x ** 70 * y ** 30 - y ** 100, x ** 30 * y ** 70 - R.one()]
    assert 100 <= _Packing(2, 100).top < 140
    gb = groebner_basis(gens)
    assert sorted(_as_lists(gb)) == sorted(_sympy_basis(gens))
    assert [g.leading()[0] for g in gb] == [(70, 0), (30, 70), (0, 140)]
    assert quotient_count(gb) == 7000
    for g in gens:
        assert normal_form(g, gb).is_zero()


# -- multiplication matrices, against normal forms column by column ----------


def _matrices_by_normal_form(basis, monomials):
    """Matrix of each variable with column m the normal_form of x_v m."""
    R = basis[0].ring
    F = R.field
    index = {m: i for i, m in enumerate(monomials)}
    mats = []
    for v in range(R.nvars):
        cols = []
        for m in monomials:
            col = [F.zero] * len(monomials)
            for mm, c in normal_form(R.from_dict({m: F.one}) * R.gen(v), basis).terms.items():
                col[index[mm]] = c
            cols.append(col)
        mats.append([list(row) for row in zip(*cols)])
    return mats


def _product_columns(basis, monomials):
    """The border monomials x_v m that are neither standard nor a leading
    term, whose columns are built as products of earlier ones."""
    leads = {g.leading()[0] for g in basis}
    standard = set(monomials)
    border = {tuple(e + (u == v) for u, e in enumerate(m))
              for m in monomials for v in range(len(m))}
    return border - standard - leads


def _check_matrices(basis):
    algebra = QuotientAlgebra(basis)
    assert algebra.mats == _matrices_by_normal_form(basis, algebra.monomials)
    return algebra


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2 ** 32))
def test_matrices_match_normal_forms_over_a_prime_field(nvars, seed):
    rng = random.Random(seed)
    F = PrimeField(10007)
    R = PolyRing(F, nvars)
    gens = _random_system(rng, R, lambda: F.random_element(rng), 3 if nvars < 4 else 2)
    basis = groebner_basis(gens)
    assume(quotient_count(basis) not in (INFINITE, 0))
    _check_matrices(basis)


def test_matrices_match_normal_forms_over_the_rationals():
    rng = random.Random("matrices:QQ")
    R = PolyRing(QQ, 3)
    built = 0
    while built < 6:
        gens = _random_system(rng, R, lambda: Fraction(rng.randrange(-9, 10)), 2)
        basis = groebner_basis(gens)
        if quotient_count(basis) in (INFINITE, 0):
            continue
        algebra = _check_matrices(basis)
        built += bool(_product_columns(basis, algebra.monomials))
    assert built == 6


def test_matrices_match_normal_forms_above_the_int64_range():
    # D p^2 >= 2^63: the columns are combined in field operations
    rng = random.Random("matrices:2^31")
    F = PrimeField(2 ** 31 + 11)
    R = PolyRing(F, 3)
    built = 0
    while built < 4:
        gens = _random_system(rng, R, lambda: F.random_element(rng), 3)
        basis = groebner_basis(gens)
        if quotient_count(basis) in (INFINITE, 0, 1):
            continue
        assert int64_modulus(F, quotient_count(basis)) is None
        algebra = _check_matrices(basis)
        built += bool(_product_columns(basis, algebra.monomials))
    assert built == 4


@pytest.mark.parametrize("degrees", [(4,), (2, 3), (2, 2, 3)])
def test_matrices_match_normal_forms_on_pipeline_bases(degrees):
    *_, solver, _ = run_trial(dimension_from_degrees(degrees), "secant", 10007, 0,
                              method="groebner")
    chart_eqs, _, _ = solver._affine_chart()
    basis = groebner_basis(chart_eqs)
    algebra = _check_matrices(basis)
    assert len(algebra.monomials) == solver.bezout
    # the product rule is what the comparison exercises
    assert _product_columns(basis, algebra.monomials)


# -- the lazily reduced coefficients ------------------------------------------


def test_reduction_near_2_to_the_61_is_exact():
    # products of two coefficients reach 2^122 and sums of them pile up
    # unreduced until their monomial leaves the heap
    p = 2 ** 61 - 1
    rng = random.Random("oracle:2^61")
    F = PrimeField(p)
    R = PolyRing(F, 3)
    syms = sympy.symbols("x0:3")
    to_sympy = lambda f: sympy.Poly.from_dict(f.terms, *syms, modulus=p)
    for _ in range(6):
        gens = _random_system(rng, R, lambda: F.random_element(rng), 3)
        basis = groebner_basis(gens)
        assert sorted(_as_lists(basis)) == sorted(_sympy_basis(gens))
        poly = R.from_dict({m: F.random_element(rng)
                            for d in range(5) for m in R.monomials_of_degree(d)})
        rem = normal_form(poly, basis)
        for g in basis + [rem]:
            assert all(0 < c < p for c in g.terms.values())
        # the remainder modulo a Groebner basis is unique
        _, ref = sympy.reduced(to_sympy(poly), [to_sympy(g) for g in basis], *syms,
                               modulus=p, order="grevlex", polys=True)
        assert rem.terms == {m: int(c) % p for m, c in ref.terms() if int(c) % p}


def test_groebner_basis_refuses_an_extension_field():
    # the reduction adds coefficients with +, which on GF(p^k) tuples
    # would concatenate them
    L = ExtensionField(7, (1, 0, 1))
    R = PolyRing(L, 2)
    x, y = R.gen(0), R.gen(1)
    with pytest.raises(ValueError, match="scalar"):
        groebner_basis([x * x - R.one(), y - x])


def _spy(monkeypatch, owner, name, log):
    """Replace owner.name by a wrapper that appends (name, result) to log."""
    real = getattr(owner, name)

    def spy(*args):
        out = real(*args)
        log.append((name, out))
        return out

    monkeypatch.setattr(owner, name, spy)


def test_reductions_go_through_normal_form_outside_the_matrix_path(monkeypatch):
    # every S-polynomial goes through normal_form over QQ, beyond the int64
    # range and in batches below F4_MIN_BATCH, and to reduce_rows in larger
    # batches over GF(p); the final tails always go through normal_form, so
    # a wrapper around that one function sees them in every run

    def run(field, min_batch):
        R = PolyRing(field, 3)
        x, y, z = map(R.gen, range(3))
        gens = [x * x + y * z - R.one(), y * y - x * z + R.constant(2),
                z * z + x * y - R.constant(3)]
        log = []
        monkeypatch.setattr(groebner, "F4_MIN_BATCH", min_batch)
        _spy(monkeypatch, groebner._Packed, "spoly", log)
        _spy(monkeypatch, groebner._Packed, "reduce_rows", log)
        _spy(monkeypatch, groebner, "normal_form", log)
        basis = groebner_basis(gens)
        monkeypatch.undo()
        assert basis == groebner_basis(gens) and len(basis) > 1
        names = [name for name, _ in log]
        # the tails are reduced against the minimal basis, one call each
        assert names[-len(basis):] == ["normal_form"] * len(basis)
        return names[:-len(basis)]

    # at every batch size over QQ and above 2^31
    for field, min_batch in [(QQ, 1), (QQ, 10 ** 9), (PrimeField(2 ** 31 + 11), 1),
                             (PrimeField(2 ** 31 + 11), 10 ** 9),
                             (PrimeField(10007), 10 ** 9)]:
        names = run(field, min_batch)
        assert "reduce_rows" not in names and names.count("spoly") > 1
        assert names.count("normal_form") == names.count("spoly")
    names = run(PrimeField(10007), 1)
    assert "normal_form" not in names and "reduce_rows" in names
    assert names.count("spoly") > 1
    # a lone element has no other to reduce its tail against
    log = []
    _spy(monkeypatch, groebner, "normal_form", log)
    x = PolyRing(PrimeField(10007), 1).gen(0)
    assert groebner_basis([x ** 3 - x]) == [x ** 3 - x]
    assert log == []


# -- F4: the matrix path against the one-polynomial path and sympy ---------------


def _both_paths(monkeypatch, gens, min_batch=1):
    """The basis with batches of at least min_batch S-polynomials on the
    matrix path, the number of matrix reductions, and the basis with every
    S-polynomial reduced by normal_form."""
    log = []
    monkeypatch.setattr(groebner, "F4_MIN_BATCH", min_batch)
    _spy(monkeypatch, groebner._Packed, "reduce_rows", log)
    matrix = groebner_basis(gens)
    monkeypatch.undo()
    monkeypatch.setattr(groebner, "F4_MIN_BATCH", 10 ** 9)
    single = groebner_basis(gens)
    monkeypatch.undo()
    return matrix, len(log), single


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2 ** 32))
def test_matrix_path_matches_normal_forms_and_sympy(nvars, seed):
    rng = random.Random(seed)
    F = PrimeField(10007)
    R = PolyRing(F, nvars)
    gens = _random_system(rng, R, lambda: F.random_element(rng), 3 if nvars < 4 else 2)
    with pytest.MonkeyPatch.context() as mp:
        matrix, reductions, single = _both_paths(mp, gens)
    assume(reductions)
    assert matrix == single
    assert sorted(_as_lists(matrix)) == sorted(_sympy_basis(gens))


def _pipeline_system(degrees):
    *_, solver, _ = run_trial(dimension_from_degrees(degrees), "secant", 10007, 0,
                              method="groebner")
    return solver._affine_chart()[0]


@pytest.mark.parametrize("degrees", [(4,), (3, 3), (2, 4)])
def test_matrix_path_on_pipeline_systems(monkeypatch, degrees):
    # at the module's own batch threshold
    gens = _pipeline_system(degrees)
    matrix, reductions, single = _both_paths(monkeypatch, gens, groebner.F4_MIN_BATCH)
    assert reductions >= 4
    assert matrix == single
    assert quotient_count(matrix) == math.prod(g.degree() for g in gens)


@pytest.mark.slow
def test_matrix_path_on_a_pipeline_system_matches_sympy():
    # about 10 s in sympy
    gens = _pipeline_system((4,))
    assert sorted(_as_lists(groebner_basis(gens))) == sorted(_sympy_basis(gens))


def test_matrix_path_is_exact_at_the_largest_prime_below_2_to_the_31(monkeypatch):
    # 2^31 - 1 is prime and 2 p^2 < 2^63: the matrix path runs, with
    # entries up to p + p^2 near 2^62, reduced after every update since one
    # product per reducer no longer fits
    p = 2 ** 31 - 1
    F = PrimeField(p)
    assert int64_modulus(F, 2) == p and int64_modulus(F, 3) is None
    rng = random.Random("oracle:2^31-1")
    R = PolyRing(F, 3)
    checked = 0
    while checked < 6:
        gens = _random_system(rng, R, lambda: F.random_element(rng), 3)
        matrix, reductions, single = _both_paths(monkeypatch, gens)
        if not reductions:
            continue
        assert matrix == single
        assert sorted(_as_lists(matrix)) == sorted(_sympy_basis(gens))
        for g in matrix:
            assert all(0 < c < p for c in g.terms.values())
        checked += 1


def test_matrix_path_widens_the_packing_between_reductions(monkeypatch):
    # the inputs have degree 117 and 104, within the first field width;
    # after two matrix reductions a pair's lcm needs a wider packing, and
    # the first-divisor cache, keyed by packed monomials, starts afresh
    F = PrimeField(10007)
    R = PolyRing(F, 2)
    gens = [R.from_dict({(0, 0): 1, (32, 15): 8117, (57, 60): 6219}),
            R.from_dict({(0, 0): 1, (12, 62): 464, (49, 55): 9952})]
    log = []
    monkeypatch.setattr(groebner, "F4_MIN_BATCH", 1)
    _spy(monkeypatch, groebner._Packed, "widen", log)
    _spy(monkeypatch, groebner._Packed, "reduce_rows", log)
    basis = groebner_basis(gens)
    events = "".join("W" if name == "widen" and out is not None else
                     "M" if name == "reduce_rows" else "" for name, out in log)
    assert re.search("M.*W.*M", events)
    assert sorted(_as_lists(basis)) == sorted(_sympy_basis(gens))
    assert quotient_count(basis) == 3644


def test_widen_and_replace_empty_the_divisor_cache():
    F = PrimeField(10007)
    R = PolyRing(F, 2)
    x, y = R.gen(0), R.gen(1)
    packed = groebner._Packed(R, [x * x - y, y ** 3 - R.one()])
    m = packed.packing.pack((3, 1))
    assert packed.first_divisor(m) == 0
    assert packed.first_divisor(packed.packing.pack((1, 2))) is None
    # an element appended later is found past the cached miss
    packed.append(packed.pack(x * y ** 2 - R.one()))
    assert packed.first_divisor(packed.packing.pack((1, 2))) == 2
    assert packed.widen(packed.packing.top) is None and packed.divisors
    assert packed.widen(packed.packing.top + 1) is not None
    assert packed.divisors == {}
    assert packed.first_divisor(packed.packing.pack((3, 1))) == 0
    packed.replace(packed.elements[1:])
    assert packed.divisors == {}
    assert packed.first_divisor(packed.packing.pack((3, 1))) is None
