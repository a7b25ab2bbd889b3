import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from coniccount import splitting
from coniccount.fields import ExtensionField, PrimeField
from coniccount.conic_system import DegenerateInstance, dimension_from_degrees, random_ci
from coniccount.counting import solve_and_verify
from coniccount.multipoly import PolyRing
from coniccount.splitting import (BinaryForm, ThreeTermComplex, RationalCurveMap,
                                  hypercohomology_dims, splitting_type_of_complex,
                                  splitting_type, is_quasi_line, conic_to_map,
                                  find_line_through_point, euler_jacobian_complex,
                                  binary_forms_common_root, compose_in_forms,
                                  ComplexInvariantError)
from coniccount.unipoly import UniPoly, factor_squarefree, is_squarefree

F = PrimeField(10007)


def _line_bundle(d):
    return ThreeTermComplex(F, [], [d], [], [], [])


def test_line_bundle_cohomology():
    # h^0(O(d)) = d+1 for d >= 0; h^1(O(d)) = -d-1 for d <= -2
    assert hypercohomology_dims(_line_bundle(3)) == (4, 0)
    assert hypercohomology_dims(_line_bundle(0)) == (1, 0)
    assert hypercohomology_dims(_line_bundle(-1)) == (0, 0)
    assert hypercohomology_dims(_line_bundle(-2)) == (0, 1)
    assert hypercohomology_dims(_line_bundle(-5)) == (0, 4)
    # twisting shifts the degree
    assert hypercohomology_dims(_line_bundle(1), twist=2) == (4, 0)


def test_riemann_roch_on_middle_complex():
    cx = ThreeTermComplex(F, [], [2, 1, 1, -3], [], [], [])
    deg, rank = 1, 4
    for m in range(-5, 4):
        h0, h1 = hypercohomology_dims(cx, m)
        assert h0 - h1 == deg + rank * (m + 1)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(-4, 5), min_size=1, max_size=6))
def test_splitting_round_trip_on_split_bundles(values):
    cx = ThreeTermComplex(F, [], sorted(values, reverse=True), [], [], [])
    with pytest.MonkeyPatch.context() as mp:
        twists = _record_twists(mp)
        st_ = splitting_type_of_complex(cx)
    assert list(st_) == sorted(values, reverse=True)
    # the walk reads h^0 and h^1 from the first twist where h^0 vanishes to
    # the first where h^1 does, and nothing else
    assert sorted(twists) == list(range(-max(values) - 1, -min(values)))
    assert st_ == _splitting_by_full_walk(cx)


def test_euler_sequence_on_p1():
    # 0 -> O -> O(1)^2 -> 0 with the coordinate section presents the
    # tangent bundle of the line itself: splitting (2,)
    u = BinaryForm(F, 1, [1, 0])
    v = BinaryForm(F, 1, [0, 1])
    cx = ThreeTermComplex(F, [0], [1, 1], [], [u, v], [])
    assert splitting_type_of_complex(cx) == (2,)


def test_veronese_conic_tangent_pullback():
    # pulling back the plane tangent bundle along the degree-2 Veronese
    # gives the balanced splitting O(3) + O(3); this exercises the
    # connecting differential at twists -3 and -4 where it has full rank
    u = BinaryForm(F, 1, [1, 0])
    v = BinaryForm(F, 1, [0, 1])
    cx = ThreeTermComplex(F, [0], [2, 2, 2], [], [u * u, u * v, v * v], [])
    assert splitting_type_of_complex(cx) == (3, 3)


def test_line_in_p3_is_quasi_line_model():
    u = BinaryForm(F, 1, [1, 0])
    v = BinaryForm(F, 1, [0, 1])
    zero = BinaryForm.zero(F, 1)
    cx = ThreeTermComplex(F, [0], [1, 1, 1, 1], [], [u, v, zero, zero], [])
    st_ = splitting_type_of_complex(cx)
    assert st_ == (2, 1, 1)
    assert is_quasi_line(st_)


def test_is_quasi_line():
    assert is_quasi_line((2, 1, 1))
    assert is_quasi_line((2, 1, 1, 1, 1))
    assert not is_quasi_line((2, 0, 0))
    assert not is_quasi_line((3, 1, 0))
    assert not is_quasi_line((1, 1, 1))


def test_binary_form_gcd_and_common_roots():
    u = BinaryForm(F, 1, [1, 0])
    v = BinaryForm(F, 1, [0, 1])
    a = u * u * v
    b = u * (v + u.scale(3))
    assert binary_forms_common_root([a, b])        # share the root of u
    assert not binary_forms_common_root([u, v])
    assert binary_forms_common_root([])            # empty list: everything


def test_compose_in_forms():
    from coniccount.multipoly import PolyRing
    R = PolyRing(F, 2, ("x", "y"))
    x, y = R.gen(0), R.gen(1)
    u = BinaryForm(F, 1, [1, 0])
    v = BinaryForm(F, 1, [0, 1])
    square, cross = compose_in_forms([x * x - y * y, x * y], [u + v, u - v])
    # (u+v)^2 - (u-v)^2 = 4uv, and (u+v)(u-v) = u^2 - v^2
    assert square == (u * v).scale(4)
    assert cross == u * u - v * v
    assert compose_in_forms([], [u, v]) == []


def test_conic_splitting_on_cubic_threefold():
    md = dimension_from_degrees((3,))
    ci, results, record = solve_and_verify((3,), prime=10007, seed=0)
    seen_ext = False
    for conic, ok, orbit in results:
        curve = conic_to_map(conic, md)
        st_ = splitting_type(ci, curve)
        assert st_ == (2, 1, 1)
        assert is_quasi_line(st_)
        seen_ext = seen_ext or orbit > 1
    assert seen_ext   # at least one conic needed an extension field


def test_conic_splitting_on_two_quadrics():
    md = dimension_from_degrees((2, 2))
    ci, results, record = solve_and_verify((2, 2), prime=10007, seed=0)
    for conic, ok, orbit in results:
        st_ = splitting_type(ci, conic_to_map(conic, md))
        assert st_ == (2, 1, 1)


def test_line_splitting_on_cubic_threefold():
    md = dimension_from_degrees((3,))
    ci = random_ci(md, F, 0)
    line = find_line_through_point(ci)
    st_ = splitting_type(ci, line)
    assert st_ == (2, 0, 0)
    assert not is_quasi_line(st_)
    # the tangent instance of seed 1 has its six lines in one Galois orbit
    # of degree 6; the lines through the point are fixed, so the first
    # certified try ends the search, and the failure says why
    ci = random_ci(md, F, 1, "tangent")
    with pytest.raises(DegenerateInstance) as info:
        find_line_through_point(ci, tries=3)
    assert str(info.value) == ("no GF(10007)-rational line through the point: "
                               "the lines through it do not depend on the try, "
                               "and try 1 certified all 6 of them, in orbits "
                               "of degrees [6]")


def test_line_splitting_on_cubic_quadric():
    # n = 5: lines through a general point split as (2,1,0,0,0)
    md = dimension_from_degrees((3, 2))
    ci = random_ci(md, F, 0)
    line = find_line_through_point(ci)
    assert splitting_type(ci, line) == (2, 1, 0, 0, 0)


def test_curve_must_lie_on_instance():
    md = dimension_from_degrees((3,))
    ci = random_ci(md, F, 0)
    # a random line through the marked point is not on the cubic
    coords = [BinaryForm(F, 1, [0, 1])] + \
        [BinaryForm(F, 1, [c, 0]) for c in (1, 2, 3, 4)]
    with pytest.raises(ValueError, match="composition of the maps is nonzero"):
        splitting_type(ci, RationalCurveMap(F, 1, coords))


def test_coordinate_forms_with_a_common_root_refused():
    md = dimension_from_degrees((3,))
    ci = random_ci(md, F, 0)
    line = find_line_through_point(ci)
    # u times a line on the cubic: still on the cubic, but every
    # coordinate vanishes at [0:1]
    u = BinaryForm(F, 1, [1, 0])
    curve = RationalCurveMap(F, 2, [u * c for c in line.coords])
    with pytest.raises(ValueError, match="first map vanishes at a point"):
        splitting_type(ci, curve)


def test_characteristic_dividing_a_degree_refused():
    # by Euler the composite of a cubic's complex is 3 times the cubic
    # along the curve, which reads zero over GF(3) for every curve
    F3 = PrimeField(3)
    md = dimension_from_degrees((3,))
    ci = random_ci(md, F3, 0)
    coords = [BinaryForm(F3, 1, [0, 1])] + \
        [BinaryForm(F3, 1, [c, 0]) for c in (1, 2, 1, 2)]
    with pytest.raises(ValueError, match="characteristic 3 divides"):
        splitting_type(ci, RationalCurveMap(F3, 1, coords))


def test_each_curve_is_checked_once(monkeypatch):
    import coniccount.splitting as splitting

    md = dimension_from_degrees((3,))
    ci, results, record = solve_and_verify((3,), prime=10007, seed=0)
    composed, tested = [], []
    real_compose = splitting.compose_in_forms
    real_common_root = splitting.binary_forms_common_root

    def compose(polys, forms):
        composed.append(forms)
        return real_compose(polys, forms)

    def common_root(forms):
        if isinstance(forms, list):     # the minors arrive as a generator
            tested.append(forms)
        return real_common_root(forms)

    monkeypatch.setattr(splitting, "compose_in_forms", compose)
    monkeypatch.setattr(splitting, "binary_forms_common_root", common_root)
    conic = conic_to_map(results[0][0], md)
    line = find_line_through_point(ci)
    # building the curves checks nothing
    assert composed == tested == []
    for curve, expected in ((conic, (2, 1, 1)), (line, (2, 0, 0))):
        assert splitting_type(ci, curve) == expected
        assert composed == tested == [curve.coords]
        composed.clear()
        tested.clear()


def test_complex_invariants_enforced():
    u = BinaryForm(F, 1, [1, 0])
    # alpha with a common root
    cx = ThreeTermComplex(F, [0], [1, 1], [], [u, u], [])
    with pytest.raises(ComplexInvariantError):
        cx.validate()
    # beta dropping rank: a single row with a shared factor
    cx2 = ThreeTermComplex(F, [], [1, 1], [2], [], [[u * u, u * u]])
    with pytest.raises(ComplexInvariantError):
        cx2.validate()


def test_euler_jacobian_complex_shape():
    md = dimension_from_degrees((3,))
    ci, results, record = solve_and_verify((3,), prime=10007, seed=0)
    conic, ok, orbit = results[0]
    curve = conic_to_map(conic, md)
    cx = euler_jacobian_complex(ci, curve)
    cx.validate()
    assert cx.rank == 3
    assert cx.euler_characteristic_degree == 4    # -K_X . C = n+1
    h0, h1 = hypercohomology_dims(cx, 0)
    assert (h0, h1) == (sum(a + 1 for a in (2, 1, 1)), 0)


def test_tangent_conic_parametrization():
    md = dimension_from_degrees((3,))
    ci, results, record = solve_and_verify((3,), variant="tangent",
                                           prime=10007, seed=0)
    for conic, ok, orbit in results:
        assert ok
        curve = conic_to_map(conic, md)
        st_ = splitting_type(ci, curve)
        assert st_ == (2, 1, 1)


# ---------------------------------------------------------------------------
# oracles: the whole h^0 profile, and the products of forms that the GF(p)
# grid stands in for


def _splitting_by_full_walk(cx):
    """The splitting from the h^0 profile read down from twist 0 until it
    vanishes and up from twist 1 until it grows by the rank."""
    rank, deg = cx.rank, cx.euler_characteristic_degree
    h0 = {}

    def get(m):
        if m not in h0:
            a, b = hypercohomology_dims(cx, m)
            assert a - b == deg + rank * (m + 1)
            h0[m] = a
        return h0[m]

    lo = 0
    while get(lo) > 0:
        lo -= 1
    hi = 1
    while get(hi) - get(hi - 1) != rank:
        hi += 1
    out = []
    for m in range(lo + 1, hi + 1):
        k = (get(m) - get(m - 1)) - (get(m - 1) - get(m - 2) if m - 1 > lo else 0)
        out.extend([-m] * k)
    return tuple(sorted(out, reverse=True))


def _record_twists(mp):
    """Log the twist of every ``hypercohomology_dims`` call into the
    returned list, for as long as the monkeypatch ``mp`` holds."""
    twists = []
    real = splitting.hypercohomology_dims

    def logged(cx, twist=0):
        twists.append(twist)
        return real(cx, twist)

    mp.setattr(splitting, "hypercohomology_dims", logged)
    return twists


def _curves_the_tests_split():
    """(ci, curve, splitting) for every conic and line split in this file,
    and the conics of a (2,3) instance, which has two sections and an
    orbit of degree 11."""
    out = []
    for degrees, variant, seed in (((3,), "secant", 0), ((3,), "tangent", 0),
                                   ((2, 2), "secant", 0), ((2, 3), "secant", 1)):
        md = dimension_from_degrees(degrees)
        ci, results, _ = solve_and_verify(degrees, variant=variant, prime=10007,
                                          seed=seed)
        out += [(ci, conic_to_map(conic, md), (2,) + (1,) * (md.n - 1))
                for conic, _, _ in results]
    for degrees, st_ in (((3,), (2, 0, 0)), ((3, 2), (2, 1, 0, 0, 0))):
        ci = random_ci(dimension_from_degrees(degrees), F, 0)
        out.append((ci, find_line_through_point(ci), st_))
    return out


def test_every_split_curve_matches_the_oracles(monkeypatch):
    twists = _record_twists(monkeypatch)
    curves = _curves_the_tests_split()
    assert max(curve.field.degree for _, curve, _ in curves
               if isinstance(curve.field, ExtensionField)) == 11
    for ci, curve, expected in curves:
        L = curve.field
        cx = euler_jacobian_complex(ci, curve)
        partials = [q for s in ci.sections for j in range(ci.md.ambient + 1)
                    if (q := s.derivative(j))]
        assert (compose_in_forms(partials, curve.coords)
                == splitting._compose_by_products(partials, curve.coords))
        subsets = itertools.combinations(range(len(cx.mid_degrees)), len(cx.beta))
        assert list(splitting._maximal_minors(L, cx.beta)) == [
            splitting._form_det(L, [[row[j] for j in cols] for row in cx.beta])
            for cols in subsets]
        composite = list(splitting._composite(L, cx.alpha, cx.beta))
        assert len(composite) == len(cx.beta) and not any(composite)
        twists.clear()
        assert splitting_type_of_complex(cx) == expected
        # a conic needs twists -2 and -3 only, these lines -1 as well
        assert sorted(twists) == ([-3, -2] if curve.degree == 2 else [-3, -2, -1])
        assert _splitting_by_full_walk(cx) == expected


@functools.lru_cache(maxsize=None)
def _field(p, k):
    """GF(p) for k = 1, else GF(p^k) from a seeded irreducible modulus."""
    if k == 1:
        return PrimeField(p)
    rng = random.Random(f"modulus:{p}:{k}")
    Fp = PrimeField(p)
    while True:
        f = UniPoly(Fp, [rng.randrange(p) for _ in range(k)] + [1])
        if is_squarefree(f) and [g.degree for g in factor_squarefree(f, rng)] == [k]:
            return ExtensionField(p, list(f.coeffs))


def _random_form(rng, L, degree):
    """A random form; one in three has a root at infinity, one in six is
    zero."""
    draw = rng.randrange(6)
    if draw == 0:
        return BinaryForm.zero(L, degree)
    coeffs = [L.random_element(rng) for _ in range(degree + 1)]
    if draw < 3:
        coeffs[-1] = L.zero
    return BinaryForm(L, degree, coeffs)


def _random_polys(rng, Fp, nvars):
    """Nonzero homogeneous polynomials over GF(p) of degrees 0 to 3, with
    some monomials left out."""
    ring = PolyRing(Fp, nvars)
    polys = []
    for _ in range(rng.randrange(1, 5)):
        mons = ring.monomials_of_degree(rng.randrange(4))
        terms = {m: Fp.random_element(rng) for m in mons if rng.randrange(3)}
        terms[rng.choice(mons)] = 1 + rng.randrange(Fp.p - 1)
        polys.append(ring.from_dict(terms))
    return polys


def _check_by_evaluation(rng, polys, forms, composed):
    """Each composite has degree deg * e and takes at a random t the value
    of its polynomial at the forms' values."""
    L, e = forms[0].field, forms[0].degree
    t = L.random_element(rng)
    xs = [f.poly.evaluate(t) for f in forms]
    for poly, h in zip(polys, composed):
        assert h.degree == poly.degree() * e
        lifted = poly.map_coefficients(splitting._embedder(poly.ring.field, L), L)
        assert h.poly.evaluate(t) == lifted.evaluate(xs)


@settings(deadline=None, max_examples=60)
@given(k=st.integers(1, 12), e=st.integers(0, 3), nvars=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32))
def test_compose_on_the_grid_matches_products(k, e, nvars, seed):
    rng = random.Random(seed)
    L = _field(10007, k)
    polys = _random_polys(rng, PrimeField(10007), nvars)
    forms = [_random_form(rng, L, e) for _ in range(nvars)]
    composed = compose_in_forms(polys, forms)
    assert composed == splitting._compose_by_products(polys, forms)
    _check_by_evaluation(rng, polys, forms, composed)


@settings(deadline=None, max_examples=60)
@given(k=st.integers(1, 12), r=st.integers(1, 3), extra=st.integers(0, 2),
       e=st.integers(0, 2), seed=st.integers(0, 2 ** 32))
def test_minors_and_composite_on_the_grid_match_products(k, r, extra, e, seed):
    rng = random.Random(seed)
    L = _field(10007, k)
    ncols = r + extra
    beta = []
    for _ in range(r):
        degree = rng.randrange(4)
        beta.append([_random_form(rng, L, degree) for _ in range(ncols)])
    alpha = [_random_form(rng, L, e) for _ in range(ncols)]
    assert list(splitting._maximal_minors(L, beta)) == [
        splitting._form_det(L, [[row[j] for j in cols] for row in beta])
        for cols in itertools.combinations(range(ncols), r)]
    assert list(splitting._composite(L, alpha, beta)) == [
        functools.reduce(operator.add, map(operator.mul, row, alpha))
        for row in beta]


@pytest.mark.parametrize("p, k", [(2 ** 61 - 1, 1), (2 ** 61 - 1, 3), (7, 2)])
def test_products_run_where_the_grid_does_not_fit(p, k):
    # int64 sums overflow at p = 2^61 - 1, and ten points in t do not fit
    # in GF(7)
    L = _field(p, k)
    assert splitting._Grid.fitting(L, 10, 1, 1) is None
    rng = random.Random(f"fallback:{p}:{k}")
    for _ in range(5):
        polys = [q for q in _random_polys(rng, PrimeField(p), 3) if q.degree() == 3]
        polys = polys or [PolyRing(PrimeField(p), 3).gen(0) ** 3]
        forms = [_random_form(rng, L, 3) for _ in range(3)]
        _check_by_evaluation(rng, polys, forms, compose_in_forms(polys, forms))
        beta = [[_random_form(rng, L, 3) for _ in range(3)] for _ in range(2)]
        assert list(splitting._maximal_minors(L, beta)) == [
            splitting._form_det(L, [[row[j] for j in cols] for row in beta])
            for cols in itertools.combinations(range(3), 2)]
