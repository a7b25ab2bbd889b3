import pytest
from hypothesis import given, settings, strategies as st

from coniccount.fields import PrimeField
from coniccount.conic_system import DegenerateInstance, dimension_from_degrees, random_ci
from coniccount.counting import solve_and_verify
from coniccount.splitting import (BinaryForm, ThreeTermComplex, RationalCurveMap,
                                  hypercohomology_dims, splitting_type_of_complex,
                                  splitting_type, is_quasi_line, conic_to_map,
                                  find_line_through_point, euler_jacobian_complex,
                                  binary_forms_common_root, compose_in_forms,
                                  ComplexInvariantError)

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
    st_ = splitting_type_of_complex(cx)
    assert list(st_) == sorted(values, reverse=True)


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
