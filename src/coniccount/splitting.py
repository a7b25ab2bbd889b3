"""Splitting types of restricted tangent bundles on the projective line,
and the quasi-line test.

A rational curve of degree e inside the complete intersection is given by
homogeneous coordinate forms with no common root.  The restricted tangent
bundle sits as the middle cohomology of a three-term complex of split
bundles

    O  --(coordinate forms)-->  O(e)^(N+1)  --(Jacobian along f)-->  (+) O(e*d_i)

so its cohomology in any twist is the middle hypercohomology of the
twisted complex.  On P^1 with its two standard charts everything is
monomial: H^0 of O(d) is spanned by u^a v^b with a, b >= 0, H^1 by the
doubly negative monomials, and the maps act by multiplication followed by
projection.  The dimensions fall out of exact linear algebra on these
finite graded pieces plus one explicit zig-zag for the connecting
differential.  The h^0 profile over a window of twists then determines
the splitting multiset uniquely.

A curve is checked only by ``ThreeTermComplex.validate`` on the complex
``splitting_type`` builds: no common root of the coordinate forms or of
the Jacobian minors, and a zero composite.  By Euler, row i of the
composite is d_i times section i along the curve, so the characteristic
must divide no d_i; ``euler_jacobian_complex`` refuses it otherwise.
"""

import itertools
import random
from dataclasses import dataclass

from . import linalg
from .conic_system import DegenerateInstance, DerivedSystem, _embedder
from .counting import DerivedSolver
from .multipoly import PolyRing
from .unipoly import BinaryForm, binary_forms_common_root


class ComplexInvariantError(ValueError):
    """The three-term complex is not of the expected shape."""


class SplittingError(RuntimeError):
    """The h^0 profile matches no splitting; implementation or genericity
    failure."""


def compose_in_forms(polys, forms):
    """Substitute binary forms for the variables of homogeneous
    polynomials, one result per polynomial; coefficients must already live
    in the forms' field.  The powers of the forms are built once for the
    whole list."""
    F = forms[0].field
    e = forms[0].degree
    power_cache = [dict() for _ in forms]

    def powf(i, n):
        if n == 0:
            return BinaryForm(F, 0, [F.one])
        d = power_cache[i]
        if n not in d:
            d[n] = powf(i, n - 1) * forms[i]
        return d[n]

    out = []
    for poly in polys:
        deg = poly.degree()
        if deg < 0:
            raise ValueError("zero polynomial has no well-defined output degree")
        total = BinaryForm.zero(F, deg * e)
        for mon, c in poly.terms.items():
            term = BinaryForm(F, 0, [c])
            for i, expo in enumerate(mon):
                if expo:
                    term = term * powf(i, expo)
            if term.degree != total.degree:
                raise ValueError("forms must share one degree")
            total = total + term
        out.append(total)
    return out


@dataclass
class RationalCurveMap:
    """A degree-e map P^1 -> P^N, by its coordinate forms over ``field``."""

    field: object
    degree: int
    coords: list


@dataclass
class ThreeTermComplex:
    """A complex of split bundles A -> B -> C on P^1, with A of rank at
    most one (the Euler section slot); either end may be absent."""

    field: object
    prev_degrees: list      # [] or [d]
    mid_degrees: list
    next_degrees: list
    alpha: list             # column of BinaryForm, one per mid component
    beta: list              # rows over next, columns over mid

    @property
    def rank(self):
        return len(self.mid_degrees) - len(self.prev_degrees) - len(self.next_degrees)

    @property
    def euler_characteristic_degree(self):
        return (sum(self.mid_degrees) - sum(self.prev_degrees)
                - sum(self.next_degrees))

    def validate(self):
        F = self.field
        if self.prev_degrees and self.alpha:
            if binary_forms_common_root(self.alpha):
                raise ComplexInvariantError("first map vanishes at a point")
        if self.beta and self.alpha:
            for row in self.beta:
                acc = None
                for b, a in zip(row, self.alpha):
                    term = b * a
                    acc = term if acc is None else acc + term
                if acc:
                    raise ComplexInvariantError("composition of the maps is nonzero")
        if self.beta:
            r = len(self.beta)
            # a generator: the common-root test stops at the first unit gcd
            minors = (_form_det(F, [[self.beta[i][j] for j in cols]
                                    for i in range(r)])
                      for cols in itertools.combinations(
                          range(len(self.mid_degrees)), r))
            if binary_forms_common_root(minors):
                raise ComplexInvariantError("second map drops rank at a point")
        return self


def _form_det(field, mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = None
    sign = 1
    for j in range(n):
        minor = [[mat[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        term = mat[0][j] * _form_det(field, minor)
        if sign < 0:
            term = -term
        acc = term if acc is None else acc + term
        sign = -sign
    return acc


def euler_jacobian_complex(ci, curve):
    """The tangent-bundle presentation along the curve: coordinate forms
    into the Jacobian of the defining sections."""
    md = ci.md
    p = ci.ring.field.characteristic
    if p and any(d % p == 0 for d in md.degrees):
        raise ValueError(f"characteristic {p} divides a degree of {md.degrees}")
    L = curve.field
    e = curve.degree
    embed = _embedder(ci.ring.field, L)
    partials = [[sL.derivative(j) for j in range(md.ambient + 1)]
                for sL in (s.map_coefficients(embed, L) for s in ci.sections)]
    # one composition for every nonzero partial, sharing the powers
    composed = iter(compose_in_forms([q for row in partials for q in row if q],
                                     curve.coords))
    beta = [[next(composed) if q else BinaryForm.zero(L, e * (d - 1)) for q in row]
            for row, d in zip(partials, md.degrees)]
    return ThreeTermComplex(L, [0], [e] * (md.ambient + 1),
                            [e * d for d in md.degrees], list(curve.coords), beta)


# ---------------------------------------------------------------------------
# hypercohomology of the twisted complex


def _h0_basis(degrees):
    out = []
    for c, d in enumerate(degrees):
        for b in range(d + 1):
            out.append((c, b))
    return out


def _h1_basis(degrees):
    out = []
    for c, d in enumerate(degrees):
        for b in range(d + 1, 0):
            out.append((c, b))
    return out


def _map_matrix(field, basis_src, basis_dst, deg_src, deg_dst, entries, h1):
    """Matrix of a block multiplication map on H^0 (h1=False) or H^1."""
    index = {key: i for i, key in enumerate(basis_dst)}
    mat = [[field.zero] * len(basis_src) for _ in basis_dst]
    for col, (c, b) in enumerate(basis_src):
        for cdst in range(len(deg_dst)):
            form = entries(cdst, c)
            if form is None or not form:
                continue
            for j, coeff in enumerate(form.poly.coeffs):
                if coeff == field.zero:
                    continue
                b2 = b + j
                if h1:
                    if not (deg_dst[cdst] + 1 <= b2 <= -1):
                        continue
                else:
                    if not (0 <= b2 <= deg_dst[cdst]):
                        continue
                row = index[(cdst, b2)]
                mat[row][col] = field.add(mat[row][col], coeff)
    return mat


def hypercohomology_dims(cx, twist=0):
    """(h0, h1) of the middle cohomology sheaf of the twisted complex.

    Works on the Cech model of the two standard charts: the E_1 page
    carries H^0 and H^1 of every split term in monomial bases, and the
    only connecting differential is evaluated by an explicit zig-zag
    through the Laurent cochains.
    """
    F = cx.field
    prev = [d + twist for d in cx.prev_degrees]
    mid = [d + twist for d in cx.mid_degrees]
    nxt = [d + twist for d in cx.next_degrees]

    h0_prev, h0_mid, h0_next = _h0_basis(prev), _h0_basis(mid), _h0_basis(nxt)
    h1_prev, h1_mid, h1_next = _h1_basis(prev), _h1_basis(mid), _h1_basis(nxt)

    alpha_entry = lambda cdst, csrc: cx.alpha[cdst] if cx.alpha else None
    beta_entry = lambda cdst, csrc: cx.beta[cdst][csrc] if cx.beta else None

    A0 = _map_matrix(F, h0_prev, h0_mid, prev, mid, alpha_entry, False)
    A1 = _map_matrix(F, h1_prev, h1_mid, prev, mid, alpha_entry, True)
    B0 = _map_matrix(F, h0_mid, h0_next, mid, nxt, beta_entry, False)
    B1 = _map_matrix(F, h1_mid, h1_next, mid, nxt, beta_entry, True)

    rank_A0 = linalg.rank(F, A0) if h0_prev and h0_mid else 0
    rank_B0 = linalg.rank(F, B0) if h0_mid and h0_next else 0
    rank_A1 = linalg.rank(F, A1) if h1_prev and h1_mid else 0
    rank_B1 = linalg.rank(F, B1) if h1_mid and h1_next else 0

    e2_00 = len(h0_mid) - rank_B0 - rank_A0
    e2_01 = len(h1_mid) - rank_B1 - rank_A1
    e2_10 = len(h0_next) - rank_B0

    # E_2^(-1,1) = ker(H^1 prev -> H^1 mid), then the d_2 zig-zag into
    # E_2^(1,0) = coker(H^0 mid -> H^0 next)
    d2_rank_in_coker = 0
    dim_ker_a1 = 0
    if h1_prev:
        if h1_mid and A1:
            kernel = linalg.nullspace(F, A1)
        else:
            kernel = linalg.identity(F, len(h1_prev))
        dim_ker_a1 = len(kernel)
        if kernel and h0_next:
            cols = [_d2_image(cx, F, prev, mid, nxt, h1_prev, h0_next, vec)
                    for vec in kernel]
            if any(any(c != F.zero for c in col) for col in cols):
                combined = [row[:] for row in B0] if B0 else \
                    [[] for _ in h0_next]
                for col in cols:
                    for i, c in enumerate(col):
                        combined[i] = combined[i] + [c]
                d2_rank_in_coker = linalg.rank(F, combined) - rank_B0
    h0 = e2_00 + (dim_ker_a1 - d2_rank_in_coker)
    h1 = e2_01 + (e2_10 - d2_rank_in_coker)
    return h0, h1


def _mul_into(F, acc, cochain, form):
    """acc += cochain * form, on Laurent cochains keyed by v-exponent."""
    for b, xv in cochain.items():
        for j, fc in enumerate(form.poly.coeffs):
            if fc != F.zero:
                acc[b + j] = F.add(acc.get(b + j, F.zero), F.mul(xv, fc))
    return acc


def _d2_image(cx, F, prev, mid, nxt, h1_prev, h0_next, vec):
    """Zig-zag: lift a kernel class through the Cech bicomplex and push it
    into H^0 of the last term."""
    # the H^1(prev) element as a Laurent cochain, indexed by v-exponent
    x = {}
    for coeff, (c, b) in zip(vec, h1_prev):
        if coeff != F.zero:
            x[b] = coeff
    # alpha * x per mid component, split into chart-regular halves
    s0 = []
    for c in range(len(mid)):
        acc = _mul_into(F, {}, x, cx.alpha[c])
        part0 = {}
        for b2, cval in acc.items():
            if cval == F.zero:
                continue
            a2 = mid[c] - b2
            if b2 <= -1 and a2 <= -1:
                raise ComplexInvariantError("kernel class fails to lift")
            if b2 >= 0:
                part0[b2] = F.neg(cval)
        s0.append(part0)
    # beta * s0 is a global section of the next term
    out = [F.zero] * len(h0_next)
    index = {key: i for i, key in enumerate(h0_next)}
    for i in range(len(nxt)):
        acc = {}
        for c in range(len(mid)):
            _mul_into(F, acc, s0[c], cx.beta[i][c])
        for b2, cval in acc.items():
            if cval == F.zero:
                continue
            if not (0 <= b2 <= nxt[i]):
                raise ComplexInvariantError("zig-zag left the polynomial range")
            out[index[(i, b2)]] = F.neg(cval)
    return out


# ---------------------------------------------------------------------------
# splitting types

MAX_WINDOW = 80     # the farthest twist at which the h^0 profile is read


def splitting_type_of_complex(cx):
    """Splitting multiset of the middle cohomology bundle, from the h^0
    profile over a twist window that extends itself until the profile is
    pinned on both sides."""
    cx.validate()
    rank = cx.rank
    deg = cx.euler_characteristic_degree
    if rank <= 0:
        raise ComplexInvariantError("middle term has nonpositive rank")
    h0 = {}

    def get(m):
        if m not in h0:
            a, b = hypercohomology_dims(cx, m)
            if a - b != deg + rank * (m + 1):
                raise SplittingError("Riemann-Roch failed at twist %d" % m)
            h0[m] = a
        return h0[m]

    lo = 0
    while get(lo) > 0:
        lo -= 1
        if lo < -MAX_WINDOW:
            raise SplittingError("no vanishing twist found")
    hi = 1
    while get(hi) - get(hi - 1) != rank:
        hi += 1
        if hi > MAX_WINDOW:
            raise SplittingError("profile never reaches full rank")
    splitting = []
    for m in range(lo + 1, hi + 1):
        k = (get(m) - get(m - 1)) - (get(m - 1) - get(m - 2) if m - 1 > lo else 0)
        if k < 0:
            raise SplittingError("h^0 increments decreased")
        splitting.extend([-m] * k)
    splitting.sort(reverse=True)
    if len(splitting) != rank or sum(splitting) != deg:
        raise SplittingError("profile matches no splitting")
    # round trip: the multiset must reproduce every computed h^0
    for m, value in h0.items():
        predicted = sum(max(a + m + 1, 0) for a in splitting)
        if predicted != value:
            raise SplittingError("splitting does not reproduce the profile")
    return tuple(splitting)


def splitting_type(ci, curve):
    """Splitting type of the restricted tangent bundle along the curve,
    which the complex's ``validate`` checks."""
    cx = euler_jacobian_complex(ci, curve)
    return splitting_type_of_complex(cx)


def is_quasi_line(st):
    """True when the splitting is O(2) + O(1)^(n-1)."""
    st = tuple(sorted(st, reverse=True))
    n = len(st)
    return n >= 1 and st == (2,) + (1,) * (n - 1)


# ---------------------------------------------------------------------------
# producing test curves


def conic_to_map(conic, md):
    """Parametrize a smooth conic by projecting from a point on it."""
    L = conic.field
    if not conic.is_smooth():
        raise DegenerateInstance("conic is singular; cannot parametrize")
    s2, s1, s1p = conic.s2, conic.s1, conic.s1p
    one, zero = L.one, L.zero
    if conic.variant == "secant":
        # [u:v] -> (x, z, y) = (-u(s1p v + s2 u), u(v + s1 u), v(v + s1 u))
        x = BinaryForm(L, 2, [L.neg(s2), L.neg(s1p), zero])
        z = BinaryForm(L, 2, [s1, one, zero])
        y = BinaryForm(L, 2, [zero, s1, one])
    else:
        # [u:v] -> (x, z, y) = (-(s2 u^2 + s1p uv + v^2), s1 u^2, s1 uv)
        x = BinaryForm(L, 2, [L.neg(s2), L.neg(s1p), L.neg(one)])
        z = BinaryForm(L, 2, [s1, zero, zero])
        y = BinaryForm(L, 2, [zero, s1, zero])
    coords = [x]
    for aj in conic.a_point:
        coords.append(z.scale(aj))
    coords.append(y)
    return RationalCurveMap(L, 2, coords)


def line_family_system(ci, slice_rng):
    """Conditions on a direction b for the line from the first marked
    point towards b to lie on the instance, cut down to dimension zero by
    random hyperplane slices when the family is positive dimensional."""
    md = ci.md
    F = ci.ring.field
    nb = md.ambient
    ring = PolyRing(F, nb, tuple(f"b{i}" for i in range(1, nb + 1)))
    equations = []
    for s, d in zip(ci.sections, md.degrees):
        buckets = {}
        for mon, c in s.terms.items():
            k = d - mon[0]
            buckets.setdefault(k, {})[mon[1:]] = c
        for k in range(1, d + 1):
            eq = ring.from_dict(buckets.get(k, {}))
            if eq.degree() != k:
                raise DegenerateInstance("degenerate line family equation")
            equations.append(eq)
    slices = (md.n - 3) // 2
    for _ in range(slices):
        eq = ring.from_dict({tuple(1 if j == i else 0 for j in range(nb)):
                             F.random_element(slice_rng) for i in range(nb)})
        if eq.degree() != 1:
            raise DegenerateInstance("degenerate slicing form")
        equations.append(eq)
    return DerivedSystem(md, "lines", ring, equations, [("line", 0, ())] * len(equations))


def _certifies_every_line(solver):
    """Whether the solver's count is certified and equals the Bezout
    number, so that its points are all the lines of the family."""
    try:
        count, certs = solver.count_and_certify()
    except DegenerateInstance:
        return False
    return count == solver.bezout and all(certs.values())


def find_line_through_point(ci, tries=40):
    """A line through the first marked point, found by solving the line
    conditions over GF(p) and keeping a rational solution; the slicing
    and the eliminant randomness are reseeded until one shows up.

    Without slices (n = 3) the lines through the point do not depend on
    the try, so the search ends at the first try that certifies all of
    them and finds none rational."""
    md = ci.md
    fixed = (md.n - 3) // 2 == 0
    last = None
    irrational = []     # the orbit degrees of the tries without a rational point
    for attempt in range(tries):
        rng = random.Random(f"lines:{ci.seed}:{attempt}")
        try:
            system = line_family_system(ci, rng)
            solver = DerivedSolver(system, rng)
            pts = solver.points()
        except (DegenerateInstance, ValueError) as exc:
            last = exc
            continue
        for point, L, k in pts:
            if k == 1:
                # a line on the instance by construction, and b != 0, so
                # its coordinate forms v, b_1 u, ..., b_n u share no root
                return RationalCurveMap(L, 1, [BinaryForm(L, 1, [L.zero, L.one])]
                                        + [BinaryForm(L, 1, [bj, L.zero]) for bj in point])
        irrational.append(sorted(k for *_, k in pts))
        if fixed and _certifies_every_line(solver):
            raise DegenerateInstance(
                f"no GF({ci.field.p})-rational line through the point: the "
                f"lines through it do not depend on the try, and try "
                f"{attempt + 1} certified all {solver.bezout} of them, in "
                f"orbits of degrees {irrational[-1]}")
    reasons = []
    if irrational:
        # the lines through the point do not depend on the try, so the
        # orbits of one try stand for all
        reasons.append(f"{len(irrational)} had no GF({ci.field.p})-rational point, "
                       f"and the orbit degrees of the last were {irrational[-1]}")
    if last is not None:
        reasons.append(f"the last error was: {last}")
    raise DegenerateInstance(f"no rational line found in {tries} tries: "
                             + "; ".join(reasons))
