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
differential.

The splitting type is read from the fewest twists.  On P^1, with
E = (+) O(a_i), h^1(E(m)) = 0 means every a_i >= -m-1 and h^0(E(m)) = 0
means every a_i <= -m-1, so the walk starts at the balanced twist
-floor(deg/rank) - 1 and stops as soon as both have vanished; the second
differences of h^0 in between give the multiplicities.  A conic needs
twists -2 and -3 only.

A curve is checked only by ``ThreeTermComplex.validate`` on the complex
``splitting_type`` builds: no common root of the coordinate forms or of
the Jacobian minors, and a zero composite.  By Euler, row i of the
composite is d_i times section i along the curve, so the characteristic
must divide no d_i; ``euler_jacobian_complex`` refuses it otherwise.

Over L = GF(p) or GF(p^k) = GF(p)[theta]/(f), a form is a polynomial in
(t, theta) with GF(p) coefficients, and the sections' partials have GF(p)
coefficients.  So the complex is built (``compose_in_forms``) and checked
(the composite and the maximal minors in ``validate``) on a grid of
points of GF(p)^2 large enough for the degrees in t and theta: the forms
are evaluated there, multiplied elementwise as int64 arrays mod p, and
interpolated back with two cached Vandermonde inverses, with theta^l
reduced mod f at the end.  Where ``fields.int64_modulus`` does not answer
(QQ, large p) or the grid does not fit in GF(p), the same results come
from products of the forms in field operations, which are also the
oracle in the tests.
"""

import functools
import itertools
import operator
import random
from dataclasses import dataclass

import numpy as np

from . import linalg
from .fields import PrimeField, int64_modulus
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
    """Substitute binary forms of one degree for the variables of
    homogeneous polynomials, one result per polynomial.  The coefficients
    lie in the prime field of the forms' field: GF(p) for forms over GF(p)
    or GF(p^k), QQ for forms over QQ.

    On the GF(p) grid when it fits, else by products of the forms."""
    if not polys:
        return []
    degrees = [poly.degree() for poly in polys]
    if min(degrees) < 0:
        raise ValueError("zero polynomial has no well-defined output degree")
    e = forms[0].degree
    if any(f.degree != e for f in forms):
        raise ValueError("forms must share one degree")
    # the polynomials of one degree share their monomials' values
    groups = {}
    for i, d in enumerate(degrees):
        members, monomials = groups.setdefault(d, ([], {}))
        members.append(i)
        for mon in polys[i].terms:
            monomials.setdefault(mon, len(monomials))
    L = forms[0].field
    top = max(degrees)
    grid = _Grid.fitting(L, top * e + 1, top * (_ext_degree(L) - 1) + 1,
                         max(len(monomials) for _, monomials in groups.values()))
    if grid is None:
        return _compose_by_products(polys, forms)
    p = grid.p
    # powers[j, n]: the values of forms[j]^n on the grid
    powers = np.ones((len(forms), top + 1) + grid.shape, dtype=np.int64)
    if top:
        powers[:, 1] = grid.values(forms)
    for n in range(2, top + 1):
        powers[:, n] = powers[:, n - 1] * powers[:, 1] % p
    out = [None] * len(polys)
    for d, (members, monomials) in groups.items():
        exps = np.array(list(monomials), dtype=np.int64)
        values = np.ones((len(exps),) + grid.shape, dtype=np.int64)
        for j in range(len(forms)):
            values = values * powers[j, exps[:, j]] % p
        coeffs = np.zeros((len(members), len(monomials)), dtype=np.int64)
        for row, i in enumerate(members):
            for mon, c in polys[i].terms.items():
                coeffs[row, monomials[mon]] = c
        composed = grid.forms(np.tensordot(coeffs, values, axes=1) % p,
                              [d * e] * len(members))
        for i, form in zip(members, composed):
            out[i] = form
    return out


def _compose_by_products(polys, forms):
    """``compose_in_forms`` in field operations: the powers of the forms are
    built once for the whole list."""
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
        embed = _embedder(poly.ring.field, F)
        total = BinaryForm.zero(F, poly.degree() * e)
        for mon, c in poly.terms.items():
            term = BinaryForm(F, 0, [embed(c)])
            for i, expo in enumerate(mon):
                if expo:
                    term = term * powf(i, expo)
            total = total + term
        out.append(total)
    return out


def _ext_degree(field):
    """k for GF(p^k), 1 for GF(p) and QQ."""
    return getattr(field, "degree", 1)


@functools.lru_cache(maxsize=16)
def _vandermonde(p, n):
    """[a^i] for a, i < n over GF(p), and its inverse, whose column a holds
    the coefficients of the Lagrange polynomial that is 1 at a and 0 at
    the other points: m(t) / (t - a) scaled to 1 at a, m = prod (t - b)."""
    x = np.arange(n, dtype=np.int64)
    v = np.ones((n, n), dtype=np.int64)
    for i in range(1, n):
        v[:, i] = v[:, i - 1] * x % p
    m = np.zeros(n + 1, dtype=np.int64)
    m[0] = 1
    for b in range(n):
        m[1:] = (m[:-1] - b * m[1:]) % p
        m[0] = -b * m[0] % p
    # synthetic division by t - a, for every a at once
    q = np.zeros((n, n), dtype=np.int64)
    q[:, n - 1] = 1
    for i in range(n - 1, 0, -1):
        q[:, i - 1] = (m[i] + x * q[:, i]) % p
    at_a = (q * v % p).sum(axis=1) % p
    scale = np.array([pow(int(c), p - 2, p) for c in at_a], dtype=np.int64)
    return v, (q * scale[:, None] % p).T


@functools.lru_cache(maxsize=16)
def _reduction(field, n):
    """(n, k) array: row l holds theta^l in GF(p^k), or [[1]] over GF(p)."""
    if isinstance(field, PrimeField):
        return np.ones((1, 1), dtype=np.int64)
    return linalg.generator_powers(field, n)


class _Grid:
    """Binary forms over L = GF(p) or GF(p)[theta]/(f) as polynomials in
    (t, theta) over GF(p), by their values at the points (a, b), a < nt,
    b < ntheta, of GF(p)^2.  A product of forms is then an elementwise
    product of values, exact while its degrees stay below nt in t and
    ntheta in theta; ``forms`` interpolates and reduces theta^l mod f.
    Over GF(p) there is no theta and ntheta is 1."""

    def __init__(self, field, p, nt, ntheta):
        self.field, self.p, self.k = field, p, _ext_degree(field)
        self.shape = (nt, ntheta)
        self.t, self.t_inv = _vandermonde(p, nt)
        self.theta, self.theta_inv = _vandermonde(p, ntheta)
        self.reduce = _reduction(field, ntheta)

    @classmethod
    def fitting(cls, field, nt, ntheta, length):
        """The grid when int64 arithmetic mod p is exact for sums of
        ``length`` products and for the grid's own matrix products, and
        the grid fits in GF(p)^2; None otherwise (QQ, large p, small p)."""
        p = getattr(field, "p", None)
        if p is None or max(nt, ntheta) > p:
            return None
        base = field if isinstance(field, PrimeField) else PrimeField(p)
        if int64_modulus(base, max(nt, ntheta, length)) is None:
            return None
        return cls(field, p, nt, ntheta)

    def values(self, forms):
        """(len(forms), nt, ntheta) values of forms of degree below nt."""
        p, k = self.p, self.k
        coeffs = np.zeros((len(forms), max(f.degree for f in forms) + 1, k),
                          dtype=np.int64)
        for i, f in enumerate(forms):
            if f:
                coeffs[i, :f.poly.degree + 1] = np.reshape(f.poly.coeffs, (-1, k))
        at_t = self.t[:, :coeffs.shape[1]] @ coeffs % p
        return at_t @ self.theta[:, :k].T % p

    def forms(self, values, degrees):
        """The forms of the given degrees with these values, one per leading
        index, as a generator: interpolation runs on the whole array, the
        conversion to field elements only as far as it is read."""
        p, L = self.p, self.field
        coeffs = self.t_inv @ values % p @ self.theta_inv.T % p
        coeffs = (coeffs @ self.reduce % p).tolist()
        if self.k == 1:
            return (BinaryForm(L, d, [c for c, in row[:d + 1]])
                    for row, d in zip(coeffs, degrees))
        return (BinaryForm(L, d, list(map(tuple, row[:d + 1])))
                for row, d in zip(coeffs, degrees))


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
            if any(_composite(F, self.alpha, self.beta)):
                raise ComplexInvariantError("composition of the maps is nonzero")
        if self.beta:
            if binary_forms_common_root(_maximal_minors(F, self.beta)):
                raise ComplexInvariantError("second map drops rank at a point")
        return self


def _composite(field, alpha, beta):
    """The entries of the column beta * alpha, one form per row of beta: on
    the GF(p) grid when it fits, else by products of the forms."""
    # a row of the composite is homogeneous, so its first term gives its degree
    degrees = [row[0].degree + alpha[0].degree for row in beta]
    grid = _Grid.fitting(field, max(degrees) + 1, 2 * (_ext_degree(field) - 1) + 1,
                         len(alpha))
    if grid is None:
        return [functools.reduce(operator.add, map(operator.mul, row, alpha))
                for row in beta]
    a = grid.values(alpha)
    rows = np.stack([(grid.values(row) * a).sum(axis=0) for row in beta])
    return grid.forms(rows % grid.p, degrees)


def _maximal_minors(field, beta):
    """The r x r minors of the r-row matrix of forms ``beta``, one per
    choice of columns, as a generator, so that a common-root test stops at
    the first unit gcd.  On the GF(p) grid when it fits, else by cofactor
    expansion."""
    r = len(beta)
    subsets = list(itertools.combinations(range(len(beta[0])), r))
    # a minor is homogeneous, so its diagonal term gives its degree
    degrees = [sum(row[j].degree for row, j in zip(beta, cols)) for cols in subsets]
    grid = _Grid.fitting(field, sum(max(f.degree for f in row) for row in beta) + 1,
                         r * (_ext_degree(field) - 1) + 1, 1)
    if grid is None or not subsets:
        return (_form_det(field, [[row[j] for j in cols] for row in beta])
                for cols in subsets)
    p = grid.p
    entries = [grid.values(row) for row in beta]
    subsets = np.array(subsets, dtype=np.int64)
    dets = np.zeros((len(subsets),) + grid.shape, dtype=np.int64)
    # Leibniz: one product of r entries per permutation
    for perm in itertools.permutations(range(r)):
        term = np.ones_like(dets)
        for i, j in enumerate(perm):
            term = term * entries[i][subsets[:, j]] % p
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        dets = (dets - term if inversions % 2 else dets + term) % p
    return grid.forms(dets, degrees)


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
    partials = [[s.derivative(j) for j in range(md.ambient + 1)]
                for s in ci.sections]
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

MAX_WINDOW = 80     # the farthest twist from the balanced one that is read


def splitting_type_of_complex(cx):
    """Splitting multiset of the middle cohomology bundle E = (+) O(a_i),
    from the fewest twists.

    h^0(E(m)) = 0 means every a_i <= -m-1, and h^1(E(m)) = 0 means every
    a_i >= -m-1.  So the walk starts at the balanced twist
    -floor(deg/rank) - 1 and goes down to the first lo with h^0 = 0 and up
    to the first hi with h^1 = 0.  The second differences of h^0 count the
    summands of degree -m-1 for lo <= m < hi; those of degree -hi-1 fill
    the rest of the rank."""
    cx.validate()
    rank = cx.rank
    deg = cx.euler_characteristic_degree
    if rank <= 0:
        raise ComplexInvariantError("middle term has nonpositive rank")
    start = -(deg // rank) - 1
    h0, h1 = {}, {}

    def dims(m):
        if m not in h0:
            if abs(m - start) > MAX_WINDOW:
                raise SplittingError("no twist pins the profile within %d of %d"
                                     % (MAX_WINDOW, start))
            h0[m], h1[m] = hypercohomology_dims(cx, m)
            if h0[m] - h1[m] != deg + rank * (m + 1):
                raise SplittingError("Riemann-Roch failed at twist %d" % m)
        return h0[m], h1[m]

    lo = start
    while dims(lo)[0] > 0:
        lo -= 1
    hi = start
    while dims(hi)[1] > 0:
        hi += 1
    splitting = []
    for m in range(lo, hi):
        below = h0[m - 1] if m > lo else 0
        k = h0[m + 1] - 2 * h0[m] + below
        if k < 0:
            raise SplittingError("h^0 increments decreased")
        splitting.extend([-m - 1] * k)
    splitting.extend([-hi - 1] * (rank - len(splitting)))
    if len(splitting) != rank or sum(splitting) != deg:
        raise SplittingError("profile matches no splitting")
    splitting.sort(reverse=True)
    # round trip: the multiset must reproduce every computed h^0 (and so,
    # by Riemann-Roch, every h^1)
    for m, value in h0.items():
        if sum(max(a + m + 1, 0) for a in splitting) != value:
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
