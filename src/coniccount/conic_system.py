"""From a random complete intersection through two fixed points to the
derived polynomial system whose solutions index the conics through them.

Coordinates are fixed once and for all: the two marked points are
p = [1:0:...:0] and q = [0:...:0:1] in P^(N) with N = n+r.  The 2-planes
through p and q form a projective space with homogeneous coordinates
a_1..a_(N-1); the plane attached to a point [a] is

    pi_[a] = { [x : z*a_1 : ... : z*a_(N-1) : y] , [x:z:y] in P^2 }.

Restricting a degree-d section s to pi_[a] and sorting by the (x,y)-part
of each monomial gives coefficients s_{a,k} of x^a y^(k-a) z^(d-k), each a
form of degree d-k in the a-variables.  A conic through p and q in the
plane has equation

    s_C = s2*z^2 + s1*x*z + s1p*y*z + x*y        (secant variant)

and factoring the restriction as s_C times a residual curve turns into a
triangular system of coefficient identities.  Solving it in the right
sweep order pins down s2, s1, s1p and the residual coefficients; the
identities that remain, together with the matching conditions between the
r sections, form the derived system: n+r-2 homogeneous equations in the
a-variables.  The tangent variant replaces x*y by y^2 and counts conics
through p tangent there to the line joining p and q.
"""

import random
from dataclasses import dataclass

from .fields import field_to_json
from .multipoly import PolyRing


class DegenerateInstance(RuntimeError):
    """A cascade divisor vanished or an equation degenerated; the caller
    should resample with a fresh seed."""


@dataclass(frozen=True)
class MultiDegree:
    """Degrees (d_1..d_r) of a complete intersection on the boundary line
    sum(d_i) = (n+1)/2 + r, which forces the dimension n."""

    degrees: tuple

    @property
    def r(self):
        return len(self.degrees)

    @property
    def n(self):
        return 2 * (sum(self.degrees) - self.r) - 1

    @property
    def ambient(self):
        """Dimension of the ambient projective space."""
        return self.n + self.r

    @property
    def num_vars(self):
        """Number of homogeneous coordinates a_1..a_(n+r-1) on the space
        of 2-planes through the two marked points."""
        return self.n + self.r - 1

    def __str__(self):
        return "(" + ",".join(str(d) for d in self.degrees) + ")"


def dimension_from_degrees(degrees):
    degrees = tuple(int(d) for d in degrees)
    if not degrees or any(d < 2 for d in degrees):
        raise ValueError("every degree must be an integer >= 2")
    return MultiDegree(degrees)


@dataclass
class CISections:
    """Random sections cutting out the instance, one per degree."""

    md: MultiDegree
    field: object
    seed: int
    variant: str
    ring: PolyRing
    sections: list

    def to_json(self):
        return {
            "degrees": list(self.md.degrees),
            "field": field_to_json(self.field),
            "seed": self.seed,
            "variant": self.variant,
            "variables": list(self.ring.names),
            "sections": [s.to_json() for s in self.sections],
        }


def ambient_ring(md, field):
    names = tuple(f"x{i}" for i in range(md.ambient + 1))
    return PolyRing(field, md.ambient + 1, names)


def plane_ring(md, field):
    names = tuple(f"a{i}" for i in range(1, md.num_vars + 1))
    return PolyRing(field, md.num_vars, names)


def _forced_zero_monomials(md, d, variant):
    """Exponent tuples whose coefficients the marked-point conditions kill."""
    nv = md.ambient + 1
    mon_p = tuple(d if i == 0 else 0 for i in range(nv))
    if variant == "secant":
        # through p and through q
        mon_q = tuple(d if i == nv - 1 else 0 for i in range(nv))
        return (mon_p, mon_q)
    if variant == "tangent":
        # through p, and the line pq tangent to the hypersurface at p
        mon_t = tuple(d - 1 if i == 0 else (1 if i == nv - 1 else 0)
                      for i in range(nv))
        return (mon_p, mon_t)
    raise ValueError(f"unknown variant {variant!r}")


def random_ci(md, field, seed, variant="secant"):
    """A random complete intersection satisfying the marked-point
    conditions of the chosen variant; deterministic in the seed."""
    ring = ambient_ring(md, field)
    sections = []
    for i, d in enumerate(md.degrees):
        rng = random.Random(f"ci:{seed}:{i}:{variant}")
        forced = set(_forced_zero_monomials(md, d, variant))
        terms = {}
        for mon in ring.monomials_of_degree(d):
            if mon in forced:
                continue
            c = field.random_element(rng)
            if c != field.zero:
                terms[mon] = c
        sections.append(ring.from_dict(terms))
    return CISections(md, field, seed, variant, ring, sections)


def random_ci_through_pq(md, field, seed):
    """Secant-variant instance: every section vanishes at both points."""
    return random_ci(md, field, seed, "secant")


@dataclass
class PlaneRestriction:
    """Coefficients s^i_{a,k} of the restriction to the plane family."""

    md: MultiDegree
    field: object
    ring: PolyRing                 # the a-variable ring
    coeffs: list                   # per i: dict (a, k) -> MultiPoly

    def coeff(self, i, a, k):
        return self.coeffs[i].get((a, k), self.ring.zero())


def restrict_to_plane_family(ci):
    """Expand s_i(x, z*a_1, ..., z*a_(N-1), y) by the x,y-part of each
    monomial; the z-exponent and the a-degree are both d_i - k."""
    md = ci.md
    ring = plane_ring(md, ci.field)
    nv = md.ambient + 1
    out = []
    for s in ci.sections:
        table = {}
        for mon, c in s.terms.items():
            a = mon[0]
            k = mon[0] + mon[nv - 1]
            amon = mon[1:nv - 1]
            bucket = table.setdefault((a, k), {})
            bucket[amon] = c          # distinct ambient monomials never collide
        out.append({ak: ring.from_dict(t) for ak, t in table.items()})
    return PlaneRestriction(md, ci.field, ring, out)


@dataclass
class ConicAnsatz:
    """The three solved conic coefficients for one section.

    Divisions in the cascade are by the recorded constants, which are
    nonzero field scalars for a general instance, so s2, s1, s1p come out
    polynomial (degrees 2, 1, 1)."""

    variant: str
    s2: object
    s1: object
    s1p: object
    divisors: tuple


@dataclass
class ResidualCurve:
    """Residual coefficients for one section: dict (a, k) -> MultiPoly,
    0 <= a <= k <= d-2, with a-degree d-2-k."""

    degree: int
    coeffs: dict

    def coefficient_count(self):
        return len(self.coeffs)


@dataclass
class DerivedSystem:
    md: MultiDegree
    variant: str
    ring: PolyRing
    equations: list
    tags: list                     # ("universal", i, (a, k)) or ("compat", i, name)

    @property
    def degrees(self):
        return [eq.degree() for eq in self.equations]

    def to_json(self):
        return {
            "degrees": list(self.md.degrees),
            "variant": self.variant,
            "field": field_to_json(self.ring.field),
            "variables": list(self.ring.names),
            "equations": [eq.to_json() for eq in self.equations],
            "tags": [list(map(str, t)) for t in self.tags],
            "degree_profile": self.degrees,
        }


def universal_block_degrees(d):
    """Leftover equation degrees contributed by one degree-d section."""
    if d <= 2:
        return []
    return list(range(3, d + 1)) + list(range(2, d))


def predicted_profile(md):
    """Degree profile of the derived system: per-section universal blocks
    plus the cross-section compatibility block."""
    profile = []
    for d in md.degrees:
        profile.extend(universal_block_degrees(d))
    profile.extend([1] * (2 * (md.r - 1)))
    profile.extend([2] * (md.r - 1))
    return profile


def _scalar_of(poly):
    """The value of a constant polynomial."""
    if not poly.terms:
        return poly.ring.field.zero
    ((mon, c),) = poly.terms.items()
    if any(mon):
        raise ValueError("expected a constant polynomial")
    return c


def _solve_one_secant(pr, i):
    """Triangular solve of the factorization identities for section i,
    secant conic s_C = s2*z^2 + s1*x*z + s1p*y*z + x*y."""
    d = pr.md.degrees[i]
    F = pr.field
    ring = pr.ring
    S = lambda a, k: pr.coeff(i, a, k)
    res = {}
    R = lambda a, k: res.get((a, k), ring.zero())

    for a in range(1, d):
        res[(a - 1, d - 2)] = S(a, d)
    c_left = _scalar_of(res[(0, d - 2)])
    c_right = _scalar_of(res[(d - 2, d - 2)])
    if c_left == F.zero or c_right == F.zero:
        raise DegenerateInstance(f"vanishing top residual constant (section {i})")

    if d == 2:
        inv = F.inv(c_left)
        s1p = S(0, 1).scale(inv)
        s1 = S(1, 1).scale(inv)
        s2 = S(0, 0).scale(inv)
        leftovers = []
    else:
        s1p = S(0, d - 1).scale(F.inv(c_left))
        s1 = S(d - 1, d - 1).scale(F.inv(c_right))
        for a in range(1, d - 1):
            res[(a - 1, d - 3)] = (S(a, d - 1) - s1 * R(a - 1, d - 2)
                                   - s1p * R(a, d - 2))
        s2 = (S(0, d - 2) - s1p * R(0, d - 3)).scale(F.inv(c_left))
        for k in range(d - 2, 1, -1):
            for a in range(1, k):
                res[(a - 1, k - 2)] = (S(a, k) - s2 * R(a, k)
                                       - s1 * R(a - 1, k - 1) - s1p * R(a, k - 1))
        leftovers = []
        for k in range(d - 3, -1, -1):
            eq = s2 * R(0, k) + s1p * R(0, k - 1) - S(0, k)
            leftovers.append(((0, k), eq))
        for k in range(d - 2, 0, -1):
            eq = s2 * R(k, k) + s1 * R(k - 1, k - 1) - S(k, k)
            leftovers.append(((k, k), eq))

    ansatz = ConicAnsatz("secant", s2, s1, s1p, (c_left, c_right))
    return ansatz, ResidualCurve(d, res), leftovers


def _solve_one_tangent(pr, i):
    """Tangent conic s_C = s2*z^2 + s1*x*z + s1p*y*z + y^2; the recursion
    couples (a, k) to the residual at (a, k-2) instead of (a-1, k-2)."""
    d = pr.md.degrees[i]
    F = pr.field
    ring = pr.ring
    S = lambda a, k: pr.coeff(i, a, k)
    if S(d - 1, d) or S(d, d):
        raise ValueError("tangent cascade needs s_{d-1,d} = s_{d,d} = 0")
    res = {}
    R = lambda a, k: res.get((a, k), ring.zero())

    for a in range(0, d - 1):
        res[(a, d - 2)] = S(a, d)
    c = _scalar_of(res[(d - 2, d - 2)])
    if c == F.zero:
        raise DegenerateInstance(f"vanishing top residual constant (section {i})")
    inv = F.inv(c)

    if d == 2:
        s1p = S(0, 1).scale(inv)
        s1 = S(1, 1).scale(inv)
        s2 = S(0, 0).scale(inv)
        leftovers = []
    else:
        s1 = S(d - 1, d - 1).scale(inv)
        s1p = (S(d - 2, d - 1) - s1 * R(d - 3, d - 2)).scale(inv)
        for a in range(0, d - 2):
            res[(a, d - 3)] = (S(a, d - 1) - s1 * R(a - 1, d - 2)
                               - s1p * R(a, d - 2))
        s2 = (S(d - 2, d - 2) - s1 * R(d - 3, d - 3)).scale(inv)
        for k in range(d - 2, 1, -1):
            for a in range(0, k - 1):
                res[(a, k - 2)] = (S(a, k) - s2 * R(a, k)
                                   - s1 * R(a - 1, k - 1) - s1p * R(a, k - 1))
        leftovers = [((d - 3, d - 2),
                      s2 * R(d - 3, d - 2) + s1 * R(d - 4, d - 3)
                      + s1p * R(d - 3, d - 3) - S(d - 3, d - 2))]
        for k in range(d - 3, 0, -1):
            for a in (k - 1, k):
                eq = (s2 * R(a, k) + s1 * R(a - 1, k - 1)
                      + s1p * R(a, k - 1) - S(a, k))
                leftovers.append(((a, k), eq))
        leftovers.append(((0, 0), s2 * R(0, 0) - S(0, 0)))

    ansatz = ConicAnsatz("tangent", s2, s1, s1p, (c,))
    return ansatz, ResidualCurve(d, res), leftovers


def cascade_solve(pr, variant="secant"):
    """Run the per-section triangular solves and assemble the derived
    system.

    Returns (ansatz list, residual list, DerivedSystem).  Raises
    DegenerateInstance whenever a divisor constant vanishes or an
    equation drops below its generic degree, so callers can resample.
    """
    md = pr.md
    solver = {"secant": _solve_one_secant, "tangent": _solve_one_tangent}[variant]
    ansatze, residuals, equations, tags = [], [], [], []
    for i in range(md.r):
        ansatz, residual, leftovers = solver(pr, i)
        ansatze.append(ansatz)
        residuals.append(residual)
        expect = universal_block_degrees(md.degrees[i])
        got = []
        for (a, k), eq in leftovers:
            equations.append(eq)
            tags.append(("universal", i, (a, k)))
            got.append(eq.degree())
        if sorted(got) != sorted(expect):
            raise DegenerateInstance(
                f"universal block degrees {got} != {expect} (section {i})")
    ref = ansatze[0]
    for i in range(1, md.r):
        for name, lhs, rhs, deg in (("s1", ansatze[i].s1, ref.s1, 1),
                                    ("s1p", ansatze[i].s1p, ref.s1p, 1),
                                    ("s2", ansatze[i].s2, ref.s2, 2)):
            eq = lhs - rhs
            if eq.degree() != deg:
                raise DegenerateInstance(f"degenerate compatibility {name}")
            equations.append(eq)
            tags.append(("compat", i, name))
    ds = DerivedSystem(md, variant, pr.ring, equations, tags)
    expected_total = md.n + md.r - 2
    if len(equations) != expected_total:
        raise AssertionError(
            f"derived system has {len(equations)} equations, wants {expected_total}")
    return ansatze, residuals, ds


@dataclass
class Conic:
    """An explicit conic: the plane through the marked points it spans and
    its equation there, with coefficients in the (possibly extended) field."""

    variant: str
    field: object
    a_point: tuple
    s2: object
    s1: object
    s1p: object

    def plane_coordinate_ring(self):
        return PolyRing(self.field, 3, ("x", "z", "y"))

    def form(self):
        """The conic equation in plane coordinates [x:z:y]."""
        ring = self.plane_coordinate_ring()
        F = self.field
        terms = {(0, 2, 0): self.s2, (1, 1, 0): self.s1, (0, 1, 1): self.s1p}
        if self.variant == "secant":
            terms[(1, 0, 1)] = F.one
        else:
            terms[(0, 0, 2)] = F.one
        return ring.from_dict(terms)

    def is_smooth(self):
        """Rank of the defining quadratic form is full."""
        F = self.field
        if self.variant == "secant":
            return F.sub(F.mul(self.s1, self.s1p), self.s2) != F.zero
        return self.s1 != F.zero


def reconstruct_conic(ansatz, a_point, field):
    """Evaluate the solved conic coefficients at a solution of the derived
    system; this pins down the conic completely."""
    point = list(a_point)
    embed = _embedder(ansatz.s2.ring.field, field)
    s2, s1, s1p = (c.map_coefficients(embed, field).evaluate(point)
                   for c in (ansatz.s2, ansatz.s1, ansatz.s1p))
    return Conic(ansatz.variant, field, tuple(point), s2, s1, s1p)


def _embedder(src, dst):
    if src == dst:
        return lambda c: c
    if hasattr(dst, "from_base") and getattr(dst, "p", None) == getattr(src, "p", None):
        return dst.from_base
    raise TypeError(f"no embedding of {src!r} into {dst!r}")


def restrict_section_to_plane(section, md, conic):
    """Restriction of an ambient section to the conic's plane, as a
    polynomial in the plane coordinates [x:z:y] over the conic's field."""
    L = conic.field
    ring3 = conic.plane_coordinate_ring()
    src = section.ring.field
    embed = _embedder(src, L)
    nv = md.ambient + 1
    terms = {}
    for mon, c in section.terms.items():
        a = mon[0]
        zdeg = sum(mon[1:nv - 1])
        y = mon[nv - 1]
        v = embed(c)
        for j, e in enumerate(mon[1:nv - 1]):
            if e:
                aval = conic.a_point[j]
                for _ in range(e):
                    v = L.mul(v, aval)
        key = (a, zdeg, y)
        prev = terms.get(key, L.zero)
        s = L.add(prev, v)
        if s == L.zero:
            terms.pop(key, None)
        else:
            terms[key] = s
    return ring3.from_dict(terms)
