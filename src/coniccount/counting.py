"""Counting and certifying the solutions of the derived system.

The count must come out equal to the closed formula

    (1/2) * prod_i (d_i - 1)! * d_i!

which is also the Bezout number of the derived system.  Counting runs
over large prime fields: a random instance over GF(p) behaves like a
general complex one with overwhelming probability, and unanimity of the
count across several primes and seeds is the working genericity proxy.
This substitution is recorded in every CountReport.

Backends, chosen by the shape of the system after the linear
compatibility equations are substituted away:

* one binary form          -> distinct projective roots directly,
* two equations in P^2     -> Sylvester eliminant, then distinct roots,
* anything bigger          -> Groebner basis over GF(p) on a random affine
                              chart; the count is the number of standard
                              monomials, certified against the Bezout
                              number and by squarefreeness of the
                              eliminant of a random linear form.
"""

import math
import random
from dataclasses import dataclass, field as dc_field

from .fields import PrimeField
from .multipoly import PolyRing, linear_images
from .unipoly import BinaryForm, squarefree_root_count, roots_in_field
from .groebner import (groebner_basis, quotient_count, eliminant_of_linear_form,
                       solve_zero_dimensional, QuotientAlgebra, INFINITE,
                       PositiveDimensional)
from .resultant import sylvester_resultant
from .conic_system import (DegenerateInstance, dimension_from_degrees,
                           random_ci, restrict_to_plane_family, cascade_solve,
                           reconstruct_conic, restrict_section_to_plane,
                           _embedder)
from . import linalg

DEFAULT_PRIMES = (10007, 31013, 65537)
DEFAULT_SEEDS = (0, 1, 2)
MIN_PRIME = 10007
RETRY_LIMIT = 8     # instances per seed, and seeds per trial, before giving up

FIELD_NOTE = ("counted over large prime fields; unanimity across primes and "
              "seeds stands in for genericity over the complex numbers")


class InconsistentCounts(RuntimeError):
    """Trials disagreed; carries the full report for inspection."""

    def __init__(self, report):
        super().__init__("counts or certificates differ across trials")
        self.report = report


def expected_count(degrees):
    """The closed-form number of conics through two general points."""
    md = dimension_from_degrees(degrees)
    prod = 1
    for d in md.degrees:
        prod *= math.factorial(d - 1) * math.factorial(d)
    # d_i >= 2 makes the product even
    return prod // 2


def bezout_number(ds):
    """Product of the degrees of the derived system's equations."""
    out = 1
    for d in ds.degrees:
        out *= d
    return out


def expected_dimension_hypersurface(n, d):
    """Dimension of the conic family on a degree-d hypersurface of
    dimension n: conic Hilbert scheme of the ambient space minus the rank
    of the obstruction bundle, 3(n-1) + 5 - (2d+1) = 3n - 2d + 1.

    The stated hypothesis is n >= 7 and d <= n+1; the formula is computed
    for any inputs and flagged when outside that range."""
    dim = 3 * (n - 1) + 5 - (2 * d + 1)
    within = n >= 7 and d <= n + 1
    return dim, within


def obstruction_rank(md):
    """Rank of the bundle cutting out conics inside the Hilbert scheme of
    conics of the ambient space: sum of rk S^d E - rk S^(d-2) E."""
    return sum((d + 1) * (d + 2) // 2 - d * (d - 1) // 2 for d in md.degrees)


def boundary_family_dimension(md):
    """Dimension of the conic family for a boundary-case multidegree,
    computed the same way: dim P(S^2 E*) - rk of the obstruction bundle."""
    ambient = md.ambient
    return 3 * (ambient - 2) + 5 - obstruction_rank(md)


# ---------------------------------------------------------------------------
# solving the derived system


class _LinearReduction:
    """Substitute away the linear equations of a homogeneous system."""

    def __init__(self, ds):
        ring = ds.ring
        F = ring.field
        nv = ring.nvars
        linear, nonlinear = [], []
        for eq in ds.equations:
            (linear if eq.degree() == 1 else nonlinear).append(eq)
        rows = []
        for eq in linear:
            row = [F.zero] * nv
            for mon, c in eq.terms.items():
                row[mon.index(1)] = c
            rows.append(row)
        if rows:
            rref_rows, pivots = linalg.rref(F, rows)
            if len(pivots) != len(rows):
                raise DegenerateInstance("linear compatibility equations are dependent")
        else:
            rref_rows, pivots = [], []
        self.field = F
        self.free = [v for v in range(nv) if v not in pivots]
        names = tuple(ring.names[v] for v in self.free)
        self.ring = PolyRing(F, len(self.free), names)
        # every variable as a linear form in the free ones
        mat = []
        for v in range(nv):
            if v in pivots:
                row = rref_rows[pivots.index(v)]
                mat.append([F.neg(row[w]) for w in self.free])
            else:
                mat.append([F.one if w == v else F.zero for w in self.free])
        self.images = linear_images(self.ring, mat)
        self.equations = [eq.linear_substitute(self.ring, mat) for eq in nonlinear]
        self.expected_degrees = [eq.degree() for eq in nonlinear]


def _evaluate_forms(forms, point, L):
    """The values at a point over L of polynomials over a subfield of L."""
    embed = _embedder(forms[0].ring.field, L)
    return tuple(f.map_coefficients(embed, L).evaluate(list(point)) for f in forms)


class DerivedSolver:
    """Counts and optionally solves one derived system instance."""

    def __init__(self, ds, rng, method="auto"):
        if method not in ("auto", "groebner"):
            raise ValueError(f"unknown method {method!r}: auto or groebner")
        self.rng = rng
        self.reduction = _LinearReduction(ds)
        self.bezout = bezout_number(ds)
        red = self.reduction
        if any(d0 != d1 for d0, d1 in
               zip(self.reduction.expected_degrees,
                   [eq.degree() for eq in red.equations])):
            raise DegenerateInstance("degree dropped under linear substitution")
        nfree = len(red.free)
        neq = len(red.equations)
        if neq != nfree - 1:
            raise DegenerateInstance("reduced system is not square")
        if nfree == 1:
            route = "trivial"
        elif nfree == 2:
            route = "binary"
        elif nfree == 3 and neq == 2:
            route = "resultant"
        else:
            route = "groebner"
        if method == "groebner" and route in ("binary", "resultant"):
            route = "groebner"
        self.route = route
        self._counted = None
        self._groebner_state = None

    # -- counting ---------------------------------------------------------

    def count_and_certify(self):
        """(count, certificates) with certificates =
        {quotient_dim_equals_bezout, eliminant_squarefree}.

        Raises DegenerateInstance when the derived scheme has the Bezout
        length but is non-reduced, so that ``run_trial`` resamples."""
        if self._counted is not None:
            return self._counted
        count, certs = getattr(self, f"_count_{self.route}")()
        if certs["quotient_dim_equals_bezout"] and not certs["eliminant_squarefree"]:
            count, certs = self._separate_points(count, certs)
        self._counted = count, certs
        return self._counted

    def _separate_points(self, count, certs):
        """Recount a quotient of the Bezout dimension whose eliminant has a
        repeated root.  Either the eliminated direction does not separate
        the points, or the scheme is non-reduced and the instance is not
        general.  Fresh random linear forms on the quotient algebra tell
        these apart: one more on the Groebner route, two on an algebra built
        for the resultant route, which then counts and solves through it.
        A binary form with a repeated root is non-reduced as it stands."""
        tries = 1
        if self.route == "resultant":
            if self._quotient_algebra() != self.bezout:
                return count, certs
            self.route = "groebner"
            tries = 2
        elif self.route == "binary":
            tries = 0
        for _ in range(tries):
            elim = self._eliminant()
            distinct = squarefree_root_count(elim)
            if distinct == elim.degree:
                return distinct, {
                    "quotient_dim_equals_bezout": True,
                    "eliminant_squarefree": True,
                }
        raise DegenerateInstance(
            f"derived scheme is non-reduced: length {self.bezout} but {count} "
            f"distinct points" + (f"; fresh linear forms tried: {tries}" if tries else ""))

    def _count_trivial(self):
        ok = all(not eq for eq in self.reduction.equations)
        count = 1 if ok else 0
        return count, {"quotient_dim_equals_bezout": ok,
                       "eliminant_squarefree": ok}

    def _count_binary(self):
        (f,) = self.reduction.equations
        distinct, squarefree = BinaryForm.from_multipoly(f).distinct_roots()
        return distinct, {
            "quotient_dim_equals_bezout": f.degree() == self.bezout,
            "eliminant_squarefree": squarefree,
        }

    def _resultant_eliminant(self):
        f, g = self.reduction.equations
        ring = self.reduction.ring
        F = ring.field
        # eliminate a variable in which both leading coefficients are
        # constants, so no solutions can hide over the eliminated direction
        for var in (1, 0, 2):
            top_f = tuple(f.degree() if i == var else 0 for i in range(3))
            top_g = tuple(g.degree() if i == var else 0 for i in range(3))
            if f.coefficient(top_f) != F.zero and g.coefficient(top_g) != F.zero:
                res = sylvester_resultant(f, g, var)
                if res:
                    return res, var
        raise DegenerateInstance("no variable is proper for elimination")

    def _count_resultant(self):
        res, _ = self._resultant_eliminant()
        distinct, squarefree = BinaryForm.from_multipoly(res).distinct_roots()
        return distinct, {
            "quotient_dim_equals_bezout": res.degree() == self.bezout,
            "eliminant_squarefree": squarefree,
        }

    def _affine_chart(self):
        """A random affine chart: (the equations on it, each free variable
        as an affine form in the chart variables, the chart ring)."""
        red = self.reduction
        F = red.field
        m = len(red.free)
        while True:
            mat = [[F.random_element(self.rng) for _ in range(m)] for _ in range(m)]
            if linalg.rank(F, mat) == m:
                break
        chart_ring = PolyRing(F, m - 1, tuple(f"w{i}" for i in range(m - 1)))
        affine = [eq.linear_substitute(chart_ring, mat, affine=True)
                  for eq in red.equations]
        return affine, linear_images(chart_ring, mat, affine=True), chart_ring

    def _quotient_algebra(self):
        """Build the quotient algebra on a random affine chart and keep it
        for point extraction; returns its dimension."""
        affine, chart, _ = self._affine_chart()
        basis = groebner_basis(affine)
        qc = quotient_count(basis)
        if qc == INFINITE:
            raise PositiveDimensional("derived system is not zero dimensional")
        self._groebner_state = (QuotientAlgebra(basis), chart)
        return qc

    def _eliminant(self):
        """Eliminant of a fresh random linear form on the quotient algebra."""
        algebra, _ = self._groebner_state
        F = algebra.field
        lam = [F.random_element(self.rng) for _ in algebra.mats]
        return eliminant_of_linear_form(algebra, lam)

    def _count_groebner(self):
        qc = self._quotient_algebra()
        elim = self._eliminant()
        distinct = squarefree_root_count(elim)
        return distinct, {
            "quotient_dim_equals_bezout": qc == self.bezout,
            "eliminant_squarefree": distinct == elim.degree,
        }

    # -- point extraction --------------------------------------------------

    def points(self):
        """Solutions as full projective a-points.

        Returns (point, field, orbit_degree) triples: extension-field
        solutions are reported once per Galois orbit, with the orbit size
        as degree, and every orbit is reported, so the degrees sum to the
        count."""
        handler = getattr(self, f"_points_{self.route}")
        # every a-variable is a linear form in the free ones
        return [(_evaluate_forms(self.reduction.images, free_pt, L), L, k)
                for free_pt, L, k in handler()]

    def _points_trivial(self):
        F = self.reduction.field
        if any(self.reduction.equations):
            return []
        return [((F.one,), F, 1)]

    def _binary_points(self, form):
        """One root (x0, x1) per irreducible factor of a binary form in
        t = x0/x1."""
        pts = []
        for factor in BinaryForm.from_multipoly(form).factors(self.rng):
            (u, v), L = factor.root()
            pts.append(((v, u), L, factor.degree))
        return pts

    def _points_binary(self):
        (f,) = self.reduction.equations
        return self._binary_points(f)

    def _points_resultant(self):
        res, var = self._resultant_eliminant()
        pts = []
        for (a, b), L, k in self._binary_points(res):
            # the fiber over [a:b] is cut out by the binary forms in
            # (x_var, s) obtained by putting a*s and b*s for the other two
            # variables; its points are the roots of their gcd at s = 1
            line = PolyRing(L, 2)
            images = [line.gen(1).scale(a), line.gen(1).scale(b)]
            images.insert(var, line.gen(0))
            embed = _embedder(self.reduction.field, L)
            fu, gu = (BinaryForm.from_multipoly(
                eq.map_coefficients(embed, L).substitute(line, images)).poly
                for eq in self.reduction.equations)
            h = fu.gcd(gu)
            if h.degree < 1:
                raise DegenerateInstance("eliminant root without a fiber point")
            for w in roots_in_field(h, self.rng):
                point = [a, b]
                point.insert(var, w)
                pts.append((tuple(point), L, k))
        return pts

    def _points_groebner(self):
        if self._groebner_state is None:
            self.count_and_certify()
        algebra, chart = self._groebner_state
        raw, _ = solve_zero_dimensional(algebra, self.rng)
        return [(_evaluate_forms(chart, coords, L), L, k) for coords, L, k in raw]


# ---------------------------------------------------------------------------
# the end-to-end counting pipeline


@dataclass
class TrialRecord:
    prime: int
    seed: int
    attempts: int
    method: str
    count: int
    bezout: int
    degree_profile: list
    certificates: dict

    def to_json(self):
        return {
            "prime": self.prime,
            "seed": self.seed,
            "attempts": self.attempts,
            "method": self.method,
            "count": self.count,
            "bezout": self.bezout,
            "degree_profile": list(self.degree_profile),
            "certificates": dict(self.certificates),
        }


@dataclass
class CountReport:
    degrees: tuple
    variant: str
    expected: int
    bezout: int
    count: int
    method: str
    certificates: dict
    degree_profile: list
    primes: tuple
    seeds: tuple
    trials: list = dc_field(default_factory=list)
    consistent: bool = True
    field_note: str = FIELD_NOTE

    @property
    def matches_expected(self):
        return (self.consistent and self.count == self.expected
                and all(self.certificates.values()))

    def to_json(self):
        return {
            "degrees": list(self.degrees),
            "variant": self.variant,
            "expected": self.expected,
            "bezout": self.bezout,
            "count": self.count,
            "method": self.method,
            "certificates": dict(self.certificates),
            "degree_profile": list(self.degree_profile),
            "primes": list(self.primes),
            "seeds": list(self.seeds),
            "trials": [t.to_json() for t in self.trials],
            "consistent": self.consistent,
            "matches_expected": self.matches_expected,
            "field_note": self.field_note,
        }


def prepare_instance(md, field, seed, variant):
    """Sample instances until the cascade goes through; returns
    (ci, ansatz list, residual list, derived system, attempts)."""
    last = None
    for attempt in range(RETRY_LIMIT):
        ci = random_ci(md, field, f"{seed}.{attempt}" if attempt else seed, variant)
        pr = restrict_to_plane_family(ci)
        try:
            ansatze, residuals, ds = cascade_solve(pr, variant)
            return ci, ansatze, residuals, ds, attempt + 1
        except DegenerateInstance as exc:
            last = exc
    raise DegenerateInstance(
        f"retry limit {RETRY_LIMIT} exhausted for {md} over {field!r}: {last}")


def checked_prime_field(prime):
    """GF(prime), refusing primes below MIN_PRIME."""
    if prime < MIN_PRIME:
        raise ValueError(f"prime {prime} below the configured minimum {MIN_PRIME}")
    return PrimeField(prime)


def run_trial(md, variant, prime, seed, method="auto"):
    """One (prime, seed) counting trial; resamples on degeneracy."""
    field = checked_prime_field(prime)
    last = None
    for attempt in range(RETRY_LIMIT):
        try:
            ci, ansatze, residuals, ds, used = prepare_instance(
                md, field, seed if attempt == 0 else f"{seed}r{attempt}", variant)
            rng = random.Random(f"trial:{prime}:{seed}:{attempt}:{variant}")
            solver = DerivedSolver(ds, rng, method)
            count, certs = solver.count_and_certify()
            record = TrialRecord(prime, seed, attempt + used, solver.route,
                                 count, solver.bezout, ds.degrees, certs)
            return ci, ansatze, ds, solver, record
        except DegenerateInstance as exc:
            last = exc
    raise DegenerateInstance(
        f"retry limit {RETRY_LIMIT} exhausted for {md} over GF({prime}): {last}")


def count_conics(degrees, variant="secant", primes=DEFAULT_PRIMES,
                 seeds=DEFAULT_SEEDS, method="auto"):
    """Full pipeline over every (prime, seed) pair; unanimity required.

    Returns a CountReport; raises InconsistentCounts (with the report
    attached) when trials disagree on the count or the certificates.
    """
    md = dimension_from_degrees(degrees)
    expected = expected_count(degrees)
    trials = []
    for prime in primes:
        for seed in seeds:
            _, _, _, _, record = run_trial(md, variant, prime, seed, method)
            trials.append(record)
    counts = {t.count for t in trials}
    certsets = {tuple(sorted(t.certificates.items())) for t in trials}
    consistent = len(counts) == 1 and len(certsets) == 1
    first = trials[0]
    report = CountReport(
        degrees=md.degrees, variant=variant, expected=expected,
        bezout=first.bezout,
        count=first.count if consistent else min(counts),
        method=first.method,
        certificates=dict(first.certificates),
        degree_profile=first.degree_profile,
        primes=tuple(primes), seeds=tuple(seeds),
        trials=trials, consistent=consistent)
    if not consistent:
        raise InconsistentCounts(report)
    return report


# ---------------------------------------------------------------------------
# explicit conics and certification


def verify_conic(ci, conic):
    """Exact divisibility check: the restriction of every section to the
    conic's plane must factor through the conic equation."""
    form = conic.form()
    if not form:
        return False
    for section in ci.sections:
        restricted = restrict_section_to_plane(section, ci.md, conic)
        if not form.divides(restricted):
            return False
    return True


def solve_and_verify(degrees, variant="secant", prime=DEFAULT_PRIMES[0],
                     seed=0, method="auto"):
    """Reconstruct the conics of one instance and run verify_conic on each.

    Returns (ci, results, trial_record) where results holds one
    (conic, verified, orbit_degree) triple per Galois orbit of solutions,
    every orbit, so the orbit degrees sum to the count.  The conic of an
    orbit of degree k lies over GF(p^k)."""
    md = dimension_from_degrees(degrees)
    ci, ansatze, ds, solver, record = run_trial(md, variant, prime, seed, method)
    results = []
    for point, L, k in solver.points():
        conic = reconstruct_conic(ansatze[0], point, L)
        results.append((conic, verify_conic(ci, conic), k))
    return ci, results, record
