"""The benchmark's workloads and the checks on their outputs.

A workload is a sequence of rounds.  Round ``k`` draws fresh instance
seeds from the workload seed, so the inputs are a function of the seed
alone and no round repeats the inputs of another (a cache kept across
calls cannot pass for a speed-up).  Every operation is checked against
expectations computed here, independently of the package: the closed
formula for the number of conics, the quasi-line splitting
``(2, 1, ..., 1)``, the rank ``n + 1 + 3r`` of the grid and the closed
form of the quantum count.

The package is reached through module attributes at call time, so the
traced run sees every call the benchmark makes.
"""

import math
import random

PRIMES = (10007, 31013, 65537)  # the command line defaults

LADDER = [((3,), "secant"), ((3,), "tangent"), ((2, 2), "secant"),
          ((2, 2, 2), "secant"), ((2, 3), "secant"), ((2, 2, 3), "secant")]
SPLIT = [(3,), (2, 2), (2, 2, 2), (2, 3)]
GRIDS = [(5, (4,)), (5, (3, 2)), (7, (3, 3)), (7, (5,))]
FORMULAS = (3, 20)
# the instance covers 2 of its 12 conics: orbits above degree 6 are
# dropped; every run keeps it, so the drop shows in conic_coverage
ORBIT_DROP = ((2, 3), 31013, 1)
# an instance whose marked point has a line defined over GF(p), so every
# run checks a line's splitting type at least once
RATIONAL_LINE = ((3,), 10007, 0)

MAX_FAILURES_KEPT = 20


def expected_conics(degrees):
    """(1/2) prod (d_i - 1)! d_i!, the number of conics through two points."""
    return math.prod(math.factorial(d - 1) * math.factorial(d) for d in degrees) // 2


def quantum_closed_form(n):
    """(2n)!/2^(n+1) - (n!)^2/2, conics through a point of X_n in P^n."""
    return math.factorial(2 * n) // 2 ** (n + 1) - math.factorial(n) ** 2 // 2


def quasi_line(n):
    return (2,) + (1,) * (n - 1)


class Tally:
    """Attempted and failed operations, work done and conics accounted for."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.ops = 0
        self.conics_expected = 0
        self.conics_covered = 0
        self.lines_tried = 0
        self.lines_found = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(what)

    def error(self, what, exc):
        """An operation that raised: attempted and failed."""
        self.attempted += 1
        self.fail(f"{what}: {type(exc).__name__}: {exc}")


class Workload:
    name = ""

    def __init__(self, cc, seed):
        self.cc = cc
        self.seed = seed

    def instance_seed(self, k):
        """The instance seed of round k, drawn from the workload seed."""
        return random.Random(f"{self.name}:{self.seed}:round{k}").randrange(10 ** 6)

    def warmup(self, k, tally):
        """A small operation of the workload's kind, run before timing."""
        self._count(tally, (2, 2), "secant", (PRIMES[k % 3],), (k,))

    def round(self, k, tally):
        raise NotImplementedError

    def _count(self, tally, degrees, variant, primes, seeds):
        """count_conics, checked trial by trial; one operation per trial."""
        expected = expected_conics(degrees)
        what = f"count {degrees} {variant} primes={primes} seeds={seeds}"
        try:
            report = self.cc.count_conics(degrees, variant=variant,
                                          primes=primes, seeds=seeds)
        except Exception as exc:  # one failed operation per trial, keep going
            for _ in range(len(primes) * len(seeds)):
                tally.error(what, exc)
                tally.conics_expected += expected
            return
        for t in report.trials:
            ok = (t.count == expected and all(t.certificates.values())
                  and report.consistent)
            tally.conics_expected += expected
            if tally.check(ok, f"{what}: trial p={t.prime} s={t.seed} "
                               f"count={t.count} certs={t.certificates}"):
                tally.ops += 1
                tally.conics_covered += t.count


class CountQuartic(Workload):
    """One certified (4,) trial per round, cycling through the primes."""

    name = "count-quartic"

    def warmup(self, k, tally):
        self._count(tally, (2, 3), "secant", (PRIMES[k % 3],), (k,))

    def round(self, k, tally):
        self._count(tally, (4,), "secant", (PRIMES[k % 3],),
                    (self.instance_seed(k),))


class CountLadder(Workload):
    """Every ladder entry over the three primes with one seed per round."""

    name = "count-ladder"

    def round(self, k, tally):
        seed = self.instance_seed(k)
        for degrees, variant in LADDER:
            self._count(tally, degrees, variant, PRIMES, (seed,))


class ReconstructSplit(Workload):
    """solve_and_verify and the splitting type of every returned conic,
    plus a line through the marked point of the (3,) instance."""

    name = "reconstruct-split"

    def warmup(self, k, tally):
        self._split(tally, (2, 2), PRIMES[k % 3], k)

    def round(self, k, tally):
        if k == 0:
            self._split(tally, *ORBIT_DROP)
            self._line(tally, self._split(tally, *RATIONAL_LINE))
        prime = PRIMES[k % 3]
        seed = self.instance_seed(k)
        for degrees in SPLIT:
            ci = self._split(tally, degrees, prime, seed)
            if degrees == (3,):
                self._line(tally, ci)

    def _split(self, tally, degrees, prime, seed):
        """Reconstruct, verify and split; one operation per Galois orbit,
        weighted by its degree in the work done."""
        cc = self.cc
        expected = expected_conics(degrees)
        md = cc.dimension_from_degrees(degrees)
        what = f"solve_and_verify {degrees} p={prime} s={seed}"
        tally.conics_expected += expected
        try:
            ci, results, record = cc.solve_and_verify(degrees, prime=prime, seed=seed)
        except Exception as exc:  # a failed operation; the round goes on
            tally.error(what, exc)
            return None
        tally.check(record.count == expected, f"{what}: count {record.count}")
        for conic, verified, degree in results:
            if not tally.check(verified, f"{what}: conic not verified"):
                continue
            try:
                st = cc.splitting_type(ci, cc.conic_to_map(conic, md))
            except Exception as exc:  # a failed operation; the round goes on
                tally.error(f"{what}: splitting", exc)
                continue
            if tally.check(tuple(sorted(st, reverse=True)) == quasi_line(md.n),
                           f"{what}: splitting {st}"):
                tally.ops += degree
                tally.conics_covered += degree
        return ci

    def _line(self, tally, ci):
        """Split a line through the marked point, when one is defined over
        GF(p); like an orbit of conics above degree 6, a point whose lines
        are all irrational is a known gap, counted but not a failure."""
        if ci is None:
            return
        cc = self.cc
        what = f"line on (3,) s={ci.seed}"
        tally.lines_tried += 1
        try:
            line = cc.find_line_through_point(ci)
        except cc.DegenerateInstance:
            return
        except Exception as exc:  # a failed operation; the round goes on
            tally.error(what, exc)
            return
        tally.lines_found += 1
        try:
            st = cc.splitting_type(ci, line)
        except Exception as exc:  # a failed operation; the round goes on
            tally.error(what, exc)
            return
        tally.check(tuple(st) == (2, 0, 0), f"{what}: splitting {st}")


class CertifyGrid(Workload):
    """The four vanishing grids and the quantum formula table.

    These inputs have no randomness, so the seed does not change them."""

    name = "certify-grid"

    def warmup(self, k, tally):
        self._grid(tally, 5, (4,))

    def round(self, k, tally):
        for n, degrees in GRIDS:
            self._grid(tally, n, degrees)
        self._formulas(tally, *FORMULAS)

    def _grid(self, tally, n, degrees):
        """One operation per (j, k) verdict."""
        cc = self.cc
        r = len(degrees)
        rank = cc.characters.rank_q(n, degrees)
        what = f"vanishing_grid n={n} {degrees}"
        tally.check(rank == n + 1 + 3 * r, f"{what}: rank_q {rank}")
        try:
            verdicts, all_vanish = cc.vanishing_grid(n, degrees)
        except Exception as exc:  # a failed operation; the round goes on
            tally.error(what, exc)
            return
        pairs = sum(j + 1 for j in range(1, n + 1 + 3 * r + 1))
        if tally.check(all_vanish and len(verdicts) == pairs,
                       f"{what}: all_vanish={all_vanish} pairs={len(verdicts)}"):
            tally.ops += len(verdicts)

    def _formulas(self, tally, n_min, n_max):
        """One operation per row; a row counts its conics both ways."""
        try:
            rows = self.cc.quantum.formulas_table(n_min, n_max)
        except Exception as exc:  # a failed operation; the round goes on
            tally.error(f"formulas_table {n_min}..{n_max}", exc)
            return
        tally.check(len(rows) == n_max - n_min + 1, f"formulas_table rows {len(rows)}")
        for row in rows:
            n = row["n"]
            tally.conics_expected += 1
            if tally.check(row["match"] and row["closed_form"] == quantum_closed_form(n),
                           f"formulas_table n={n}: {row['closed_form']}"):
                tally.ops += 1
                tally.conics_covered += 1


WORKLOADS = {w.name: w for w in (CountQuartic, CountLadder, ReconstructSplit,
                                 CertifyGrid)}


def reference_pass(cc, tally):
    """One fixed small pass through every traced layer, so that each
    per-layer metric is measured in every traced run whatever the
    workload: (3,) conics in GF(p) and GF(p^2) and a line, the (2,2)
    binary route, the (2,3) Groebner route, a grid and a formula table."""
    split = ReconstructSplit(cc, 0)
    split._line(tally, split._split(tally, *RATIONAL_LINE))
    split._split(tally, (2, 2), 10007, 0)
    split._split(tally, *ORBIT_DROP)
    grid = CertifyGrid(cc, 0)
    grid._grid(tally, 5, (4,))
    grid._formulas(tally, 3, 10)
