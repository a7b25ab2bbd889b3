"""Acceptance suite: one test per criterion, exact expectations, stated
time budgets.  Run with ``pytest -v -s tests/test_acceptance.py`` to see
one line per criterion."""

import json
import math
import time

import pytest

from coniccount import cli
from coniccount.fields import PrimeField
from coniccount.conic_system import (dimension_from_degrees, random_ci,
                                     predicted_profile)
from coniccount.counting import (count_conics, expected_count, solve_and_verify,
                                 expected_dimension_hypersurface,
                                 obstruction_rank, boundary_family_dimension)
from coniccount.splitting import (splitting_type, conic_to_map,
                                  find_line_through_point, is_quasi_line,
                                  euler_jacobian_complex, hypercohomology_dims)
from coniccount.characters import vanishing_grid, rank_q, VanishingGrid
from coniccount.quantum import (structure_constants_d1, structure_constants_d2,
                                conic_count_closed_form,
                                conic_count_via_structure_constants)

PRIMES = (10007, 31013, 65537)
SEEDS = (0, 1, 2)


def _report(num, budget, started, detail):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {num} blew its {budget}s budget"
    print(f"[criterion {num:2d}] PASS ({elapsed:6.1f}s / {budget}s) {detail}")


def test_criterion_01_cubic_threefold_count():
    t0 = time.time()
    rep = count_conics((3,), primes=PRIMES, seeds=SEEDS)
    assert rep.count == 6
    assert rep.consistent and len(rep.trials) == 9
    for t in rep.trials:
        assert t.certificates == {"quotient_dim_equals_bezout": True,
                                  "eliminant_squarefree": True}
    assert sorted(rep.degree_profile) == [2, 3]
    _report(1, 60, t0, "count --degrees 3 -> 6, certificates true, 3x3 trials")


def test_criterion_02_two_quadrics_count():
    t0 = time.time()
    rep = count_conics((2, 2), primes=PRIMES, seeds=SEEDS)
    assert rep.count == 2 == expected_count((2, 2))
    assert sorted(rep.degree_profile) == [1, 1, 2]
    _report(2, 10, t0, "count --degrees 2,2 -> 2, system is 2 linear + 1 quadric")


def test_criterion_03_quadric_cubic_count():
    t0 = time.time()
    rep = count_conics((2, 3), primes=PRIMES, seeds=SEEDS)
    assert rep.count == 12
    assert rep.method == "groebner"
    assert rep.consistent
    assert sorted(rep.degree_profile) == sorted([3, 2, 1, 1, 2])
    _report(3, 2, t0, "count --degrees 2,3 -> 12 via Groebner, unanimous")


def test_criterion_04_quartic_fourfold_count():
    t0 = time.time()
    rep = count_conics((4,), primes=PRIMES, seeds=SEEDS)
    assert rep.count == 72 == math.factorial(3) * math.factorial(4) // 2
    assert sorted(rep.degree_profile) == sorted([3, 4, 2, 3])
    assert rep.bezout == 72
    for t in rep.trials:
        assert t.certificates["quotient_dim_equals_bezout"]
        assert t.certificates["eliminant_squarefree"]
    _report(4, 3, t0, "count --degrees 4 -> 72, quotient = Bezout = 72")


def test_criterion_05_bezout_equals_formula():
    t0 = time.time()
    checked = 0

    def rec(prefix, remaining):
        nonlocal checked
        if prefix:
            md = dimension_from_degrees(tuple(prefix))
            prod = 1
            for e in predicted_profile(md):
                prod *= e
            assert prod == expected_count(tuple(prefix)), prefix
            checked += 1
        for d in range(2, remaining + 1):
            rec(prefix + [d], remaining - d)

    rec([], 12)
    assert checked > 200
    _report(5, 1, t0, f"profile product == formula for {checked} multidegrees")


def test_criterion_06_tangency_variant():
    t0 = time.time()
    rep = count_conics((3,), variant="tangent", primes=PRIMES, seeds=SEEDS)
    secant = count_conics((3,), primes=PRIMES, seeds=SEEDS)
    assert rep.count == 6 == secant.count
    _report(6, 60, t0, "tangent count equals secant count equals 6")


def test_criterion_07_conic_certification():
    t0 = time.time()
    for degrees, expected in [((3,), 6), ((2, 2), 2)]:
        for prime, seed in [(10007, 0), (31013, 1)]:
            ci, results, record = solve_and_verify(degrees, prime=prime, seed=seed)
            assert all(verified for _, verified, _ in results)
            verified_count = sum(k for _, verified, k in results if verified)
            assert verified_count == expected == record.count
    _report(7, 20, t0, "every reconstructed conic divides the restrictions")


def test_criterion_08_quasi_line_splittings():
    t0 = time.time()
    # conics on the cubic threefold and on the (2,2) intersection
    for degrees in [(3,), (2, 2)]:
        md = dimension_from_degrees(degrees)
        ci, results, _ = solve_and_verify(degrees, prime=10007, seed=0)
        assert results
        for conic, verified, orbit in results:
            curve = conic_to_map(conic, md)
            st = splitting_type(ci, curve)
            assert st == (2, 1, 1) and is_quasi_line(st)
    # a line through the marked point of the cubic threefold
    md3 = dimension_from_degrees((3,))
    ci3 = random_ci(md3, PrimeField(10007), 0)
    line = find_line_through_point(ci3)
    st_line = splitting_type(ci3, line)
    assert st_line == (2, 0, 0)
    # Riemann-Roch at every twist in a window, checked explicitly
    cx = euler_jacobian_complex(ci3, line)
    deg, rank = cx.euler_characteristic_degree, cx.rank
    for m in range(-5, 2):
        h0, h1 = hypercohomology_dims(cx, m)
        assert h0 - h1 == deg + rank * (m + 1)
    _report(8, 20, t0, "conics split (2,1,1), line splits (2,0,0), RR holds")


def test_criterion_09_vanishing_grids():
    t0 = time.time()
    for n, degrees in [(5, (4,)), (5, (3, 2))]:
        r = len(degrees)
        rank = rank_q(n, degrees)
        assert rank == n + 1 + 3 * r
        verdicts, all_vanish = vanishing_grid(n, degrees)
        assert all_vanish
        assert len(verdicts) == sum(j + 1 for j in range(1, rank + 1))
        base = n + r - 2
        for (j, k), v in verdicts.items():
            for f in v.factors:
                b1, b2, b3 = f.triple
                assert f.satisfies_star_star
                assert f.hits_bott_case is None
                if k == base:
                    # cases 1-3 are excluded: k - r = n - 2 > 2 >= b2+b3 shapes
                    assert b2 + b3 >= n - 2 > 2
                if k == 2 * base:
                    assert b3 >= 3 * (n - 3) // 2 > 2
            # case 5 cannot occur below the rank cap
            assert 3 * base > rank >= k
        ineqs = VanishingGrid(n, degrees).exclusion_inequalities()
        assert all(entry["holds"] for entry in ineqs.values())
    _report(9, 60, t0, "all (j,k) vanish for (5,(4)) and (5,(3,2))")


def test_criterion_10_quantum_identity():
    t0 = time.time()
    assert structure_constants_d1(3).as_integers() == [6, 15, 6]
    assert structure_constants_d2(3).as_integers() == [198, 108]
    assert conic_count_closed_form(3) == 27
    for n in range(3, 11):
        assert conic_count_via_structure_constants(n) == conic_count_closed_form(n)
    _report(10, 1, t0, "bracket route equals (2n)!/2^(n+1) - (n!)^2/2, n=3..10")


def test_criterion_11_dimension_formula():
    t0 = time.time()
    assert expected_dimension_hypersurface(7, 8) == (6, True)
    assert expected_dimension_hypersurface(7, 4) == (14, True)
    for n, d in [(7, 2), (9, 6), (11, 12), (13, 5)]:
        dim, _ = expected_dimension_hypersurface(n, d)
        assert dim == 3 * n - 2 * d + 1
    for degrees in [(3,), (2, 2), (4,), (2, 3), (2, 2, 2), (5,), (3, 3)]:
        md = dimension_from_degrees(degrees)
        assert obstruction_rank(md) == md.n + 1 + 3 * md.r
        assert boundary_family_dimension(md) == 2 * md.n - 2
    _report(11, 1, t0, "3n-2d+1 and the boundary family dimension 2n-2")


def test_criterion_12_every_quartic_conic_splits():
    t0 = time.time()
    md = dimension_from_degrees((4,))
    ci, results, record = solve_and_verify((4,), prime=10007, seed=0)
    assert sorted(k for _, _, k in results) == [3, 9, 14, 14, 32]
    assert sum(k for _, _, k in results) == record.count == 72
    for conic, verified, orbit in results:
        assert verified
        assert splitting_type(ci, conic_to_map(conic, md)) == (2, 1, 1, 1, 1)
    _report(12, 4, t0, "(4,) seed 0: all 72 conics verify and split (2,1,1,1,1)")


def test_criterion_13_splitting_covers_every_conic(tmp_path, capsys):
    t0 = time.time()
    out = tmp_path / "split.json"
    for prime in PRIMES:
        for seed in range(10):
            with pytest.raises(SystemExit) as info:
                cli.main(["splitting", "--degrees", "2,3", "--primes", str(prime),
                          "--seeds", str(seed), "--out", str(out)])
            assert info.value.code == 0, capsys.readouterr().out
            data = json.loads(out.read_text())
            assert "covered" not in data
            assert sum(e["orbit_degree"] for e in data["entries"]) == 12
    capsys.readouterr()
    _report(13, 10, t0, "splitting --degrees 2,3 covers 12 of 12, 3 primes x 10 seeds")


@pytest.mark.slow
def test_criterion_14_quadric_quadric_quartic_count():
    # 10-12 s on two shared cores
    t0 = time.time()
    rep = count_conics((2, 2, 4), primes=PRIMES, seeds=SEEDS)
    assert rep.count == 288 == rep.bezout == expected_count((2, 2, 4))
    assert rep.consistent and rep.matches_expected and len(rep.trials) == 9
    for t in rep.trials:
        assert t.method == "groebner"
        assert t.certificates == {"quotient_dim_equals_bezout": True,
                                  "eliminant_squarefree": True}
    _report(14, 45, t0, "count --degrees 2,2,4 -> 288, quotient = Bezout, 3x3 trials")


@pytest.mark.slow
def test_criterion_15_cubic_quartic_count():
    # about 15 s on two shared cores
    t0 = time.time()
    rep = count_conics((3, 4), primes=(10007,), seeds=(0,))
    assert rep.count == 864 == rep.bezout == expected_count((3, 4))
    assert rep.matches_expected
    ((trial,),) = [rep.trials]
    assert trial.certificates == {"quotient_dim_equals_bezout": True,
                                  "eliminant_squarefree": True}
    _report(15, 60, t0, "count --degrees 3,4 -> 864, one certified trial")
