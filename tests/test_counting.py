import hashlib
import json
import math
import time

import pytest

from coniccount.conic_system import (dimension_from_degrees,
                                     predicted_profile, Conic)
from coniccount.counting import (expected_count, count_conics,
                                 expected_dimension_hypersurface, obstruction_rank,
                                 boundary_family_dimension, run_trial,
                                 solve_and_verify, verify_conic)
from coniccount.fields import field_to_json


def test_expected_count_values():
    assert expected_count((3,)) == 6
    assert expected_count((2, 2)) == 2
    assert expected_count((2,)) == 1
    assert expected_count((2, 3)) == 12
    assert expected_count((4,)) == 72


def _all_multidegrees(cap):
    out = []

    def rec(prefix, remaining):
        if prefix:
            out.append(tuple(prefix))
        for d in range(2, remaining + 1):
            rec(prefix + [d], remaining - d)

    rec([], cap)
    return out


def test_bezout_profile_identity_up_to_twelve():
    # the degree profile of the derived system multiplies out to the
    # closed formula, for every multidegree with sum at most 12
    mds = _all_multidegrees(12)
    assert len(mds) > 200
    for degrees in mds:
        md = dimension_from_degrees(degrees)
        profile = predicted_profile(md)
        prod = 1
        for e in profile:
            prod *= e
        assert prod == expected_count(degrees), degrees
        # per-section identity: each universal block contributes
        # d!(d-1)!/2 and each extra section a factor 2 through the
        # compatibility quadric
        per = 1
        for d in degrees:
            per *= math.factorial(d) * math.factorial(d - 1) // 2
        assert prod == per * 2 ** (md.r - 1)


def test_run_trial_profiles():
    md = dimension_from_degrees((3,))
    _, _, ds, solver, record = run_trial(md, "secant", 10007, 0)
    assert record.bezout == 6
    assert sorted(record.degree_profile) == [2, 3]
    assert record.method == "resultant"
    md = dimension_from_degrees((2, 2))
    _, _, ds, solver, record = run_trial(md, "secant", 10007, 0)
    assert record.method == "binary"
    assert record.bezout == 2


def test_count_small_cases():
    rep = count_conics((3,), primes=(10007,), seeds=(0, 1))
    assert rep.count == 6 and rep.matches_expected
    rep = count_conics((2, 2), primes=(10007, 31013), seeds=(0,))
    assert rep.count == 2 and rep.matches_expected
    rep = count_conics((2,), primes=(10007,), seeds=(0,))
    assert rep.count == 1 and rep.matches_expected


def test_count_tangent_variant():
    rep = count_conics((3,), variant="tangent", primes=(10007,), seeds=(0,))
    assert rep.count == 6
    rep = count_conics((2, 2), variant="tangent", primes=(10007,), seeds=(0,))
    assert rep.count == 2


def test_min_prime_enforced():
    md = dimension_from_degrees((3,))
    with pytest.raises(ValueError):
        run_trial(md, "secant", 101, 0)


def test_method_forcing():
    md = dimension_from_degrees((3,))
    _, _, _, solver, record = run_trial(md, "secant", 10007, 0, method="groebner")
    assert record.method == "groebner" and record.count == 6
    md22 = dimension_from_degrees((2, 3))
    with pytest.raises(ValueError):
        run_trial(md22, "secant", 10007, 0, method="resultant")


def test_unknown_method_refused():
    md = dimension_from_degrees((3,))
    # "resultant" is the route auto picks here, but not a method
    for method in ("resultant", "foo"):
        with pytest.raises(ValueError, match="unknown method"):
            run_trial(md, "secant", 10007, 0, method=method)


def test_resultant_roots_back_substitute():
    md = dimension_from_degrees((3,))
    _, _, ds, solver, record = run_trial(md, "secant", 10007, 0)
    pts = solver.points()
    assert sum(k for _, _, k in pts) == 6
    for point, L, k in pts:
        for eq in ds.equations:
            eqL = eq.map_coefficients(
                L.from_base if L != ds.ring.field else (lambda c: c), L)
            assert eqL.evaluate(list(point)) == L.zero


def test_groebner_backend_counts():
    rep = count_conics((2, 3), primes=(10007,), seeds=(0,))
    assert rep.count == 12 and rep.matches_expected
    assert rep.method == "groebner"
    assert sorted(rep.degree_profile) == [1, 1, 2, 2, 3]


@pytest.mark.parametrize("degrees, prime, count", [
    ((2, 3), 2 ** 31 - 1, 12),
    ((2, 2, 3), 2 ** 61 - 1, 24),
])
def test_count_over_primes_too_large_for_int64(degrees, prime, count):
    # n * p^2 overflows int64 at these primes, so the pure-Python code
    # counts and certifies
    rep = count_conics(degrees, primes=(prime,))
    assert rep.count == count and rep.matches_expected
    assert all(all(t.certificates.values()) for t in rep.trials)


def test_verify_conics_and_orbit_degrees():
    for degrees, total in [((3,), 6), ((2, 2), 2), ((2,), 1)]:
        ci, results, record = solve_and_verify(degrees, prime=10007, seed=0)
        assert all(ok for _, ok, _ in results)
        assert sum(k for _, ok, k in results) == total


# sha256 of the JSON list of [orbit_degree, field_to_json, a_point,
# verified] over the orbits of degree at most 12 that solve_and_verify
# returned when points came from eigenvectors over GF(p^k)
PINNED_ORBITS = [
    (((2, 3), 10007, 0), "9f99076e98c791ef41bf5108844599c0817c2b11e2a37b8eb08662bab5211b84"),
    (((2, 3), 10007, 1), "8020e8ef9511662e9b0fa45815b4a59b33cb3446e11f26ec424be587abb542eb"),
    (((2, 3), 31013, 0), "776dc482b3c72bb0b1714df5f171c6727c9dc96a8303f263a9fb997726351569"),
    (((2, 3), 31013, 1), "11ce81dac3732b6c035b3afb4224fc3e14f42544f004b173c07a6c73045de7ed"),
    (((2, 2, 3), 10007, 0), "2e9215a75c34663fa32f7ce1a708dfd13a670246ac45bccb06cff7fe7c510ac0"),
    (((2, 2, 3), 10007, 1), "c31758d366b29f49cfc6296bf2d76b731ca46d9acc657083842b2d7213a747bc"),
    (((2, 2, 3), 31013, 0), "d15ab6f873f7c2aa6b7e75c6e3374c85126f793f6283667a091e87e8b61e3a2e"),
    (((2, 2, 3), 31013, 1), "b8650cffe7db358c6ba671ce9a9037982db96ec064bfe3d4cbf733c065f04c2c"),
    (((4,), 10007, 0), "e4cc4e414819bf782a6ea3b1c601ddb2a28e09d97a99d21c5e1b8c840887d516"),
]


@pytest.mark.parametrize("instance, digest", PINNED_ORBITS)
def test_orbit_points_match_pinned_digests(instance, digest):
    degrees, prime, seed = instance
    _, results, _ = solve_and_verify(degrees, prime=prime, seed=seed)
    rows = [[k, field_to_json(c.field),
             [c.field.element_to_json(x) for x in c.a_point], ok]
            for c, ok, k in results if k <= 12]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


def test_every_orbit_of_the_quartic_verifies():
    started = time.perf_counter()
    _, results, record = solve_and_verify((4,), prime=10007, seed=0)
    assert sorted(k for _, _, k in results) == [3, 9, 14, 14, 32]
    assert sum(k for _, _, k in results) == record.count == 72
    assert all(ok for _, ok, _ in results)
    assert time.perf_counter() - started < 20


def test_perturbed_conic_fails_verification():
    ci, results, record = solve_and_verify((3,), prime=10007, seed=0)
    conic, ok, k = results[0]
    assert ok
    F = conic.field
    bad = Conic(conic.variant, F, conic.a_point,
                F.add(conic.s2, F.one), conic.s1, conic.s1p)
    assert not verify_conic(ci, bad)


def test_consistency_across_primes_and_seeds():
    rep = count_conics((3,), primes=(10007, 31013, 65537), seeds=(0, 1, 2))
    assert rep.consistent
    assert {t.count for t in rep.trials} == {6}
    assert len(rep.trials) == 9


def test_count_three_sections():
    rep = count_conics((2, 2, 2), primes=(10007,), seeds=(0,))
    assert rep.count == 4 and rep.matches_expected
    assert rep.method == "resultant"
    rep = count_conics((2, 2, 3), primes=(10007,), seeds=(0,))
    assert rep.count == 24 and rep.matches_expected


@pytest.mark.slow
def test_count_two_cubics():
    rep = count_conics((3, 3), primes=(10007,), seeds=(0,))
    assert rep.count == 72 and rep.matches_expected


def test_inconsistent_counts_surfaced_as_data(monkeypatch):
    import coniccount.counting as counting

    real = counting.run_trial
    calls = {"n": 0}

    def flaky(md, variant, prime, seed, method="auto"):
        ci, ansatze, ds, solver, record = real(md, variant, prime, seed, method)
        calls["n"] += 1
        if calls["n"] == 2:
            record.count += 1
        return ci, ansatze, ds, solver, record

    monkeypatch.setattr(counting, "run_trial", flaky)
    with pytest.raises(counting.InconsistentCounts) as exc:
        counting.count_conics((3,), primes=(10007,), seeds=(0, 1))
    report = exc.value.report
    assert not report.consistent
    assert {t.count for t in report.trials} == {6, 7}


def test_report_json_shape():
    rep = count_conics((2, 2), primes=(10007,), seeds=(0,))
    data = rep.to_json()
    assert data["matches_expected"] is True
    assert data["field_note"]
    assert len(data["trials"]) == 1
    assert data["trials"][0]["certificates"]["eliminant_squarefree"] is True


def test_expected_dimension_hypersurface():
    dim, within = expected_dimension_hypersurface(7, 8)
    assert dim == 6 and within
    dim, within = expected_dimension_hypersurface(7, 4)
    assert dim == 14 and within
    dim, within = expected_dimension_hypersurface(5, 7)
    assert not within


def test_boundary_family_dimension():
    # boundary multidegrees: dim of the conic family is 2n-2 and the
    # obstruction rank is n+1+3r
    for degrees in [(3,), (2, 2), (4,), (2, 3), (2, 2, 2), (5,), (7,)]:
        md = dimension_from_degrees(degrees)
        assert obstruction_rank(md) == md.n + 1 + 3 * md.r
        assert boundary_family_dimension(md) == 2 * md.n - 2
