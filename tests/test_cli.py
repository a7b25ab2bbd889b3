import hashlib
import json
import subprocess
import sys

import pytest

from coniccount.counting import solve_and_verify

BASE = [sys.executable, "-m", "coniccount.cli"]


def run_cli(*args, env_extra=None):
    import os
    env = dict(os.environ)
    env.pop("CONICCOUNT_OUT_DIR", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(BASE + list(args), capture_output=True, text=True,
                          env=env)


def test_count_cubic_exit_zero(tmp_path):
    out = tmp_path / "count.json"
    res = run_cli("count", "--degrees", "3", "--primes", "10007",
                  "--seeds", "0", "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    data = json.loads(out.read_text())
    assert data["count"] == 6 and data["matches_expected"]


def test_count_output_byte_stable(tmp_path):
    args = ("count", "--degrees", "2,2", "--primes", "10007", "--seeds", "0,1")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_splitting_output_byte_stable():
    args = ("splitting", "--degrees", "3", "--curve", "conic",
            "--primes", "10007", "--seeds", "0")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_formulas_range():
    res = run_cli("formulas", "--n", "3..5")
    assert res.returncode == 0
    assert "27" in res.stdout and "972" in res.stdout


def test_vanish_rejects_bad_n():
    res = run_cli("vanish", "--n", "4", "--degrees", "4")
    assert res.returncode == 2


def test_ranges_that_would_run_partially_are_refused():
    # an empty range used to print an empty table, and vanish used to run
    # the first n of a range alone; both exit 0
    res = run_cli("formulas", "--n", "5..3")
    assert res.returncode == 2 and "empty range" in res.stderr
    res = run_cli("vanish", "--n", "5..9", "--degrees", "4")
    assert res.returncode == 2 and "invalid int value" in res.stderr


def test_resultant_is_not_a_method():
    # the resultant route is picked by --method auto when it fits
    res = run_cli("count", "--degrees", "2,2", "--method", "resultant",
                  "--primes", "10007", "--seeds", "0")
    assert res.returncode == 2 and "invalid choice" in res.stderr


def test_vanish_refuses_int64_overflow():
    # at parent commits the wrapped Newton sums failed an exact division
    res = run_cli("vanish", "--n", "13", "--degrees", "8")
    assert res.returncode == 2
    assert "int64 overflow" in res.stderr


def test_splitting_conic(tmp_path):
    out = tmp_path / "split.json"
    res = run_cli("splitting", "--degrees", "2,2", "--curve", "conic",
                  "--primes", "10007", "--seeds", "0", "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    data = json.loads(out.read_text())
    assert all(e["splitting"] == [2, 1, 1] for e in data["entries"])
    assert all(e["quasi_line"] for e in data["entries"])


def test_splitting_line(tmp_path):
    out = tmp_path / "line.json"
    res = run_cli("splitting", "--degrees", "3", "--curve", "line",
                  "--primes", "10007", "--seeds", "0", "--out", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert data["entries"][0]["splitting"] == [2, 0, 0]
    assert data["entries"][0]["quasi_line"] is False


def test_env_var_output_dir(tmp_path):
    res = run_cli("formulas", "--n", "3",
                  env_extra={"CONICCOUNT_OUT_DIR": str(tmp_path)})
    assert res.returncode == 0
    data = json.loads((tmp_path / "formulas.json").read_text())
    assert data["rows"][0]["closed_form"] == 27


def test_usage_error_exit_two():
    res = run_cli("count")
    assert res.returncode == 2


def test_small_prime_rejected():
    res = run_cli("count", "--degrees", "3", "--primes", "101", "--seeds", "0")
    assert res.returncode == 2
    res = run_cli("splitting", "--degrees", "3", "--curve", "line",
                  "--primes", "101", "--seeds", "0")
    assert res.returncode == 2


def test_non_reduced_instance_is_resampled(tmp_path):
    # (2,2,2) GF(31013) seed 77756 first samples a derived scheme of length
    # 4 with 3 distinct points; it is rejected and the trial resamples
    import random
    from coniccount.conic_system import DegenerateInstance, dimension_from_degrees
    from coniccount.counting import DerivedSolver, checked_prime_field, prepare_instance
    out = tmp_path / "count.json"
    res = run_cli("count", "--degrees", "2,2,2", "--primes", "31013",
                  "--seeds", "77756", "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    data = json.loads(out.read_text())
    assert data["count"] == 4 and data["matches_expected"]
    assert data["trials"][0]["attempts"] >= 2
    # the first attempt, as run_trial makes it
    md = dimension_from_degrees((2, 2, 2))
    *_, ds, _ = prepare_instance(md, checked_prime_field(31013), 77756, "secant")
    solver = DerivedSolver(ds, random.Random("trial:31013:77756:0:secant"))
    with pytest.raises(DegenerateInstance, match="derived scheme is non-reduced"):
        solver.count_and_certify()


def test_splitting_fails_when_an_orbit_is_skipped(tmp_path, monkeypatch, capsys):
    # (2,3) GF(31013) seed 1 has 12 conics, 10 of them in orbits above
    # degree 6; solve_and_verify returns every orbit, so the skip is forced
    # here, and the report must still say what it leaves out
    from coniccount import cli

    def skipping(*args, **kwargs):
        ci, results, record = solve_and_verify(*args, **kwargs)
        return ci, [r for r in results if r[2] <= 6], record

    monkeypatch.setattr(cli, "solve_and_verify", skipping)
    out = tmp_path / "split.json"
    with pytest.raises(SystemExit) as info:
        cli.main(["splitting", "--degrees", "2,3", "--primes", "31013",
                  "--seeds", "1", "--out", str(out)])
    assert info.value.code == 5
    assert "FAIL: covered 2 of 12" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["covered"] == sum(e["orbit_degree"] for e in data["entries"]) == 2


# sha256 of each JSON report as written by the code before binary forms
# and the quotient algebra got one representation each
GOLDEN = [
    (("count", "--degrees", "2,3", "--seeds", "0"),
     "d303ae524f673897375109da741a61f6dd97c371cca192f686c0157fa3eb9f29"),
    (("count", "--degrees", "2,2", "--seeds", "0"),
     "a7da9cb0228b009641e4c3ffe4ab9df3e0068ae458e30e4dd6b9631111e09eaa"),
    (("count", "--degrees", "3", "--variant", "tangent", "--seeds", "0"),
     "4f72da91b81e217b7ddd46eb41b11df0024273cea4aa05fa79981bb6548d3c36"),
    (("splitting", "--degrees", "2,3", "--seeds", "2"),
     "ab669a9e56f2d6164e6a09fca589c4fb22a3bf162caea3d1972b6f2c298edf32"),
    (("splitting", "--degrees", "3", "--seeds", "0"),
     "c2ddf98a88bdbb34fff6acd51213a323380485133a90aae9aa6e829cfea07d0c"),
    (("splitting", "--degrees", "3", "--curve", "line", "--seeds", "0"),
     "00da1e26e89d4587755e26313daa266570e738227330f6773379494a0a4af0de"),
]


def test_reports_match_golden_digests(tmp_path):
    out = tmp_path / "report.json"
    for args, digest in GOLDEN:
        res = run_cli(*args, "--primes", "10007", "--out", str(out))
        assert res.returncode == 0, res.stdout + res.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, args


# sha256 of the vanishing grids and the formula table as written by the
# code that kept characters as dense exponent cubes and the quantum
# polynomials in Fractions
GOLDEN_CERTIFY = [
    (("vanish", "--n", "5", "--degrees", "4"),
     "8149df0baa00ef6365af33fb6820c8a5b458b494070746b06d7f7c84b1a36588"),
    (("vanish", "--n", "5", "--degrees", "3,2"),
     "6ed6db9f5b508aa9b6113efdd15d1c0f6fe088220b46caac36545ecf0bc2805d"),
    (("vanish", "--n", "7", "--degrees", "3,3"),
     "74001e1b734ed20f9435259fbc4d751d2748b74502811a9b2ad1bf19c0467df3"),
    (("vanish", "--n", "7", "--degrees", "5"),
     "9a00d93f836043ea694ebac495eaa0bc5510d64dd1c0ad91f56a8f72ce5a6876"),
    (("formulas", "--n", "3..20"),
     "d0c24757f229d3f77c5216fbdcb375f73a2e3016661594b2baa578b690a1356c"),
]


def test_certify_reports_match_golden_digests(tmp_path):
    out = tmp_path / "report.json"
    for args, digest in GOLDEN_CERTIFY:
        res = run_cli(*args, "--out", str(out))
        assert res.returncode == 0, res.stdout + res.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, args


def test_count_refuses_an_oversized_input_before_any_trial(monkeypatch, capsys):
    from coniccount import cli

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial started")

    monkeypatch.setattr(cli, "count_conics", no_trial)
    with pytest.raises(SystemExit) as info:
        cli.main(["count", "--degrees", "6"])
    assert info.value.code == 2
    assert ("size 345600 = Bezout number 43200 x 8 chart variables"
            in capsys.readouterr().err)
    # (3,4), 864 x 7, is under the threshold and goes on to count
    with pytest.raises(AssertionError, match="a trial started"):
        cli.main(["count", "--degrees", "3,4"])
    res = run_cli("count", "--degrees", "6")
    assert res.returncode == 2 and "above 10000" in res.stderr
