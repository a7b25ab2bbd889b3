"""Command line front end.

Four subcommands cover the pipeline:

    count      sample an instance, run the elimination cascade, count the
               conics through the two marked points and certify the count
    formulas   the two closed-form conic counts for X_n in P^n, compared
    vanish     the Bott case exclusion grid for the irreducibility proof
    splitting  splitting type of a counted conic (or of a line) and the
               quasi-line flag

Human-readable tables go to stdout; the machine-readable report is JSON,
written to --out when given, else to $CONICCOUNT_OUT_DIR/<command>.json
when the variable is set.  Output is byte-identical for identical
configuration and seeds.  Exit codes: 0 success, 2 usage (including a
`count` too large to run: see ``MAX_COUNT_SIZE``), 3 degenerate
instances exhausted, 4 inconsistent counts, 5 a certificate or an
expected-value check failed.
"""

import argparse
import json
import math
import os
import sys

from .fields import field_to_json
from .conic_system import (DegenerateInstance, dimension_from_degrees,
                           predicted_profile, random_ci)
from .counting import (DEFAULT_PRIMES, DEFAULT_SEEDS, InconsistentCounts,
                       checked_prime_field, count_conics, solve_and_verify)
from .groebner import PositiveDimensional
from .quantum import formulas_table
from .characters import rank_q, VanishingGrid
from .splitting import (splitting_type, conic_to_map, find_line_through_point,
                        is_quasi_line)

EXIT_OK = 0
EXIT_DEGENERATE = 3
EXIT_INCONSISTENT = 4
EXIT_CHECK_FAILED = 5

# `count` refuses a derived system whose Bezout number times its number of
# chart variables is above this.  One certified trial took about 25 s for
# (3,4), at 864 x 7 = 6048, and 50 s for (5,), at 1440 x 6 = 8640; (6,),
# at 43200 x 8, would run for hours
MAX_COUNT_SIZE = 10000


def _parse_degrees(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad degree list {text!r}")


def _parse_ints(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")


def _parse_range(text):
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _emit(args, name, payload):
    text = json.dumps(payload, indent=2, sort_keys=True)
    out = args.out
    if out is None:
        directory = os.environ.get("CONICCOUNT_OUT_DIR")
        if directory:
            out = os.path.join(directory, f"{name}.json")
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"report written to {out}")
    else:
        print(text)


def cmd_count(args):
    degrees = args.degrees
    md = dimension_from_degrees(degrees)
    # the linear reduction and the affine chart leave one chart variable
    # per nonlinear equation of the derived system
    profile = predicted_profile(md)
    bezout, chart = math.prod(profile), sum(1 for d in profile if d > 1)
    if bezout * chart > MAX_COUNT_SIZE:
        raise ValueError(
            f"degrees {','.join(map(str, degrees))} are too large to count: estimated "
            f"size {bezout * chart} = Bezout number {bezout} x {chart} chart "
            f"variables, above {MAX_COUNT_SIZE}")
    try:
        report = count_conics(degrees, variant=args.variant, primes=args.primes,
                              seeds=args.seeds, method=args.method)
    except InconsistentCounts as exc:
        report = exc.report
        print("INCONSISTENT COUNTS across trials:")
        for t in report.trials:
            print(f"  prime={t.prime} seed={t.seed} count={t.count} "
                  f"certificates={t.certificates}")
        _emit(args, "count", report.to_json())
        return EXIT_INCONSISTENT
    print(f"multidegree {md}  (dimension n={md.n}, ambient P^{md.ambient})")
    print(f"variant          : {report.variant}")
    print(f"degree profile   : {report.degree_profile}")
    print(f"bezout number    : {report.bezout}")
    print(f"expected count   : {report.expected}")
    print(f"computed count   : {report.count}")
    print(f"method           : {report.method}")
    print(f"certificates     : {report.certificates}")
    print(f"trials           : {len(report.trials)} "
          f"(primes {list(report.primes)} x seeds {list(report.seeds)})")
    _emit(args, "count", report.to_json())
    if not report.matches_expected:
        print("FAIL: count or certificates do not match the closed formula")
        return EXIT_CHECK_FAILED
    print("OK: count matches (1/2) * prod (d_i - 1)! d_i!")
    return EXIT_OK


def cmd_formulas(args):
    lo, hi = args.n
    rows = formulas_table(lo, hi)
    header = f"{'n':>3}  {'closed form':>20}  {'via constants':>20}  match"
    print(header)
    print("-" * len(header))
    ok = True
    for row in rows:
        print(f"{row['n']:>3}  {row['closed_form']:>20}  "
              f"{row['via_structure_constants']:>20}  {row['match']}")
        ok = ok and row["match"]
    _emit(args, "formulas", {"rows": rows})
    if not ok:
        print("FAIL: the two conic counts disagree")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_vanish(args):
    n = args.n
    degrees = args.degrees
    grid = VanishingGrid(n, degrees)
    verdicts, all_vanish = grid.all_verdicts()
    expected_rank = n + 1 + 3 * len(degrees)
    rank_ok = rank_q(n, degrees) == expected_rank
    inconclusive = sorted((j, k) for (j, k), v in verdicts.items()
                          if v.verdict != "vanishes")
    print(f"n={n} degrees={list(degrees)}  rank Q = {rank_q(n, degrees)} "
          f"(expected {expected_rank})")
    print(f"grid size        : {len(verdicts)} pairs (1<=j<={expected_rank}, 0<=k<=j)")
    print(f"all vanish       : {all_vanish}")
    print(f"exclusions       : {grid.exclusion_inequalities()}")
    if inconclusive:
        print(f"inconclusive at  : {inconclusive}")
    payload = {
        "n": n,
        "degrees": list(degrees),
        "rank_q": rank_q(n, degrees),
        "rank_q_expected": expected_rank,
        "all_vanish": all_vanish,
        "exclusion_inequalities": grid.exclusion_inequalities(),
        "verdicts": {f"{j},{k}": v.to_json() for (j, k), v in sorted(verdicts.items())},
    }
    _emit(args, "vanish", payload)
    if not (all_vanish and rank_ok):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_splitting(args):
    degrees = args.degrees
    md = dimension_from_degrees(degrees)
    prime, seed = args.primes[0], args.seeds[0]
    entries = []
    if args.curve == "conic":
        ci, results, record = solve_and_verify(degrees, variant=args.variant,
                                               prime=prime, seed=seed,
                                               method=args.method)
        for conic, verified, orbit in results:
            curve = conic_to_map(conic, md)
            st = splitting_type(ci, curve)
            entries.append({
                "curve": "conic",
                "orbit_degree": orbit,
                "field": field_to_json(curve.field),
                "verified": verified,
                "splitting": list(st),
                "quasi_line": is_quasi_line(st),
            })
    else:
        ci = random_ci(md, checked_prime_field(prime), seed, args.variant)
        line = find_line_through_point(ci)
        st = splitting_type(ci, line)
        entries.append({
            "curve": "line",
            "orbit_degree": 1,
            "field": field_to_json(line.field),
            "verified": True,
            "splitting": list(st),
            "quasi_line": is_quasi_line(st),
        })
    print(f"multidegree {md}  curve={args.curve}  prime={prime} seed={seed}")
    for e in entries:
        print(f"  splitting {e['splitting']}  quasi-line={e['quasi_line']} "
              f"(orbit degree {e['orbit_degree']})")
    payload = {
        "degrees": list(degrees),
        "curve": args.curve,
        "prime": prime,
        "seed": seed,
        "variant": args.variant,
        "entries": entries,
    }
    # solve_and_verify returns every Galois orbit, so the orbit degrees sum
    # to the count; a report that left conics out would say how many it
    # covers, and fail
    covered = sum(e["orbit_degree"] for e in entries)
    if args.curve == "conic" and covered < record.count:
        payload["covered"] = covered
    _emit(args, "splitting", payload)
    failures = []
    if "covered" in payload:
        failures.append(f"covered {covered} of {record.count}")
    # a line's splitting is reported, not checked: (2,0,0) is expected
    if args.curve == "conic" and not (
            all(record.certificates.values())
            and all(e["verified"] and e["quasi_line"] for e in entries)):
        failures.append("a certificate is false, or a conic is unverified or "
                        "not a quasi-line")
    for failure in failures:
        print(f"FAIL: {failure}")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coniccount",
        description="Count and certify conics through two general points "
                    "of a complete intersection, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degrees=True):
        if degrees:
            p.add_argument("--degrees", type=_parse_degrees, required=True,
                           help="comma separated degree list, e.g. 2,3")
        p.add_argument("--variant", choices=("secant", "tangent"),
                       default="secant")
        p.add_argument("--primes", type=_parse_ints, default=DEFAULT_PRIMES,
                       help="comma separated primes, each >= 10007")
        p.add_argument("--seeds", type=_parse_ints, default=DEFAULT_SEEDS)
        p.add_argument("--method", choices=("auto", "groebner"),
                       default="auto")
        p.add_argument("--out", default=None, help="path for the JSON report")

    p_count = sub.add_parser("count", help="count conics through two points")
    common(p_count)
    p_count.set_defaults(func=cmd_count)

    p_formulas = sub.add_parser("formulas",
                                help="closed-form counts for X_n in P^n")
    p_formulas.add_argument("--n", type=_parse_range, default=(3, 10),
                            help="single value or range lo..hi")
    p_formulas.add_argument("--out", default=None)
    p_formulas.set_defaults(func=cmd_formulas)

    p_vanish = sub.add_parser("vanish", help="Bott case exclusion grid")
    p_vanish.add_argument("--n", type=int, required=True)
    p_vanish.add_argument("--degrees", type=_parse_degrees, required=True)
    p_vanish.add_argument("--out", default=None)
    p_vanish.set_defaults(func=cmd_vanish)

    p_split = sub.add_parser("splitting",
                             help="splitting type of a conic or line")
    common(p_split)
    p_split.add_argument("--curve", choices=("conic", "line"), default="conic")
    p_split.set_defaults(func=cmd_splitting)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except DegenerateInstance as exc:
        print(f"DEGENERATE: {exc}")
        code = EXIT_DEGENERATE
    except PositiveDimensional as exc:
        print(f"POSITIVE DIMENSIONAL: {exc}")
        code = EXIT_DEGENERATE
    except ValueError as exc:
        parser.error(str(exc))
    sys.exit(code)


if __name__ == "__main__":
    main()
