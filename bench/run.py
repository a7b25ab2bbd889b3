"""coniccount benchmark: one workload, end-to-end or traced.

    python3 bench/run.py --workload count-ladder --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run sets up (package import in a fresh interpreter plus an untimed
warm-up, several times), then runs rounds of the workload until
``--seconds`` have passed, checking every output.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The line before it is the
full record of the run (machine, versions, commit, seed, round times,
failures).  The exit code is 1 when an output check failed and 2 when
the package cannot be imported.

A traced run alternates untraced and traced rounds on the same inputs,
so the difference is the tracing overhead; then it traces one reference
pass that reaches every layer and runs the micro-benchmarks untraced.
Per-layer values are per traced round of the workload plus the
reference pass.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import micro  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import coniccount; "
                 "print(time.perf_counter() - t)")


def import_package():
    """Import coniccount from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import coniccount
    except ImportError as exc:
        coniccount = None
        problem = f"cannot import coniccount from {SRC}: {exc}"
    else:
        problem = f"coniccount was imported from {coniccount.__file__}, not {SRC}"
    if coniccount is None or not os.path.abspath(coniccount.__file__).startswith(SRC + os.sep):
        print(problem, file=sys.stderr)
        sys.exit(2)
    return coniccount


def fresh_import_seconds():
    """Time of `import coniccount` in a new interpreter."""
    out = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, SRC],
                         cwd=ROOT, capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_rounds(workload, tally, seconds):
    """Round times; stops once another round would likely end past the
    deadline by more than half a round.  At least one round runs."""
    times = []
    begin = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        workload.round(k, tally)
        times.append(time.perf_counter() - t0)
        k += 1
        if time.perf_counter() - begin + 0.5 * statistics.median(times) >= seconds:
            return times


def end_to_end(cc, workload, tally, seconds):
    setups = []
    for i in range(SETUP_REPEATS):
        import_s = fresh_import_seconds()
        t0 = time.perf_counter()
        workload.warmup(i, tally)
        setups.append(import_s + time.perf_counter() - t0)
    # warm-up work is checked but is not the measured work
    tally.ops = tally.conics_expected = tally.conics_covered = 0
    times = run_rounds(workload, tally, seconds)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(times),
        "ops_per_s": tally.ops / sum(times),
        "conic_coverage": tally.conics_covered / tally.conics_expected,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, {"rounds": len(times), "round_s": times, "setup_s": setups,
                    "ops": tally.ops, "conics_covered": tally.conics_covered,
                    "conics_expected": tally.conics_expected}


def traced(cc, workload, tally, seconds, seed):
    workload.warmup(0, tally)
    tracer = spans.Tracer()
    plain, traced_times = [], []
    begin = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        workload.round(k, tally)
        plain.append(time.perf_counter() - t0)
        with tracer:
            t0 = time.perf_counter()
            workload.round(k, tally)
            traced_times.append(time.perf_counter() - t0)
        k += 1
        pair = statistics.median(plain) + statistics.median(traced_times)
        if time.perf_counter() - begin + 0.5 * pair >= seconds:
            break
    rounds = dict(tracer.values)
    covered = tracer.covered
    with tracer:
        workloads.reference_pass(cc, tally)
    values = per_layer(rounds, tracer.values, len(traced_times))
    overhead = [t - p for t, p in zip(traced_times, plain)]
    values["trace.overhead_s"] = statistics.median(overhead)
    values["trace.overhead_frac"] = statistics.median(overhead) / statistics.median(plain)
    values["trace.uncovered_frac"] = 1 - covered / sum(traced_times)
    values.update(micro.run(cc, seed))
    return values, {"rounds": len(traced_times), "round_s": plain,
                    "traced_round_s": traced_times}


def per_layer(rounds, total, n_rounds):
    """Per-layer values: the traced rounds' totals per round plus the
    reference pass (what ``total`` holds beyond ``rounds``)."""
    out = {}
    for key, value in total.items():
        if key in spans.PEAK_COUNTERS:
            out[key] = value
        else:
            base = rounds.get(key, 0)
            out[key] = base / n_rounds + (value - base)
    reductions = out.get("groebner.spair_reductions", 0)
    out["groebner.spair_zero_frac"] = (out.get("groebner.spair_zero", 0) / reductions
                                       if reductions else 0.0)
    for layer in metrics.PER_LAYER:
        out.setdefault(layer.name, 0)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cc = import_package()
    import numpy
    tally = workloads.Tally()
    workload = workloads.WORKLOADS[args.workload](cc, args.seed)
    if args.trace:
        values, detail = traced(cc, workload, tally, args.seconds, args.seed)
        declared = metrics.PER_LAYER
    else:
        values, detail = end_to_end(cc, workload, tally, args.seconds)
        declared = metrics.END_TO_END
    result_metrics = {m.name: {"value": values[m.name], "unit": m.unit}
                      for m in declared}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": git_commit(),
        "ops_failed_frac": tally.failed / max(tally.attempted, 1),
        "lines_found": tally.lines_found, "lines_tried": tally.lines_tried,
        "failures": tally.failures, **detail,
    }
    for name, entry in result_metrics.items():
        print(f"{args.workload:18s} {name:48s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(record))
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
