"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run every workload at the shortest length, traced and untraced, so
they take a few minutes; the repository's own suite does not collect
them.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)


def _main(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def _package_bindings(cc):
    """Every function and method binding in the package's namespaces."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "coniccount" or name.startswith("coniccount.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    out[(name, attr, meth)] = fn
    return out


def test_declaration_matches_the_code():
    assert DECLARED["command"] == ["python3", "bench/run.py"]
    assert DECLARED["paths"] == ["bench"]
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert [tuple(m.values()) for m in DECLARED["end_to_end"]] == \
        [tuple(m) for m in metrics.END_TO_END]
    assert [tuple(m.values()) for m in DECLARED["per_layer"]] == \
        [tuple(m[:3]) for m in metrics.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_the_declared_metrics(capsys, workload, trace):
    code, record, result = _main(capsys, workload, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert code == 0
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        # every time is measured in every run; only the overhead may be negative
        if not trace or (m["unit"] in ("s", "ms", "us", "ns")
                         and not m["name"].startswith("trace.")):
            assert entry["value"] > 0, m["name"]
    assert record["workload"] == workload and record["seed"] == 0
    for key in ("nproc", "python", "numpy", "commit"):
        assert key in record


def test_traced_run_restores_every_binding(capsys):
    import coniccount
    before = _package_bindings(coniccount)
    code, _, result = _main(capsys, "reconstruct-split", 1)
    assert code == 0
    after = _package_bindings(coniccount)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(getattr(v, "__traced__", False) for v in after.values())


def test_self_times_partition_the_covered_time():
    import coniccount
    tracer = spans.Tracer()
    with tracer:
        coniccount.solve_and_verify((2, 3), prime=10007, seed=0)
    self_total = sum(v for k, v in tracer.values.items() if k.endswith(".self_s"))
    assert tracer.values["groebner.groebner_basis.calls"] == 1
    assert self_total == pytest.approx(tracer.covered, rel=1e-9)
    for key, value in tracer.values.items():
        if key.endswith(".self_s"):
            assert value <= tracer.values[key[:-len("self_s")] + "total_s"] + 1e-12


def test_wrong_expectation_counts_as_failed(capsys, monkeypatch):
    true_count = workloads.expected_conics
    monkeypatch.setattr(workloads, "expected_conics",
                        lambda degrees: true_count(degrees) + (degrees == (2, 3)))
    code, record, result = _main(capsys, "count-ladder", 0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 3
    assert 0 < record["ops_failed_frac"] == result["failed"] / result["attempted"]
    assert any("(2, 3)" in f for f in record["failures"])


def test_exits_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "count-ladder",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
