"""Tests of the benchmark itself: determinism, tracing and the correctness gate.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

# a small mixed job list: every small-batch kind plus one tiny Qi ladder
JOBS = workloads.generate("small-batch", 7)[0][:10] + [{
    "argv": ["khavinson", "--phi", "0,0,2+i", "--max-degree", "1", "--slack", "4"],
    "exit": 0,
    "verdicts": [["surjective", 2], ["surjective", 4]],
}]


def _report(argv):
    from fischerlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def test_traced_passes_repeat_counts_and_report_bytes():
    first, second = run.run_pass(JOBS, True), run.run_pass(JOBS, True)
    plain = run.run_pass(JOBS, False)
    assert first["failures"] == second["failures"] == plain["failures"] == []
    assert first["counts"] == second["counts"]
    assert first["ladder_rungs"] == second["ladder_rungs"]
    assert first["report_bytes"] == second["report_bytes"] == plain["report_bytes"]
    assert first["digests"] == second["digests"] == plain["digests"]
    assert first["missing_sites"] == []
    assert first["counts"]["kernels.calls"] > 0
    assert first["counts"]["dirichlet.samples"] > 0


def test_self_times_account_for_the_traced_wall():
    traced = run.run_pass(JOBS, True)
    covered = sum(traced["self_s"].values())
    assert 0 < covered <= traced["wall_s"]
    assert traced["wall_s"] - covered < 0.05 * traced["wall_s"]
    roots = [s for s in traced["spans"] if s[3] is None]
    assert [s[4] for s in roots] == list(range(len(JOBS)))
    assert all(s[0] == "cli.run" for s in roots)


def test_same_seed_same_jobs():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 5) == workloads.generate(name, 5)
    assert workloads.generate("small-batch", 5) != workloads.generate("small-batch", 6)
    with pytest.raises(ValueError):
        workloads.generate("nope", 1)


def test_checker_parser_agrees_with_the_program():
    from fischerlab import parse_polynomial

    texts = ["4/9*x^2+y^2+9/25*z^2-1", "(3*x+2*y*z+1)^3", "-(x-2*y)^2*z+7"]
    for text in texts:
        ours = checks.parse(text, ["x", "y", "z"])
        theirs = parse_polynomial(text, ("x", "y", "z"))
        assert ours == dict(theirs.terms)


def test_checker_rejects_a_wrong_decomposition():
    job = workloads.generate("small-batch", 7)[0][0]
    assert job["argv"][0] == "decompose"
    code, stdout = _report(job["argv"])
    assert checks.check_job(job, code, stdout) is None
    report = json.loads(stdout)
    terms = report["result"]["h"]["poly"]["terms"]
    terms[0]["coeff"]["num"] = str(int(terms[0]["coeff"]["num"]) + 1)
    assert checks.check_job(job, code, json.dumps(report))[0] == checks.RECHECK


def test_boundary_tolerance_failures_have_their_own_reason():
    job = workloads.generate("small-batch", 7)[0][1]
    assert job["argv"][0] == "dirichlet"
    code, stdout = _report(job["argv"])
    assert checks.check_job(job, code, stdout) is None
    report = json.loads(stdout)
    report["checks"].update(boundary_max_error=2.3e-9, passed=False)
    reason, _ = checks.check_job(job, 1, json.dumps(report))
    assert reason == checks.BOUNDARY_TOLERANCE
    report["checks"]["identity_exact"] = False
    assert checks.check_job(job, 1, json.dumps(report))[0] == checks.EXIT_CODE


def test_wrong_verdicts_and_exit_codes_fail():
    job = JOBS[-1]
    code, stdout = _report(job["argv"])
    assert checks.check_job(job, code, stdout) is None
    assert checks.check_job({**job, "exit": 1}, code, stdout)[0] == checks.EXIT_CODE
    wrong = {**job, "verdicts": [["surjective", 2], ["surjective", 3]]}
    assert checks.check_job(wrong, code, stdout)[0] == checks.VERDICT
    assert checks.check_job(job, 2, "")[0] == checks.BAD_REPORT
    assert checks.check_job(job, None, "", "RecursionError: x")[0] == checks.EXCEPTION


def test_tail_percentile_has_ten_samples_beyond():
    samples = list(range(100))
    value, pct = run.tail(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_metric_names_and_units_match_the_manifest():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)


def test_failures_count_each_job_once_however_many_passes_ran():
    failure = {"job": 0, "reason": checks.BOUNDARY_TOLERANCE, "detail": "2.3e-9 >= 1e-9"}
    one = {"failures": [failure], "digests": ["a", "b"]}
    expected = {0: {checks.BOUNDARY_TOLERANCE: "2.3e-9 >= 1e-9"}}
    assert run.job_failures({(0, False): [one]}, [0, 2]) == expected
    assert run.job_failures({(0, False): [one, one], (0, True): [one]}, [0, 2]) == expected
    drifted = {**one, "digests": ["a", "c"]}
    found = run.job_failures({(0, False): [one], (0, True): [drifted]}, [0, 2])
    assert set(found) == {0, 1}
    assert checks.NONDETERMINISTIC in found[1]


def test_end_to_end_times_are_rescaled_by_the_yardstick():
    sticks = [[0.1, 0.2, 0.4], [0.1, 0.2, 0.4], [0.3, 0.6, 1.2]]
    slow = {"job_s": [1.1, 3.2], "job_cpu_s": [1.0, 3.0], "yardstick_s": sticks,
            "peak_rss_mb": 50.0}
    # the same pass on a machine twice as fast
    fast = {**slow, "job_s": [0.6, 1.6], "job_cpu_s": [0.5, 1.5],
            "yardstick_s": [[t / 2 for t in s] for s in sticks]}
    slow_metrics, raw, _ = run.end_to_end({(0, False): [slow]}, [0.1, 0.2, 0.3])
    fast_metrics, _, _ = run.end_to_end({(0, False): [fast]}, [0.05, 0.1, 0.15])
    assert slow_metrics == pytest.approx(fast_metrics)
    assert raw["yardstick_factor"] == pytest.approx(yardstick.NOMINAL_S / 0.2)
    assert slow_metrics["list_s"] == pytest.approx(4.0 * raw["yardstick_factor"])
    assert slow_metrics["setup_s"] == pytest.approx(0.2 * raw["yardstick_factor"])
    assert raw["list_cpu_s"] == pytest.approx(4.0)
