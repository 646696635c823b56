"""End-to-end benchmark of the fischerlab CLI, with a per-layer split.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload solve-q --seed 1 --seconds 20 --trace 0

``--workload`` takes one name or a comma-separated list (see workloads.py).
A workload's job list is cut into batches.  Each pass runs one batch in a
fresh interpreter (child.py); passes run one at a time, cycling through the
batches until ``--seconds`` is used up.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
reported; their times are CPU seconds rescaled by the yardstick samples
taken in the same run (see yardstick.py).  Each job of the list counts
once in ``attempted`` and ``failed``, however many passes ran it.

With ``--trace 1`` untraced and traced passes alternate, the per-layer
metrics come from the traced ones, and the spans are written as JSONL to
perfbench/results/ when the run ends.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

import checks
import workloads
import yardstick

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")

CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 11
SETUP_PER_PASS = 2

SETUP_CODE = (
    "import time; t = time.process_time(); import fischerlab, fischerlab.cli; "
    "fischerlab.cli.build_parser(); print(time.process_time() - t)"
)

END_TO_END_UNITS = {
    "list_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "kernels.eliminate_s": "s",
    "kernels.calls": "count",
    "kernels.cells_per_s": "1/s",
    "linalg.convert_s": "s",
    "linalg.recheck_s": "s",
    "linalg.build_s": "s",
    "linalg.eliminations": "count",
    "linalg.cells": "count",
    "linalg.transform_cells": "count",
    "linalg.rank_sum": "count",
    "linalg.solution_bits_max": "bits",
    "fischer.operator_matrix_s": "s",
    "fischer.columns_assembled": "count",
    "fischer.driver_self_s": "s",
    "fischer.ladder_useful_frac": "ratio",
    "dirichlet.solve_self_s": "s",
    "dirichlet.verify_s": "s",
    "dirichlet.samples": "count",
    "exprs.parse_s": "s",
    "exprs.format_s": "s",
    "cli.self_s": "s",
    "cli.serialize_s": "s",
    "cli.report_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.other_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, wrong backend...)."""


def child_env():
    env = dict(os.environ)
    env.pop("FISCHERLAB_SEED", None)
    env["FISCHERLAB_BACKEND"] = "pure"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, stdin_text=""):
    try:
        proc = subprocess.run(
            [sys.executable, *args], input=stdin_text, capture_output=True,
            text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[0]} timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def check_program():
    """Fail unless the checkout's own fischerlab imports with the pure backend."""
    if not os.path.isfile(os.path.join(SRC, "fischerlab", "cli.py")):
        raise BenchError(f"no fischerlab sources under {SRC}")
    out = run_child(["-c", "import fischerlab; print(fischerlab.backend_name()); "
                           "print(fischerlab.__file__)"])
    backend, path = out.split()
    if backend != "pure":
        raise BenchError(f"kernel backend is {backend!r}, not 'pure'")
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise BenchError(f"fischerlab was imported from {path}, not from {SRC}")


def setup_sample():
    """CPU seconds to import fischerlab and its CLI and build the parser, fresh."""
    return float(run_child(["-c", SETUP_CODE]))


def run_pass(jobs, trace):
    return json.loads(run_child([os.path.join(BENCH_DIR, "child.py")],
                                json.dumps({"jobs": jobs, "trace": trace})))


def run_passes(batches, seconds, traced, after_pass=lambda: None):
    """Cycle through the batches, untraced (and traced) passes, until `seconds`.

    Returns {(batch index, traced): [pass outputs]}.  The first cycle always
    runs, so every batch has a pass of every mode; after it, a pass starts
    only while the time left covers the last pass of the same kind.
    after_pass() runs after every pass, inside the time budget.
    """
    cycle = [(b, mode) for b in range(len(batches))
             for mode in ((False, True) if traced else (False,))]
    passes = {key: [] for key in cycle}
    last = {}
    start = time.perf_counter()
    for k in itertools.count():
        key = cycle[k % len(cycle)]
        if k >= len(cycle) and time.perf_counter() - start + last[key] > seconds:
            return passes
        began = time.perf_counter()
        passes[key].append(run_pass(batches[key[0]], key[1]))
        after_pass()
        last[key] = time.perf_counter() - began


def summed_medians(passes, mode, value):
    """Sum over batches of the median of value(pass): one whole job list."""
    return sum(statistics.median(value(p) for p in ps)
               for (_, traced), ps in passes.items() if traced == mode)


def tail(samples):
    """(value, percentile) of the highest percentile with >= 10 samples beyond.

    With fewer than 11 samples no percentile qualifies; the maximum is
    returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def job_medians(passes, key):
    """Per job of the list, the median of p[key] over its untraced passes p."""
    return [statistics.median(column)
            for (_, traced), ps in passes.items() if not traced
            for column in zip(*(p[key] for p in ps))]


def end_to_end(passes, setup_cpu_s):
    """End-to-end metrics from the untraced passes, plus raw figures.

    Every time is CPU seconds times the yardstick factor of the run's
    untraced passes; setup_cpu_s are the set-up samples.  The raw figures
    (wall and CPU seconds, and the factor) are returned for the printout.
    """
    untraced = [p for (_, traced), ps in passes.items() if not traced for p in ps]
    sticks = [s for p in untraced for s in p["yardstick_s"]]
    scale = yardstick.factor(sticks)
    jobs = [t * scale for t in job_medians(passes, "job_cpu_s")]
    tail_value, tail_pct = tail(jobs)
    metrics = {
        "list_s": sum(jobs),
        "job_p50_s": statistics.median(jobs),
        "job_tail_s": tail_value,
        "setup_s": statistics.median(setup_cpu_s) * scale,
        "peak_rss_mb": max(statistics.median(p["peak_rss_mb"] for p in ps)
                           for (_, traced), ps in passes.items() if not traced),
    }
    raw = {
        "list_wall_s": sum(job_medians(passes, "job_s")),
        "list_cpu_s": sum(job_medians(passes, "job_cpu_s")),
        "setup_cpu_s": statistics.median(setup_cpu_s),
        "yardstick_factor": scale,
        **{f"yardstick_{kind.__name__.strip('_')}_s": statistics.median(column)
           for kind, column in zip(yardstick.KINDS, zip(*sticks))},
    }
    note = (f"job_tail_s is p{tail_pct:.1f} of {len(jobs)} per-job medians, "
            f"from {len(untraced)} passes")
    return metrics, raw, note


def job_failures(passes, offsets):
    """{job id: {reason: detail}} over every pass of the run.

    A job whose report bytes differ between its passes, traced or not, is
    also `nondeterministic`.  Each job of the list counts once, however
    many passes ran it, so a seed gives the same count on every run.
    """
    found = {}
    for (batch, _), ps in passes.items():
        for p in ps:
            for f in p["failures"]:
                found.setdefault(offsets[batch] + f["job"], {}).setdefault(
                    f["reason"], f["detail"])
    for batch in range(len(offsets) - 1):
        every = [p["digests"] for (b, _), ps in passes.items() if b == batch for p in ps]
        for job, digests in enumerate(zip(*every)):
            if len(set(digests)) > 1:
                found.setdefault(offsets[batch] + job, {})[checks.NONDETERMINISTIC] = \
                    "report bytes differ between passes"
    return found


def per_layer(passes):
    """Per-layer metrics of one job list, from the traced passes.

    Times are summed per-batch medians.  Counts must repeat exactly between
    the traced passes of a batch; the second value says whether they did.
    """
    traced = [ps for (_, mode), ps in passes.items() if mode]
    stable = all(p["counts"] == ps[0]["counts"] for ps in traced for p in ps)
    counts = Counter()
    for ps in traced:
        for name, value in ps[0]["counts"].items():
            counts[name] = max(counts[name], value) if name.endswith("_max") \
                else counts[name] + value
    metrics = {name: counts[name] for name in counts if name in PER_LAYER_UNITS}
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "s" and not name.startswith("trace."):
            metrics[name] = summed_medians(passes, True, lambda p: p["self_s"].get(name, 0.0))
    eliminate_s = metrics["kernels.eliminate_s"]
    metrics["kernels.cells_per_s"] = counts["kernels.cells"] / eliminate_s if eliminate_s else 0.0
    covering = sum(ps[0]["ladder_rungs"][0] for ps in traced)
    eliminated = sum(ps[0]["ladder_rungs"][1] for ps in traced)
    metrics["fischer.ladder_useful_frac"] = covering / eliminated if eliminated else 0.0
    metrics["cli.report_bytes"] = sum(ps[0]["report_bytes"] for ps in traced)
    wall = summed_medians(passes, True, lambda p: p["wall_s"])
    metrics["trace.wall_s"] = wall
    metrics["trace.other_s"] = summed_medians(
        passes, True, lambda p: p["wall_s"] - sum(p["self_s"].values()))
    metrics["trace.overhead_frac"] = (
        wall / summed_medians(passes, False, lambda p: p["wall_s"]) - 1.0)
    return {name: metrics[name] for name in PER_LAYER_UNITS}, stable


def git_commit():
    """The checked-out commit, read from .git without running git; None if absent."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def write_spans(path, passes, offsets):
    """One JSON line per span; ids are unique in the file, jobs index the job list."""
    next_id = 0
    with open(path, "w", encoding="utf-8") as handle:
        for (batch, traced), ps in passes.items():
            for number, p in enumerate(ps if traced else ()):
                base = next_id
                for name, start, end, parent, job in p["spans"]:
                    handle.write(json.dumps({
                        "id": next_id, "name": name, "start": start, "end": end,
                        "parent": None if parent is None else base + parent,
                        "job": offsets[batch] + job, "batch": batch, "pass": number,
                    }) + "\n")
                    next_id += 1


def run_workload(name, seed, seconds, trace):
    batches = workloads.generate(name, seed)
    offsets = list(itertools.accumulate((len(b) for b in batches), initial=0))
    # set-up samples are spread over the run, so that one slow moment of a
    # shared machine cannot move their median
    setup = []

    def sample_setup():
        if not trace:
            setup.extend(setup_sample() for _ in range(SETUP_PER_PASS))

    if not trace:
        setup_sample()  # warms the bytecode cache, which users do not pay for
    passes = run_passes(batches, seconds, bool(trace), sample_setup)
    every = [p for ps in passes.values() for p in ps]
    by_job = job_failures(passes, offsets)
    details = [{"job": job, "reason": reason, "detail": detail}
               for job, reasons in sorted(by_job.items())
               for reason, detail in reasons.items()]
    failures = Counter(f["reason"] for f in details)
    raw = {}
    if trace:
        metrics, stable = per_layer(passes)
        if not stable:
            failures[checks.NONDETERMINISTIC] += 1
        units = PER_LAYER_UNITS
        note = f"{sum(len(ps) for (_, t), ps in passes.items() if t)} traced passes"
    else:
        setup.extend(setup_sample() for _ in range(SETUP_SAMPLES - len(setup)))
        metrics, raw, note = end_to_end(passes, setup)
        units = END_TO_END_UNITS
    note = f"{len(every)} passes over {len(batches)} batches; {note}"
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "backend": every[0]["backend"], "python": every[0]["python"],
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "commit": git_commit(), "jobs": offsets[-1], "note": note, "raw": raw,
        "correct": not (set(failures) - checks.NOT_WRONG),
        "attempted": offsets[-1], "failed": len(by_job),
        "failed_frac": len(by_job) / offsets[-1], "failure_reasons": dict(failures),
        "failure_details": details[:20],
        "missing_sites": every[-1].get("missing_sites", []),
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}")
    if trace:
        write_spans(stem + ".spans.jsonl", passes, offsets)
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({**info, "metrics": metrics}, handle, indent=2)
    return info, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = args.workload.split(",")
    try:
        for name in names:
            workloads.generate(name, args.seed)
        check_program()
        results = [run_workload(name, args.seed, args.seconds, args.trace)
                   for name in names]
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for info, metrics in results:
        print(f"== {info['workload']} (seed {info['seed']}, {info['note']})")
        for key in ("backend", "python", "nproc", "commit"):
            print(f"   {key}: {info[key]}")
        for metric, entry in metrics.items():
            print(f"   {metric} = {entry['value']:.6g} {entry['unit']}")
        for metric, value in info["raw"].items():
            print(f"   ({metric} = {value:.6g}, raw, not a benchmark metric)")
        print(f"   failed_frac = {info['failed_frac']:.6g} "
              f"({info['failed']}/{info['attempted']} jobs) {info['failure_reasons']}")
        print(f"   correct: {info['correct']}")
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{info['workload']}.{k}": v for info, m in results for k, v in m.items()}
    print(json.dumps({
        "correct": all(info["correct"] for info, _ in results),
        "attempted": sum(info["attempted"] for info, _ in results),
        "failed": sum(info["failed"] for info, _ in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
