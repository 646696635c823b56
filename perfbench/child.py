"""One benchmark pass in a fresh interpreter: run a job list, then check it.

Reads ``{"jobs": [...], "trace": bool}`` as JSON on stdin and writes one JSON
object on stdout.  The jobs run back to back through ``fischerlab.cli.run``
with stdout and stderr captured; the correctness checks run only after the
last job, outside the timed region and after peak memory is read.

The pass also takes a yardstick sample (see yardstick.py) before the first
job, after the last one, and between jobs once ``YARDSTICK_EVERY_S`` CPU
seconds have gone by since the last one.

Exit codes: 0 the pass ran (failed jobs are reported in the output), 3 the
kernel backend is not the pure one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import checks
import tracing
import yardstick

YARDSTICK_EVERY_S = 2.0


def run_jobs(jobs, run, recorder=None, between=lambda: None):
    """Run every job; return per-job (seconds, CPU seconds, exit code, stdout, error).

    between() runs after every job, outside its timing.
    """
    results = []
    for index, job in enumerate(jobs):
        if recorder is not None:
            recorder.job = index
        out, err = io.StringIO(), io.StringIO()
        error = None
        code = None
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(list(job["argv"]))
        except Exception as exc:  # the job fails; the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        results.append((time.perf_counter() - start, time.process_time() - start_cpu,
                        code, out.getvalue(), error))
        between()
    return results


def main():
    spec = json.load(sys.stdin)
    import fischerlab
    from fischerlab import cli

    if fischerlab.backend_name() != "pure":
        print(f"kernel backend is {fischerlab.backend_name()!r}, not 'pure'",
              file=sys.stderr)
        return 3
    recorder = tracing.Recorder() if spec["trace"] else None
    run, missing = tracing.install(recorder) if recorder else (cli.run, [])

    samples = [yardstick.sample()]
    last_sample = [time.process_time()]

    def between():
        if time.process_time() - last_sample[0] >= YARDSTICK_EVERY_S:
            samples.append(yardstick.sample())
            last_sample[0] = time.process_time()

    jobs = spec["jobs"]
    results = run_jobs(jobs, run, recorder, between)
    samples.append(yardstick.sample())
    wall = sum(r[0] for r in results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    rungs = [0, 0]
    for index, (job, (_, _, code, stdout, error)) in enumerate(zip(jobs, results)):
        found = checks.check_job(job, code, stdout, error)
        if found is not None:
            failures.append({"job": index, "reason": found[0], "detail": found[1]})
        covering, eliminated = checks.ladder_rungs(stdout)
        rungs[0] += covering
        rungs[1] += eliminated
    out = {
        "backend": fischerlab.backend_name(),
        "python": sys.version.split()[0],
        "wall_s": wall,
        "job_s": [r[0] for r in results],
        "job_cpu_s": [r[1] for r in results],
        "yardstick_s": samples,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "digests": [hashlib.sha256(r[3].encode()).hexdigest() for r in results],
        "report_bytes": sum(len(r[3].encode()) for r in results),
        "ladder_rungs": rungs,
    }
    if recorder:
        out["self_s"] = recorder.self_times()
        out["counts"] = {name: recorder.counts[name] for name in tracing.COUNT_METRICS}
        out["spans"] = recorder.spans
        out["missing_sites"] = missing
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
