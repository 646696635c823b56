"""The same-bytes corpus of the command line.

    PYTHONPATH=src python tests/cli_corpus.py

prints one line per argv: the sha256 of (exit code, stdout, stderr) from an
in-process cli.run, then the argv as JSON.  Run it with PYTHONPATH set to
each of two checkouts' src and compare the outputs: a change that keeps
every exit code and report byte prints the same lines.  pytest does not
collect this module; test_cli checks its coverage, and test_corpus pins
the lines of three of its parts.

The argvs, in order, by the names of parts():

* fuzz: the 600 of tests/test_cli_fuzz.py, with its rng, format and --seed
  suffix;
* constants: every subcommand argv among the module-level constants of
  tests/test_cli.py (none with --out), each in json, text and csv;
* workloads: the seed-1 job lists of the benchmark workloads
  (perfbench/workloads.py);
* decompose: over 6 psi x 6 f at --slack 0 to 3, with --vars x,y.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
COMMANDS = ("decompose", "rank-profile", "dirichlet", "fischer-theorem", "khavinson",
            "ks-residual")
FORMATS = ("json", "text", "csv")

# a diagonal and a scaled ellipse, a non-diagonal ellipse, two hyperbolas and
# a quartic: the degree blocks, the filtered slices and their failures
_DECOMPOSE_PSI = ("x^2+y^2-1", "1/4*x^2+y^2-1", "x^2+3*x*y+y^2-1", "x^2-y^2-1", "x*y-1",
                  "x^4+y^2-1")
_DECOMPOSE_F = ("7", "x^3*y", "x^4+y^3*x-2*y", "(2*x-y+1)^4", "(x+y*y-2)^5", "x^5-3*y^2+1")


def _fuzz_argvs():
    import test_cli_fuzz as fuzz

    rng = random.Random(20)
    for case in range(600):
        argv, _ = fuzz._argv(rng, COMMANDS[case % len(COMMANDS)])
        yield argv + ["--format", fuzz._pick(rng, ("json", "text"), ("csv",)),
                      "--seed", str(case)]


def _constant_argvs():
    import test_cli

    found = []

    def walk(value):
        if isinstance(value, (tuple, list)):
            if value and value[0] in COMMANDS and all(isinstance(v, str) for v in value):
                found.append(list(value))
            else:
                for item in value:
                    walk(item)
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)

    for value in vars(test_cli).values():
        walk(value)
    for argv in found:
        if "--out" not in argv:
            for fmt in FORMATS:
                yield argv + ["--format", fmt]


def _workload_argvs():
    sys.path.append(os.path.join(os.path.dirname(TESTS), "perfbench"))
    import workloads

    for name in workloads.WORKLOADS:
        for batch in workloads.generate(name, 1):
            for job in batch:
                yield job["argv"]


def _decompose_argvs():
    for psi in _DECOMPOSE_PSI:
        for f in _DECOMPOSE_F:
            for slack in range(4):
                yield ["decompose", f"--psi={psi}", f"--f={f}", "--vars", "x,y",
                       "--slack", str(slack)]


def parts():
    """{name: argvs} of the corpus's four parts, in corpus order; builds the
    lists, runs nothing."""
    return {"fuzz": list(_fuzz_argvs()), "constants": list(_constant_argvs()),
            "workloads": list(_workload_argvs()), "decompose": list(_decompose_argvs())}


def corpus():
    """Every argv of the corpus, in order; builds the list, runs nothing."""
    return [argv for argvs in parts().values() for argv in argvs]


def digest(argv):
    """The sha256 of (exit code, stdout, stderr) of cli.run(argv)."""
    from fischerlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return hashlib.sha256(repr((code, out.getvalue(), err.getvalue())).encode()).hexdigest()


def line(argv):
    """The line printed for argv: its digest, then the argv as JSON."""
    return f"{digest(argv)} {json.dumps(argv)}"


def main():
    for argv in corpus():
        print(line(argv), flush=True)


if __name__ == "__main__":
    main()
