"""Correctness gate: check one job's exit code and JSON report.

The exact rechecks use the small polynomial arithmetic below, not the
program's own ``Poly``, and expand psi and f from the strings the workload
generator wrote, not from the report's echo of them.  Polynomials are dicts
mapping exponent tuples to Fractions (field Q only).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# Failure reasons.  Every reason except BOUNDARY_TOLERANCE means the program
# produced a wrong or missing answer.  BOUNDARY_TOLERANCE is a known program
# defect: a Dirichlet solution passes both exact checks, but the sampled
# boundary check compares |f - h| with an absolute tolerance, so data with a
# large |f| exits 1.
EXCEPTION = "exception"
BAD_REPORT = "bad_report"
EXIT_CODE = "exit_code"
VERDICT = "verdict"
RECHECK = "recheck"
BOUNDARY_TOLERANCE = "boundary_tolerance"
NONDETERMINISTIC = "nondeterministic"
NOT_WRONG = frozenset({BOUNDARY_TOLERANCE})


# --- polynomial arithmetic ---------------------------------------------------

def _clean(terms):
    return {m: c for m, c in terms.items() if c}


def add(p, q, sign=1):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + sign * c
    return _clean(out)


def mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return _clean(out)


def laplacian(p):
    out = {}
    for m, c in p.items():
        for axis, e in enumerate(m):
            if e >= 2:
                lowered = m[:axis] + (e - 2,) + m[axis + 1:]
                out[lowered] = out.get(lowered, 0) + c * e * (e - 1)
    return _clean(out)


def from_json(obj):
    if obj["field"] != "Q":
        raise ValueError("the checker handles field Q only")
    return _clean({
        tuple(t["exps"]): Fraction(int(t["coeff"]["num"]), int(t["coeff"]["den"]))
        for t in obj["terms"]
    })


# --- expression parser for the generated strings -----------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


def parse(text, names):
    """Parse + - * / ^ and parentheses over integer literals and variables."""
    tokens = _TOKEN.findall(text)
    pos = 0
    arity = len(names)

    def const(value):
        return _clean({(0,) * arity: Fraction(value)})

    def peek():
        return tokens[pos] if pos < len(tokens) else ("", "", "")

    def take(op):
        nonlocal pos
        if peek()[2] != op:
            raise ValueError(f"expected {op!r} in {text!r}")
        pos += 1

    def expr():
        sign = 1
        if peek()[2] in ("+", "-"):
            sign = -1 if peek()[2] == "-" else 1
            take(peek()[2])
        value = add({}, term(), sign)
        while peek()[2] in ("+", "-"):
            op = peek()[2]
            take(op)
            value = add(value, term(), 1 if op == "+" else -1)
        return value

    def term():
        value = power()
        while peek()[2] in ("*", "/"):
            op = peek()[2]
            take(op)
            rhs = power()
            if op == "*":
                value = mul(value, rhs)
            else:
                divisor = rhs.get((0,) * arity)
                if divisor is None or len(rhs) != 1:
                    raise ValueError(f"division by a non-constant in {text!r}")
                value = {m: c / divisor for m, c in value.items()}
        return value

    def power():
        nonlocal pos
        base = atom()
        if peek()[2] == "^":
            take("^")
            exponent = int(peek()[0])
            pos += 1
            result = const(1)
            for _ in range(exponent):
                result = mul(result, base)
            return result
        return base

    def atom():
        nonlocal pos
        number, name, op = peek()
        if number:
            pos += 1
            return const(int(number))
        if name:
            pos += 1
            exps = [0] * arity
            exps[names.index(name)] = 1
            return {tuple(exps): Fraction(1)}
        take("(")
        value = expr()
        take(")")
        return value

    value = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return value


# --- per-job verdict ---------------------------------------------------------

def _check_decomposition(job, report):
    names = job["vars"].split(",")
    psi, f = (parse(text, names) for text in job["decomposition"])
    result = report["result"]
    q, h = from_json(result["q"]["poly"]), from_json(result["h"]["poly"])
    if add(add(mul(psi, q), h), f, -1) or laplacian(h):
        return RECHECK, "psi*q + h != f or laplacian(h) != 0"
    return None


def _check_residual(job, report):
    psi = parse(job["residual"], job["vars"].split(","))
    result = report["result"]
    factor = result["factor"]
    if factor is None or not report["checks"]["proportional_to_psi"]:
        return VERDICT, "residual reported as not proportional to psi"
    factor = Fraction(int(factor["num"]), int(factor["den"]))
    residual = from_json(result["residual"]["poly"])
    if not factor or add(residual, {m: factor * c for m, c in psi.items()}, -1):
        return RECHECK, "residual != factor*psi"
    return None


def _check_verdicts(job, report):
    verdicts = report["result"]["profile"]["verdicts"]
    got = [[v["status"], v["slack"]] for v in verdicts]
    if got != job["verdicts"]:
        return VERDICT, f"verdicts {got}"
    return None


def _check_slices(job, report):
    slices = report["result"]["slices"]
    if len(slices) != job["slices"] or not all(
        s["nonsingular"] and s["rank"] == s["dimension"] for s in slices
    ):
        return VERDICT, "a Fischer-theorem slice is singular or missing"
    return None


def check_job(job, code, stdout, error=None):
    """Return None for a correct job, else (reason, detail)."""
    if error is not None:
        return EXCEPTION, error
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return BAD_REPORT, f"exit {code}: {exc}"
    try:
        if "decomposition" in job:
            found = _check_decomposition(job, report)
        elif "residual" in job:
            found = _check_residual(job, report)
        elif "verdicts" in job:
            found = _check_verdicts(job, report)
        else:
            found = _check_slices(job, report)
    except (KeyError, TypeError, ValueError) as exc:
        return BAD_REPORT, f"{type(exc).__name__}: {exc}"
    if found is not None:
        return found
    if code != job["exit"]:
        checks = report.get("checks", {})
        error = checks.get("boundary_max_error")
        tol = report.get("config", {}).get("tol_boundary")
        if (code == 1 and checks.get("harmonic_exact") and checks.get("identity_exact")
                and error is not None and tol is not None and error >= tol):
            return BOUNDARY_TOLERANCE, f"boundary_max_error {error!r} >= {tol!r}"
        return EXIT_CODE, f"exit {code}, expected {job['exit']}"
    return None


def ladder_rungs(stdout):
    """(covering rungs, rungs eliminated) of a filtered-mode profile report."""
    try:
        profile = json.loads(stdout)["result"]["profile"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return 0, 0
    if profile.get("mode") != "filtered":
        return 0, 0
    eliminated = [row for row in profile["rows"] if row["dim_source"] > 0]
    return sum(1 for row in eliminated if row["surjective"]), len(eliminated)
