"""Command-line front-end.

Every core computation is exposed as a subcommand emitting a JSON report
envelope {tool_version, command, config, result, checks} (or a text / CSV
rendering).  Exit codes: 0 success or verified, 1 verification failure,
2 parse or usage error, 3 undetermined result.  Runs are reproducible:
the seed comes from --seed, else FISCHERLAB_SEED, else 0, and identical
argv plus seed yield byte-identical JSON.

Each subparser carries its handler.  A handler returns the parts of its
report: (result, checks, exit code, text lines, csv text or None); run
alone assembles the envelope, for json output only, and renders the
chosen format.

Each polynomial of a report is printed once, as its "expr" and its "poly",
both from the decimal strings that Poly.decimal_terms builds once (from a
solve's lowest-terms coordinates for q, else from the ints).
The JSON text is that of json.dumps(report, indent=2), written in one pass
(see _jsonwriter) by the one call site json.dumps(report, indent=2,
cls=ReportEncoder), and its closing newline is a second write: no copy.
"""

import argparse
import functools
import io
import json
import math
import os
import random
import sys
from collections import namedtuple

from . import __version__
from ._jsonwriter import ReportEncoder
from .dirichlet import QuadricDomain, dirichlet_solve, ks_residual, verify_solution
from .errors import (
    FloatEvaluationError,
    NoBoundaryHitError,
    NoDecompositionFoundError,
    ParseError,
    SliceTooLargeError,
    UnsolvableSliceError,
)
from .exprs import format_polynomial, parse_polynomial, parse_scalar, validate_var_names
from .fischer import (
    NOT_SURJECTIVE,
    SURJECTIVE,
    UNDETERMINED,
    fischer_decompose,
    fischer_theorem_check,
    khavinson_psi,
    rank_profile,
)
from .polyring import FILTERED, HOMOGENEOUS, float_sums, poly_to_json
from .scalars import FIELD_Q, FIELD_QI, scalar_to_json

_OUTPUT_FORMATS = ("text", "json", "csv")


RunConfig = namedtuple(
    "RunConfig", "field vars max_degree slack tol_root tol_boundary seed output")


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FISCHERLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"FISCHERLAB_SEED must be an integer, got {env!r}") from None
    return 0


def _build_config(args):
    command = args.command
    field = args.field
    if command == "khavinson":
        if field is None:
            field = FIELD_QI
        if field != FIELD_QI:
            raise ValueError("the khavinson construction lives over field Qi")
    elif field is None:
        field = FIELD_Q
    if args.vars is not None:
        var_names = validate_var_names(args.vars.split(","))
    elif command == "khavinson":
        var_names = ("x1", "x2", "x3")
    else:
        raise ValueError("--vars is required (it fixes the arity and variable order)")
    if command == "khavinson" and len(var_names) != 3:
        raise ValueError("the khavinson construction needs exactly 3 variables")
    slack = getattr(args, "slack", 0)
    if slack < 0:
        raise ValueError("--slack must be non-negative")
    for tol in (args.tol_root, args.tol_boundary):
        if not math.isfinite(tol) or tol <= 0:
            raise ValueError("tolerances must be positive and finite")
    return RunConfig(
        field=field,
        vars=var_names,
        max_degree=getattr(args, "max_degree", None),
        slack=slack,
        tol_root=args.tol_root,
        tol_boundary=args.tol_boundary,
        seed=_resolve_seed(args),
        output=args.format,
    )


def _report(command, config, result, checks):
    return {
        "tool_version": __version__,
        "command": command,
        # a shallow copy: the fields are scalars and vars, a tuple written as a list
        "config": config._asdict(),
        "result": result,
        "checks": checks,
    }


def _poly_payload(p, names):
    return {"expr": format_polynomial(p, names), "poly": poly_to_json(p)}


def _verdict_json(verdict, names):
    return {
        "target_degree": verdict.target_degree,
        "status": verdict.status,
        "slack": verdict.slack,
        "witness": None
        if verdict.witness is None
        else _poly_payload(verdict.witness, names),
    }


def _profile_json(profile, names):
    return {
        "mode": profile.mode,
        "max_target_degree": profile.max_target_degree,
        "slack": profile.slack,
        # shallow copies: every field of the report records is a scalar
        "rows": [row._asdict() for row in profile.rows],
        "verdicts": [_verdict_json(v, names) for v in profile.verdicts],
    }


def _profile_parts(profile, result, text, names):
    """The parts of a rank-profile or khavinson run: result gains the profile,
    text its verdict lines."""
    result["profile"] = profile_json = _profile_json(profile, names)
    # the witnesses' text is the "expr" that _profile_json formatted
    for v, payload in zip(profile.verdicts, profile_json["verdicts"]):
        if v.status == SURJECTIVE:
            text.append(f"degree {v.target_degree}: surjective (slack {v.slack})")
        else:
            witness = payload["witness"]["expr"] if v.witness else "?"
            text.append(f"degree {v.target_degree}: {v.status} (witness: {witness})")
    all_surjective = profile.all_surjective()
    text.append(f"all_surjective = {all_surjective}")
    statuses = {v.status for v in profile.verdicts}
    code = 1 if NOT_SURJECTIVE in statuses else 3 if UNDETERMINED in statuses else 0
    out = io.StringIO()
    out.write("target_degree,source_degree,dim_source,dim_target,rank,surjective\n")
    for row in profile.rows:
        out.write(
            f"{row.target_degree},{row.source_degree},{row.dim_source},"
            f"{row.dim_target},{row.rank},{row.surjective}\n"
        )
    return result, {"all_surjective": all_surjective}, code, text, out.getvalue()


def _parse_interior(text, arity):
    parts = text.split(",")
    if len(parts) != arity:
        raise ValueError(f"--interior needs {arity} comma-separated coordinates")
    try:
        return tuple(float(part) for part in parts)
    except ValueError:
        raise ValueError(f"--interior coordinates must be numbers: {text!r}") from None


def _cmd_decompose(config, args):
    names = config.vars
    psi = parse_polynomial(args.psi, names, config.field)
    f = parse_polynomial(args.f, names, config.field)
    try:
        cert = fischer_decompose(psi, f, config.slack)
    except NoDecompositionFoundError as exc:
        result = {
            "found": False,
            "max_slack_tried": exc.slack,
            "psi": _poly_payload(psi, names),
            "f": _poly_payload(f, names),
        }
        checks = {"identity_exact": None, "h_harmonic_exact": None}
        text = [f"no decomposition found with slack up to {exc.slack} (inconclusive)"]
        return result, checks, 3, text, None
    result = {
        "found": True,
        "psi": _poly_payload(cert.psi, names),
        "f": _poly_payload(cert.f, names),
        "q": _poly_payload(cert.q, names),
        "h": _poly_payload(cert.h, names),
    }
    checks = {"identity_exact": cert.identity_exact, "h_harmonic_exact": cert.h_harmonic_exact}
    code = 0 if cert.identity_exact and cert.h_harmonic_exact else 1
    text = [
        *(f"{key} = {result[key]['expr']}" for key in ("psi", "f", "q", "h")),
        f"identity_exact = {cert.identity_exact}",
        f"h_harmonic_exact = {cert.h_harmonic_exact}",
    ]
    return result, checks, code, text, None


def _cmd_rank_profile(config, args):
    names = config.vars
    psi = parse_polynomial(args.psi, names, config.field)
    profile = rank_profile(psi, args.max_degree, config.slack, args.mode)
    result = {"psi": _poly_payload(psi, names)}
    text = [f"psi = {result['psi']['expr']}", f"mode = {profile.mode}"]
    return _profile_parts(profile, result, text, names)


def _cmd_dirichlet(config, args):
    names = config.vars
    if config.field != FIELD_Q:
        raise ValueError("the Dirichlet solver works over field Q")
    psi = parse_polynomial(args.psi, names, config.field)
    f = parse_polynomial(args.f, names, config.field)
    domain = QuadricDomain(psi, _parse_interior(args.interior, psi.arity))
    solution = dirichlet_solve(domain, f)
    record = verify_solution(
        solution,
        count=args.samples,
        tol=config.tol_boundary,
        rng=random.Random(config.seed),
        root_tol=config.tol_root,
    )
    result = {
        "domain": {
            "psi": _poly_payload(psi, names),
            "interior_point": list(domain.interior_point),
            "ellipsoidal": domain.ellipsoidal,
        },
        "f": _poly_payload(solution.f, names),
        "q": _poly_payload(solution.q, names),
        "h": _poly_payload(solution.h, names),
    }
    checks = record._asdict()
    text = [
        f"psi = {result['domain']['psi']['expr']}",
        *(f"{key} = {result[key]['expr']}" for key in ("f", "q", "h")),
        f"harmonic_exact = {record.harmonic_exact}",
        f"identity_exact = {record.identity_exact}",
        f"boundary_max_error = {record.boundary_max_error!r} over {record.samples} samples",
        f"passed = {record.passed}",
    ]
    csv_text = None
    if config.output == "csv":
        csv_text = _dirichlet_csv(solution, config)
    return result, checks, (0 if record.passed else 1), text, csv_text


def _dirichlet_csv(solution, config):
    # the rows are the boundary points that verify_solution sampled
    points = solution.boundary_points
    psi_sums = float_sums(solution.domain.psi, points)
    difference_sums = float_sums(solution.f - solution.h, points)
    out = io.StringIO()
    out.write(",".join(config.vars) + ",psi,f_minus_h\n")
    for point, (psi_value, _), (difference, _) in zip(points, psi_sums, difference_sums):
        coords = ",".join(repr(c) for c in point)
        out.write(f"{coords},{psi_value!r},{difference!r}\n")
    return out.getvalue()


def _cmd_fischer_theorem(config, args):
    names = config.vars
    p = parse_polynomial(args.p, names, config.field)
    slices = fischer_theorem_check(p, args.max_degree)
    all_nonsingular = all(s.nonsingular for s in slices)
    result = {
        "p": _poly_payload(p, names),
        "slices": [s._asdict() for s in slices],
    }
    checks = {"all_nonsingular": all_nonsingular}
    text = [f"p = {result['p']['expr']}"]
    for s in slices:
        status = "nonsingular" if s.nonsingular else "SINGULAR"
        text.append(f"degree {s.degree}: rank {s.rank}/{s.dimension} {status}")
    text.append(f"all_nonsingular = {all_nonsingular}")
    code = 0 if all_nonsingular else 1
    return result, checks, code, text, None


def _cmd_khavinson(config, args):
    names = config.vars
    coeffs = [parse_scalar(part, FIELD_QI) for part in args.phi.split(",")]
    psi = khavinson_psi(coeffs)
    profile = rank_profile(psi, args.max_degree, config.slack, FILTERED)
    result = {
        "phi_coefficients": [scalar_to_json(c) for c in coeffs],
        "psi": _poly_payload(psi, names),
    }
    return _profile_parts(profile, result, [f"psi = {result['psi']['expr']}"], names)


def _cmd_ks_residual(config, args):
    names = config.vars
    if config.field != FIELD_Q:
        raise ValueError("the residual check works over field Q")
    psi = parse_polynomial(args.psi, names, config.field)
    domain = QuadricDomain(psi, _parse_interior(args.interior, psi.arity))
    report = ks_residual(domain)
    result = {
        "psi": _poly_payload(psi, names),
        "residual": _poly_payload(report.residual, names),
        "factor": None if report.factor is None else scalar_to_json(report.factor),
    }
    checks = {"proportional_to_psi": report.proportional_to_psi}
    factor = result["factor"]
    factor_text = ("none" if factor is None else factor["num"] if factor["den"] == "1"
                   else f"{factor['num']}/{factor['den']}")
    text = [
        f"psi = {result['psi']['expr']}",
        f"residual = {result['residual']['expr']}",
        f"proportional_to_psi = {report.proportional_to_psi}",
        f"factor = {factor_text}",
    ]
    code = 0 if report.proportional_to_psi else 1
    return result, checks, code, text, None


@functools.cache
def build_parser():
    # built once per process: parse_args leaves the parser as it was
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--vars", help="comma-separated variable names (fixes arity and order)")
    common.add_argument("--field", choices=[FIELD_Q, FIELD_QI], default=None)
    common.add_argument("--format", choices=_OUTPUT_FORMATS, default="json")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--tol-root", type=float, default=1e-12)
    common.add_argument(
        "--tol-boundary",
        type=float,
        default=1e-9,
        help="a boundary sample passes when |f - h| < TOL * max(1, sum of |terms "
        "of f|, sum of |terms of h|) at the point (default 1e-9)",
    )
    common.add_argument("--out", help="write the report to a file instead of stdout")
    common.add_argument("--slack", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="fischerlab",
        description="Exact Fischer operators, decompositions, and polynomial "
        "Dirichlet solutions on quadrics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[common], help="f = psi*q + h with h harmonic")
    p.add_argument("--psi", required=True)
    p.add_argument("--f", required=True)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser(
        "rank-profile", parents=[common], help="degree-wise surjectivity evidence"
    )
    p.add_argument("--psi", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--mode", choices=[HOMOGENEOUS, FILTERED], default=FILTERED)
    p.set_defaults(handler=_cmd_rank_profile)

    p = sub.add_parser(
        "dirichlet", parents=[common], help="polynomial Dirichlet solution on a quadric"
    )
    p.add_argument("--psi", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--interior", required=True, help="interior point, e.g. 0,0")
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(handler=_cmd_dirichlet)

    p = sub.add_parser(
        "fischer-theorem",
        parents=[common],
        help="slice-wise bijectivity of q -> p(D)(p*q) for homogeneous p",
    )
    p.add_argument("--p", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(handler=_cmd_fischer_theorem)

    p = sub.add_parser(
        "khavinson",
        parents=[common],
        help="surjectivity profile for psi = (x3 - phi(x1 + i*x2))^2 over Qi",
    )
    p.add_argument("--phi", required=True, help="comma-separated coefficients a0,a1,...")
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(handler=_cmd_khavinson)

    p = sub.add_parser(
        "ks-residual", parents=[common], help="residual check |x|^2 - h against psi"
    )
    p.add_argument("--psi", required=True)
    p.add_argument("--interior", required=True)
    p.set_defaults(handler=_cmd_ks_residual)

    return parser


def run(argv=None):
    """Entry point returning the exit code (see module docstring)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = _build_config(args)
        result, checks, code, text_lines, csv_text = args.handler(config, args)
    except (ParseError, FloatEvaluationError, SliceTooLargeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnsolvableSliceError, NoBoundaryHitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if config.output == "json":
        report = _report(args.command, config, result, checks)
        payload = [json.dumps(report, indent=2, cls=ReportEncoder), "\n"]
    elif config.output == "text":
        payload = ["\n".join(text_lines), "\n"]
    else:
        if csv_text is None:
            print(
                f"error: csv output is not available for {args.command}",
                file=sys.stderr,
            )
            return 2
        payload = [csv_text]
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.writelines(payload)
        except OSError as exc:  # a missing directory, a directory, no permission
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.writelines(payload)
    return code


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
