import hashlib
import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from fischerlab import (
    FIELD_Q,
    FIELD_QI,
    MAX_SLICE_DIMENSION,
    BijectivitySlice,
    FischerOperator,
    Poly,
    QuadricDomain,
    RankProfileRow,
    VerificationRecord,
    boundary_samples,
    cli,
    dirichlet,
    dirichlet_solve,
    fischer_decompose,
    fischer_theorem_check,
    homogeneous_basis,
    operator_matrix,
    poly_from_json,
    poly_to_json,
    rank_profile,
    scalar_from_json,
    scalar_to_json,
    verify_solution,
)
from fischerlab.cli import run
from fischerlab.exprs import MAX_POWER_BITS, format_polynomial, parse_polynomial
from helpers import reference_rank


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_rank_profile_circle(capsys):
    code, report, _ = run_json(
        capsys,
        "rank-profile", "--psi", "x^2+y^2-1", "--vars", "x,y", "--max-degree", "8",
    )
    assert code == 0
    assert report["tool_version"]
    assert report["command"] == "rank-profile"
    assert report["checks"]["all_surjective"] is True
    verdicts = report["result"]["profile"]["verdicts"]
    assert len(verdicts) == 9
    assert all(v["status"] == "surjective" and v["slack"] == 0 for v in verdicts)


def test_rank_profile_homogeneous_negative_exits_1(capsys):
    code, report, _ = run_json(
        capsys,
        "rank-profile", "--psi", "x^3", "--vars", "x,y",
        "--max-degree", "3", "--mode", "homogeneous",
    )
    assert code == 1
    statuses = {v["status"] for v in report["result"]["profile"]["verdicts"]}
    assert statuses == {"not_surjective"}


def test_rank_profile_filtered_undetermined_exits_3(capsys):
    code, report, _ = run_json(
        capsys,
        "rank-profile", "--psi", "x^3", "--vars", "x,y", "--max-degree", "2",
    )
    assert code == 3
    assert report["checks"]["all_surjective"] is False


def test_dirichlet_ellipse_example(capsys):
    code, report, _ = run_json(
        capsys,
        "dirichlet", "--psi", "1/4*x^2+y^2-1", "--f", "x^2",
        "--vars", "x,y", "--interior", "0,0",
    )
    assert code == 0
    assert report["result"]["h"]["expr"] == "4/5*x^2 - 4/5*y^2 + 4/5"
    assert report["result"]["q"]["expr"] == "4/5"
    assert report["checks"]["passed"] is True
    assert report["checks"]["samples"] == 100
    assert report["checks"]["boundary_max_error"] < 1e-9


def test_dirichlet_verification_failure_exit_code(capsys):
    # the saddle slice is inconsistent: mapped to exit 1
    code, out, err = run_cli(
        capsys,
        "dirichlet", "--psi", "x*y-1", "--f", "x^2",
        "--vars", "x,y", "--interior", "0,0",
    )
    assert code == 1
    assert "slice" in err


def test_decompose_circle(capsys):
    code, report, _ = run_json(
        capsys,
        "decompose", "--psi", "x^2+y^2-1", "--f", "x^2", "--vars", "x,y",
    )
    assert code == 0
    assert report["result"]["q"]["expr"] == "1/2"
    assert report["result"]["h"]["expr"] == "1/2*x^2 - 1/2*y^2 + 1/2"
    assert report["checks"] == {"identity_exact": True, "h_harmonic_exact": True}


def test_decompose_harmonic_data_succeeds_with_zero_quotient(capsys):
    # harmonic data decomposes as f = psi*0 + f at any slack
    code, report, _ = run_json(
        capsys,
        "decompose", "--psi", "x^3", "--f", "y", "--vars", "x,y", "--slack", "0",
    )
    assert code == 0
    assert report["result"]["q"]["expr"] == "0"
    assert report["result"]["h"]["expr"] == "y"


def test_decompose_undetermined_exits_3(capsys):
    code, report, _ = run_json(
        capsys,
        "decompose", "--psi", "x^3", "--f", "y^2", "--vars", "x,y", "--slack", "0",
    )
    assert code == 3
    assert report["result"]["found"] is False
    assert report["result"]["max_slack_tried"] == 0


def test_fischer_theorem_negative_degree_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "fischer-theorem", "--p", "x^2+y^2", "--vars", "x,y",
                             "--max-degree", "-1")
    assert code == 2
    assert out == ""
    assert "max_degree must be a non-negative int" in err


def test_fischer_theorem_cli(capsys):
    code, report, _ = run_json(
        capsys,
        "fischer-theorem", "--p", "x^2+y^2", "--vars", "x,y", "--max-degree", "4",
    )
    assert code == 0
    assert report["checks"]["all_nonsingular"] is True
    assert [s["degree"] for s in report["result"]["slices"]] == [0, 1, 2, 3, 4]


def test_khavinson_cli(capsys):
    code, report, _ = run_json(
        capsys,
        "khavinson", "--phi", "0,1", "--max-degree", "2", "--slack", "2",
    )
    assert code == 0
    assert report["config"]["field"] == "Qi"
    assert report["config"]["vars"] == ["x1", "x2", "x3"]
    assert report["checks"]["all_surjective"] is True


def test_khavinson_rejects_field_q(capsys):
    code, _, err = run_cli(
        capsys,
        "khavinson", "--phi", "0,1", "--max-degree", "1", "--field", "Q",
    )
    assert code == 2
    assert "Qi" in err


def test_ks_residual_cli(capsys):
    code, report, _ = run_json(
        capsys,
        "ks-residual", "--psi", "1/4*x^2+y^2-1", "--vars", "x,y", "--interior", "0,0",
    )
    assert code == 0
    assert report["checks"]["proportional_to_psi"] is True
    assert report["result"]["factor"] == {"num": "8", "den": "5"}


def test_ks_residual_non_ellipsoidal_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys,
        "ks-residual", "--psi", "x^2-y^2-1", "--vars", "x,y", "--interior", "0,0",
    )
    assert code == 2
    assert "ellipsoidal" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--psi", "x^2", "--f", "x"),  # missing --vars
        ("decompose", "--psi", "x^2 + $", "--f", "x", "--vars", "x"),  # parse error
        ("decompose", "--psi", "x^2", "--f", "w", "--vars", "x,y"),  # unknown var
        ("decompose", "--psi", "i*x^2", "--f", "x", "--vars", "x"),  # i over field Q
        ("decompose", "--psi", "x^2", "--f", "x", "--vars", "x,x"),  # duplicate names
        ("dirichlet", "--psi", "x^2+y^2-1", "--f", "x", "--vars", "x,y", "--interior", "0"),
        ("dirichlet", "--psi", "x^2+y^2-1", "--f", "x", "--vars", "x,y", "--interior", "2,0"),
        ("rank-profile", "--psi", "x^2+y^2-1", "--vars", "x,y", "--max-degree", "2", "--mode", "homogeneous"),
        ("decompose", "--psi", "x^2", "--f", "x", "--vars", "x", "--slack", "-1"),
        ("decompose", "--psi", "x^2", "--f", "x", "--vars", "x", "--tol-root", "0"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err


@pytest.mark.parametrize("opening", ["(", "-("])
def test_deeply_nested_psi_is_a_usage_error(capsys, opening):
    psi = opening * 5000 + "x" + ")" * 5000
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "decompose", f"--psi={psi}", "--f", "x", "--vars", "x")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "nest deeper" in err


@pytest.mark.parametrize(
    "argv",
    [
        # a coefficient beyond the float range, in f and in psi
        ["dirichlet", "--psi", "x^2+y^2-1", "--f", "10^400*x^2", "--interior", "0,0"],
        ["dirichlet", "--psi", "x^2+y^2-10^400", "--f", "x^2", "--interior", "0,0"],
        ["ks-residual", "--psi", "x^2+y^2-10^400", "--interior", "0,0"],
        # a power of a coordinate beyond it
        ["dirichlet", "--psi", "x^2+y^2-1", "--f", "x^3", "--interior", "1e308,0"],
    ],
    ids=["f-coefficient", "psi-coefficient", "ks-residual", "interior-power"],
)
def test_float_overflow_is_a_usage_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--vars", "x,y")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: floating-point evaluation overflowed")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--psi", "x^2+y^2-1", "--f", "x^99999999", "--vars", "x,y"],
        ["rank-profile", "--psi", "x^2+y^2-1", "--vars", "x,y", "--max-degree", "99999999"],
        ["fischer-theorem", "--p", "x^2+y^2", "--vars", "x,y", "--max-degree", "99999999"],
        # p * q has degree max_degree + deg p, past the bound for any max_degree
        ["fischer-theorem", "--p", "x^3000000", "--vars", "x", "--max-degree", "0"],
        ["khavinson", "--phi", "0,0,1", "--max-degree", "99999999"],
        ["dirichlet", "--psi", "x^2+y^2-1", "--f", "x^99999999", "--vars", "x,y",
         "--interior", "0,0"],
    ],
    ids=["decompose", "rank-profile", "fischer-theorem", "fischer-theorem-p-degree",
         "khavinson", "dirichlet"],
)
def test_oversized_slice_is_a_usage_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: the ")
    assert f"more than the limit of {MAX_SLICE_DIMENSION}" in err
    assert err.count("\n") == 1


def test_expanding_a_large_power_of_a_sum_is_a_usage_error(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "decompose", "--psi", "x^2+y^2-1", "--f", "(x+y)^2000", "--vars", "x,y"
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: a product of sums expands to degree 2000")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, what",
    [
        (["decompose", "--psi", "x^2+y^2-1", "--f", "3^40000000*x^2", "--vars", "x,y"],
         "a power of one term"),
        (["khavinson", "--phi", "0,3^40000000", "--max-degree", "2"], "a power of one term"),
        # a hundred admitted factors: each 3^41000 has about 65000 bits
        (["decompose", "--psi", "x^2+y^2-1", "--f", "3^41000*" * 100 + "x", "--vars", "x,y"],
         "a product"),
    ],
    ids=["decompose", "khavinson", "product"],
)
def test_large_constant_power_is_a_usage_error(capsys, argv, what):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {what} could give a coefficient of over")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_large_admitted_constants_still_parse(capsys):
    assert parse_polynomial("(2*x*y)^9999", ["x", "y"]).degree == 19998
    code, out, _ = run_cli(capsys, "decompose", "--psi", "x^2+y^2-1", "--f",
                           "10^400*x^2", "--vars", "x,y")
    assert code == 0
    assert json.loads(out)["result"]["f"]["expr"] == f"{10**400}*x^2"


def test_one_parser_serves_every_run(capsys):
    # the cached parser gives each run the output of a freshly built one
    sequence = [
        ["decompose", "--psi", "x^2+y^2-1", "--f", "x^3*y", "--vars", "x,y"],
        ["rank-profile", "--psi", "x^2+y^2-1", "--vars", "x,y"],  # no --max-degree
        ["--version"],
        ["decompose", "--psi", "x^2+y^2-1", "--f", "x^3*y", "--vars", "x,y"],
    ]
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0]
    assert [run_cli(capsys, *argv) for argv in sequence] == fresh
    assert cli.build_parser() is cli.build_parser()


def test_unknown_subcommand_exits_2(capsys):
    assert run(["solve-everything"]) == 2
    capsys.readouterr()


def test_json_reports_are_byte_identical_for_same_seed(capsys):
    argv = (
        "dirichlet", "--psi", "x^2+y^2-1", "--f", "x^2*y",
        "--vars", "x,y", "--interior", "0,0", "--seed", "11",
    )
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_from_environment_and_override(capsys, monkeypatch):
    argv = (
        "dirichlet", "--psi", "x^2+y^2-1", "--f", "x^2",
        "--vars", "x,y", "--interior", "0,0",
    )
    monkeypatch.setenv("FISCHERLAB_SEED", "17")
    _, out_env, _ = run_cli(capsys, *argv)
    assert json.loads(out_env)["config"]["seed"] == 17
    _, out_flag, _ = run_cli(capsys, *argv, "--seed", "17")
    assert out_env == out_flag
    _, out_other, _ = run_cli(capsys, *argv, "--seed", "23")
    assert json.loads(out_other)["config"]["seed"] == 23


def test_text_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--psi", "x^2+y^2-1", "--f", "x^2",
        "--vars", "x,y", "--format", "text",
    )
    assert code == 0
    assert "q = 1/2" in out
    assert "h = 1/2*x^2 - 1/2*y^2 + 1/2" in out


def test_csv_output_for_dirichlet(capsys):
    code, out, _ = run_cli(
        capsys,
        "dirichlet", "--psi", "x^2+y^2-1", "--f", "x^2",
        "--vars", "x,y", "--interior", "0,0",
        "--format", "csv", "--samples", "5", "--seed", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,psi,f_minus_h"
    assert len(lines) == 6
    for line in lines[1:]:
        x, y, psi_val, diff = map(float, line.split(","))
        assert abs(x * x + y * y - 1.0) < 1e-12
        assert abs(psi_val) < 1e-12
        assert abs(diff) < 1e-9


def test_csv_output_for_rank_profile(capsys):
    code, out, _ = run_cli(
        capsys,
        "rank-profile", "--psi", "x^2+y^2-1", "--vars", "x,y",
        "--max-degree", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "target_degree,source_degree,dim_source,dim_target,rank,surjective"
    assert len(lines) == 4


def test_csv_output_unavailable_for_decompose(capsys):
    code, _, err = run_cli(
        capsys,
        "decompose", "--psi", "x^2+y^2-1", "--f", "x^2",
        "--vars", "x,y", "--format", "csv",
    )
    assert code == 2
    assert "csv" in err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys,
        "decompose", "--psi", "x^2+y^2-1", "--f", "x^2",
        "--vars", "x,y", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert str(target) in err
    report = json.loads(target.read_text())
    assert report["command"] == "decompose"


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_out_flag_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, where):
    target = tmp_path / "no-such-directory" / "report.json" if where == "missing" else tmp_path
    code, out, err = run_cli(
        capsys,
        "decompose", "--psi", "x^2+y^2-1", "--f", "x^2",
        "--vars", "x,y", "--out", str(target),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_coefficients_past_the_int_string_digit_limit(capsys):
    # 3^20000 has 9543 digits: within the parser's bit bound, past the 4300
    # digits that str() and int() convert by default
    names = ["x", "y"]
    f_text = "3^20000*x^2"
    code, out, err = run_cli(capsys, "decompose", "--psi", "x^2+y^2-1", "--f", f_text,
                             "--vars", "x,y")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    cert = fischer_decompose(parse_polynomial("x^2+y^2-1", names), parse_polynomial(f_text, names))
    for key in ("q", "h"):
        p = getattr(cert, key)
        assert poly_from_json(result[key]["poly"]) == p
        assert poly_from_json(poly_to_json(p)) == p
    assert result["f"]["expr"] == f"{Decimal(3**20000)}*x^2"
    code, out, err = run_cli(capsys, "decompose", "--psi", "x^2+y^2-1", "--f", f_text,
                             "--vars", "x,y", "--format", "text")
    assert (code, err) == (0, "")
    big = Fraction(3**20000, 7)
    assert scalar_from_json(scalar_to_json(big), FIELD_Q) == big


def test_an_integer_literal_past_the_digit_bound_is_a_parse_error(capsys):
    # the parser's one bound, at the literal's position: no literal may have
    # more digits than the largest MAX_POWER_BITS-bit int, 19729; one past
    # the 4300 digits of CPython's int() is read all the same
    argv = ["decompose", "--psi", "x^2+y^2-1", "--vars", "x,y", "--f"]
    assert run_cli(capsys, *argv, "7" * 5000 + "*x^2")[0] == 0
    largest = 2**MAX_POWER_BITS - 1
    assert parse_polynomial(str(Decimal(largest)), ["x"]) == Poly.constant(1, largest)
    for prefix in ("", "x+"):
        code, out, err = run_cli(capsys, *argv, prefix + "7" * 19730 + "*x^2")
        assert (code, out) == (2, "")
        assert err == (f"error: integer literal of over 19729 digits, the most that a"
                       f" {MAX_POWER_BITS}-bit int has (at position {len(prefix)})\n")


def test_a_coefficient_past_the_int_string_digit_limit_reparses(capsys):
    # the printed text of a 9543-digit coefficient is a valid --f
    names = ["x", "y"]
    p = parse_polynomial("3^20000*x^2", names)
    text = format_polynomial(p, names)
    assert parse_polynomial(text, names) == p
    code, out, err = run_cli(capsys, "decompose", "--psi", "x^2+y^2-1", "--f", text,
                             "--vars", "x,y")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["f"]["expr"] == text


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


_ELLIPSE_DIRICHLET = (
    "dirichlet", "--psi", "1/4*x^2+y^2-1", "--f", "x^3*y+x", "--vars", "x,y",
    "--interior", "0,0", "--seed", "3", "--samples", "3",
)
_ELLIPSE_TEXT = """\
psi = 1/4*x^2 + y^2 - 1
f = x^3*y + x
q = 4/5*x*y
h = 4/5*x^3*y - 4/5*x*y^3 + 4/5*x*y + x
harmonic_exact = True
identity_exact = True
boundary_max_error = 2.220446049250313e-16 over 3 samples
passed = True
"""
_ELLIPSE_CSV = """\
x,y,psi,f_minus_h
0.07571064682695175,0.999283230365276,0.0,6.938893903907228e-18
-0.8496340246077344,0.9052792420337584,2.220446049250313e-16,-2.220446049250313e-16
-0.8879620945589933,-0.896036176533404,0.0,1.1102230246251565e-16
"""
# sha256 of the 2-space indented JSON report for the same argv
_ELLIPSE_JSON_SHA256 = "eb38d2904a2e3273c3ff2847099342164a1d51b8056ce193cc700ce7d847ae4c"


def test_dirichlet_outputs_are_pinned_on_an_ellipse(capsys):
    code, out, _ = run_cli(capsys, *_ELLIPSE_DIRICHLET, "--format", "text")
    assert code == 0
    assert out == _ELLIPSE_TEXT
    code, out, _ = run_cli(capsys, *_ELLIPSE_DIRICHLET, "--format", "csv")
    assert code == 0
    assert out == _ELLIPSE_CSV
    code, out, _ = run_cli(capsys, *_ELLIPSE_DIRICHLET, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["q"]["expr"] == "4/5*x*y"
    assert report["checks"]["boundary_max_error"] == 2.220446049250313e-16
    assert hashlib.sha256(out.encode()).hexdigest() == _ELLIPSE_JSON_SHA256


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--psi", "x^2+y^2-1", "--f", "x\u00b2", "--vars", "x,y"],
        ["rank-profile", "--psi", "x^\u00b2+y^2-1", "--vars", "x,y", "--max-degree", "2"],
        ["fischer-theorem", "--p", "x^\u0663", "--vars", "x", "--max-degree", "2"],
        ["khavinson", "--phi", "0,\u0661/\u0662", "--max-degree", "2"],
    ],
    ids=["superscript-two", "exponent-superscript-two", "arabic-indic-exponent",
         "arabic-indic-fraction"],
)
def test_non_ascii_digits_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: unexpected character ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_csv_reuses_the_verified_boundary_points(capsys, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return boundary_samples(*args, **kwargs)

    # in dirichlet, where verify_solution calls it, and in cli, should it call it again
    monkeypatch.setattr(dirichlet, "boundary_samples", spy)
    monkeypatch.setattr(cli, "boundary_samples", spy, raising=False)
    code, out, _ = run_cli(capsys, *_ELLIPSE_DIRICHLET, "--format", "csv")
    assert (code, out) == (0, _ELLIPSE_CSV)
    assert len(calls) == 1


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_dirichlet_csv_rows_are_built_only_for_csv(capsys, monkeypatch, fmt):
    def fail(*args, **kwargs):
        raise AssertionError("csv rows built for another format")

    monkeypatch.setattr(cli, "_dirichlet_csv", fail)
    code, _, _ = run_cli(capsys, *_ELLIPSE_DIRICHLET, "--format", fmt)
    assert code == 0


def test_csv_rows_are_the_per_point_evaluations(capsys):
    # f is harmonic, so q = 0 and f - h is the zero polynomial, with no term
    # to evaluate; each row holds psi and f - h as Poly.evaluate gives them
    psi_text, f_text = "1/4*x^2+y^2+1/9*z^2-1", "x^2-y^2+3*x*y*z+z"
    code, out, _ = run_cli(
        capsys, "dirichlet", "--psi", psi_text, "--f", f_text, "--vars", "x,y,z",
        "--interior", "0,0,0", "--format", "csv", "--samples", "9", "--seed", "17",
    )
    assert code == 0
    psi, f = (parse_polynomial(text, ("x", "y", "z")) for text in (psi_text, f_text))
    solution = dirichlet_solve(QuadricDomain(psi, (0, 0, 0)), f)
    difference = solution.f - solution.h
    assert not solution.q and not difference
    header, *rows = out.splitlines()
    assert header == "x,y,z,psi,f_minus_h" and len(rows) == 9
    for row in rows:
        *coords, psi_value, difference_value = row.split(",")
        point = tuple(float(c) for c in coords)
        assert ",".join(map(repr, point)) == ",".join(coords)
        assert psi_value == repr(psi.evaluate(point))
        assert difference_value == repr(difference.evaluate(point)) == "0.0"


@pytest.mark.parametrize("flag", ["--tol-boundary", "--tol-root"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_tolerances_are_usage_errors(capsys, flag, value):
    code, out, err = run_cli(
        capsys, "dirichlet", "--psi", "1/4*x^2+y^2-1", "--f", "x^2", "--vars", "x,y",
        "--interior", "0,0", f"{flag}={value}",
    )
    assert code == 2
    assert out == ""
    assert "finite" in err


_PINNED_DECOMPOSE = {
    "Q": (
        ("decompose", "--psi", "x^2+y^2-1", "--f", "x^4+y^3*x-2*y", "--vars", "x,y"),
        "7/8*x^2 + 1/2*x*y - 1/8*y^2 + 3/8",
        "31bb65cf667d41e64122cc355b3abab2110241316e82d96c621f9cef12b2937e",
    ),
    "Qi": (
        ("decompose", "--psi", "x^2+(1+i)*y^2-1", "--f", "x^3*y+i*y^2", "--vars", "x,y",
         "--field", "Qi"),
        "(2/5 - 1/5*i)*x*y + (1/5 + 2/5*i)",
        "056045ff628e69469d86e09464d5e3f1124271486bb01f33ccb0aa54fe2374cb",
    ),
}


@pytest.mark.parametrize("field", sorted(_PINNED_DECOMPOSE))
def test_decompose_reports_are_pinned(capsys, field):
    argv, q, digest = _PINNED_DECOMPOSE[field]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["q"]["expr"] == q
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the json and text reports of two decompose runs whose psi has no
# semidefinite top form, so q is searched slice by filtered slice: one that
# finds q and one that exhausts its slack
_PINNED_FILTERED_DECOMPOSE = [
    (("decompose", "--psi", "x^2+3*x*y+y^2-1", "--f", "(2*x-y+1)^4", "--vars", "x,y"), 0,
     {"json": "2d03e9c1ddc81a8a0dfd38115cc9d9ff4b3335e1ab37d3274b11999bcbafebdb",
      "text": "9a69965b2ad976e9872ff1ea31307fef70396398d0a2c5889f88b34762e7d070"}),
    (("decompose", "--psi", "x^2-y^2-1", "--f", "x^4+y^3*x-2*y", "--vars", "x,y",
      "--slack", "3"), 3,
     {"json": "4743ff1dfc41876a697c1ae25461881b7c79db27ac6019746b0ed7324eed0240",
      "text": "881981be59bb4ae149abb9f1b2cb7e9a827a952eb4db27b4aa8533765eb72eac"}),
]


@pytest.mark.parametrize("argv, code, digests", _PINNED_FILTERED_DECOMPOSE,
                         ids=["found", "exhausted"])
def test_filtered_decompose_reports_are_pinned(capsys, argv, code, digests):
    for fmt, digest in digests.items():
        got, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert got == code, fmt
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_fischer_theorem_reports_singular_slices(capsys):
    # over Qi, p(D) = dx + i*dy sends p = x + i*y to 0, so each slice loses rank
    code, out, _ = run_cli(capsys, "fischer-theorem", "--p", "x+i*y", "--vars", "x,y",
                           "--field", "Qi", "--max-degree", "3", "--format", "text")
    assert code == 1
    assert out.splitlines()[1:] == [f"degree {m}: rank {m}/{m + 1} SINGULAR" for m in range(4)] + [
        "all_nonsingular = False"]
    p = parse_polynomial("x+i*y", ("x", "y"), FIELD_QI)
    op = FischerOperator(p, p)
    for m in range(4):
        basis = homogeneous_basis(2, m)
        assert reference_rank(operator_matrix(op, basis, basis)) == m


_FISCHER_THEOREM = (
    "fischer-theorem", "--p", "x^2+y^2+z^2", "--vars", "x,y,z", "--max-degree", "4",
)
_FISCHER_THEOREM_TEXT = """\
p = x^2 + y^2 + z^2
degree 0: rank 1/1 nonsingular
degree 1: rank 3/3 nonsingular
degree 2: rank 6/6 nonsingular
degree 3: rank 10/10 nonsingular
degree 4: rank 15/15 nonsingular
all_nonsingular = True
"""
_FISCHER_THEOREM_JSON_SHA256 = "121859dd2f869bc3e1c6f279d8438dccf6528aabae9dbd934809af1ffddc71fc"


def test_fischer_theorem_outputs_are_pinned(capsys):
    code, out, _ = run_cli(capsys, *_FISCHER_THEOREM, "--format", "text")
    assert code == 0
    assert out == _FISCHER_THEOREM_TEXT
    code, out, _ = run_cli(capsys, *_FISCHER_THEOREM, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _FISCHER_THEOREM_JSON_SHA256


# sha256 of each format of the report as the ladder in the original
# coordinates wrote it: the (w, u, t) coordinates must not move a byte.
# Every phi, "1,1,1" included, takes the (w, u, t) ones, and so does
# rank-profile on the expanded psi of phi = z^2.
_KHAVINSON_PSI_Z2 = (
    "x1^4 + 4*i*x1^3*x2 - 6*x1^2*x2^2 - 4*i*x1*x2^3 + x2^4 - 2*x1^2*x3"
    " - 4*i*x1*x2*x3 + 2*x2^2*x3 + x3^2"
)
_PINNED_LADDERS = [
    (
        ("khavinson", "--phi", "0,1", "--max-degree", "3", "--slack", "2"),
        0,
        {
            "json": "e8221e378aa04ee83fb33aa1eb91aff1b4164692fe2394e13a910bf0711330b4",
            "text": "a525c12d11db9f8083a654f3653fb9ac4cfb4facc9275641291b45327fcd8193",
            "csv": "279d448e38fbfa111bb25d8c39e3cd1bab082477b0e86d661da2e056b4d5bd0d",
        },
    ),
    (
        ("khavinson", "--phi", "0,0,2+3*i", "--max-degree", "3", "--slack", "8"),
        0,
        {
            "json": "9c8c8358fcb8200201dd34cd9c9a5657056a2185fdde0ff5a59daef8af77d8a9",
            "text": "b2ae54699766ffb34874632db287b006db48d9299f3560ac44d04fe20fa6af9f",
            "csv": "17c607a49290b5ba8bef363501d758dfd8ee1102a680fd17820a5e88e9a015d1",
        },
    ),
    (
        ("khavinson", "--phi", "1+2*i,0,0,-i", "--max-degree", "2", "--slack", "8"),
        3,
        {
            "json": "9a8c0ca4de1752591409e18889cde54a7d722f072daec37e0fc61ed0a60eb7b0",
            "text": "98b4303d3240e838462f1cffcfdd8392ada2f593819b4da3a39ce5bd192fe8b4",
            "csv": "e668efdca220a06662318afe9de30308762fef29058949a64d69cffd84b8e68e",
        },
    ),
    (
        ("khavinson", "--phi", "0,0,0,1", "--max-degree", "3", "--slack", "8"),
        3,
        {
            "json": "9fc41aacbb0fbe13ff8a1dd7c440576778336c3fcd4057e5172da263b4adb434",
            "text": "b1dbf9261ab35d64febbf0869dd19df67191699796e5db564da8e897704f9fb5",
            "csv": "f81ca48cc446ac26621bc50a833f116218e157e9336d6546e48d103026433cf0",
        },
    ),
    (
        ("khavinson", "--phi", "0,0,1", "--max-degree", "3", "--slack", "5"),
        3,
        {
            "json": "088863523cf230c7c349e5b203b2094c53f90fd1b1055d6e092d1a6e659e53d3",
            "text": "9bea66e616bb5a8146ccee5a585a805915440ba2aba179b3843dad373945be01",
            "csv": "33fbea8346251d8da8c99da983e8caebe144b8c46aebb4b609cd08e11991e9b2",
        },
    ),
    (
        ("khavinson", "--phi", "1,1,1", "--max-degree", "3", "--slack", "8"),
        0,
        {
            "json": "b86e4d98972db35cdbfc6463306fde3cf93dbbeb7d228ca8c366f2f9ff894c09",
            "text": "a6f4b4db6724e44f17cfb378f806e88c3e8f7900c2e05368d05e7ff52ed55283",
            "csv": "17c607a49290b5ba8bef363501d758dfd8ee1102a680fd17820a5e88e9a015d1",
        },
    ),
    (
        ("rank-profile", "--psi", _KHAVINSON_PSI_Z2, "--vars", "x1,x2,x3", "--field", "Qi",
         "--max-degree", "3", "--slack", "8"),
        0,
        {
            "json": "67332222ff63ea8d02493b71c7353dcb1115f64dbb5d1ef88d685bc6a5954ae4",
            "text": "1023178b2c095f5bf9c416e764ec9baf35a35b45033ed1d33e7f69ebb36c8d5e",
            "csv": "17c607a49290b5ba8bef363501d758dfd8ee1102a680fd17820a5e88e9a015d1",
        },
    ),
]


@pytest.mark.parametrize("argv, code, digests", _PINNED_LADDERS,
                         ids=[argv[2] if argv[0] == "khavinson" else argv[0]
                              for argv, _, _ in _PINNED_LADDERS])
def test_ladder_reports_are_pinned(capsys, argv, code, digests):
    for fmt, digest in digests.items():
        got, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_decompose_on_an_ellipse_ignores_the_slack(capsys):
    argv = ("decompose", "--psi", "x^2+y^2-1", "--f", "x^4", "--vars", "x,y")
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    start = time.perf_counter()
    code, slack_report, err = run_json(capsys, *argv, "--slack", "100")
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    assert slack_report["result"] == report["result"]
    assert slack_report["result"]["q"]["expr"] == "7/8*x^2 - 1/8*y^2 + 3/8"


def test_huge_slack_off_an_ellipsoid_is_a_usage_error(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "decompose", "--psi", "x^2-y^2-1", "--f", "x^4", "--vars", "x,y",
        "--slack", "100",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert f"more than the limit of {MAX_SLICE_DIMENSION}" in err


def test_a_phi_of_high_degree_is_not_expanded(capsys):
    # psi of degree 2k is expanded only when filtered(2k - 2) passes the bound
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "khavinson", "--phi", ",".join(["1"] * 101),
                             "--max-degree", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "phi of degree 100 gives psi of degree 200" in err
    code, _, err = run_cli(capsys, "khavinson", "--phi", ",".join(["1"] * 15),
                           "--max-degree", "0")
    assert code in (0, 3), err


def test_dirichlet_sample_count_is_bounded(capsys):
    argv = ("dirichlet", "--psi", "x^2+y^2-1", "--f", "x^2", "--vars", "x,y",
            "--interior", "0,0", "--samples")
    code, report, err = run_json(capsys, *argv, "10000")
    assert code == 0, err
    assert report["checks"]["samples"] == 10000
    code, out, err = run_cli(capsys, *argv, "10001")
    assert code == 2
    assert out == ""
    assert "sample count must be from 1 to 10000" in err


def test_a_psi_of_huge_degree_is_not_expanded_without_a_slice(capsys):
    # no rung builds a slice, so psi is never read for a change of coordinates
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "rank-profile", "--psi", "x1^400*x3+x1^800", "--vars", "x1,x2,x3",
        "--field", "Qi", "--max-degree", "0", "--format", "text",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "degree 0: undetermined (witness: 1)" in out


# The benchmark's solve-q job: q has coefficients of about 1000 bits, and
# boundary_max_error the bits of 100 float evaluations of f and h.
_SOLVE_Q = (
    "dirichlet", "--psi", "4/9*x^2+y^2+9/25*z^2-1", "--f", "(3*x+y*z+2)^8",
    "--vars", "x,y,z", "--interior", "0,0,0", "--seed", "5",
)
_SOLVE_Q_SHA256 = {
    "json": "742c7976237f0226a36c3a2e42fa2c5f5548e281c9d4f7edb559515b587b6918",
    "text": "d1f07b4e1b82dba4c65b3d6ef6b06d276d04e73f10df6a7fc1bbe2ba81d76f57",
    "csv": "1cdf049df933c2d119184168ecc8815f46cb1d3712584314ffd66a107c1b0485",
}


def test_dirichlet_reports_are_pinned_at_benchmark_scale(capsys):
    for fmt, digest in _SOLVE_Q_SHA256.items():
        code, out, _ = run_cli(capsys, *_SOLVE_Q, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# solve-q's argv at another seed and with other signs: h has 417 terms, and
# boundary_max_error sums them in term order, so any change of that order
# shows in its bits.  Taken before Poly stored its coefficients as ints.
_SOLVE_Q_SIGNED = (
    "dirichlet", "--psi", "4/9*x^2+y^2+9/25*z^2-1", "--f", "(-3*x+1*y*z-2)^8",
    "--vars", "x,y,z", "--interior", "0,0,0", "--seed", "40321",
)
_SOLVE_Q_SIGNED_SHA256 = {
    "json": "75a5320022d3f9312840e56b292edc11868bbcfc32bf03a65c374a8514923f07",
    "text": "bac62b980db5b93864be86ceb55901e5bc47b1c462f690d7aa7c289413b6774d",
    "csv": "16338348fef4af66b4297ebb46f568fa2ec34959fb5b3eb35e0825486081714a",
}


def test_dirichlet_report_is_pinned_for_solve_q_signs(capsys):
    for fmt, digest in _SOLVE_Q_SIGNED_SHA256.items():
        code, out, _ = run_cli(capsys, *_SOLVE_Q_SIGNED, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
        if fmt == "json":
            report = json.loads(out)
            assert len(report["result"]["h"]["poly"]["terms"]) == 417
            assert report["checks"]["boundary_max_error"] == 2.3283064365386963e-09


# The reports that the sampler's rejected rays reach: most rays from the
# center of the hyperboloid miss it, and --samples 1000 draws ten rounds'
# worth of rays on the ellipse.  Taken before the rays were cast in rounds.
_PINNED_SAMPLERS = [
    (
        ("dirichlet", "--psi", "x^2+y^2-z^2-1", "--f", "(x+y*z)^4", "--vars", "x,y,z",
         "--interior", "0,0,0", "--seed", "6", "--samples", "300"),
        {
            "json": "0be8f93d06f2e53ee7b4782a67be9c77f12ca84f0a5aaa2c9726f724bc62739d",
            "text": "34bb062e11609b09786d4426be8342ecdafb6e9dfd0035d8d3a3caabb5ccfcb3",
            "csv": "ff68b75fdb5beb43e63c2201ea3e3cf20ea7669ad774204f9e66dd8b2f918d70",
        },
    ),
    (
        ("dirichlet", "--psi", "1/4*x^2+y^2-1", "--f", "x^3*y+x", "--vars", "x,y",
         "--interior", "0,0", "--seed", "3", "--samples", "1000"),
        {
            "json": "d53625b13e00f284e107d2770e7cf470736902b2831616c5d2ef50daf254f7d2",
            "text": "685647ae00ff26d7ae448933db411088f4ecd9e3d5daee6f5f3aad44ab6cf564",
            "csv": "1006078d365b0ad83acea6263449b6c27285d5907cfc065397696913b33878da",
        },
    ),
]


@pytest.mark.parametrize("argv, digests", _PINNED_SAMPLERS, ids=["hyperboloid", "ellipse-1000"])
def test_sampled_reports_are_pinned(capsys, argv, digests):
    for fmt, digest in digests.items():
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_report_records_hold_only_scalars():
    # the reports copy these named tuples with record._asdict(): shallow, so
    # a safe copy only while every field is a scalar
    x, y = (Poly.variable(2, i) for i in range(2))
    circle = x * x + y * y - Poly.constant(2, 1)
    records = [
        *rank_profile(circle, 3).rows,
        *fischer_theorem_check(x * x + y * y, 3),
        verify_solution(dirichlet_solve(QuadricDomain(circle, (0, 0)), x**3),
                        rng=random.Random(1)),
    ]
    assert {type(r) for r in records} == {RankProfileRow, BijectivitySlice, VerificationRecord}
    for record in records:
        copy = record._asdict()
        # the report keys are the fields, in their order
        assert tuple(copy) == type(record)._fields
        assert tuple(copy.values()) == tuple(record)
        assert all(isinstance(v, (int, float, type(None))) for v in copy.values())


def test_start_up_loads_no_introspection_modules():
    # every CLI call imports the package: dataclasses would pull in inspect,
    # ast, dis and tokenize, and build each class through exec.  -S keeps
    # site's own imports out of sys.modules.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, fischerlab, fischerlab.cli; fischerlab.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} "
            "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# A non-diagonal quadric takes one solve of its whole filtered slice.  The
# filtered decompose slices of x^4+y^2-1 were each refused as inconsistent;
# its degree blocks now prove that no q exists.  Taken before solve
# eliminated only the rows that its rhs reaches.
_PINNED_FILTERED_SOLVES = [
    (
        ("dirichlet", "--psi", "x^2+x*y+2*y^2-1", "--f", "(x+y*y-2)^5", "--vars", "x,y",
         "--interior", "0,0"),
        0,
        {
            "json": "aaa73480f87df333f29c9dbb5439e3396b3ec82ad8ac22ec7778ac057dffdbb3",
            "text": "43ad9be39463f8fc2f0ac5084a61d282a89dd4da7c9edee437dfaf5e336bcb30",
        },
    ),
    (
        ("decompose", "--psi", "x^4+y^2-1", "--f", "(x^2+y)^4", "--vars", "x,y",
         "--slack", "4"),
        3,
        {
            "json": "59cd20a4bd683318785e7e67ae31c088d758941c73a32870233d753ef7d56996",
            "text": "34141ff3980e5cb4029efeb5b0dda14f6bb2d02ae5a809d5f8c061c027645235",
        },
    ),
]


@pytest.mark.parametrize("argv, code, digests", _PINNED_FILTERED_SOLVES,
                         ids=[argv[0] for argv, _, _ in _PINNED_FILTERED_SOLVES])
def test_filtered_solve_reports_are_pinned(capsys, argv, code, digests):
    for fmt, digest in digests.items():
        got, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# Runs whose psi has a semidefinite top form but is no diagonal ellipsoid:
# taken when they still took the filtered solve, before every such psi went
# to the degree blocks.
_PINNED_BLOCK_SOLVES = [
    (
        ("decompose", "--psi", "x^4+y^4-1", "--f", "(x^4+y^4-1)*(x^2*y-3*x+1)+x^3-3*x*y^2",
         "--vars", "x,y"),
        0,
        {
            "json": "8a49cb9258b5387d839dce3d2fbe3ee7d90d0b0c850b169e2c7c46c3bdfc70bb",
            "text": "55b18dc10c75d1ebdd4c4f3ae34495a346a8bbe23c755234de0e1d36fbfb490a",
        },
    ),
    (
        ("decompose", "--psi", "x^4+y^4-1", "--f", "x^2+y^2", "--vars", "x,y", "--slack", "6"),
        3,
        {
            "json": "9d366c56927033d4d8305d049117b5d7d774d2ebe056f3a60553700cb84186b0",
            "text": "3e42923ec946b2b2deca7c5d3e13cf8cce2010531baa4985d723f790bd12302b",
        },
    ),
    (
        ("decompose", "--psi", "x^2+y^2-1", "--f", "x*z^3+y^2*z-(x+y*z)^4", "--vars", "x,y,z",
         "--slack", "1"),
        0,
        {
            "json": "a15d156da46220f1f424368ce625f197fb6a7b01d87f5668333dbc3e1f30b88c",
            "text": "611fadbdbbc205e85dc6c93d05c3f79d536d0e55065837a8a431bdff9742a1a5",
        },
    ),
    (
        ("dirichlet", "--psi", "x^2-1", "--f", "(x+2*y)^5-y^3", "--vars", "x,y",
         "--interior", "0,0", "--seed", "1"),
        0,
        {
            "json": "a58cd63997d01239fc6610ed47c919f637a570f5863ec0d68bb0c2d5a9d250da",
            "csv": "084ed543fca7b7d026f1d74260aeee0615a84edf4e8beb798f752e7d38e1cbcd",
        },
    ),
    (
        ("dirichlet", "--psi", "x^2+y^2+x-3", "--f", "(x*y+x-1)^3", "--vars", "x,y",
         "--interior", "0,0", "--seed", "1"),
        0,
        {
            "json": "c598143b6b789d1801074c195024aabf290347ab7e3481a0e48ae32718c764e5",
            "csv": "ae0f68926ecb19965f2452ce8bdad37f840cb1f7c300aac91bc62e70b4a34c22",
        },
    ),
]


@pytest.mark.parametrize("argv, code, digests", _PINNED_BLOCK_SOLVES,
                         ids=["quartic", "quartic-none", "cylinder", "strip", "shifted-disk"])
def test_block_solve_reports_are_pinned(capsys, argv, code, digests):
    for fmt, digest in digests.items():
        got, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# The benchmark's witness-q job and one of its small-batch fischer-theorem
# jobs: the rank of every slice, and each witness, is certified mod a prime.
_PINNED_SLICE_REPORTS = [
    (
        ("rank-profile", "--psi=x^3-2*y^3+3*z^3", "--vars", "x,y,z", "--max-degree", "15",
         "--mode", "homogeneous"),
        1,
        {
            "json": "d8640055644cd6da32ae3b53dfbaa9ea57aaeae68eb0d56a3a795a7ad7d5eb9a",
            "text": "e5ae965150df9d723783d261845cbb6791f95c010926f4b14b6dfa9c6e143857",
            "csv": "d2c12a7f4d3a4b274730f7b0faeb59ff4e4181c816920bc85bf2a72778159c0e",
        },
    ),
    (
        ("fischer-theorem", "--p", "2*x^2+3*y^2+z^2", "--vars", "x,y,z", "--max-degree", "7"),
        0,
        {
            "json": "e71366dee65d0f60c9c924c4a96c8cd08d9218ccab4880db87af558b616620b3",
            "text": "ecdae441d5d7c605da1ac2dc39d65339d4aa2295fa09830c7dde002db292899f",
        },
    ),
    # two slices whose mod-p answer needs the exact GrowingEchelon fallback
    # of rank_and_first_missing
    (
        ("fischer-theorem", "--p", "x+i*y", "--vars", "x,y", "--field", "Qi", "--max-degree", "3"),
        1,
        {
            "json": "210cb6d1005c310b7c9ef6ee8d1ddfeca573610b9d89eedc53ab00a84fe3c516",
            "text": "0afdbd084ea39c5cca5ff4e0b739fc2a49d5588dd520192ffb7e10474c460937",
        },
    ),
    (
        ("rank-profile", "--psi=x*y", "--vars", "x,y", "--max-degree", "4", "--mode",
         "homogeneous"),
        1,
        {
            "json": "4073bf6e1f30e1109e5330de28aa1332eace4a1af316f9860a75a543f7c9bc4c",
            "text": "25e152d75c3b5576f0c486d9dbebe8b7df54525031778aa81c03e05f88a8c793",
            "csv": "9f1623c63f1e2bf489d7d2d17106bda257bb053365108a8f9b609275702352ef",
        },
    ),
]


@pytest.mark.parametrize("argv, code, digests", _PINNED_SLICE_REPORTS,
                         ids=["rank-profile", "fischer-theorem", "fischer-theorem-exact",
                              "rank-profile-exact"])
def test_slice_reports_are_pinned_at_benchmark_scale(capsys, argv, code, digests):
    for fmt, digest in digests.items():
        got, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def _exprs(node):
    """Every "expr" string of a JSON report, in document order."""
    if isinstance(node, dict):
        return [node["expr"]] if "expr" in node else _exprs(list(node.values()))
    if isinstance(node, list):
        return [e for v in node for e in _exprs(v)]
    return []


@pytest.mark.parametrize("argv", [
    _PINNED_DECOMPOSE["Q"][0],
    _ELLIPSE_DIRICHLET,
    ("ks-residual", "--psi", "1/4*x^2+y^2-1", "--vars", "x,y", "--interior", "0,0"),
    _FISCHER_THEOREM,
    ("khavinson", "--phi", "0,0,1", "--max-degree", "3", "--slack", "5"),
    ("rank-profile", "--psi", "x^3", "--vars", "x,y", "--max-degree", "3",
     "--mode", "homogeneous"),
], ids=lambda argv: argv[0])
def test_each_polynomial_is_formatted_once(capsys, monkeypatch, argv):
    formatted = []

    def counting(p, names=None):
        formatted.append(p)
        return format_polynomial(p, names)

    monkeypatch.setattr(cli, "format_polynomial", counting)
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code != 2, err
    exprs = _exprs(json.loads(out))
    assert len(formatted) == len(exprs) > 0
    formatted.clear()
    _, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert len(formatted) == len(exprs)
    # the text prints the report's polynomials, as the JSON wrote them
    assert all(expr in out for expr in exprs)


def test_a_json_run_calls_each_tracer_site(capsys, monkeypatch):
    # the benchmark's tracer wraps cli.json.dumps and cli.format_polynomial
    dumps, formatted = [], []

    class CountingJson:
        def __getattr__(self, name):
            return getattr(json, name)

        def dumps(self, *args, **kwargs):
            dumps.append(kwargs)
            return json.dumps(*args, **kwargs)

    def counting(p, names=None):
        formatted.append(p)
        return format_polynomial(p, names)

    monkeypatch.setattr(cli, "json", CountingJson())
    monkeypatch.setattr(cli, "format_polynomial", counting)
    code, out, _ = run_cli(capsys, *_PINNED_DECOMPOSE["Qi"][0], "--format", "json")
    assert code == 0
    assert dumps == [{"indent": 2, "cls": cli.ReportEncoder}]
    assert len(formatted) == len(_exprs(json.loads(out))) == 4


# Reports whose coefficients reach every branch of the printer: a rational
# residual, and Qi psi with a leading minus, pure +-i, k*i, (a + b*i),
# (a - b*i) with a negative real part and an imaginary constant.  Taken
# before the printer read decimal strings in place of Fractions.
_PINNED_RENDERINGS = [
    (
        ("ks-residual", "--psi", "1/4*x^2+y^2-1", "--vars", "x,y", "--interior", "0,0"),
        0,
        {
            "json": "8059270c0117e974bd5d24c11ffcd2871eb13131167cb1e65ee3cc10eb9ec0ed",
            "text": "007cd490bf2431179a686f0654ffa02646c64c96419ca74069b9bbd4c0e5be4e",
        },
    ),
    (
        ("rank-profile", "--psi=-(2-i)*x^3+i*x^2*y-3/2*i*x*y^2+(-1+3*i)*y^3", "--vars",
         "x,y", "--field", "Qi", "--max-degree", "4", "--mode", "homogeneous"),
        1,
        {
            "json": "2753932714a4fa00cc7919eea1d188ba0e93b20b0984117a3a8caabde25ba69d",
            "text": "2920939e782b8e028bedcf6883f511c883756c93317ec77dbf12786bca74236e",
            "csv": "c4da2f8a78cbc9a8e03eac0ce519ee5449fd1685516215357a492caed5bd997f",
        },
    ),
    (
        ("rank-profile", "--psi=(1-2*i)*x^2-i*x*y+(-3+i)*y^2+(2+i)*x+5/7*i", "--vars",
         "x,y", "--field", "Qi", "--max-degree", "3"),
        0,
        {
            "json": "109769f1d57b2d8c4727d900864a7a0ea906b15384d0c3e0aa0c4a71da166332",
            "text": "3c27152bdcf1a7c914ae67096311f5378c17b799582598bf5cab2377a2332a04",
            "csv": "54d04ecba0b9b64ab4d2911e2c2a960c88bd5d28a22355196ec06f1649ff8e59",
        },
    ),
]


@pytest.mark.parametrize("argv, code, digests", _PINNED_RENDERINGS,
                         ids=["ks-residual", "rank-profile-homogeneous-Qi",
                              "rank-profile-filtered-Qi"])
def test_rendered_reports_are_pinned(capsys, argv, code, digests):
    for fmt, digest in digests.items():
        got, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_only_json_runs_build_the_report_envelope(capsys, monkeypatch):
    # handlers return their parts; run alone builds the envelope, once, for json
    calls = []
    envelope = cli._report

    def spy(command, *rest):
        calls.append(command)
        return envelope(command, *rest)

    monkeypatch.setattr(cli, "_report", spy)
    rank_profile_argv = ("rank-profile", "--psi", "x^2+y^2-1", "--vars", "x,y",
                         "--max-degree", "3")
    for argv in (_PINNED_DECOMPOSE["Q"][0], rank_profile_argv, _ELLIPSE_DIRICHLET,
                 _FISCHER_THEOREM, _PINNED_LADDERS[0][0], _PINNED_RENDERINGS[0][0]):
        calls.clear()
        code, _, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, err
        assert calls == [argv[0]]
    for argv in (rank_profile_argv, _ELLIPSE_DIRICHLET):
        for fmt in ("text", "csv"):
            calls.clear()
            code, _, err = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0, err
            assert calls == [], fmt


def test_the_same_bytes_corpus_covers_every_subcommand_in_every_format():
    # tests/cli_corpus.py is run by hand against two checkouts, and
    # test_corpus runs three of its parts; build all its argvs here, without
    # running them
    import argparse

    import cli_corpus

    def fmt(argv):
        return argv[len(argv) - argv[::-1].index("--format")] if "--format" in argv else "json"

    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(cli_corpus.COMMANDS)
    argvs = cli_corpus.corpus()
    assert {(argv[0], fmt(argv)) for argv in argvs} == {
        (command, f) for command in cli_corpus.COMMANDS for f in cli_corpus.FORMATS}
