import hashlib
import json
import time

import pytest

from fischerlab import MAX_SLICE_DIMENSION, cli
from fischerlab.cli import run
from fischerlab.exprs import parse_polynomial


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
        ["khavinson", "--phi", "0,0,1", "--max-degree", "99999999"],
        ["dirichlet", "--psi", "x^2+y^2-1", "--f", "x^99999999", "--vars", "x,y",
         "--interior", "0,0"],
    ],
    ids=["decompose", "rank-profile", "fischer-theorem", "khavinson", "dirichlet"],
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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_dirichlet_csv_rows_are_built_only_for_csv(capsys, monkeypatch, fmt):
    def fail(*args, **kwargs):
        raise AssertionError("csv rows built for another format")

    monkeypatch.setattr(cli, "_dirichlet_csv", fail)
    code, _, _ = run_cli(capsys, *_ELLIPSE_DIRICHLET, "--format", fmt)
    assert code == 0


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
