"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is calibrated
at runtime.
"""

import itertools
import random
import time

import pytest

from fischerlab import (
    FIELD_Q,
    FIELD_QI,
    FischerOperator,
    default_var_names,
    dirichlet_solve,
    fischer_decompose,
    fischer_theorem_check,
    filtered_basis,
    format_polynomial,
    khavinson_psi,
    operator_matrix,
    parse_polynomial,
    rank_profile,
    rref,
    solve,
    verify_solution,
)
from fischerlab.fischer import SURJECTIVE
from helpers import (
    random_ellipsoid,
    random_matrix,
    random_poly,
    random_scalar,
    reference_rank,
)


def _report(name, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {name}: {marker} ({detail})", flush=True)


def test_ellipsoid_bijectivity():
    # filtered slice matrices of ellipsoidal quadrics are square and
    # nonsingular at every degree
    rng = random.Random(2024)
    started = time.perf_counter()
    checked = 0
    failures = []
    cases = [(2, 8, 10), (3, 6, 5)]
    for arity, max_degree, count in cases:
        for _ in range(count):
            domain = random_ellipsoid(rng, arity)
            op = FischerOperator(domain.psi)
            for m in range(max_degree + 1):
                basis = filtered_basis(arity, m)
                matrix = operator_matrix(op, basis, basis)
                checked += 1
                if matrix.rows != matrix.cols:
                    failures.append((arity, m, "not square"))
                elif rref(matrix).rank != len(basis):
                    failures.append((arity, m, "singular"))
    elapsed = time.perf_counter() - started
    passed = not failures and elapsed < 60.0
    _report(
        "ellipsoid bijectivity",
        passed,
        f"{checked} slices, {len(failures)} failures, {elapsed:.1f}s",
    )
    assert not failures
    assert elapsed < 60.0


def test_fischer_decomposition_soundness():
    rng = random.Random(2025)
    started = time.perf_counter()
    failures = 0
    for _ in range(100):
        psi = random_ellipsoid(rng, 2).psi
        f = random_poly(rng, 2, rng.randint(0, 8), max_terms=8)
        cert = fischer_decompose(psi, f, slack=0)
        if (cert.f - cert.psi * cert.q - cert.h) or cert.h.laplacian():
            failures += 1
    elapsed = time.perf_counter() - started
    _report(
        "fischer decomposition soundness",
        failures == 0,
        f"100 certificates, {failures} failures, {elapsed:.1f}s",
    )
    assert failures == 0


def test_fischer_theorem_slices():
    cases = [
        parse_polynomial("x1", ("x1", "x2")),
        parse_polynomial("x1*x2", ("x1", "x2")),
        parse_polynomial("x1^2-x2^2", ("x1", "x2")),
        parse_polynomial("x1^2+x2^2", ("x1", "x2")),
        parse_polynomial("x1^2+x2^2+x3^2", ("x1", "x2", "x3")),
    ]
    singular = []
    for p in cases:
        for record in fischer_theorem_check(p, 6):
            if not record.nonsingular:
                singular.append((format_polynomial(p), record.degree))
    _report(
        "fischer theorem bijectivity",
        not singular,
        f"{len(cases)} operators, degrees <= 6, {len(singular)} singular slices",
    )
    assert not singular


# Slack bound and minimal covering slacks per target degree n = 0..4 on the
# filtered ladder m = n - deg(psi) + 2 + s.  phi=z (deg psi = 2) is covered
# at source degree m = n; phi=z^2 (deg psi = 4) first covers the degree-n
# block at m = 3n, i.e. slack 2n+2 (cross-checked by
# test_khavinson_slack_oracle).
_KHAVINSON_LADDERS = {
    "phi=z": (4, [0, 0, 0, 0, 0]),
    "phi=z^2": (10, [2, 4, 6, 8, 10]),
}


@pytest.mark.parametrize(
    "label,phi_coeffs",
    [("phi=z", [0, 1]), ("phi=z^2", [0, 0, 1])],
)
def test_khavinson_surjectivity(label, phi_coeffs):
    slack, expected = _KHAVINSON_LADDERS[label]
    started = time.perf_counter()
    psi = khavinson_psi(phi_coeffs)
    profile = rank_profile(psi, max_target_degree=4, slack=slack, mode="filtered")
    elapsed = time.perf_counter() - started
    statuses = [v.status for v in profile.verdicts]
    measured = [v.slack for v in profile.verdicts]
    covered = statuses == [SURJECTIVE] * len(expected) and measured == expected
    passed = covered and elapsed < 120.0
    detail = ", ".join(
        f"n={v.target_degree}:{v.status}@s={v.slack} (expected s={e})"
        for v, e in zip(profile.verdicts, expected)
    )
    _report(f"khavinson {label}", passed, f"{detail}, {elapsed:.1f}s")
    assert elapsed < 120.0
    assert covered, (
        f"{label}: slack bound {slack}, schedule m = n - deg(psi) + 2 + s; "
        f"expected surjective at slacks {expected} for n=0..4, measured {detail}"
    )


def test_khavinson_slack_oracle():
    # independent check of the phi=z^2 minimal slacks: sympy alone builds
    # laplacian(psi * x^a) for psi = (x3 - (x1 + i*x2)^2)^2 and ranks the
    # n = 2 system [A | E_2] over QQ<I>, E_2 the unit columns of the
    # monomials of degree <= 2; the block is missed at m = 5, covered at m = 6
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import QQ_I
    from sympy.polys.matrices import DomainMatrix

    xs = sympy.symbols("x1 x2 x3")
    psi = sympy.expand((xs[2] - (xs[0] + sympy.I * xs[1]) ** 2) ** 2)

    def monomials(degree):
        return [
            a for a in itertools.product(range(degree + 1), repeat=3)
            if sum(a) <= degree
        ]

    def ranks(n, m):
        sources = monomials(m)
        targets = monomials(m + 2)
        index = {a: i for i, a in enumerate(targets)}
        rows = [[QQ_I.zero] * len(sources) for _ in targets]
        for j, a in enumerate(sources):
            f = psi * xs[0] ** a[0] * xs[1] ** a[1] * xs[2] ** a[2]
            image = sympy.Poly(sum(sympy.diff(f, v, 2) for v in xs), *xs, domain=QQ_I)
            for exps, c in image.as_dict(native=True).items():
                rows[index[exps]][j] = c
        tested = [a for a in targets if sum(a) <= n]
        block = [[QQ_I.one if a == b else QQ_I.zero for b in tested] for a in targets]
        matrix = DomainMatrix(rows, (len(targets), len(sources)), QQ_I)
        unit = DomainMatrix(block, (len(targets), len(tested)), QQ_I)
        return matrix.rank(), matrix.hstack(unit).rank()

    assert ranks(2, 5) == (56, 57)
    assert ranks(2, 6) == (84, 84)
    profile = rank_profile(khavinson_psi([0, 0, 1]), max_target_degree=2, slack=6)
    ladder = {
        row.source_degree: (row.rank, row.surjective)
        for row in profile.rows
        if row.target_degree == 2
    }
    assert ladder[5] == (56, False)
    assert ladder[6] == (84, True)


def test_dirichlet_correctness():
    rng = random.Random(2026)
    started = time.perf_counter()
    worst = 0.0
    failures = 0
    for _ in range(5):
        domain = random_ellipsoid(rng, 2)
        for _ in range(10):
            f = random_poly(rng, 2, rng.randint(0, 6), max_terms=8)
            solution = dirichlet_solve(domain, f)
            record = verify_solution(
                solution, count=100, tol=1e-9, rng=random.Random(rng.randrange(2**30))
            )
            worst = max(worst, record.boundary_max_error)
            if not record.passed:
                failures += 1
    elapsed = time.perf_counter() - started
    _report(
        "dirichlet correctness",
        failures == 0,
        f"50 problems x 100 samples, max error {worst:.2e}, {elapsed:.1f}s",
    )
    assert failures == 0
    assert worst < 1e-9


def test_ks_residual_proportionality():
    from fischerlab import ks_residual

    rng = random.Random(2027)
    failures = []
    for i in range(10):
        arity = 2 if i % 2 == 0 else 3
        domain = random_ellipsoid(rng, arity)
        report = ks_residual(domain)
        if not report.proportional_to_psi:
            failures.append(format_polynomial(domain.psi))
        else:
            assert report.residual == domain.psi.scale(report.factor)
    _report(
        "ks residual proportionality",
        not failures,
        f"10 ellipsoids, {len(failures)} failures",
    )
    assert not failures


def test_parser_printer_round_trip():
    rng = random.Random(2028)
    failures = 0
    for field in (FIELD_Q, FIELD_QI):
        for _ in range(200):
            arity = rng.randint(1, 3)
            p = random_poly(rng, arity, 6, field, max_terms=8)
            names = default_var_names(arity)
            if parse_polynomial(format_polynomial(p, names), names, field) != p:
                failures += 1
    _report(
        "parser/printer round trip",
        failures == 0,
        f"400 polynomials, {failures} failures",
    )
    assert failures == 0


def test_linear_algebra_self_verification():
    rng = random.Random(2029)
    solve_failures = 0
    for i in range(100):
        field = FIELD_Q if i % 3 else FIELD_QI
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        matrix = random_matrix(rng, rows, cols, field)
        x0 = [random_scalar(rng, field) for _ in range(cols)]
        b = matrix.mul_vector(x0)
        if matrix.mul_vector(solve(matrix, b)) != b:
            solve_failures += 1
    rank_failures = 0
    for i in range(100):
        field = FIELD_Q if i % 3 else FIELD_QI
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        matrix = random_matrix(rng, rows, cols, field)
        if rref(matrix).rank != reference_rank(matrix):
            rank_failures += 1
    _report(
        "linear algebra self-verification",
        solve_failures == 0 and rank_failures == 0,
        f"100 solves ({solve_failures} bad), 100 ranks ({rank_failures} bad)",
    )
    assert solve_failures == 0
    assert rank_failures == 0


def test_khavinson_measured_slack_ladder():
    # documents the measured behavior behind the phi=z^2 criterion: within
    # the schedule m = n - deg(psi) + 2 + s, degrees 0 and 1 are covered by
    # slack <= 4 and degree 2 is not (it needs source degree 6, slack 6)
    psi = khavinson_psi([0, 0, 1])
    profile = rank_profile(psi, max_target_degree=1, slack=4)
    assert [v.status for v in profile.verdicts] == [SURJECTIVE, SURJECTIVE]
    assert [v.slack for v in profile.verdicts] == [2, 4]
    deeper = rank_profile(psi, max_target_degree=2, slack=6)
    assert deeper.verdicts[2].status == SURJECTIVE
    assert deeper.verdicts[2].slack == 6


# phi = z^k first covers the degree-n block at slack (2k - 2)(n + 1), the
# source degree 2k - 2 + (2k - 1)n: the ladder's minimal slacks up to n
_MINIMAL_SLACK_LADDERS = {2: (8, 18), 3: (3, 16)}


@pytest.mark.parametrize("k", sorted(_MINIMAL_SLACK_LADDERS))
def test_khavinson_minimal_slack(k):
    max_target_degree, slack = _MINIMAL_SLACK_LADDERS[k]
    started = time.perf_counter()
    profile = rank_profile(khavinson_psi([0] * k + [1]), max_target_degree, slack=slack)
    elapsed = time.perf_counter() - started
    expected = [(2 * k - 2) * (n + 1) for n in range(max_target_degree + 1)]
    measured = [v.slack for v in profile.verdicts]
    passed = profile.all_surjective() and measured == expected
    _report(f"khavinson phi=z^{k} minimal slack", passed,
            f"slacks {measured}, expected {expected}, {elapsed:.2f}s")
    assert passed
