"""Cross-module properties: slice geometry, purity, determinism."""

import json
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from fischerlab import (
    FIELD_QI,
    FischerOperator,
    GaussianRational,
    Poly,
    boundary_samples,
    dirichlet_solve,
    fischer_decompose,
    filtered_basis,
    operator_matrix,
    rank_profile,
)
from fischerlab.cli import run
from helpers import random_ellipsoid, random_poly


def test_quadric_square_slice_even_when_not_ellipsoidal():
    # any degree-2 psi maps filtered(m) into filtered(m): building the square
    # slice matrix must never overflow, ellipsoidal or not
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    for psi in (x * y - Poly.constant(2, 1), x * x - y * y - Poly.constant(2, 1)):
        op = FischerOperator(psi)
        for m in range(5):
            basis = filtered_basis(2, m)
            matrix = operator_matrix(op, basis, basis)
            assert matrix.rows == matrix.cols == len(basis)


def test_shared_values_safe_under_concurrency():
    # all core values are immutable and the operations pure: hammering the
    # same psi/f objects from many threads must reproduce the sequential
    # results exactly
    rng = random.Random(97)
    psi = random_ellipsoid(rng, 2).psi
    data = [random_poly(rng, 2, 6, max_terms=8) for _ in range(12)]
    sequential = [fischer_decompose(psi, f) for f in data]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(lambda f: fischer_decompose(psi, f), data))
    for a, b in zip(sequential, concurrent):
        assert a.q == b.q and a.h == b.h
    with ThreadPoolExecutor(max_workers=8) as pool:
        profiles = list(pool.map(lambda _: rank_profile(psi, 4), range(8)))
    assert all(p == profiles[0] for p in profiles)


def test_boundary_samples_rejects_nonpositive_count():
    domain = random_ellipsoid(random.Random(1), 2)
    with pytest.raises(ValueError):
        boundary_samples(domain, 0)


def test_qi_poly_evaluates_to_complex():
    p = Poly.variable(2, 0, FIELD_QI).scale(GaussianRational(0, 1))
    assert p.evaluate((2.0, 0.0)) == 2j


def test_cli_khavinson_accepts_gaussian_coefficients(capsys):
    code = run(["khavinson", "--phi", "0,1+2*i", "--max-degree", "1", "--slack", "1"])
    out = capsys.readouterr().out
    assert code in (0, 3)
    report = json.loads(out)
    assert report["result"]["phi_coefficients"][1] == {
        "re": {"num": "1", "den": "1"},
        "im": {"num": "2", "den": "1"},
    }


def test_cli_reports_carry_witness_payload(capsys):
    code = run(
        ["rank-profile", "--psi", "x^3", "--vars", "x,y", "--max-degree", "1"]
    )
    out = capsys.readouterr().out
    assert code == 3
    report = json.loads(out)
    verdicts = report["result"]["profile"]["verdicts"]
    assert all(v["status"] == "undetermined" for v in verdicts)
    assert all(v["witness"] is not None for v in verdicts)
    assert all("expr" in v["witness"] and "poly" in v["witness"] for v in verdicts)


def test_dirichlet_solution_independent_of_how_f_is_built():
    # same polynomial assembled along two different op sequences gives the
    # identical solution object fields (canonical form feeds determinism)
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    domain = random_ellipsoid(random.Random(3), 2)
    f1 = (x + y) * (x + y) + x
    f2 = x * x + (x * y).scale(2) + y * y + x
    assert f1 == f2
    s1 = dirichlet_solve(domain, f1)
    s2 = dirichlet_solve(domain, f2)
    assert s1.h == s2.h and s1.q == s2.q
