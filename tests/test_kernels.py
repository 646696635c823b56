"""The exact kernel's content schedule.  _kernels.insert removes a vector's
content only once its multipliers reach one int digit; helpers.reference_insert
makes it primitive after every step.  Removing content divides the vector by
a positive int, so both must store the same rows under the same leads, in the
same order, on the slices the toolkit builds and on inputs it does not."""

import random
import sys
from fractions import Fraction

import pytest

from fischerlab import (
    FIELD_Q,
    FIELD_QI,
    QuadricDomain,
    dirichlet_solve,
    fischer_decompose,
    khavinson_psi,
    parse_polynomial,
    rank_profile,
)
from fischerlab import _kernels
from fischerlab.scalars import GaussianRational
from helpers import reference_insert

XYZ = ("x", "y", "z")
KERNELS = {FIELD_Q: "rref_q", FIELD_QI: "rref_qi"}


def _captured(monkeypatch, field, run):
    """[(vectors, echelon before, echelon after)] of each kernel call of run()."""
    name = KERNELS[field]
    calls, kernel = [], getattr(_kernels, name)

    def spy(vectors, echelon):
        vectors, before = list(vectors), dict(echelon)
        result = kernel(vectors, echelon)
        calls.append((vectors, before, dict(result)))
        return result

    monkeypatch.setattr(_kernels, name, spy)
    run()
    monkeypatch.undo()
    return calls


def _assert_same_echelons(field, calls):
    for vectors, before, after in calls:
        expected = reference_insert(field, vectors, before)
        assert list(after.items()) == list(expected.items())


def test_solve_q_blocks_store_the_rows_of_the_primitive_schedule(monkeypatch):
    # solve-q's ellipsoid, f = (3x+yz+2)^8: one solve per homogeneous block
    domain = QuadricDomain.ellipsoid([Fraction(3, 2), 1, Fraction(5, 3)])
    f = parse_polynomial("(3*x+y*z+2)^8", XYZ)
    calls = _captured(monkeypatch, FIELD_Q, lambda: dirichlet_solve(domain, f))
    assert len(calls) == 15
    _assert_same_echelons(FIELD_Q, calls)


@pytest.mark.parametrize("field, f", [(FIELD_Q, "(x+y*z+1)^6"), (FIELD_QI, "(x+i*y*z+1)^5")])
def test_filtered_slices_store_the_rows_of_the_primitive_schedule(monkeypatch, field, f):
    psi = parse_polynomial("x^2+x*y+y^2+z^2-1", XYZ, field)
    f = parse_polynomial(f, XYZ, field)
    calls = _captured(monkeypatch, field, lambda: fischer_decompose(psi, f))
    assert calls and max(len(vectors) for vectors, _, _ in calls) > 20
    _assert_same_echelons(field, calls)


def test_ladder_qi_stores_the_rows_of_the_primitive_schedule(monkeypatch):
    # ladder-qi's job: khavinson --phi 0,0,2+3*i --max-degree 3 --slack 8
    psi = khavinson_psi([0, 0, GaussianRational(2, 3)])
    calls = _captured(monkeypatch, FIELD_QI, lambda: rank_profile(psi, 3, slack=8))
    assert len(calls) == 10
    _assert_same_echelons(FIELD_QI, calls)


def _entry(rng, field, bits):
    def part():
        return rng.randint(-(1 << bits), 1 << bits)
    return part() if field == FIELD_Q else (part(), part())


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
@pytest.mark.parametrize("density", [1.0, 0.15])
def test_random_matrices_store_the_rows_of_the_primitive_schedule(field, density):
    rng = random.Random(f"{field}:{density}")
    zero = _kernels.Q.zero if field == FIELD_Q else _kernels.QI.zero
    for rows, cols, bits in ((12, 12, 4), (20, 14, 30), (14, 24, 2), (30, 30, 8)):
        vectors = []
        for _ in range(rows):
            vector = {key: _entry(rng, field, bits) for key in range(cols) if rng.random() < density}
            vectors.append({key: x for key, x in vector.items() if x != zero})
        echelon = getattr(_kernels, KERNELS[field])(vectors, {})
        assert list(echelon.items()) == list(reference_insert(field, vectors, {}).items())


def _unit_lead_chain(rng, field, n, bits):
    """Rows {i: 1, i+1: X_i}, then a vector with an entry at every key, which
    reduces through all n rows with multiplier 1 and grows by X_i each step."""
    one = _kernels.Q.one if field == FIELD_Q else _kernels.QI.one
    rows = [{i: one, i + 1: _entry(rng, field, bits)} for i in range(n)]
    return rows + [{key: one for key in range(n + 1)}]


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_a_unit_lead_chain_stores_the_rows_of_the_primitive_schedule(field):
    vectors = _unit_lead_chain(random.Random(5), field, 40, 60)
    echelon = getattr(_kernels, KERNELS[field])(vectors, {})
    assert len(echelon) in (40, 41)
    assert list(echelon.items()) == list(reference_insert(field, vectors, {}).items())


def test_content_is_removed_once_the_multipliers_reach_one_digit(monkeypatch):
    # rows {i: 2, i+1: 1}: each step takes {i: +-1} to {i+1: -+1} with
    # multiplier 2, so the product reaches 2^bits_per_digit at every
    # bits_per_digit-th step, and the content is removed there and only there
    n, digit_bits = 70, sys.int_info.bits_per_digit
    echelon = {i: {i: 2, i + 1: 1} for i in range(n)}
    removed, primitive = [], _kernels.Q.primitive

    def spy(vector):
        removed.append(min(vector))
        return primitive(vector)

    monkeypatch.setattr(_kernels.Q, "primitive", spy)
    assert _kernels.remainder(_kernels.Q, {0: 1}, echelon) == {n: (-1) ** n}
    assert removed == list(range(digit_bits, n + 1, digit_bits))
    assert _kernels.DIGIT == 2 ** digit_bits
