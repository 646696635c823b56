"""rank_and_first_missing: ranks and witnesses certified mod a prime, with
the exact GrowingEchelon as the fallback."""

import random

import pytest

from fischerlab import _kernels, linalg
from fischerlab import (
    ExactMatrix,
    FIELD_Q,
    FIELD_QI,
    FischerOperator,
    GrowingEchelon,
    HOMOGENEOUS,
    Poly,
    fischer_theorem_check,
    homogeneous_basis,
    operator_matrix,
    parse_polynomial,
    rank_and_first_missing,
    rank_profile,
)
from fischerlab.cli import run
from helpers import random_scalar


def _exact(matrix):
    echelon = GrowingEchelon(matrix.field)
    echelon.extend(matrix)
    return echelon.rank, echelon.first_missing(matrix.rows)


def _spy_on_extend(monkeypatch):
    """A list that gets the row count of every matrix GrowingEchelon.extend takes."""
    calls = []
    extend = linalg.GrowingEchelon.extend

    def spy(self, matrix):
        calls.append(matrix.rows)
        return extend(self, matrix)

    monkeypatch.setattr(linalg.GrowingEchelon, "extend", spy)
    return calls


def test_the_prime_and_its_square_root_of_minus_one():
    p, i_p = _kernels.P, _kernels.I_P
    assert p < 2**30  # one CPython digit
    assert all(p % d for d in range(2, int(p**0.5) + 1))
    assert p % 4 == 1
    assert i_p * i_p % p == p - 1


def _leads_mod(vectors, p):
    """Pivot keys of a dense row echelon form mod p, keys in ascending order:
    the leads of any echelon whose rows lead at their lowest key."""
    keys = sorted({key for vector in vectors for key in vector})
    rows = [[vector.get(key, 0) % p for key in keys] for vector in vectors]
    leads = []
    for col, key in enumerate(keys):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        leads.append(key)
        rows.remove(pivot)
        inverse = pow(pivot[col], -1, p)
        rows = [[(x - r[col] * inverse * y) % p for x, y in zip(r, pivot)] for r in rows]
    return leads


# 2013265921 = 15 * 2^27 + 1 is a prime whose residues take two CPython digits
@pytest.mark.parametrize("p", [5, 7, _kernels.P, 2013265921])
def test_insert_mod_p_leads_agree_with_a_dense_reduction(p):
    rng = random.Random(p)
    # keys in a small window, spread across 0, and far from 0
    for window in [range(-9, 1)] * 30 + [range(-400, 400, 7)] * 15 + [range(10**12, 10**12 + 30)] * 15:
        keys = rng.sample(window, rng.randint(1, 6))
        vectors = [{key: x for key in keys if (x := rng.randint(-40, 40)) and rng.random() < 0.6}
                   for _ in range(rng.randint(1, 7))]
        vectors.insert(rng.randint(0, len(vectors)), {})
        snapshot = [dict(v) for v in vectors]
        leads = _kernels.insert_mod_p(vectors, p)
        assert vectors == snapshot
        assert sorted(leads) == _leads_mod(vectors, p)


def test_rank_and_first_missing_at_the_edges():
    assert rank_and_first_missing(ExactMatrix(0, 0, [])) == (0, None)
    assert rank_and_first_missing(ExactMatrix(0, 2, [])) == (0, None)
    assert rank_and_first_missing(ExactMatrix(3, 0, [])) == (0, 0)
    assert rank_and_first_missing(ExactMatrix(2, 2, [0] * 4)) == (0, 0)


def _random_homogeneous(rng, arity, degree, field):
    monomials = homogeneous_basis(arity, degree).monomials
    chosen = rng.sample(monomials, rng.randint(1, min(3, len(monomials))))
    return Poly(arity, field, {m: random_scalar(rng, field, nonzero=True) for m in chosen})


def _slices(rng, field):
    """Profile slices, to target degree 4 or the given top, and Fischer-theorem
    slices of seeded random homogeneous psi, after two whose slices need the
    exact echelon and a diagonal cubic whose slices reach 66 rows and fill in."""
    fixed = [(parse_polynomial(text, ["x", "y", "z"], field), top)
             for text, top in (("x^2-y^2", 4), ("x^3", 4), ("x^3-2*y^3+3*z^3", 10))]
    for psi, top in fixed + [(_random_homogeneous(rng, rng.randint(2, 3), rng.randint(1, 4), field), 4)
                             for _ in range(12)]:
        arity, degree = psi.arity, psi.degree
        op = FischerOperator(psi)
        for n in range(top + 1):
            m = n - degree + 2
            if m >= 0:
                yield operator_matrix(op, homogeneous_basis(arity, m), homogeneous_basis(arity, n))
        op = FischerOperator(psi=psi, operator=psi)
        for m in range(4):
            basis = homogeneous_basis(arity, m)
            yield operator_matrix(op, basis, basis)


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_rank_and_first_missing_agrees_with_the_exact_echelon(monkeypatch, field):
    matrices = list(_slices(random.Random(41 if field == FIELD_Q else 43), field))
    expected = [_exact(matrix) for matrix in matrices]
    calls = _spy_on_extend(monkeypatch)
    outcomes = set()
    for matrix, (rank, missing) in zip(matrices, expected):
        calls.clear()
        assert rank_and_first_missing(matrix) == (rank, missing)
        outcomes.add("exact" if calls else "onto" if missing is None else "e_0")
    # every branch is taken: onto and e_0 mod p, and the exact fallback
    assert outcomes == {"onto", "e_0", "exact"}


@pytest.mark.parametrize("argv, count, lines", [
    # the image misses a monomial past e_0, or the slice is rank deficient
    (("rank-profile", "--psi", "x^2-y^2", "--vars", "x,y,z", "--mode", "homogeneous"), 4,
     ["degree 1: not_surjective (witness: z)", "degree 2: not_surjective (witness: x*y)",
      "degree 3: not_surjective (witness: x*y*z)"]),
    (("rank-profile", "--psi", "x^3", "--vars", "x,y", "--mode", "homogeneous"), 3,
     ["degree 1: not_surjective (witness: y)"]),
    (("fischer-theorem", "--p", "x+i*y", "--vars", "x,y", "--field", "Qi"), 4,
     [f"degree {m}: rank {m}/{m + 1} SINGULAR" for m in range(4)]),
], ids=["x^2-y^2", "x^3", "x+i*y"])
def test_slices_outside_the_modular_claims_fall_back(capsys, monkeypatch, argv, count, lines):
    calls = _spy_on_extend(monkeypatch)
    code = run([*argv, "--max-degree", "3", "--format", "text"])
    out = capsys.readouterr().out
    assert code in (0, 1), out
    # one exact echelon for every slice built
    assert len(calls) == count
    for line in lines:
        assert line in out.splitlines()


def _bad_prime_cases():
    psi_q = parse_polynomial("x^3-2*y^3+3*z^3", ["x", "y", "z"])
    yield (3, None), lambda: rank_profile(psi_q, 6, mode=HOMOGENEOUS)
    # 1 + 2*i is 0 mod 5 with i -> 2
    psi_qi = parse_polynomial("x^2+(1+2*i)*y^2+z^2", ["x", "y", "z"], FIELD_QI)
    yield (5, 2), lambda: rank_profile(psi_qi, 5, mode=HOMOGENEOUS)
    yield (5, 2), lambda: fischer_theorem_check(psi_qi, 4)


@pytest.mark.parametrize("prime, compute", list(_bad_prime_cases()),
                         ids=["3 over Q", "5 over Qi", "5 over Qi, fischer-theorem"])
def test_a_bad_prime_falls_back_to_the_exact_echelon(monkeypatch, prime, compute):
    calls = _spy_on_extend(monkeypatch)
    expected = compute()
    assert not calls  # the prime P certifies every slice
    p, i_p = prime
    monkeypatch.setattr(_kernels, "P", p)
    if i_p is not None:
        monkeypatch.setattr(_kernels, "I_P", i_p)
    assert compute() == expected
    assert calls
