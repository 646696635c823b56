"""Seeded random generators shared by the test modules."""

from fractions import Fraction

import pytest

from fischerlab import (
    ExactMatrix,
    FIELD_Q,
    GaussianRational,
    InconsistentSystemError,
    Poly,
    QuadricDomain,
    as_scalar,
    filtered_basis,
    solve,
)


def random_fraction(rng, max_abs=9, max_den=9, nonzero=False):
    while True:
        value = Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_den))
        if value or not nonzero:
            return value


def random_gaussian(rng, max_abs=9, max_den=9, nonzero=False):
    while True:
        value = GaussianRational(
            random_fraction(rng, max_abs, max_den),
            random_fraction(rng, max_abs, max_den),
        )
        if value or not nonzero:
            return value


def random_scalar(rng, field=FIELD_Q, nonzero=False):
    if field == FIELD_Q:
        return random_fraction(rng, nonzero=nonzero)
    return random_gaussian(rng, nonzero=nonzero)


def random_poly(rng, arity, max_degree, field=FIELD_Q, max_terms=6, nonzero=False):
    basis = filtered_basis(arity, max_degree)
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            monomial = basis.monomials[rng.randrange(len(basis))]
            terms[monomial] = random_scalar(rng, field)
        p = Poly(arity, field, terms)
        if p or not nonzero:
            return p


def random_matrix(rng, rows, cols, field=FIELD_Q):
    entries = [random_scalar(rng, field) for _ in range(rows * cols)]
    return ExactMatrix(rows, cols, entries, field)


def random_ellipsoid(rng, arity):
    semi_axes = [
        Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(arity)
    ]
    return QuadricDomain.ellipsoid(semi_axes)


def unit_vector(n, j, field=FIELD_Q):
    return [as_scalar(1 if i == j else 0, field) for i in range(n)]


def assert_first_unsolvable_unit(matrix, j):
    """Brute force: matrix @ x == e_j has no solution, and each e_i with
    i < j has one."""
    with pytest.raises(InconsistentSystemError):
        solve(matrix, unit_vector(matrix.rows, j, matrix.field))
    for i in range(j):
        solve(matrix, unit_vector(matrix.rows, i, matrix.field))


def to_sympy(rows, shape, field):
    """Rows of field scalars as sympy's DomainMatrix over QQ or QQ_I; skips
    the calling test when sympy is absent."""
    pytest.importorskip("sympy")
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    def convert(e):
        if field == FIELD_Q:
            return QQ(e.numerator, e.denominator)
        return QQ_I(QQ(e.re.numerator, e.re.denominator), QQ(e.im.numerator, e.im.denominator))

    domain = QQ if field == FIELD_Q else QQ_I
    return DomainMatrix([[convert(e) for e in row] for row in rows], shape, domain)


def from_sympy(value, field):
    """The field scalar of a QQ or QQ_I element."""
    if field == FIELD_Q:
        return Fraction(int(value.numerator), int(value.denominator))
    return GaussianRational(from_sympy(value.x, FIELD_Q), from_sympy(value.y, FIELD_Q))
