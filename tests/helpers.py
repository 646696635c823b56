"""Seeded random generators and kernel-free reference oracles shared by the
test modules."""

from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

from fischerlab import (
    ExactMatrix,
    FIELD_Q,
    GaussianRational,
    InconsistentSystemError,
    Poly,
    QuadricDomain,
    as_scalar,
    coordinates,
    filtered_basis,
    solve,
)
from fischerlab.scalars import from_integer, integer_form


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


def identity(n, field=FIELD_Q):
    return ExactMatrix(n, n, [int(i == j) for i in range(n) for j in range(n)], field)


def matrix_product(a, b):
    """The exact product a @ b, entry by entry: of rank at most a.cols, so a
    thin a gives a low-rank matrix."""
    zero = as_scalar(0, a.field)
    columns = [b.column(j) for j in range(b.cols)]
    entries = [sum((x * y for x, y in zip(a.row(i), column)), zero)
               for i in range(a.rows) for column in columns]
    return ExactMatrix(a.rows, b.cols, entries, a.field)


def reference_pivots(rows):
    """The pivot columns of dense rows of field scalars, such as
    ExactMatrix.row reads, by Gauss-Jordan elimination: no fischerlab kernel."""
    rows = [list(row) for row in rows]
    pivots = []
    for j in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        for r, row in enumerate(rows):
            if r != rank and row[j]:
                factor = row[j] / head[j]
                rows[r] = [a - factor * b if b else a for a, b in zip(row, head)]
        pivots.append(j)
    return pivots


def reference_rank(matrix):
    """The rank of the matrix, read through ExactMatrix.row, by reference_pivots."""
    return len(reference_pivots(matrix.row(i) for i in range(matrix.rows)))


def matrix_vector(matrix, vector):
    """The exact product matrix @ vector, read through ExactMatrix.row: no
    fischerlab kernel."""
    zero = as_scalar(0, matrix.field)
    return [sum((a * x for a, x in zip(matrix.row(i), vector)), zero)
            for i in range(matrix.rows)]


def random_ellipsoid(rng, arity):
    semi_axes = [
        Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(arity)
    ]
    return QuadricDomain.ellipsoid(semi_axes)


def unit_vector(n, j, field=FIELD_Q):
    return [as_scalar(1 if i == j else 0, field) for i in range(n)]


def scalar_solve(matrix, rhs):
    """solve on a vector of field scalars: the rhs goes in as its
    scalars.integer_form, ints over the lcm of its denominators."""
    field = matrix.field
    return solve(matrix, integer_form([as_scalar(v, field) for v in rhs], field))


def scalar_coordinates(p, basis):
    """The coordinates of p in a basis as field scalars: the ints of
    polyring.coordinates over its den, each by scalars.from_integer."""
    ints, den = coordinates(p, basis)
    return [from_integer(n, den) for n in ints]


def assert_first_unsolvable_unit(matrix, j):
    """Brute force: matrix @ x == e_j has no solution, and each e_i with
    i < j has one."""
    with pytest.raises(InconsistentSystemError):
        scalar_solve(matrix, unit_vector(matrix.rows, j, matrix.field))
    for i in range(j):
        scalar_solve(matrix, unit_vector(matrix.rows, i, matrix.field))


def reference_insert(field, vectors, echelon):
    """A copy of the echelon {lead: row} after inserting the vectors, in the
    kernel's integer form, by the schedule that makes the vector primitive
    after every reduction step: the oracle of _kernels.insert, which removes
    content less often and must store the same rows in the same order.  No
    fischerlab kernel; an entry is worked on as an (re, im) pair over both
    fields, and a stored row is the vector times the conjugate of its lead
    over its content (over Q: over its content, signed by its lead)."""
    qi = field != FIELD_Q
    pairs = {lead: {k: x if qi else (x, 0) for k, x in row.items()} for lead, row in echelon.items()}

    def primitive(v):
        g = gcd(*chain.from_iterable(v.values()))
        return {k: (re // g, im // g) for k, (re, im) in v.items()}

    for vector in vectors:
        v = {k: x if qi else (x, 0) for k, x in vector.items()}
        while v and min(v) in pairs:
            lead = min(v)
            row = pairs[lead]
            (ar, ai), b = v[lead], row[lead][0]
            g = gcd(ar, ai, b)
            ar, ai, b = ar // g, ai // g, b // g
            v = {k: (b * re, b * im) for k, (re, im) in v.items()}
            for k, (re, im) in row.items():
                vr, vi = v.pop(k, (0, 0))
                vr, vi = vr - ar * re + ai * im, vi - ar * im - ai * re
                if vr or vi:
                    v[k] = vr, vi
            if v:
                v = primitive(v)
        if v:
            lead = min(v)
            cr, ci = v[lead]
            pairs[lead] = primitive({k: (re * cr + im * ci, im * cr - re * ci)
                                     for k, (re, im) in v.items()})
    return {lead: {k: x if qi else x[0] for k, x in row.items()} for lead, row in pairs.items()}


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
