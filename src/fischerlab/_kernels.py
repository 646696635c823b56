"""Row reduction kernel: sparse echelon insertion over Q and Qi.

A vector is a dict {key: entry} holding only nonzero entries.  An entry is
a tuple of reduced integers: (n, d) over the rationals, (rn, rd, in, id)
over the Gaussian rationals, every denominator positive.  A small table per
field (``Q``, ``QI``) supplies ``mul``, ``sub`` and ``inv``.

An echelon is a dict {lead: row}: each row is scaled to 1 at its lead, its
lowest key, and no two rows share a lead.  ``insert`` reduces the vectors
into it one at a time, at their lowest key, until each leads a new key or
vanishes.  The set of leads of an echelon form under a fixed key order is
unique, so it does not depend on the order of insertion, and neither does
the reduced form that ``back_substitute`` derives.  The kernel is pure
Python.  Callers look ``rref_q`` and ``rref_qi`` up on this module at call
time, so a wrapper installed here (a tracer) sees every elimination.
"""

from __future__ import annotations

from math import gcd
from types import SimpleNamespace


def backend_name():
    """Name of the kernel implementation, always "pure" (printed in test
    headers and benchmark reports)."""
    return "pure"


def _red(n, d):
    # d > 0; zero becomes 0/1
    g = gcd(n, d)
    return n // g, d // g


def _q_mul(x, y):
    return _red(x[0] * y[0], x[1] * y[1])


def _q_sub(x, y):
    return _red(x[0] * y[1] - y[0] * x[1], x[1] * y[1])


def _q_inv(x):
    n, d = x
    return (d, n) if n > 0 else (-d, -n)


def _qi_mul(x, y):
    # (a/b + i c/d)(e/f + i g/h) over the common denominator b d f h
    a, b, c, d = x
    e, f, g, h = y
    den = b * d * f * h
    return (
        *_red(a * e * d * h - c * g * b * f, den),
        *_red(a * g * d * f + c * e * b * h, den),
    )


def _qi_sub(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (*_red(a * f - e * b, b * f), *_red(c * h - g * d, d * h))


def _qi_inv(x):
    # 1/(a/b + i c/d) = (a b d^2 - i c d b^2) / (a^2 d^2 + c^2 b^2)
    a, b, c, d = x
    norm = a * a * d * d + c * c * b * b
    return (*_red(a * b * d * d, norm), *_red(-c * d * b * b, norm))


Q = SimpleNamespace(zero=(0, 1), one=(1, 1), mul=_q_mul, sub=_q_sub, inv=_q_inv)
QI = SimpleNamespace(
    zero=(0, 1, 0, 1), one=(1, 1, 0, 1), mul=_qi_mul, sub=_qi_sub, inv=_qi_inv
)


def _submul(field, vector, factor, row):
    # vector -= factor * row, in place, dropping the entries that cancel
    mul, sub, zero = field.mul, field.sub, field.zero
    for key, entry in row.items():
        value = sub(vector.get(key, zero), mul(factor, entry))
        if value == zero:
            del vector[key]
        else:
            vector[key] = value


def insert(field, vectors, echelon):
    """Insert each vector into the echelon, in place, and return the echelon.

    The vectors themselves are left as they are.
    """
    for vector in vectors:
        vector = dict(vector)
        while vector:
            lead = min(vector)
            row = echelon.get(lead)
            if row is None:
                scale = field.inv(vector[lead])
                echelon[lead] = {key: field.mul(scale, e) for key, e in vector.items()}
                break
            _submul(field, vector, vector[lead], row)
    return echelon


def rref_q(vectors, echelon):
    """``insert`` over the rationals."""
    return insert(Q, vectors, echelon)


def rref_qi(vectors, echelon):
    """``insert`` over the Gaussian rationals."""
    return insert(QI, vectors, echelon)


def back_substitute(field, echelon):
    """The reduced form of an echelon: each row cleared at every other lead."""
    reduced = {}
    for lead in sorted(echelon, reverse=True):
        row = dict(echelon[lead])
        for key in [key for key in row if key in reduced]:
            _submul(field, row, row[key], reduced[key])
        reduced[lead] = row
    return reduced


def solution(field, echelon, column):
    """{lead: value} solving the echelon rows for the entries at ``column``,
    with every key that leads no row set to zero."""
    mul, sub = field.mul, field.sub
    values = {}
    for lead in sorted(echelon, reverse=True):
        row = echelon[lead]
        value = row.get(column, field.zero)
        for key, entry in row.items():
            if key in values:
                value = sub(value, mul(entry, values[key]))
        values[lead] = value
    return values
