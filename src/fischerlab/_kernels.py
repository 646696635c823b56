"""Row reduction kernel: sparse echelon insertion in primitive integer rows.

A vector is a dict {key: entry} of its nonzero entries, denominators
cleared: an int over Q, an (re, im) pair of ints over Qi.  An echelon is a
dict {lead: row}, a row's lead being its lowest key; each row is primitive
(its ints have gcd 1) with a positive int at its lead.  ``insert`` takes a
vector v, at its lowest key, to b*v - a*row (a = v[lead] and b = row[lead]
over their gcd), then divides it by the gcd of its parts: no gcd runs per
entry, and Bareiss (1968, Math. Comp. 22) bounds the growth.  Leads, the
reduced form and the solution values are unique.  Callers look ``rref_q``
and ``rref_qi`` up here at call time, so a wrapper installed on them (a
tracer) sees every elimination.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import itemgetter
from types import SimpleNamespace


def backend_name():
    """Name of the kernel implementation, always "pure" (printed in test
    headers and benchmark reports)."""
    return "pure"


def _q_primitive(vector, sign=1):
    g = sign * gcd(*vector.values())
    return {key: x // g for key, x in vector.items()} if g != 1 else vector


def _q_reduce(vector, row, lead):
    a, b = vector[lead], row[lead]
    g = gcd(a, b)
    a, b = a // g, b // g
    if b != 1:
        vector = {key: b * x for key, x in vector.items()}
    for key, x in row.items():
        value = vector.get(key, 0) - a * x
        if value:
            vector[key] = value
        else:
            del vector[key]
    return _q_primitive(vector)


def _qi_primitive(vector):
    g = gcd(*chain.from_iterable(vector.values()))
    return {key: (re // g, im // g) for key, (re, im) in vector.items()} if g > 1 else vector


def _qi_reduce(vector, row, lead):
    (ar, ai), b = vector[lead], row[lead][0]
    g = gcd(ar, ai, b)
    ar, ai, b = ar // g, ai // g, b // g
    if b != 1:
        vector = {key: (b * re, b * im) for key, (re, im) in vector.items()}
    for key, (re, im) in row.items():
        vr, vi = vector.get(key, (0, 0))
        vr, vi = vr - ar * re + ai * im, vi - ar * im - ai * re
        if vr or vi:
            vector[key] = vr, vi
        else:
            del vector[key]
    return _qi_primitive(vector)


def _qi_store(vector, lead):
    cr, ci = vector[lead]  # times its conjugate, the lead becomes cr^2 + ci^2
    return _qi_primitive({k: (r * cr + i * ci, i * cr - r * ci) for k, (r, i) in vector.items()})


def _qi_dot(row, values):
    pairs = [(x, values[key]) for key, x in row.items() if key in values]
    return (sum(a * c - b * d for (a, b), (c, d) in pairs),
            sum(a * d + b * c for (a, b), (c, d) in pairs))


# den: the positive int at a stored row's lead; scale(x, k, g) = x // g * k
Q = SimpleNamespace(
    reduce=_q_reduce, store=lambda v, lead: _q_primitive(v, -1 if v[lead] < 0 else 1),
    dot=lambda row, values: sum(x * values[k] for k, x in row.items() if k in values),
    den=int, minus_one=-1, parts=lambda x: (x,), scale=lambda x, k, g=1: x // g * k)
QI = SimpleNamespace(
    reduce=_qi_reduce, store=_qi_store, dot=_qi_dot, den=itemgetter(0), minus_one=(-1, 0),
    parts=lambda x: x, scale=lambda x, k, g=1: (x[0] // g * k, x[1] // g * k))


def insert(field, vectors, echelon):
    """Insert each vector into the echelon, in place, and return the echelon;
    the vectors themselves are left as they are."""
    for vector in vectors:
        vector = dict(vector)
        while vector:
            lead = min(vector)
            row = echelon.get(lead)
            if row is None:
                echelon[lead] = field.store(vector, lead)
                break
            vector = field.reduce(vector, row, lead)
    return echelon


def rref_q(vectors, echelon):
    """``insert`` over the rationals."""
    return insert(Q, vectors, echelon)


def rref_qi(vectors, echelon):
    """``insert`` over the Gaussian rationals."""
    return insert(QI, vectors, echelon)


def back_substitute(field, echelon):
    """The reduced form of an echelon as {lead: (row, den)}: the row cleared
    at every other lead, in integers, and den the positive int at its lead."""
    reduced = {}
    for lead in sorted(echelon, reverse=True):
        row = dict(echelon[lead])
        for key in [key for key in row if key in reduced]:
            row = field.reduce(row, reduced[key], key)
        reduced[lead] = row
    return {lead: (row, field.den(row[lead])) for lead, row in reduced.items()}


def solution(field, echelon, column):
    """({lead: numerator}, den) solving the rows for the entries at ``column``
    (which leads no row), keys that lead no row set to zero; den is the least
    common denominator, so a row costs two gcds, not one per entry."""
    values, den = {column: field.minus_one}, 1  # so a dot product is -value * den * lead
    for lead in sorted(echelon, reverse=True):
        dot = field.dot(echelon[lead], values)
        whole = den * field.den(echelon[lead][lead])
        g = gcd(*field.parts(dot), whole)
        common = lcm(den, whole // g)
        if common != den:
            for key in values:
                values[key] = field.scale(values[key], common // den)
        values[lead] = field.scale(dot, -(common * g // whole), g)
        den = common
    del values[column]
    return values, den
