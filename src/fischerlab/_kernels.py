"""Row reduction kernel: sparse echelon insertion in primitive integer rows.

A vector is a dict {key: entry} of its nonzero entries, denominators
cleared: an int over Q, an (re, im) pair of ints over Qi.  That integer
form of an entry is defined here, for the whole package, by the tables Q
and QI of its operations (scalars.INTEGERS maps field names to them); the
kernel's own loops are their specialized entries.  An echelon is a
dict {lead: row}, a row's lead being its lowest key; each row is primitive
(its ints have gcd 1) with a positive int at its lead.  ``insert`` takes a
vector v, at its lowest key, to b*v - a*row (a = v[lead] and b = row[lead]
over their gcd), then divides it by the gcd of its parts: no gcd runs per
entry, and Bareiss (1968, Math. Comp. 22) bounds the growth.  ``solution``
is the one back-substitution: linalg reads solve's x and each column of the
reduced form off it.  Its values and the leads are unique.  Callers look
``rref_q`` and ``rref_qi`` up here at call time, so a wrapper installed on
them (a tracer) sees every exact elimination.  ``insert_mod_p`` runs the
same insertion on residues mod a prime, whose leads bound ranks from below.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import add, itemgetter, mul, truediv
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


# For entries x, y and ints k, den: add, mul; times(x, k) = x*k; scale(x, k,
# g) = x // g * k, g dividing x's parts; parts(x), flat(xs): the ints of one
# and of many entries; residue(x, i): x mod p, i being the image of i mod p;
# to_float(x, den): x / den, complex over Qi; den(x): the int of a real x.
Q = SimpleNamespace(
    reduce=_q_reduce, store=lambda v, lead: _q_primitive(v, -1 if v[lead] < 0 else 1),
    dot=lambda row, values: sum(x * values[k] for k, x in row.items() if k in values),
    den=int, zero=0, one=1, minus_one=-1, add=add, mul=mul, times=mul,
    scale=lambda x, k, g=1: x // g * k, parts=lambda x: (x,), flat=lambda xs: xs,
    residue=lambda x, i: x, to_float=truediv)
QI = SimpleNamespace(
    reduce=_qi_reduce, store=_qi_store, dot=_qi_dot, den=itemgetter(0),
    zero=(0, 0), one=(1, 0), minus_one=(-1, 0), add=lambda x, y: (x[0] + y[0], x[1] + y[1]),
    mul=lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
    times=lambda x, k: (x[0] * k, x[1] * k), scale=lambda x, k, g=1: (x[0] // g * k, x[1] // g * k),
    parts=lambda x: x, flat=chain.from_iterable, residue=lambda x, i: x[0] + x[1] * i,
    to_float=lambda x, den: complex(x[0] / den, x[1] / den))


def remainder(field, vector, echelon):
    """The vector reduced until its lowest key leads no row: empty exactly
    when the vector lies in the span.  The vector and echelon are left as
    they are."""
    vector = dict(vector)
    while vector:
        lead = min(vector)
        row = echelon.get(lead)
        if row is None:
            break
        vector = field.reduce(vector, row, lead)
    return vector


def insert(field, vectors, echelon):
    """Insert each vector into the echelon, in place, and return the echelon;
    the vectors themselves are left as they are."""
    for vector in vectors:
        vector = remainder(field, vector, echelon)
        if vector:
            lead = min(vector)
            echelon[lead] = field.store(vector, lead)
    return echelon


# The prime of ``insert_mod_p``: P = 479 * 2^21 + 1 is 1 mod 4, and I_P,
# 3 to the power (P - 1) / 4, is a square root of -1 mod P, the image of i.
# P < 2^30, so a residue is one CPython digit and a * x stays a small-int product.
P = 1004535809
I_P = pow(3, (P - 1) // 4, P)


def insert_mod_p(vectors, echelon, p):
    """``insert`` mod the prime p, in place: the vectors' entries are ints,
    the echelon's rows are monic with entries in (0, p).  A vector is reduced
    in a dense list over the call's key range, scanned up from its lowest key
    (a row's other keys lie above its lead); only a candidate lead is taken
    mod p.  Within the call a row is a list of (offset, residue) pairs."""
    keys = [key for vector in chain(vectors, echelon.values()) for key in vector]
    low = min(keys, default=0)
    labels = list(range(low, max(keys, default=0) + 1))  # the rows share these keys
    width = len(labels)
    rows = [None] * width
    for lead, row in echelon.items():
        rows[lead - low] = [(key - low, x) for key, x in row.items() if key != lead]
    new = []
    for vector in filter(None, vectors):
        dense = [0] * width
        for key, x in vector.items():
            dense[key - low] = x
        for i in range(min(vector) - low, width):
            x = dense[i]
            if x and (a := x % p):
                row = rows[i]
                if row is None:
                    b = pow(a, -1, p)
                    rows[i] = [(j, y) for j in range(i + 1, width) if (x := dense[j]) and (y := x * b % p)]
                    new.append(i)
                    break
                for j, x in row:
                    dense[j] -= a * x
    for i in new:
        echelon[labels[i]] = row = {labels[j]: y for j, y in rows[i]}
        row[labels[i]], rows[i] = 1, None
    return echelon


def rref_q(vectors, echelon):
    """``insert`` over the rationals."""
    return insert(Q, vectors, echelon)


def rref_qi(vectors, echelon):
    """``insert`` over the Gaussian rationals."""
    return insert(QI, vectors, echelon)


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
