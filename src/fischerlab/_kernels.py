"""Row reduction kernel: sparse echelon insertion in primitive integer rows.

A vector is a dict {key: entry} of its nonzero entries, denominators
cleared: an int over Q, an (re, im) pair of ints over Qi.  That integer
form of an entry is defined here, for the whole package, by the tables Q
and QI of its operations (scalars.INTEGERS maps field names to them); the
kernel's own loops are their specialized entries.  An echelon is a
dict {lead: row}, a row's lead being its lowest key; each row is primitive
(its ints have gcd 1) with a positive int at its lead.  ``insert`` takes a
vector v, at its lowest key, to b*v - a*row (a = v[lead] and b = row[lead]
over their gcd), with no gcd per entry.  It divides v by the gcd of its
parts, its content, only once the product of the multipliers b applied
since the last such division reaches one CPython digit (DIGIT), and once
more when v is stored.  A division only takes v to a positive int
multiple of itself, so every later lead, zero test and stored row is the
same as when v is made primitive after every step, a schedule whose growth
Bareiss (1968, Math. Comp. 22) bounds.  On the operator slices most
multipliers are 1 and most steps find no content.  Between divisions v
carries less than one digit of scaling besides its last multiplier, plus
the additive growth of its steps, at most the bits of the row plus two
per step.  ``solution`` is the one back-substitution: linalg reads
solve's x and each column of the reduced form off it.  Its values and the
leads are unique.  Callers look ``rref_q`` and ``rref_qi`` up here at call
time, so a wrapper installed on them (a tracer) sees every exact
elimination.  ``insert_mod_p`` runs the
same insertion on residues mod a prime and returns only its leads, whose
count bounds the rank from below.
"""

import sys
from itertools import chain
from math import gcd, lcm
from operator import add, itemgetter, mul, truediv
from types import SimpleNamespace

# The product of multipliers at which ``remainder`` removes a vector's
# content: below it, the scaling adds at most one digit to each int.
DIGIT = 1 << sys.int_info.bits_per_digit


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
    return vector, b


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
    return vector, b


def _qi_store(vector, lead):
    cr, ci = vector[lead]  # times its conjugate, the lead becomes cr^2 + ci^2
    return _qi_primitive({k: (r * cr + i * ci, i * cr - r * ci) for k, (r, i) in vector.items()})


def _qi_dot(row, values):
    pairs = [(x, values[key]) for key, x in row.items() if key in values]
    return (sum(a * c - b * d for (a, b), (c, d) in pairs),
            sum(a * d + b * c for (a, b), (c, d) in pairs))


# For a vector v: reduce(v, row, lead) = (b*v - a*row, b), v's content left
# in it (v may be changed in place); primitive(v), v over its content, which
# ``remainder`` takes once the product of the b since the last one reaches
# DIGIT; store(v, lead), the primitive row with a positive int at its lead.
# For entries x, y and ints k, den: add, mul; times(x, k) = x*k; scale(x, k,
# g) = x // g * k, g dividing x's parts; parts(x), flat(xs): the ints of one
# and of many entries; residue(x, i): x mod p, i being the image of i mod p;
# to_float(x, den): x / den, complex over Qi; den(x): the int of a real x;
# is_entry(x): whether x is in this integer form (a bool is not an int).
Q = SimpleNamespace(
    reduce=_q_reduce, primitive=_q_primitive,
    store=lambda v, lead: _q_primitive(v, -1 if v[lead] < 0 else 1),
    dot=lambda row, values: sum(x * values[k] for k, x in row.items() if k in values),
    den=int, zero=0, one=1, minus_one=-1, add=add, mul=mul, times=mul,
    scale=lambda x, k, g=1: x // g * k, parts=lambda x: (x,), flat=lambda xs: xs,
    residue=lambda x, i: x, to_float=truediv, is_entry=lambda x: type(x) is int)
QI = SimpleNamespace(
    reduce=_qi_reduce, primitive=_qi_primitive, store=_qi_store, dot=_qi_dot, den=itemgetter(0),
    zero=(0, 0), one=(1, 0), minus_one=(-1, 0), add=lambda x, y: (x[0] + y[0], x[1] + y[1]),
    mul=lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
    times=lambda x, k: (x[0] * k, x[1] * k), scale=lambda x, k, g=1: (x[0] // g * k, x[1] // g * k),
    parts=lambda x: x, flat=chain.from_iterable, residue=lambda x, i: x[0] + x[1] * i,
    to_float=lambda x, den: complex(x[0] / den, x[1] / den),
    is_entry=lambda x: type(x) is tuple and len(x) == 2 and type(x[0]) is type(x[1]) is int)


def remainder(field, vector, echelon):
    """The vector reduced until its lowest key leads no row: empty exactly
    when the vector lies in the span, and a positive int multiple of the
    primitive remainder otherwise.  The vector and echelon are left as they
    are."""
    vector, scaled = dict(vector), 1
    while vector:
        lead = min(vector)
        row = echelon.get(lead)
        if row is None:
            break
        vector, b = field.reduce(vector, row, lead)
        if b != 1:
            scaled *= b
            if scaled >= DIGIT:
                vector, scaled = field.primitive(vector), 1
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


def insert_mod_p(vectors, p):
    """The set of leads of ``insert`` mod the prime p, the vectors' entries
    being ints: its size is their rank mod p.  A vector is reduced in a dense
    list over the key range, scanned up from its lowest key (a row's other
    keys lie above its lead); only a candidate lead is taken mod p.  A row is
    monic, kept as the (offset, residue) pairs past its lead."""
    keys = [key for vector in vectors for key in vector]
    low = min(keys, default=0)
    width = max(keys, default=0) + 1 - low
    rows = [None] * width
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
                    break
                for j, x in row:
                    dense[j] -= a * x
    return {low + i for i, row in enumerate(rows) if row is not None}


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
