"""A yardstick for the machine's speed at the moment of a run.

The benchmark runs on shared machines whose speed drifts by 20% within
minutes, and that drift moves CPU time as much as wall time.  Each pass
therefore also times three fixed computations of the benchmark's own, and
the end-to-end times are rescaled by them (see ``factor``).  Nothing in
fischerlab can change their cost.

The three do the kinds of work the jobs do, because different kinds of work
slow down by different amounts: exact elimination over ``Fraction`` with
growing big integers, the same over parallel lists of ints with ``gcd`` (the
way the pure kernel stores a matrix), and many small ``Fraction``\\ s spread
over a wide matrix (the way assembly and conversion handle many cells).
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

# the geometric mean of the three medians on a fast phase of a 2-vCPU
# machine with Python 3.11.7; the rescaled times read as on that machine
NOMINAL_S = 0.08


def _fraction_dense(size=28):
    rows = [[Fraction((7 * i + 3 * j) % 11 + 5 * (i == j), 1 + (i + j) % 5)
             for j in range(size)] for i in range(size)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inverse = 1 / rows[col][col]
        rows[col] = [x * inverse for x in rows[col]]
        for r in range(size):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]


def _reduced(n, d):
    if d < 0:
        n, d = -n, -d
    g = math.gcd(n, d)
    return (n // g, d // g) if n else (0, 1)


def _int_pairs(size=38):
    num = [(5 * i + 3 * j) % 19 - 9 + 11 * (i == j) for i in range(size) for j in range(size)]
    den = [1 + (i * j) % 5 for i in range(size) for j in range(size)]
    for col in range(size):
        base = col * size
        pn, pd = num[base + col], den[base + col]
        for r in range(size):
            rb = r * size
            if r == col or not num[rb + col]:
                continue
            fn, fd = _reduced(num[rb + col] * pd, den[rb + col] * pn)
            for k in range(size):
                an = num[base + k]
                if an:
                    tn, td = _reduced(fn * an, fd * den[base + k])
                    bn, bd = num[rb + k], den[rb + k]
                    num[rb + k], den[rb + k] = _reduced(bn * td - tn * bd, bd * td)


def _fraction_wide(size=7, width=600):
    rows = [[Fraction((13 * i + 7 * j) % 11 - 5 + 9 * (i == j), 1 + (i + 2 * j) % 3)
             for j in range(width)] for i in range(size)]
    for col in range(size):
        inverse = 1 / rows[col][col]
        rows[col] = [x * inverse for x in rows[col]]
        for r in range(size):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]


KINDS = (_fraction_dense, _int_pairs, _fraction_wide)


def sample():
    """CPU seconds of each of the three computations, run once each."""
    times = []
    for kind in KINDS:
        start = time.process_time()
        kind()
        times.append(time.process_time() - start)
    return times


def factor(samples):
    """NOMINAL_S over the geometric mean of the per-kind medians of `samples`.

    Times multiplied by it read as on a machine where that mean is NOMINAL_S.
    """
    medians = [statistics.median(column) for column in zip(*samples)]
    return NOMINAL_S / math.exp(statistics.fmean(math.log(m) for m in medians))
